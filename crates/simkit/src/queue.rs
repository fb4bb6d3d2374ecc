//! The one event queue behind both event loops ([`crate::event::EventEngine`]
//! and [`crate::service::RoutingService`]): an exact `(time, key, seq)`
//! priority queue built as a timing wheel (Varghese & Lauck, "Hashed and
//! hierarchical timing wheels", SOSP 1987).
//!
//! * **Ring.** `W` per-tick buckets cover the window `[cursor, horizon)`;
//!   tick `t` lives in bucket `t % W`, sorted by `(key, seq)`. A push
//!   whose `(key, seq)` is not below the bucket's tail appends — under the
//!   FIFO scheduler (`key = seq`) that is nearly every push — otherwise it
//!   does a sorted insert into the (small) bucket.
//! * **Far run.** Events pushed at or past `horizon` wait in a run sorted by
//!   `(time, key, seq)` and consumed from the front. A push that lands
//!   near either end of the run is an append or a short shift; one that
//!   would shift many entries goes to a sorted spill instead, so no push
//!   order goes quadratic.
//! * **Pop.** Takes the current bucket's head, stepping the cursor over
//!   empty buckets; a far event due at the cursor's tick competes with it
//!   on `(key, seq)`, so far events pop straight from the run and are
//!   never copied into the ring. With the ring empty, pop jumps to the
//!   far head. Buckets keep their capacity, so payload storage is reused.
//!
//! Pops come out in exactly ascending `(time, key, seq)` order, as from a
//! binary min-heap over the same triples.

use crate::event::Time;
use std::collections::{BTreeMap, VecDeque};

/// Ticks covered by the ring.
const W: Time = 128;

/// Longest far-run shift a push may make before it spills instead.
const MAX_SHIFT: usize = 32;

/// A ring entry; its tick is the bucket's.
struct Slot<T> {
    key: u64,
    seq: u64,
    payload: T,
}

/// A far-run entry.
struct Far<T> {
    time: Time,
    key: u64,
    seq: u64,
    payload: T,
}

impl<T> Far<T> {
    fn order(&self) -> (Time, u64, u64) {
        (self.time, self.key, self.seq)
    }
}

/// Exact `(time, key, seq)` min-queue. `seq` must be unique per push; it
/// need not grow. The routing service pushes a request's deadline with
/// the `seq` it drew at admission, after younger events.
pub(crate) struct EventQueue<T> {
    /// `W` buckets once the first pop has placed the window; empty
    /// before, so everything pushed up front goes to the far run.
    ring: Box<[VecDeque<Slot<T>>]>,
    ring_len: usize,
    /// First tick of the window: the time of the last pop.
    cursor: Time,
    /// One past the window's last tick (`cursor + W`, saturating).
    horizon: Time,
    /// Events pushed at or past the `horizon` of their push, sorted by
    /// `(time, key, seq)`; they stay here until popped.
    far: VecDeque<Far<T>>,
    /// Far events whose sorted insert would have shifted more than
    /// `MAX_SHIFT` entries.
    spill: BTreeMap<(Time, u64, u64), T>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            ring: Box::default(),
            ring_len: 0,
            cursor: 0,
            horizon: 0,
            far: VecDeque::new(),
            spill: BTreeMap::new(),
        }
    }
}

impl<T> EventQueue<T> {
    /// Room for `additional` more far-run pushes (the events a loop
    /// loads before its first pop).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.far.reserve(additional);
    }

    /// Whether no event is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.ring_len == 0 && self.far.is_empty() && self.spill.is_empty()
    }

    /// Queues `payload` at `time` with same-tick order `(key, seq)`. A
    /// `time` before the last pop's is queued at the last pop's time.
    #[inline]
    pub(crate) fn push(&mut self, time: Time, key: u64, seq: u64, payload: T) {
        let time = time.max(self.cursor);
        if time < self.horizon {
            let bucket = &mut self.ring[(time % W) as usize];
            let slot = Slot { key, seq, payload };
            match bucket.back() {
                Some(last) if (key, seq) < (last.key, last.seq) => {
                    let i = bucket.partition_point(|s| (s.key, s.seq) < (key, seq));
                    bucket.insert(i, slot);
                }
                _ => bucket.push_back(slot),
            }
            self.ring_len += 1;
            return;
        }
        let entry = Far {
            time,
            key,
            seq,
            payload,
        };
        match self.far.back() {
            Some(last) if entry.order() < last.order() => self.insert_far(entry),
            _ => self.far.push_back(entry),
        }
    }

    /// Sorted insert of a far event that belongs before the run's tail.
    /// Most land a few entries back, found by a short backward scan.
    fn insert_far(&mut self, entry: Far<T>) {
        let key = entry.order();
        let len = self.far.len();
        let scan = len.min(MAX_SHIFT + 1);
        let i = match (2..=scan).find(|&k| self.far[len - k].order() < key) {
            Some(k) => len - k + 1,
            None if scan == len => 0,
            None => self.far.partition_point(|f| f.order() < key),
        };
        if i.min(len - i) <= MAX_SHIFT {
            self.far.insert(i, entry);
        } else {
            self.spill.insert(key, entry.payload);
        }
    }

    /// Removes the earliest event: `(time, seq, payload)`.
    pub(crate) fn pop(&mut self) -> Option<(Time, u64, T)> {
        if self.ring_len == 0 {
            // Jump: the far head is the global minimum.
            let f = self.pop_far()?;
            if self.ring.is_empty() {
                self.ring = (0..W).map(|_| VecDeque::new()).collect();
            }
            self.move_window(f.time);
            return Some((f.time, f.seq, f.payload));
        }
        loop {
            // A far event due at the cursor's tick competes with the
            // bucket's head on `(key, seq)`.
            let due = self.far_head().filter(|&(t, _, _)| t == self.cursor);
            let bucket = &mut self.ring[(self.cursor % W) as usize];
            let from_ring = match (bucket.front(), due) {
                (Some(s), Some((_, key, seq))) => (s.key, s.seq) < (key, seq),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => {
                    // A nonempty ring holds a tick below `horizon`, so
                    // this cannot overflow.
                    self.move_window(self.cursor + 1);
                    continue;
                }
            };
            if from_ring {
                let s = bucket.pop_front().expect("bucket head");
                self.ring_len -= 1;
                return Some((self.cursor, s.seq, s.payload));
            }
            let f = self.pop_far().expect("far head");
            return Some((f.time, f.seq, f.payload));
        }
    }

    /// Time of the earliest event, without moving the cursor.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        let ring = match self.ring_len {
            0 => None,
            _ => (self.cursor..self.horizon).find(|&t| !self.ring[(t % W) as usize].is_empty()),
        };
        earliest(ring, self.far_head().map(|(t, _, _)| t))
    }

    fn move_window(&mut self, cursor: Time) {
        self.cursor = cursor;
        self.horizon = cursor.saturating_add(W);
    }

    /// `(time, key, seq)` of the earliest far event.
    fn far_head(&self) -> Option<(Time, u64, u64)> {
        let run = self.far.front().map(Far::order);
        earliest(run, self.spill.first_key_value().map(|(&k, _)| k))
    }

    fn pop_far(&mut self) -> Option<Far<T>> {
        let head = self.far_head()?;
        if self.far.front().is_some_and(|f| f.order() == head) {
            return self.far.pop_front();
        }
        let ((time, key, seq), payload) = self.spill.pop_first()?;
        Some(Far {
            time,
            key,
            seq,
            payload,
        })
    }
}

fn earliest<K: Ord>(a: Option<K>, b: Option<K>) -> Option<K> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Where a push lands relative to the last popped time.
    fn offset(kind: u8, raw: u64) -> Time {
        match kind % 5 {
            0 => 0,                 // at now
            1 => raw % W,           // inside the window
            2 => W - 1 + raw % 3,   // at the window edge
            3 => W + raw % 100_000, // far ahead
            _ => Time::MAX,         // saturates to Time::MAX
        }
    }

    /// Runs `ops` against the queue and a reference ordered set of the
    /// (unique) `(time, key, seq)` triples, a min-priority queue in all
    /// but name; every pop and peek must agree. With `late`, half the
    /// pushes instead either draw a `(key, seq)` and hold it back, or
    /// push a held-back one, older than later draws, strictly after the
    /// last pop's time: a deadline the service queues only on a retry.
    fn check_against_reference(
        ops: &[(u8, u8, u64, u64)],
        fifo_keys: bool,
        late: bool,
    ) -> Result<(), TestCaseError> {
        let mut q = EventQueue::default();
        let mut reference = BTreeSet::new();
        let mut held = Vec::new();
        let (mut now, mut seq) = (0 as Time, 0u64);
        for &(op, kind, raw, key) in ops {
            let key = if fifo_keys { seq } else { key % 8 };
            match op % 4 {
                1 if late && held.is_empty() => {
                    held.push((key, seq));
                    seq += 1;
                }
                1 if late => {
                    let (key, old) = held.swap_remove(raw as usize % held.len());
                    let time = now.saturating_add(offset(kind, raw).max(1));
                    q.push(time, key, old, old);
                    reference.insert((time, key, old));
                }
                0 | 1 => {
                    let time = now.saturating_add(offset(kind, raw));
                    q.push(time, key, seq, seq);
                    reference.insert((time, key, seq));
                    seq += 1;
                }
                2 => {
                    let want = reference.pop_first().map(|(t, _, s)| (t, s, s));
                    prop_assert_eq!(q.pop(), want);
                    if let Some((t, _, _)) = want {
                        now = t;
                    }
                }
                _ => {
                    let want = reference.first().map(|&(t, _, _)| t);
                    prop_assert_eq!(q.peek_time(), want);
                }
            }
            prop_assert_eq!(q.is_empty(), reference.is_empty());
        }
        while let Some((t, _, s)) = reference.pop_first() {
            prop_assert_eq!(q.pop(), Some((t, s, s)));
        }
        prop_assert_eq!(q.pop(), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pops_in_order_with_fifo_keys(
            ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 0..400),
        ) {
            check_against_reference(&ops, true, false)?;
        }

        #[test]
        fn pops_in_order_with_random_keys(
            ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 0..400),
        ) {
            check_against_reference(&ops, false, false)?;
        }

        #[test]
        fn pops_in_order_with_late_pushes_of_older_seqs(
            ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 0..400),
        ) {
            check_against_reference(&ops, true, true)?;
            check_against_reference(&ops, false, true)?;
        }
    }

    #[test]
    fn push_before_the_last_pop_is_queued_at_its_time() {
        let mut q = EventQueue::default();
        q.push(10, 0, 0, 'a');
        q.push(500, 1, 1, 'b');
        assert_eq!(q.pop(), Some((10, 0, 'a')));
        q.push(3, 2, 2, 'c');
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, 2, 'c')));
        assert_eq!(q.pop(), Some((500, 1, 'b')));
    }

    /// Pushes `times` in order, pops everything, and checks the pops
    /// come out sorted within a generous time bound.
    fn push_all_then_drain(times: impl Iterator<Item = Time>) {
        let start = std::time::Instant::now();
        let mut q = EventQueue::default();
        let mut n = 0;
        for (seq, t) in times.enumerate() {
            q.push(t, seq as u64, seq as u64, ());
            n += 1;
        }
        let mut last = 0;
        for _ in 0..n {
            let (t, _, ()) = q.pop().expect("queued");
            assert!(t >= last);
            last = t;
        }
        assert!(q.is_empty());
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{n} pushes took {elapsed:?}"
        );
    }

    #[test]
    fn out_of_order_pushes_stay_subquadratic() {
        const N: u64 = 100_000;
        // Strictly descending: every push lands at the front.
        push_all_then_drain((0..N).rev().map(|t| t * 3));
        // Evens ascending, then odds descending: every odd push lands
        // deeper into the middle of the run.
        const M: u64 = 2 * N;
        push_all_then_drain(
            (0..M / 2)
                .map(|k| 2 * k)
                .chain((0..M / 2).rev().map(|k| 2 * k + 1)),
        );
    }
}
