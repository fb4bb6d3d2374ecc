//! Deterministic simulation testing (DST) for the event engine.
//!
//! The paper's guarantees are schedule-free: Theorem 2's optimal-path
//! delivery and Theorem 4's infeasibility detection must hold under
//! *every* interleaving of delivery, loss, duplication, and fault
//! events, not just the ones a FIFO run happens to produce. This module
//! supplies the three DST ingredients in FoundationDB style:
//!
//! 1. a pluggable [`Scheduler`] that owns same-tick delivery order and
//!    may adversarially stretch latencies or inject loss/duplication
//!    bursts, all derived from a single `u64` seed
//!    ([`AdversarialScheduler`]) — the default [`FifoScheduler`]
//!    reproduces the engine's historical order bit-for-bit;
//! 2. an [`Invariant`] hook checked at every quiescent point (after the
//!    last event of each virtual tick) via
//!    [`crate::event::EventEngine::run_checked`];
//! 3. a delta-debugging shrinker ([`shrink_injections`]) that reduces a
//!    failing injected-event list to a 1-minimal reproducer, so a
//!    violation replays from `seed + trace` alone.
//!
//! Everything here is a pure function of its inputs: same seed, same
//! schedule, same verdict — on any machine, at any thread count.

use crate::channel::{mix, uniform_inclusive, unit, LinkFate};
use crate::event::{Actor, EventEngine, Time};
use hypersafe_topology::Topology;
use std::fmt;

/// Decides same-tick delivery order and per-message adversarial
/// perturbation. Installed into an engine via
/// [`crate::event::RunOptions::sched`]; the engine consults it
/// for every enqueued event (messages *and* timers) and every send
/// across a usable link.
pub trait Scheduler {
    /// Tiebreak key for an event enqueued with engine sequence number
    /// `seq` toward node `dst`. Events at equal virtual time are
    /// processed in ascending `(key, seq)` order, so returning `seq`
    /// preserves FIFO order and returning a seeded hash permutes every
    /// same-tick batch.
    fn order_key(&mut self, seq: u64, dst: u64) -> u64;

    /// Adversarial fate applied to a message crossing `src → dst` at
    /// time `now`, *on top of* the channel model's own fate: extra
    /// stretch adds to the channel jitter, loss and duplication compose
    /// with it. The default is no perturbation.
    fn perturb(&mut self, _now: Time, _src: u64, _dst: u64) -> LinkFate {
        LinkFate::CLEAN
    }
}

/// The engine's historical behaviour: strict FIFO within a tick
/// (ordering by `(time, seq, seq)` equals ordering by `(time, seq)`),
/// no perturbation. Golden traces recorded before the scheduler
/// existed replay byte-identically under this scheduler.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn order_key(&mut self, seq: u64, _dst: u64) -> u64 {
        seq
    }
}

/// A seeded adversary over the schedule space. From one `u64` seed it
/// derives, deterministically:
///
/// - a pseudo-random permutation of every same-tick delivery batch
///   (the `order_key` is a hash of the seed, a call counter, and the
///   destination);
/// - a latency stretch of `0..=max_stretch` extra ticks per message;
/// - optional *finite* loss and duplication burst windows (`[0,
///   until)` in virtual time) during which messages are additionally
///   lost / duplicated with the configured probability.
///
/// Burst windows are finite so that ARQ-protected protocols still
/// converge: after the window closes the adversary only reorders and
/// delays, which the paper's model (and any correct protocol) must
/// tolerate. Protocols that assume reliable links should face
/// [`AdversarialScheduler::permute`] (reorder + stretch only).
#[derive(Clone, Debug)]
pub struct AdversarialScheduler {
    seed: u64,
    counter: u64,
    max_stretch: Time,
    loss_until: Time,
    loss_p: f64,
    dup_until: Time,
    dup_p: f64,
}

impl AdversarialScheduler {
    /// A reorder-and-stretch adversary (no loss, no duplication): safe
    /// against protocols that assume the paper's reliable links.
    pub fn permute(seed: u64) -> Self {
        AdversarialScheduler {
            seed: mix(seed ^ 0x5EED_5C4E_D01E_D0C5),
            counter: 0,
            max_stretch: 1 + uniform_inclusive(mix(seed ^ 1), 2),
            loss_until: 0,
            loss_p: 0.0,
            dup_until: 0,
            dup_p: 0.0,
        }
    }

    /// The full adversary: everything [`AdversarialScheduler::permute`]
    /// does, plus loss and duplication bursts whose windows and
    /// intensities are themselves derived from `seed` (loss up to 35%
    /// and duplication up to 25%, each over a window of up to 64
    /// ticks). Pair with an ARQ-protected protocol.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = Self::permute(seed);
        s.loss_until = uniform_inclusive(mix(seed ^ 2), 64);
        s.loss_p = 0.35 * unit(mix(seed ^ 3));
        s.dup_until = uniform_inclusive(mix(seed ^ 4), 64);
        s.dup_p = 0.25 * unit(mix(seed ^ 5));
        s
    }

    /// Overrides the maximum per-message latency stretch.
    pub fn with_stretch(mut self, max_stretch: Time) -> Self {
        self.max_stretch = max_stretch;
        self
    }

    /// Overrides the loss burst: probability `p` until virtual time
    /// `until` (must be `< 1`: a window that eats everything forever
    /// would defeat even ARQ if `until` exceeded the give-up horizon).
    pub fn with_loss_burst(mut self, until: Time, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "burst loss must be in [0, 1)");
        self.loss_until = until;
        self.loss_p = p;
        self
    }

    /// Overrides the duplication burst window and probability.
    pub fn with_dup_burst(mut self, until: Time, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "burst duplication must be in [0, 1)"
        );
        self.dup_until = until;
        self.dup_p = p;
        self
    }

    fn draw(&mut self, salt: u64) -> u64 {
        self.counter += 1;
        mix(self
            .seed
            .wrapping_add(self.counter.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .wrapping_add(mix(salt)))
    }
}

impl Scheduler for AdversarialScheduler {
    fn order_key(&mut self, seq: u64, dst: u64) -> u64 {
        // A seeded hash: same-tick batches are processed in an order
        // that varies per seed but is identical across replays. `seq`
        // still breaks exact key collisions deterministically.
        let _ = seq;
        self.draw(dst.rotate_left(17) ^ 0xD1CE_D1CE_D1CE_D1CE)
    }

    fn perturb(&mut self, now: Time, src: u64, dst: u64) -> LinkFate {
        let base = self.draw(src.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dst.rotate_left(32));
        if now < self.loss_until && unit(mix(base ^ 1)) < self.loss_p {
            return LinkFate {
                lost: true,
                jitter: 0,
                duplicate: None,
            };
        }
        let jitter = if self.max_stretch == 0 {
            0
        } else {
            uniform_inclusive(mix(base ^ 2), self.max_stretch)
        };
        let duplicate = (now < self.dup_until && unit(mix(base ^ 3)) < self.dup_p)
            .then(|| uniform_inclusive(mix(base ^ 4), self.max_stretch.max(1)));
        LinkFate {
            lost: false,
            jitter,
            duplicate,
        }
    }
}

/// A property of the running simulation, checked at every quiescent
/// point (after the last event of each virtual tick, and once more
/// when the run ends) by
/// [`crate::event::EventEngine::run_checked`]. Implementations may
/// keep state across checks — e.g. remembering each node's previous
/// safety level to assert monotone convergence.
pub trait Invariant<T: Topology, A: Actor> {
    /// Short stable name, quoted in violation reports.
    fn name(&self) -> &'static str;

    /// Inspects the engine at a consistent cut. Returns `Err(detail)`
    /// to abort the run with an [`InvariantViolation`].
    fn check(&mut self, eng: &EventEngine<'_, T, A>) -> Result<(), String>;
}

/// A failed [`Invariant`] check: which invariant, when, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// [`Invariant::name`] of the failed check.
    pub invariant: String,
    /// Virtual time of the quiescent point that failed.
    pub time: Time,
    /// Events processed before the failure.
    pub events_processed: u64,
    /// Human-readable explanation from the invariant.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant '{}' violated at t={} (event {}): {}",
            self.invariant, self.time, self.events_processed, self.detail
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// Delta-debugging (`ddmin`) over an injected-event list: returns a
/// subsequence of `events` on which `fails` still returns `true`, and
/// which is 1-minimal — removing any single remaining element makes
/// the failure disappear. `fails` must be deterministic (in DST it
/// replays a seeded simulation, so it is). If the full list does not
/// fail, it is returned unchanged.
///
/// Complexity is the classic `O(k²)` reruns in the worst case; DST
/// reproducers are short enough that this is seconds, not hours.
pub fn shrink_injections<I: Clone>(events: &[I], mut fails: impl FnMut(&[I]) -> bool) -> Vec<I> {
    let mut current: Vec<I> = events.to_vec();
    if current.is_empty() || !fails(&current) {
        return current;
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<I> = current[..start]
                .iter()
                .chain(current[end..].iter())
                .cloned()
                .collect();
            if fails(&candidate) {
                current = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

/// A FIFO scheduler that records the `seq` of every `order_key` call,
/// for tests of the event loops' key draws.
#[cfg(test)]
pub(crate) struct Recording(pub(crate) std::rc::Rc<std::cell::RefCell<Vec<u64>>>);

#[cfg(test)]
impl Scheduler for Recording {
    fn order_key(&mut self, seq: u64, _dst: u64) -> u64 {
        self.0.borrow_mut().push(seq);
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_key_is_sequence_number() {
        let mut s = FifoScheduler;
        for seq in [0, 1, 7, u64::MAX] {
            assert_eq!(s.order_key(seq, 3), seq);
        }
        assert_eq!(s.perturb(0, 0, 1), LinkFate::CLEAN);
    }

    #[test]
    fn adversary_is_deterministic_per_seed() {
        let mut a = AdversarialScheduler::from_seed(42);
        let mut b = AdversarialScheduler::from_seed(42);
        for k in 0..200 {
            assert_eq!(a.order_key(k, k % 5), b.order_key(k, k % 5));
            assert_eq!(a.perturb(k, k % 3, k % 7), b.perturb(k, k % 3, k % 7));
        }
    }

    #[test]
    fn different_seeds_permute_differently() {
        let mut a = AdversarialScheduler::permute(1);
        let mut b = AdversarialScheduler::permute(2);
        let diff = (0..100)
            .filter(|&k| a.order_key(k, 0) != b.order_key(k, 0))
            .count();
        assert!(diff > 90, "only {diff}/100 keys differ");
    }

    #[test]
    fn permute_never_loses_or_duplicates() {
        let mut s = AdversarialScheduler::permute(0xFEED);
        for k in 0..500 {
            let f = s.perturb(k, k % 4, (k + 1) % 4);
            assert!(!f.lost);
            assert!(f.duplicate.is_none());
            assert!(f.jitter <= s.max_stretch);
        }
    }

    #[test]
    fn bursts_end_at_their_window() {
        let mut s = AdversarialScheduler::from_seed(9)
            .with_loss_burst(10, 0.9)
            .with_dup_burst(10, 0.9);
        let lost_in = (0..200).filter(|_| s.perturb(5, 0, 1).lost).count();
        assert!(lost_in > 100, "burst window should lose plenty");
        for _ in 0..200 {
            let f = s.perturb(10, 0, 1);
            assert!(!f.lost, "window is half-open: t=10 is outside");
            assert!(f.duplicate.is_none());
        }
    }

    #[test]
    fn shrinker_finds_minimal_pair() {
        let events: Vec<u32> = (0..100).collect();
        let mut runs = 0;
        let shrunk = shrink_injections(&events, |c| {
            runs += 1;
            c.contains(&13) && c.contains(&57)
        });
        assert_eq!(shrunk, vec![13, 57]);
        assert!(runs < 200, "ddmin should not brute-force ({runs} runs)");
    }

    #[test]
    fn shrinker_result_is_one_minimal() {
        let events: Vec<u32> = (0..64).collect();
        let fails = |c: &[u32]| c.iter().filter(|&&x| x % 9 == 0).count() >= 3;
        let shrunk = shrink_injections(&events, fails);
        assert!(fails(&shrunk));
        for i in 0..shrunk.len() {
            let mut without = shrunk.clone();
            without.remove(i);
            assert!(!fails(&without), "removing {} still fails", shrunk[i]);
        }
    }

    #[test]
    fn shrinker_keeps_non_failing_input() {
        let events = vec![1, 2, 3];
        assert_eq!(shrink_injections(&events, |_| false), events);
        let empty: Vec<u32> = vec![];
        assert!(shrink_injections(&empty, |_| true).is_empty());
    }

    #[test]
    fn shrinker_handles_singleton_cause() {
        let events: Vec<u32> = (0..33).collect();
        let shrunk = shrink_injections(&events, |c| c.contains(&17));
        assert_eq!(shrunk, vec![17]);
    }
}
