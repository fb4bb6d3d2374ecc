//! Packed safety-level storage: the `LevelStore` seam.
//!
//! The paper's safety levels live in `0..=n` with `n ≤ 30`
//! ([`MAX_DIM`]), so a level fits in ⌈log₂(n+1)⌉ ≤ 5 bits — yet the
//! original `SafetyMap` spent a whole byte per node, which caps
//! experiments near n=14 (16K nodes) long before the arithmetic does.
//! This module packs levels into:
//!
//! - a **nibble array** (`Vec<u64>`, 16 four-bit fields per word)
//!   holding level bits 0–3, plus
//! - a **fifth-bit plane** (`Vec<u64>`, 64 one-bit fields per word)
//!   holding level bit 4, allocated only when `n > 15`.
//!
//! That is 4 bits/node for n ≤ 15 and 4 + 1 = 5 bits/node above — at
//! most **0.625 bytes/node**, comfortably under the 1 byte/node
//! ceiling the scale experiment (E27) gates on, and small enough that
//! an n=20 cube's entire map (1M nodes) is 640 KiB: resident in L2
//! on most parts.
//!
//! The split layout is deliberate: 4-bit fields tile a 64-bit word
//! evenly (16 per word) and one fifth-bit word covers exactly four
//! nibble words (64 nodes), so every conversion below works on
//! aligned whole words with shift/mask networks — no 5-bit fields
//! straddling word boundaries.
//!
//! [`PlaneView`] is the compute-side companion: a full bit-plane
//! transposition (one `u64` bitmask per level *bit*, 64 nodes per
//! word) used by the plane kernels in [`crate::safety`]. In plane
//! form, "the level of node `a ^ 2^d`" is a word shuffle — an
//! in-word delta swap for `d < 6`, an XOR-indexed word load for
//! `d ≥ 6` — and the paper's "more than k neighbors below k" rule
//! becomes branchless bit-sliced counting (see DESIGN.md §13 for the
//! derivation).
//!
//! [`NeighborLevels`] is the third piece: a fixed-size packed record
//! of one level per dimension (5 bits each), replacing the per-actor
//! `Vec<Level>` "heard" tables in the distributed GS/delta-GS actors
//! so a million simulated actors don't pay a heap allocation plus 30
//! bytes each.

use crate::safety::Level;
use hypersafe_topology::MAX_DIM;

/// Nodes per nibble word (4-bit fields in a `u64`).
const NIB_PER_WORD: u64 = 16;
/// Nodes per plane word (1-bit fields in a `u64`).
const BITS_PER_WORD: u64 = 64;

/// Packed array of safety levels, at most 0.625 bytes/node. See the
/// module docs for the layout. Equality is structural: two stores compare
/// equal iff they have the same length, the same level ceiling, and
/// byte-identical packed words — which (because trailing bits are
/// kept zero) is exactly "same levels at every index".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelStore {
    /// Level ceiling: stored values are `0..=max_level`.
    max_level: u8,
    /// Number of levels stored.
    len: u64,
    /// Level bits 0–3, sixteen 4-bit fields per word. Fields past
    /// `len` are zero (enforced by every constructor and mutator).
    nibbles: Vec<u64>,
    /// Level bit 4, one bit per node; empty when `max_level ≤ 15`.
    high: Vec<u64>,
}

impl LevelStore {
    /// An all-zero store for `len` levels in `0..=max_level`.
    ///
    /// # Panics
    ///
    /// If `max_level > MAX_DIM` (levels no longer fit in 5 bits).
    pub fn zeroed(max_level: u8, len: u64) -> Self {
        assert!(
            max_level <= MAX_DIM,
            "levels above {MAX_DIM} don't fit the packed layout"
        );
        let nib_words = len.div_ceil(NIB_PER_WORD) as usize;
        let high = if max_level > 15 {
            vec![0u64; len.div_ceil(BITS_PER_WORD) as usize]
        } else {
            Vec::new()
        };
        LevelStore {
            max_level,
            len,
            nibbles: vec![0u64; nib_words],
            high,
        }
    }

    /// Level `max_level` at every index except those set in `zero`
    /// (64 indices per word, ascending — a fault set's words), which
    /// get 0: the paper's Jacobi start, built word by word from the
    /// bitmap with no transpose. Words missing from a shorter `zero`
    /// read as 0, and words past `len` are ignored.
    ///
    /// # Panics
    ///
    /// If `max_level > MAX_DIM`.
    pub fn ceiling_except(max_level: u8, len: u64, zero: &[u64]) -> Self {
        let mut s = Self::zeroed(max_level, len);
        let fill = (max_level & 0xF) as u64;
        for pw in 0..len.div_ceil(BITS_PER_WORD) as usize {
            let base = pw as u64 * BITS_PER_WORD;
            let keep = !zero.get(pw).copied().unwrap_or(0) & tail_mask(len - base);
            for (q, nib) in s.nibbles.iter_mut().skip(pw * 4).take(4).enumerate() {
                // expand16 puts a 1 in each kept field; a level ≤ 15
                // times it fills the field without carrying.
                *nib = expand16(keep >> (16 * q)) * fill;
            }
            if max_level > 15 {
                s.high[pw] = keep;
            }
        }
        s
    }

    /// Packs a plain byte-per-level slice.
    ///
    /// # Panics
    ///
    /// If any level exceeds `max_level`.
    pub fn from_levels(max_level: u8, levels: &[Level]) -> Self {
        let mut s = Self::zeroed(max_level, levels.len() as u64);
        for (i, &l) in levels.iter().enumerate() {
            s.set(i as u64, l);
        }
        s
    }

    /// Number of levels stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The level ceiling this store was sized for.
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// Heap bytes held by the packed words — the store's marginal
    /// memory cost (the fixed header is two machine words).
    pub fn memory_bytes(&self) -> u64 {
        8 * (self.nibbles.len() as u64 + self.high.len() as u64)
    }

    /// The level at index `i`: one nibble load, plus one bit load
    /// when the ceiling needs a fifth bit.
    #[inline]
    pub fn get(&self, i: u64) -> Level {
        debug_assert!(i < self.len);
        let nib = (self.nibbles[(i / NIB_PER_WORD) as usize] >> ((i % NIB_PER_WORD) * 4)) & 0xF;
        if self.max_level > 15 {
            let hi = (self.high[(i / BITS_PER_WORD) as usize] >> (i % BITS_PER_WORD)) & 1;
            (nib | (hi << 4)) as Level
        } else {
            nib as Level
        }
    }

    /// Stores level `l` at index `i`.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds or `l` exceeds the ceiling.
    #[inline]
    pub fn set(&mut self, i: u64, l: Level) {
        assert!(i < self.len, "index {i} out of bounds for len {}", self.len);
        assert!(
            l <= self.max_level,
            "level {l} exceeds ceiling {}",
            self.max_level
        );
        let shift = (i % NIB_PER_WORD) * 4;
        let w = &mut self.nibbles[(i / NIB_PER_WORD) as usize];
        *w = (*w & !(0xFu64 << shift)) | ((l as u64 & 0xF) << shift);
        if self.max_level > 15 {
            let b = &mut self.high[(i / BITS_PER_WORD) as usize];
            *b = (*b & !(1u64 << (i % BITS_PER_WORD))) | (((l as u64) >> 4) << (i % BITS_PER_WORD));
        }
    }

    /// Unpacks into a byte-per-level vector (test/bridge convenience;
    /// the hot paths stay packed).
    pub fn to_vec(&self) -> Vec<Level> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// How many stored levels equal `l` — popcount over the packed
    /// words, no per-node branching.
    pub fn count_eq(&self, l: Level) -> u64 {
        (0..self.len.div_ceil(BITS_PER_WORD) as usize)
            .map(|pw| self.eq_word(pw, l).count_ones() as u64)
            .sum()
    }

    /// Indices whose level equals `l`, ascending. Allocation-free:
    /// one SWAR equality mask per 64-node word, then set-bit walks.
    pub fn iter_eq(&self, l: Level) -> impl Iterator<Item = u64> + '_ {
        (0..self.len.div_ceil(BITS_PER_WORD) as usize).flat_map(move |pw| {
            let base = pw as u64 * BITS_PER_WORD;
            SetBits(self.eq_word(pw, l)).map(move |b| base + b as u64)
        })
    }

    /// One mask per 64 nodes, ascending: bit `j` of the `pw`-th is set
    /// iff the levels of node `64·pw + j` differ between `self` and
    /// `other`. Word-parallel: packed words are XORed and only words
    /// that differ are decoded, so two stores that agree almost
    /// everywhere cost one XOR per word.
    ///
    /// # Panics
    ///
    /// If the two stores differ in length or level ceiling.
    pub fn diff_words<'a>(&'a self, other: &'a LevelStore) -> impl Iterator<Item = u64> + 'a {
        assert!(
            self.len == other.len && self.max_level == other.max_level,
            "diff_words needs stores of one shape"
        );
        (0..self.len.div_ceil(BITS_PER_WORD) as usize).map(move |pw| {
            let mut diff = 0u64;
            for q in 0..4 {
                let ni = pw * 4 + q;
                if ni >= self.nibbles.len() {
                    break;
                }
                let x = self.nibbles[ni] ^ other.nibbles[ni];
                if x != 0 {
                    diff |= compact16(nonzero_nibbles(x), 3) << (16 * q);
                }
            }
            if self.max_level > 15 {
                diff |= self.high[pw] ^ other.high[pw];
            }
            diff
        })
    }

    /// Touches every packed word, pulling the store into cache ahead
    /// of a read-heavy pass (the per-chunk warm-up `route_many` does
    /// before draining a batch). Returns a fold of the words so the
    /// traversal can't be optimized away.
    #[inline(never)]
    pub fn warm(&self) -> u64 {
        let mut acc = 0u64;
        for &w in &self.nibbles {
            acc ^= w;
        }
        for &w in &self.high {
            acc ^= w;
        }
        acc
    }

    /// The equality bitmask for 64-node word `pw`: bit `j` is set iff
    /// level `64·pw + j` equals `l`. The workhorse behind
    /// [`count_eq`](Self::count_eq) and [`iter_eq`](Self::iter_eq) —
    /// one SWAR compare per four nibble words.
    fn eq_word(&self, pw: usize, l: Level) -> u64 {
        let mut eq = 0u64;
        for q in 0..4 {
            let ni = pw * 4 + q;
            if ni >= self.nibbles.len() {
                break;
            }
            eq |= nibble_eq_mask(self.nibbles[ni], l & 0xF) << (16 * q);
        }
        if self.max_level > 15 {
            eq &= if l & 0x10 != 0 {
                self.high[pw]
            } else {
                !self.high[pw]
            };
        }
        // Trailing (past-len) fields are zero, so they'd spuriously
        // match l == 0 — mask them off.
        let base = pw as u64 * BITS_PER_WORD;
        if base + BITS_PER_WORD > self.len {
            eq &= tail_mask(self.len - base);
        }
        eq
    }
}

/// Iterator over the set-bit positions of one word, ascending.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// Bitmask (16 result bits) of which 4-bit fields of `w` equal `nib`:
/// XOR against a broadcast of `nib`, then collapse each zero field to
/// a single set bit via the standard SWAR zero-field test.
#[inline]
fn nibble_eq_mask(w: u64, nib: u8) -> u64 {
    let x = w ^ (0x1111_1111_1111_1111u64 * nib as u64);
    compact16(!nonzero_nibbles(x), 3)
}

/// Bit 3 of each 4-bit field of the result is set iff that field of
/// `x` is nonzero. Exact per field (no cross-field borrows, unlike the
/// classic `(x - 1…1) & !x & 8…8`, which false-positives on a 1 field
/// after a 0 field): bit 3 of `(x&m)+m` is set iff the low three bits
/// are nonzero, and OR-ing `x` adds bit 3 itself. The other bits of
/// each field are unspecified.
#[inline]
fn nonzero_nibbles(x: u64) -> u64 {
    const M: u64 = 0x7777_7777_7777_7777;
    ((x & M) + M) | x
}

/// Mask of the low `k` bits (`k ≤ 64`), shift-overflow safe.
#[inline]
pub(crate) fn tail_mask(k: u64) -> u64 {
    if k >= 64 {
        !0
    } else {
        (1u64 << k) - 1
    }
}

/// Compacts bit `b` of each 4-bit field of `x` into the low 16 bits
/// of the result: result bit `j` = bit `4j + b` of `x`. This is the
/// stride-4 → contiguous SWAR gather used by the nibble↔plane
/// transpose; `expand16` is its exact inverse.
#[inline]
pub(crate) fn compact16(x: u64, b: u32) -> u64 {
    let mut x = (x >> b) & 0x1111_1111_1111_1111;
    x = (x | (x >> 3)) & 0x0303_0303_0303_0303;
    x = (x | (x >> 6)) & 0x000F_000F_000F_000F;
    x = (x | (x >> 12)) & 0x0000_00FF_0000_00FF;
    x = (x | (x >> 24)) & 0xFFFF;
    x
}

/// Inverse of [`compact16`]: spreads the low 16 bits of `x` to the
/// LSBs of sixteen 4-bit fields (caller shifts by `b` to place them).
#[inline]
pub(crate) fn expand16(x: u64) -> u64 {
    let mut x = x & 0xFFFF;
    x = (x | (x << 24)) & 0x0000_00FF_0000_00FF;
    x = (x | (x << 12)) & 0x000F_000F_000F_000F;
    x = (x | (x << 6)) & 0x0303_0303_0303_0303;
    x = (x | (x << 3)) & 0x1111_1111_1111_1111;
    x
}

/// Delta-swap masks for in-word neighbor gathers: `DSWAP_MASK[d]`
/// selects the lane whose bit `d` of the node index is 0, so
/// swapping it with its `1 << d`-shifted twin maps every node's bit
/// to its dimension-`d` neighbor's bit in one shift/mask network.
const DSWAP_MASK: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// For one plane word `x`, the word whose bit `j` is the plane bit of
/// node `j ^ 2^d` — valid for the in-word dimensions `d < 6`.
#[inline]
pub fn delta_swap(x: u64, d: u8) -> u64 {
    let sh = 1u32 << d;
    let m = DSWAP_MASK[d as usize];
    ((x >> sh) & m) | ((x & m) << sh)
}

/// Neighbor gather along dimension `d` for plane word `w`: dimensions
/// below 6 permute within the word, higher dimensions XOR-index the
/// word array — both branch-free per the ROADMAP's "neighbor levels
/// are a single XOR-indexed shuffle" scheme.
#[inline]
pub fn gather_neighbor_word(plane: &[u64], w: usize, d: u8) -> u64 {
    if d < 6 {
        delta_swap(plane[w], d)
    } else {
        plane[w ^ (1usize << (d - 6))]
    }
}

/// Adds the indicator word `x` into a 5-lane bit-sliced counter (64
/// independent 5-bit counters, one per node lane): a ripple-carry
/// half-adder chain, 3 ops per lane. Counts up to 31 — enough for
/// `n ≤ MAX_DIM` neighbors.
#[inline]
pub fn sliced_add(cnt: &mut [u64; 5], x: u64) {
    let mut carry = x;
    for lane in cnt.iter_mut() {
        let t = *lane & carry;
        *lane ^= carry;
        carry = t;
    }
    debug_assert_eq!(carry, 0, "bit-sliced counter overflowed 5 lanes");
}

/// Lanes where the bit-sliced counter exceeds the constant `k`
/// (`k < 32`): a bitwise magnitude compare unrolled over the 5 lanes,
/// MSB first.
#[inline]
pub fn sliced_gt_const(cnt: &[u64; 5], k: u32) -> u64 {
    let mut gt = 0u64;
    let mut eq = !0u64;
    for b in (0..5).rev() {
        if (k >> b) & 1 == 1 {
            eq &= cnt[b];
        } else {
            gt |= eq & cnt[b];
            eq &= !cnt[b];
        }
    }
    gt
}

/// Full bit-plane transposition of a [`LevelStore`]: `planes[b]` is a
/// bitmask over nodes of level bit `b`, 64 nodes per word. This is
/// the compute-side layout — the safety kernels in [`crate::safety`]
/// run entirely on `PlaneView`s and convert back once at the end.
///
/// Width is fixed at 4 planes for `max_level ≤ 15` and 5 above, so
/// kernel loops are uniform per cube size. Bits past `len` are zero
/// in every plane (same invariant as the store).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlaneView {
    max_level: u8,
    len: u64,
    /// Plane-major: `planes[b * words + w]`.
    planes: Vec<u64>,
    words: usize,
}

impl PlaneView {
    /// Number of planes (4 or 5).
    #[inline]
    pub fn bits(&self) -> u32 {
        if self.max_level > 15 {
            5
        } else {
            4
        }
    }

    /// Words per plane.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// An all-zero view shaped for `len` levels in `0..=max_level`.
    pub fn zeroed(max_level: u8, len: u64) -> Self {
        assert!(
            max_level <= MAX_DIM,
            "levels above {MAX_DIM} don't fit 5 planes"
        );
        let words = len.div_ceil(BITS_PER_WORD) as usize;
        let bits = if max_level > 15 { 5 } else { 4 };
        PlaneView {
            max_level,
            len,
            planes: vec![0u64; bits * words],
            words,
        }
    }

    /// Transposes a packed store into planes: each plane word gathers
    /// one nibble bit from four nibble words via `compact16`; the
    /// fifth plane, when present, is the store's high plane verbatim
    /// (that's the payoff of the nibble+high split).
    pub fn from_store(store: &LevelStore) -> Self {
        let mut v = Self::zeroed(store.max_level, store.len);
        for b in 0..4 {
            for pw in 0..v.words {
                let mut acc = 0u64;
                for q in 0..4 {
                    let ni = pw * 4 + q;
                    if ni >= store.nibbles.len() {
                        break;
                    }
                    acc |= compact16(store.nibbles[ni], b) << (16 * q);
                }
                v.plane_mut(b as usize)[pw] = acc;
            }
        }
        if v.bits() == 5 {
            v.plane_mut(4).copy_from_slice(&store.high);
        }
        v
    }

    /// Transposes back into the packed nibble+high layout (inverse of
    /// [`from_store`](Self::from_store)).
    pub fn to_store(&self) -> LevelStore {
        let mut s = LevelStore::zeroed(self.max_level, self.len);
        let nib_words = s.nibbles.len();
        for pw in 0..self.words {
            for q in 0..4 {
                let ni = pw * 4 + q;
                if ni >= nib_words {
                    break;
                }
                let mut w = 0u64;
                for b in 0..4 {
                    w |= expand16(self.plane(b)[pw] >> (16 * q)) << b;
                }
                s.nibbles[ni] = w;
            }
        }
        if self.bits() == 5 {
            s.high.copy_from_slice(self.plane(4));
        }
        s
    }

    /// Plane `b` as a word slice.
    #[inline]
    pub fn plane(&self, b: usize) -> &[u64] {
        &self.planes[b * self.words..(b + 1) * self.words]
    }

    /// Plane `b`, mutable.
    #[inline]
    pub fn plane_mut(&mut self, b: usize) -> &mut [u64] {
        &mut self.planes[b * self.words..(b + 1) * self.words]
    }

    /// The level encoded across planes at node index `i` (slow path,
    /// for tests and spot checks).
    pub fn get(&self, i: u64) -> Level {
        debug_assert!(i < self.len);
        let (w, j) = ((i / BITS_PER_WORD) as usize, i % BITS_PER_WORD);
        let mut l = 0u8;
        for b in 0..self.bits() as usize {
            l |= (((self.plane(b)[w] >> j) & 1) as u8) << b;
        }
        l
    }

    /// Bitmask of "what's valid in word `w`" — all-ones except for a
    /// trailing partial word (cubes with `n < 6`).
    #[inline]
    pub fn valid_mask(&self, w: usize) -> u64 {
        let base = w as u64 * BITS_PER_WORD;
        if base + BITS_PER_WORD > self.len {
            tail_mask(self.len - base)
        } else {
            !0
        }
    }
}

/// One packed 5-bit level per dimension — the per-actor "last level
/// heard from each neighbor" table for the distributed GS family.
/// Three words cover [`MAX_DIM`] + 1 dimensions with room to spare
/// (twelve 5-bit fields per word); `Copy`, no heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborLevels {
    words: [u64; 3],
}

impl NeighborLevels {
    /// All dimensions initialized to `fill`.
    #[inline]
    pub fn filled(n: u8, fill: Level) -> Self {
        let mut s = NeighborLevels { words: [0; 3] };
        for d in 0..n {
            s.set(d, fill);
        }
        s
    }

    /// The level last heard along dimension `d`.
    #[inline]
    pub fn get(&self, d: u8) -> Level {
        ((self.words[(d / 12) as usize] >> ((d % 12) * 5)) & 0x1F) as Level
    }

    /// Records `l` as the level heard along dimension `d`.
    #[inline]
    pub fn set(&mut self, d: u8, l: Level) {
        debug_assert!(l < 32, "level {l} doesn't fit 5 bits");
        let shift = (d % 12) * 5;
        let w = &mut self.words[(d / 12) as usize];
        *w = (*w & !(0x1Fu64 << shift)) | ((l as u64) << shift);
    }

    /// The stored levels for dimensions `0..n`, in dimension order.
    #[inline]
    pub fn iter(&self, n: u8) -> impl Iterator<Item = Level> + '_ {
        (0..n).map(move |d| self.get(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_expand_roundtrip_every_bit() {
        for b in 0..4 {
            // A recognizable stride-4 pattern plus noise in other bits.
            let x = 0x9137_ACE0_55F0_1234u64;
            let c = compact16(x, b);
            assert_eq!(c & !0xFFFF, 0, "compact16 output exceeds 16 bits");
            for j in 0..16 {
                assert_eq!((c >> j) & 1, (x >> (4 * j + b as usize)) & 1);
            }
            assert_eq!(compact16(expand16(c) << b, b), c);
        }
    }

    #[test]
    fn get_set_roundtrip_across_word_boundaries() {
        for max in [4u8, 15, 16, 20, 30] {
            let len = 200u64;
            let mut s = LevelStore::zeroed(max, len);
            for i in 0..len {
                s.set(i, ((i * 7 + 3) % (max as u64 + 1)) as Level);
            }
            for i in 0..len {
                assert_eq!(
                    s.get(i),
                    ((i * 7 + 3) % (max as u64 + 1)) as Level,
                    "i={i} max={max}"
                );
            }
            // Boundary levels at word-boundary indices.
            for i in [0, 15, 16, 63, 64, 127, 128, len - 1] {
                s.set(i, 0);
                assert_eq!(s.get(i), 0);
                s.set(i, max);
                assert_eq!(s.get(i), max);
            }
        }
    }

    #[test]
    fn memory_stays_under_a_byte_per_node() {
        for n in [4u8, 10, 15, 16, 20] {
            let len = 1u64 << n;
            let s = LevelStore::zeroed(n, len);
            let bytes_per_node = s.memory_bytes() as f64 / len as f64;
            assert!(
                bytes_per_node <= 1.0,
                "n={n}: {bytes_per_node} bytes/node exceeds the ceiling"
            );
        }
        // The headline numbers from DESIGN.md §13.
        assert_eq!(
            LevelStore::zeroed(14, 1 << 14).memory_bytes(),
            8 * (1 << 10)
        );
        assert_eq!(
            LevelStore::zeroed(20, 1 << 20).memory_bytes(),
            8 * ((1 << 16) + (1 << 14))
        );
    }

    #[test]
    fn count_and_iter_eq_match_scalar_scan() {
        for max in [7u8, 15, 20] {
            let len = 150u64;
            let levels: Vec<Level> = (0..len)
                .map(|i| ((i * 13 + 5) % (max as u64 + 1)) as Level)
                .collect();
            let s = LevelStore::from_levels(max, &levels);
            for l in 0..=max {
                let want: Vec<u64> = (0..len).filter(|&i| levels[i as usize] == l).collect();
                assert_eq!(s.count_eq(l), want.len() as u64, "l={l} max={max}");
                assert_eq!(s.iter_eq(l).collect::<Vec<_>>(), want, "l={l} max={max}");
            }
        }
    }

    #[test]
    fn diff_words_match_scalar_scan() {
        // Lengths off the nibble and plane word boundaries, with and
        // without the fifth-bit plane; edits at word edges and a pair
        // that differs only in bit 4.
        for (max, len) in [(4u8, 5u64), (15, 150), (20, 200)] {
            let a: Vec<Level> = (0..len)
                .map(|i| ((i * 7 + 1) % (max as u64 + 1)) as Level)
                .collect();
            let mut b = a.clone();
            for i in [0, 15, 16, 63, 64, len - 1] {
                if i < len {
                    b[i as usize] = (b[i as usize] + 1) % (max + 1);
                }
            }
            if max > 15 {
                assert_eq!(a[99], 1);
                b[99] = 17;
            }
            let (sa, sb) = (
                LevelStore::from_levels(max, &a),
                LevelStore::from_levels(max, &b),
            );
            let want: Vec<u64> = (0..len)
                .filter(|&i| a[i as usize] != b[i as usize])
                .collect();
            let diff = |x: &LevelStore, y: &LevelStore| -> Vec<u64> {
                x.diff_words(y)
                    .enumerate()
                    .flat_map(|(w, m)| SetBits(m).map(move |j| w as u64 * 64 + j as u64))
                    .collect()
            };
            assert_eq!(diff(&sa, &sb), want, "max={max}");
            assert_eq!(diff(&sb, &sa), want, "max={max}");
            assert!(sa.diff_words(&sa).all(|m| m == 0));
        }
    }

    #[test]
    fn ceiling_except_matches_from_levels() {
        // Lengths off the nibble and plane word boundaries, with and
        // without the fifth-bit plane, ceilings with even and odd low
        // nibbles.
        for (max, len) in [
            (1u8, 2u64),
            (4, 5),
            (7, 150),
            (15, 64),
            (16, 200),
            (30, 130),
        ] {
            let zero: Vec<u64> = (0..len.div_ceil(64))
                .map(|w| 0x9E37_79B9_7F4A_7C15u64.rotate_left(w as u32 * 7))
                .collect();
            let want: Vec<Level> = (0..len)
                .map(|i| {
                    if (zero[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
                        0
                    } else {
                        max
                    }
                })
                .collect();
            assert_eq!(
                LevelStore::ceiling_except(max, len, &zero),
                LevelStore::from_levels(max, &want),
                "max={max} len={len}"
            );
            // A bitmap one word long reads as clear past that word.
            let short: Vec<Level> = (0..len)
                .map(|i| if i < 64 { want[i as usize] } else { max })
                .collect();
            assert_eq!(
                LevelStore::ceiling_except(max, len, &zero[..1]),
                LevelStore::from_levels(max, &short),
                "max={max} len={len}, one word"
            );
        }
    }

    #[test]
    fn count_eq_zero_excludes_trailing_padding() {
        // 5 real zero-level nodes; the other 59 fields of the word are
        // padding that must not count.
        let s = LevelStore::from_levels(10, &[0, 0, 0, 0, 0]);
        assert_eq!(s.count_eq(0), 5);
        assert_eq!(s.iter_eq(0).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn plane_view_roundtrips_and_exposes_bits() {
        for max in [6u8, 15, 16, 20] {
            let len = 130u64;
            let levels: Vec<Level> = (0..len)
                .map(|i| ((i * 11 + 2) % (max as u64 + 1)) as Level)
                .collect();
            let s = LevelStore::from_levels(max, &levels);
            let v = PlaneView::from_store(&s);
            for (i, &l) in levels.iter().enumerate() {
                assert_eq!(v.get(i as u64), l, "i={i} max={max}");
                for b in 0..v.bits() as usize {
                    assert_eq!(
                        (v.plane(b)[i / 64] >> (i % 64)) & 1,
                        ((l as u64) >> b) & 1,
                        "plane bit mismatch at i={i} b={b}"
                    );
                }
            }
            assert_eq!(v.to_store(), s, "plane roundtrip must be exact (max={max})");
        }
    }

    #[test]
    fn delta_swap_matches_index_xor() {
        let x = 0xDEAD_BEEF_0BAD_F00Du64;
        for d in 0..6u8 {
            let y = delta_swap(x, d);
            for j in 0..64u64 {
                assert_eq!((y >> j) & 1, (x >> (j ^ (1 << d))) & 1, "d={d} j={j}");
            }
        }
    }

    #[test]
    fn gather_neighbor_word_covers_high_dimensions() {
        // 4 words = 256 nodes = Q_8; dimension 7 flips word-index bit 1.
        let plane = [0x1u64, 0x2, 0x4, 0x8];
        assert_eq!(gather_neighbor_word(&plane, 0, 7), plane[2]);
        assert_eq!(gather_neighbor_word(&plane, 3, 6), plane[2]);
        assert_eq!(gather_neighbor_word(&plane, 1, 0), delta_swap(plane[1], 0));
    }

    #[test]
    fn sliced_counter_counts_and_compares() {
        let mut cnt = [0u64; 5];
        // Lane 0 sees 30 increments, lane 1 sees 3, lane 2 none.
        for i in 0..30 {
            let mut x = 0b001u64;
            if i < 3 {
                x |= 0b010;
            }
            sliced_add(&mut cnt, x);
        }
        for k in 0..31 {
            let gt = sliced_gt_const(&cnt, k);
            assert_eq!(gt & 1, u64::from(30 > k), "lane0 k={k}");
            assert_eq!((gt >> 1) & 1, u64::from(3 > k), "lane1 k={k}");
            assert_eq!((gt >> 2) & 1, 0, "lane2 k={k}");
        }
    }

    #[test]
    fn neighbor_levels_pack_all_dims() {
        let n = MAX_DIM;
        let mut h = NeighborLevels::filled(n, 30);
        assert!(h.iter(n).all(|l| l == 30));
        for d in 0..n {
            h.set(d, d % 31);
        }
        for d in 0..n {
            assert_eq!(h.get(d), d % 31, "d={d}");
        }
        assert_eq!(h.iter(n).count(), n as usize);
    }

    #[test]
    #[should_panic(expected = "exceeds ceiling")]
    fn set_rejects_levels_over_ceiling() {
        LevelStore::zeroed(10, 4).set(0, 11);
    }
}
