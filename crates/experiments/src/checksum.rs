//! The checksums the gated experiments write into their CSVs. A
//! checksum is a pure function of the outcomes, so a CSV is
//! byte-identical at any thread count exactly when the outcomes are.

use hypersafe_core::{BatchOutcome, Decision};

/// One FNV-1a step: folds the word `v` into the running hash `h`.
pub(crate) fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// A batched route's outcome as one word: decision class and first
/// dimension, hops walked, and delivery.
pub(crate) fn batch_outcome_word(o: &BatchOutcome) -> u64 {
    let tag = match o.decision {
        Decision::Optimal { first_dim, .. } => 0x10 | first_dim as u64,
        Decision::Suboptimal { first_dim } => 0x40 | first_dim as u64,
        Decision::Failure => 0x80,
        Decision::AlreadyThere => 0x81,
    };
    tag << 40 | (o.hops as u64) << 8 | o.delivered as u64
}
