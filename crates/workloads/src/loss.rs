//! Channel loss profiles for the reliability experiments.
//!
//! The paper assumes reliable links; the loss-robustness experiments
//! (E22) relax that. A [`LossProfile`] names a point in the
//! (loss, jitter, duplication) space and builds the matching seeded
//! [`ChannelModel`], so experiments and tests sweep the same ladder
//! instead of hand-rolling channel parameters.

use hypersafe_simkit::ChannelModel;
use rand::Rng;

/// A named noisy-link profile: per-link loss probability, maximum
/// latency jitter (in engine ticks), and duplication probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossProfile {
    /// Short label used in report rows.
    pub name: &'static str,
    /// Per-message loss probability in `[0, 1)`.
    pub loss: f64,
    /// Maximum extra delivery latency (uniform in `0..=jitter`).
    pub jitter: u64,
    /// Per-message duplication probability in `[0, 1)`.
    pub duplicate: f64,
}

impl LossProfile {
    /// A seeded channel with this profile's parameters.
    pub fn channel(&self, seed: u64) -> ChannelModel {
        ChannelModel::new(seed)
            .with_loss(self.loss)
            .with_jitter(self.jitter)
            .with_duplication(self.duplicate)
    }
}

/// The standard ladder the E22 loss experiment sweeps: from the paper's
/// lossless assumption up to links dropping a fifth of all traffic.
pub const STANDARD_PROFILES: [LossProfile; 4] = [
    LossProfile {
        name: "clean",
        loss: 0.0,
        jitter: 0,
        duplicate: 0.0,
    },
    LossProfile {
        name: "light",
        loss: 0.01,
        jitter: 1,
        duplicate: 0.0,
    },
    LossProfile {
        name: "moderate",
        loss: 0.05,
        jitter: 2,
        duplicate: 0.01,
    },
    LossProfile {
        name: "heavy",
        loss: 0.20,
        jitter: 4,
        duplicate: 0.05,
    },
];

/// A random profile with loss in `[0, max_loss)`, jitter in `0..=4`,
/// and duplication at a quarter of the loss rate — for randomized
/// sweeps and property tests.
pub fn random_profile<R: Rng + ?Sized>(rng: &mut R, max_loss: f64) -> LossProfile {
    // 53-bit uniform in [0, 1); the vendored rand has no f64 ranges.
    let unit = (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64;
    let loss = unit * max_loss.min(1.0 - f64::EPSILON);
    LossProfile {
        name: "random",
        loss,
        jitter: rng.gen_range(0..=4),
        duplicate: loss / 4.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ladder_is_ordered_and_buildable() {
        let mut prev = -1.0;
        for p in STANDARD_PROFILES {
            assert!(p.loss > prev, "{} out of order", p.name);
            prev = p.loss;
            let ch = p.channel(7);
            assert_eq!(ch.loss(), p.loss);
            assert_eq!(ch.jitter(), p.jitter);
            assert_eq!(ch.duplication(), p.duplicate);
        }
    }

    #[test]
    fn clean_profile_never_mutates_traffic() {
        let mut ch = STANDARD_PROFILES[0].channel(3);
        for i in 0..200 {
            let fate = ch.fate(i, i + 1);
            assert!(!fate.lost);
            assert_eq!(fate.jitter, 0);
            assert_eq!(fate.duplicate, None);
        }
    }

    #[test]
    fn random_profiles_respect_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..100 {
            let p = random_profile(&mut rng, 0.3);
            assert!((0.0..0.3).contains(&p.loss));
            assert!(p.jitter <= 4);
            assert!(p.duplicate < 0.3);
            p.channel(1); // must not panic the builder asserts
        }
    }
}
