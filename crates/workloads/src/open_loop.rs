//! Open-loop arrival generation for the resilient-service soak (E26).
//!
//! An *open-loop* workload fixes arrival times up front, independent
//! of service progress — the generator never waits for a response, so
//! overload actually overloads (the closed-loop alternative would
//! self-throttle and hide admission-control behavior). The generated
//! mix interleaves:
//!
//! * route-request submits (healthy source/destination pairs at emit
//!   time, uniform deadlines),
//! * fault/recovery churn against a tracked virtual fault set (only
//!   valid transitions are emitted: fault a healthy node, recover a
//!   faulty one, never exceed the live-fault budget),
//! * occasional cancellations of in-flight-aged requests.
//!
//! Everything is a pure function of `(cube, params, rng)`; with a
//! seeded ChaCha stream the same list regenerates byte-identically.

use hypersafe_simkit::event::Time;
use hypersafe_simkit::service::Injection;
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use rand::Rng;

use crate::pairs::random_pair;

/// Shape of the open-loop mix.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Route requests to emit.
    pub requests: u64,
    /// Inter-arrival gap, uniform in `0..=max_gap` ticks (0 allows
    /// same-tick bursts — the adversarial scheduler reorders those).
    pub max_gap: Time,
    /// Probability of a churn event between consecutive arrivals.
    pub churn_prob: f64,
    /// Given a churn event and a non-empty fault set, probability it
    /// is a recovery rather than a new fault.
    pub recover_prob: f64,
    /// Hard cap on simultaneously-faulty nodes (the paper's regime is
    /// `< n`; the generator refuses to fault past this).
    pub max_live_faults: usize,
    /// Per-request relative deadline, uniform in
    /// `deadline_min..=deadline_max`.
    pub deadline_min: Time,
    /// Upper deadline bound (inclusive).
    pub deadline_max: Time,
    /// Probability a submit is followed by a cancellation of that
    /// request, at a small random delay.
    pub cancel_prob: f64,
}

impl Default for OpenLoop {
    fn default() -> Self {
        OpenLoop {
            requests: 1_000,
            max_gap: 3,
            churn_prob: 0.05,
            recover_prob: 0.4,
            max_live_faults: 3,
            deadline_min: 16,
            deadline_max: 64,
            cancel_prob: 0.01,
        }
    }
}

/// Generates the open-loop mixed workload over `cube`. The returned
/// list is in emission order (arrival times nondecreasing for submits
/// and churn; cancel times may interleave) — the service's event heap
/// orders execution.
///
/// The generator tracks a virtual fault set so every emitted churn
/// event is applicable when processed in time order: faults target
/// healthy nodes, recoveries target faulty ones, and the set never
/// exceeds `max_live_faults` or faults every node.
pub fn open_loop_mix<R: Rng + ?Sized>(
    cube: Hypercube,
    p: &OpenLoop,
    rng: &mut R,
) -> Vec<Injection> {
    assert!(p.deadline_min <= p.deadline_max, "deadline range inverted");
    assert!(
        (p.max_live_faults as u64) < cube.num_nodes().saturating_sub(2),
        "fault budget must leave at least two healthy nodes"
    );
    let mut virt = FaultConfig::fault_free(cube);
    let mut out = Vec::with_capacity(p.requests as usize + p.requests as usize / 8);
    let mut now: Time = 0;
    let mut emitted = 0u64;
    let mut req_id = 0u64;
    while emitted < p.requests {
        // Maybe churn first: the event lands strictly before the next
        // arrival tick advance, sharing `now` with bursty submits.
        if rng.gen_bool(p.churn_prob) {
            let faults = virt.node_faults().len();
            let recover =
                faults > 0 && (faults >= p.max_live_faults || rng.gen_bool(p.recover_prob));
            if recover {
                let k = rng.gen_range(0..faults);
                let node = virt.node_faults().iter().nth(k).expect("k < len");
                virt.node_faults_mut().remove(node);
                out.push(Injection::Churn {
                    at: now,
                    node,
                    fault: false,
                });
            } else if faults < p.max_live_faults {
                // Rejection-sample a healthy victim (fault density ≪ 2ⁿ).
                let node = loop {
                    let a = NodeId::new(rng.gen_range(0..cube.num_nodes()));
                    if !virt.node_faulty(a) {
                        break a;
                    }
                };
                virt.node_faults_mut().insert(node);
                out.push(Injection::Churn {
                    at: now,
                    node,
                    fault: true,
                });
            }
        }
        let (src, dst) = random_pair(&virt, rng);
        let deadline = rng.gen_range(p.deadline_min..=p.deadline_max);
        out.push(Injection::Submit {
            at: now,
            src,
            dst,
            deadline,
        });
        if p.cancel_prob > 0.0 && rng.gen_bool(p.cancel_prob) {
            let delay = rng.gen_range(0..=deadline / 2);
            out.push(Injection::Cancel {
                at: now + delay,
                req: req_id,
            });
        }
        req_id += 1;
        emitted += 1;
        now += rng.gen_range(0..=p.max_gap);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn gen(seed: u64, p: &OpenLoop) -> Vec<Injection> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        open_loop_mix(Hypercube::new(8), p, &mut rng)
    }

    #[test]
    fn same_seed_same_workload() {
        let p = OpenLoop::default();
        assert_eq!(gen(7, &p), gen(7, &p));
        assert_ne!(gen(7, &p), gen(8, &p));
    }

    #[test]
    fn emits_exactly_the_requested_submits() {
        let p = OpenLoop {
            requests: 500,
            ..Default::default()
        };
        let list = gen(1, &p);
        let submits = list
            .iter()
            .filter(|i| matches!(i, Injection::Submit { .. }))
            .count();
        assert_eq!(submits, 500);
    }

    #[test]
    fn churn_replays_validly_within_budget() {
        let p = OpenLoop {
            requests: 2_000,
            churn_prob: 0.3,
            max_live_faults: 5,
            ..Default::default()
        };
        let cube = Hypercube::new(8);
        let mut virt = FaultConfig::fault_free(cube);
        let mut churns = 0;
        for inj in gen(3, &p) {
            if let Injection::Churn { node, fault, .. } = inj {
                assert_ne!(
                    virt.node_faulty(node),
                    fault,
                    "churn must flip the node's state"
                );
                if fault {
                    virt.node_faults_mut().insert(node);
                } else {
                    virt.node_faults_mut().remove(node);
                }
                assert!(virt.node_faults().len() <= 5, "budget respected");
                churns += 1;
            }
        }
        assert!(
            churns > 100,
            "churn_prob 0.3 over 2000 arrivals: got {churns}"
        );
    }

    #[test]
    fn endpoints_are_healthy_at_emission_and_times_nondecrease() {
        let p = OpenLoop {
            requests: 1_000,
            churn_prob: 0.2,
            ..Default::default()
        };
        let cube = Hypercube::new(8);
        let mut virt = FaultConfig::fault_free(cube);
        let mut last_arrival = 0;
        for inj in gen(11, &p) {
            match inj {
                Injection::Churn { node, fault, at } => {
                    assert!(at >= last_arrival);
                    if fault {
                        virt.node_faults_mut().insert(node);
                    } else {
                        virt.node_faults_mut().remove(node);
                    }
                }
                Injection::Submit { src, dst, at, .. } => {
                    assert!(at >= last_arrival, "arrivals nondecreasing");
                    last_arrival = at;
                    assert!(!virt.node_faulty(src), "source healthy at emit");
                    assert!(!virt.node_faulty(dst), "destination healthy at emit");
                    assert_ne!(src, dst);
                }
                Injection::Cancel { .. } => {}
            }
        }
    }

    #[test]
    fn cancels_reference_prior_submits() {
        let p = OpenLoop {
            requests: 2_000,
            cancel_prob: 0.2,
            ..Default::default()
        };
        let list = gen(5, &p);
        let mut submits_seen = 0u64;
        let mut cancels = 0;
        for inj in &list {
            match inj {
                Injection::Submit { .. } => submits_seen += 1,
                Injection::Cancel { req, .. } => {
                    assert!(*req < submits_seen, "cancel targets an already-emitted id");
                    cancels += 1;
                }
                _ => {}
            }
        }
        assert!(cancels > 200, "cancel_prob 0.2: got {cancels}");
    }
}
