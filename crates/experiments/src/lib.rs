//! # hypersafe-experiments
//!
//! The experiment harness: one module per figure/claim of the paper
//! (see DESIGN.md §3 for the full index), each returning a renderable
//! [`table::Report`]. The `repro` binary exposes them as subcommands.
//!
//! | id | module | paper artifact |
//! |----|--------|----------------|
//! | E1 | [`fig1`] | Fig. 1 — safety levels + §3.2 worked unicasts |
//! | E2 | [`fig2`] | Fig. 2 — average GS rounds vs faults (7-cube) |
//! | E3 | [`safesets`] | §2.3 — safe-set comparison and containment |
//! | E4 | [`fig3`] | Fig. 3 — disconnected-cube unicasts |
//! | E5 | [`property2`] | Property 2 + Theorem 3 guarantee regime |
//! | E6 | [`thm4`] | Theorem 4 — safe sets die, safety levels survive |
//! | E7 | [`fig4`] | Fig. 4 — faulty links (EGS) |
//! | E8 | [`fig5`] | Fig. 5 — generalized hypercube routing |
//! | E9 | [`routing_compare`] | routing comparison vs all baselines |
//! | E10 | [`maintenance_exp`] | §2.2 — maintenance strategy ablation |
//! | E11 | [`rounds_compare`] | §2.3 — status rounds GS vs LH vs WF |
//! | E12 | [`broadcast_exp`] | [9] — safety-level broadcasting |
//! | E13 | [`dynamic_exp`] | §2.2 — mid-flight faults + reroute |
//! | E14 | [`distribution_exp`] | fault-distribution sensitivity |
//! | E15 | [`linkfaults_exp`] | §4.1 — faulty links at scale (EGS) |
//! | E16 | [`tightness_exp`] | safety level vs exact optimal radius |
//! | E17 | [`traffic_exp`] | link-load balance & tie-break ablation |
//! | E18 | [`multicast_exp`] | multicast prefix sharing |
//! | E19 | [`patterns_exp`] | embedded application traffic patterns |
//! | E20 | [`vectors_exp`] | safety vectors vs scalar levels vs oracle |
//! | E21 | [`congestion_exp`] | queueing latency under burst load |
//! | E22 | [`loss_exp`] | loss robustness — reliable GS/unicast over noisy links |
//! | E23 | [`dst`] | deterministic simulation testing — seeded adversaries + invariants |
//! | E24 | [`churn_exp`] | incremental churn + batched routing throughput |
//! | E25 | [`obs_exp`] | observability snapshot — metrics registry + flight recorder |
//! | E26 | [`service_exp`] | resilient-service churn soak — epoch snapshots + request lifecycle |
//! | E27 | [`safety_scale_exp`] | packed bit-plane safety kernels at million-node scale |
//! | E28 | [`mc_exp`] | explicit-state model checking — exhaustive GS/ARQ verification |
//! | E29 | [`multipath_exp`] | k-disjoint multi-path unicast — diversity, overhead, hotspot tail latency |
#![warn(missing_docs)]

pub mod broadcast_exp;
pub mod churn_exp;
pub mod congestion_exp;
pub mod distribution_exp;
pub mod dst;
pub mod dynamic_exp;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod gate;
pub mod linkfaults_exp;
pub mod loss_exp;
pub mod maintenance_exp;
pub mod mc_exp;
pub mod multicast_exp;
pub mod multipath_exp;
pub mod obs_exp;
pub mod patterns_exp;
pub mod property2;
pub mod render;
pub mod rounds_compare;
pub mod routing_compare;
pub mod safesets;
pub mod safety_scale_exp;
pub mod service_exp;
pub mod table;
pub mod thm4;
pub mod tightness_exp;
pub mod traffic_exp;
pub mod vectors_exp;

pub use table::Report;
