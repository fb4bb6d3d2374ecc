//! # hypersafe
//!
//! A full reproduction of **Jie Wu, "Reliable Unicasting in Faulty
//! Hypercubes Using Safety Levels"** (ICPP 1995; IEEE TC 46(2), 1997):
//! safety levels, the `GLOBAL_STATUS` protocol, optimal/suboptimal
//! unicasting with local feasibility detection (including disconnected
//! hypercubes), the faulty-link and generalized-hypercube extensions,
//! every baseline the paper compares against, and an experiment
//! harness regenerating each figure and claim.
//!
//! This façade crate re-exports the workspace members; depend on the
//! individual crates for finer-grained builds.
//!
//! ```
//! use hypersafe::topology::{Hypercube, FaultSet, FaultConfig, NodeId};
//! use hypersafe::safety::{SafetyMap, route, Decision};
//!
//! let cube = Hypercube::new(4);
//! let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
//! let cfg = FaultConfig::with_node_faults(cube, faults);
//! let map = SafetyMap::compute(&cfg);
//! let res = route(&cfg, &map,
//!     NodeId::from_binary("1110").unwrap(),
//!     NodeId::from_binary("0001").unwrap());
//! assert!(matches!(res.decision, Decision::Optimal { .. }));
//! ```

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Baseline routing schemes (\[2\], \[3\], \[4\], \[5\], \[7\], \[8\], \[10\]).
pub use hypersafe_baselines as baselines;
/// The paper's contribution: safety levels and unicasting.
pub use hypersafe_core as safety;
/// Figure/claim regeneration harness.
pub use hypersafe_experiments as experiments;
/// Simulation substrate: synchronous rounds and discrete events.
pub use hypersafe_simkit as simkit;
/// Topology substrate: `Q_n`, `GH_n`, faults, connectivity, paths.
pub use hypersafe_topology as topology;
/// Fault-injection workloads and Monte-Carlo sweeps.
pub use hypersafe_workloads as workloads;
