//! # hypersafe-topology
//!
//! Topology substrate for the *hypersafe* workspace: binary hypercubes
//! `Q_n`, generalized hypercubes `GH(m_{n-1}, …, m_0)`, fault state
//! (nodes and links), connectivity analysis, path representation, and
//! the classic node-disjoint-paths construction.
//!
//! Both topologies implement one trait, [`Topology`]: node count,
//! degree and dimension, distance, and port-labelled neighbours (a
//! cube's port is a dimension, a GH's a `(dimension, digit)` pair, and
//! each has a fixed linear index). The routing rule, the safety-level
//! fixed point and both simulation engines read their topology through
//! it, so each topology's neighbour arithmetic is written once.
//!
//! Everything here is deterministic, allocation-light, and independent
//! of the safety-level machinery in `hypersafe-core`; it is the layer
//! the paper's algorithms (and all baselines) are written against.
//!
//! ## Quick tour
//!
//! ```
//! use hypersafe_topology::{Hypercube, NodeId, FaultSet, FaultConfig, Topology};
//! use hypersafe_topology::connectivity;
//!
//! // The faulty 4-cube of the paper's Fig. 1.
//! let cube = Hypercube::new(4);
//! let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
//! let cfg = FaultConfig::with_node_faults(cube, faults);
//!
//! assert!(connectivity::is_connected(&cfg));
//! let s = NodeId::from_binary("1110").unwrap();
//! let d = NodeId::from_binary("0001").unwrap();
//! assert_eq!(cube.distance(s, d), Some(4));
//! assert_eq!(connectivity::shortest_path_len(&cfg, s, d), Some(4));
//! // Ports are dimensions: 1110 reaches 1111 across port 0.
//! assert_eq!(cube.port_of(s, NodeId::from_binary("1111").unwrap()), Some(0));
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod connectivity;
pub mod cube;
pub mod disjoint;
pub mod faults;
pub mod ghn;
pub mod gray;
pub mod paths;
mod ports;

pub use addr::{e, BitDims, NodeId, MAX_DIM};
pub use cube::Hypercube;
pub use faults::{FaultConfig, FaultSet, Faults, LinkFaultSet};
pub use ghn::{GeneralizedHypercube, GhNode};
pub use gray::Subcube;
pub use paths::Path;
pub use ports::Topology;
