//! # trios-topology — hardware coupling graphs for the Trios compiler
//!
//! Devices in the NISQ era only execute two-qubit gates across the edges of
//! a *coupling graph*; everything else requires routing. This crate provides
//! the graph type ([`Topology`]), the shortest-path machinery the routers
//! use (BFS hop distance and Dijkstra under noise-aware weights), the
//! trio-shape classification ([`TripleShape`]) that drives the paper's
//! mapping-aware Toffoli decomposition, and constructors for every device
//! in the paper's Figure 5 plus extras.
//!
//! # Examples
//!
//! ```
//! use trios_topology::{johannesburg, TripleShape};
//!
//! let dev = johannesburg();
//! // Johannesburg is triangle-free, so a routed trio is always a line and
//! // the 8-CNOT Toffoli decomposition wins (paper §4).
//! assert!(!dev.has_triangle());
//! assert_eq!(dev.triple_shape(0, 1, 2), TripleShape::Line { middle: 1 });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod graph;
mod named;
mod render;
mod spec;

pub use error::TopologyError;
pub use graph::{Neighbors, SearchScratch, Topology, TripleShape};
pub use named::{
    alltoall, clusters, full, grid, heavy_hex, heavy_hex_falcon27, heavy_hex_qubits, johannesburg,
    line, ring, PaperDevice,
};
pub use render::GridEmbedding;
pub use spec::{parse_spec, SpecError, SpecErrorKind, MAX_SPEC_QUBITS};
