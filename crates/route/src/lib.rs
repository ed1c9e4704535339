//! # trios-route — qubit mapping and routing
//!
//! The communication half of the Orchestrated Trios compiler:
//!
//! * [`Layout`] — the live logical→physical assignment that SWAPs permute.
//! * [`initial_layout`] — placement strategies (trivial / fixed / random /
//!   greedy interaction-aware).
//! * [`RoutingStrategy`] — the pluggable routing seam: one policy over the
//!   shared [`RoutingEngine`] core. [`StrategyRegistry::standard`] names
//!   the built-ins (`baseline`, `trios`, `trios-lookahead`, `trios-noise`)
//!   so the core pipeline, CLI, and benches all select routers the same
//!   way.
//! * [`DecomposeFirst`] — the conventional pair router: requires a fully
//!   decomposed circuit and routes each distant CNOT individually. This is
//!   the paper's baseline and exhibits exactly the pathology of its
//!   Figure 1a.
//! * [`OrchestratedTrios`] — the paper's contribution: Toffolis survive to
//!   the router, which gathers each operand trio to a connected
//!   neighborhood (minimum summed-distance destination, overlap-aware),
//!   then applies the placement-appropriate decomposition (6-CNOT on
//!   triangles, 8-CNOT with the correct middle on lines).
//! * [`RoutedCircuit`] — what a routing run returns: the routed circuit,
//!   its initial and final layouts, and the [`RoutingTrace`] of its SWAPs
//!   and per-trio [`TrioEvent`]s.
//! * [`check_legal`] / [`verify_legal`] — the hardware-legality invariant
//!   every strategy must (and is tested to) satisfy; `verify_legal` is the
//!   strict form for finished compilations.
//!
//! # Examples
//!
//! ```
//! use trios_ir::Circuit;
//! use trios_route::{Layout, OrchestratedTrios, RouterOptions, RoutingStrategy};
//! use trios_topology::johannesburg;
//!
//! let mut program = Circuit::new(3);
//! program.ccx(0, 1, 2);
//!
//! let device = johannesburg();
//! let layout = Layout::from_mapping(&[6, 17, 3], 20)?; // a distant trio
//! let routed =
//!     OrchestratedTrios.route(&program, &device, layout, &RouterOptions::deterministic())?;
//!
//! // The trio was gathered with a handful of SWAPs and decomposed with
//! // the 8-CNOT linear Toffoli (Johannesburg has no triangles).
//! assert!(routed.trace.swaps <= 8);
//! assert_eq!(routed.trace.trio_events.len(), 1);
//! assert_eq!(routed.circuit.counts().cx, 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod error;
mod layout;
mod legality;
mod mapper;
mod options;
mod router;
mod strategy;

pub use engine::RoutingEngine;
pub use error::RouteError;
pub use layout::Layout;
pub use legality::{check_legal, verify_legal, LegalityError, LegalityViolation, ToffoliPolicy};
pub use mapper::{initial_layout, InitialMapping};
pub use options::{DirectionPolicy, LookaheadConfig, PathMetric, RouterOptions};
pub use router::{RoutedCircuit, RoutingTrace, TrioEvent};
pub use strategy::{
    DecomposeFirst, LookaheadTrios, NoiseAwareTrios, OrchestratedTrios, RoutingStrategy,
    StrategyConstructor, StrategyRegistry, NOISE_AWARE_DEFAULT_SPREAD,
};
