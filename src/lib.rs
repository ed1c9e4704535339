//! # orchestrated-trios — a Rust reproduction of *Orchestrated Trios*
//! (ASPLOS 2021)
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`ir`] | circuit IR: gates, instructions, circuits |
//! | [`topology`] | coupling graphs and path algorithms |
//! | [`passes`] | Toffoli decompositions, lowering, optimizations |
//! | [`route`] | layouts, the baseline pair router, the Trios trio router |
//! | [`schedule`] | ASAP scheduling and duration models |
//! | [`noise`] | Johannesburg calibration and the §2.6 success model |
//! | [`sim`] | statevector simulator and equivalence checking |
//! | [`benchmarks`] | the Table 1 benchmark generators (+ extended suite) |
//! | [`gen`] | seeded structured-circuit families for fuzzing |
//! | [`core`] | the end-to-end baseline and Trios pipelines (+ fuzz harness) |
//! | [`qasm`] | OpenQASM 2.0 emitter and parser |
//!
//! # Quick start
//!
//! ```
//! use orchestrated_trios::core::{Compiler, PaperConfig};
//! use orchestrated_trios::ir::Circuit;
//! use orchestrated_trios::topology::johannesburg;
//!
//! // A program with one Toffoli between distant qubits.
//! let mut program = Circuit::new(3);
//! program.ccx(0, 1, 2);
//!
//! let device = johannesburg();
//! let compiler = Compiler::builder().config(PaperConfig::Trios).build();
//! let (compiled, report) = compiler.compile_with_report(&program, &device)?;
//! println!(
//!     "{} two-qubit gates, {} SWAPs inserted",
//!     compiled.stats.two_qubit_gates, compiled.stats.swap_count
//! );
//! println!("{report}"); // per-pass wall times and gate-count deltas
//! # Ok::<(), orchestrated_trios::core::Diagnostic>(())
//! ```

#![warn(missing_docs)]

pub use trios_benchmarks as benchmarks;
pub use trios_core as core;
pub use trios_gen as gen;
pub use trios_ir as ir;
pub use trios_noise as noise;
pub use trios_passes as passes;
pub use trios_qasm as qasm;
pub use trios_route as route;
pub use trios_schedule as schedule;
pub use trios_sim as sim;
pub use trios_topology as topology;

/// README.md's Rust examples, compiled and run as doctests so they keep
/// up with the API they show.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
