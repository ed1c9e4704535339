//! # trios-core — the Orchestrated Trios compiler
//!
//! End-to-end compilation pipelines reproducing
//! [*Orchestrated Trios* (ASPLOS 2021)](https://doi.org/10.1145/3445814.3446718).
//! The router, named in [`CompileOptions::router`], picks the pipeline:
//!
//! * the `baseline` router — conventional, Qiskit-style: decompose all
//!   Toffolis to 1q/2q gates first, then map, route each distant CNOT
//!   individually, and schedule (paper Fig. 2a).
//! * the `trios` router (the default) — the paper's contribution:
//!   decomposition stops at the Toffoli; the router gathers each Toffoli's
//!   three operands to a connected neighborhood as a unit; a second,
//!   *mapping-aware* decomposition then picks the 6-CNOT form on triangles
//!   and the 8-CNOT form (with the correct middle qubit) on lines (paper
//!   Fig. 2b, §4).
//!
//! # The pass-pipeline API
//!
//! The compiler is a sequence of named [`Pass`]es over a
//! [`CompileContext`], assembled by a [`PassManager`] and driven by a
//! [`Compiler`] built with [`Compiler::builder`]:
//!
//! ```
//! use trios_core::{Compiler, PaperConfig};
//! use trios_ir::Circuit;
//! use trios_topology::johannesburg;
//!
//! let mut program = Circuit::new(3);
//! program.ccx(0, 1, 2);
//!
//! let compiler = Compiler::builder().config(PaperConfig::Trios).build();
//! let (compiled, report) = compiler.compile_with_report(&program, &johannesburg())?;
//! println!("{report}"); // per-pass wall times and gate-count deltas
//! assert!(compiled.circuit.is_hardware_lowered());
//! # Ok::<(), trios_core::Diagnostic>(())
//! ```
//!
//! Passes publish intermediate results ([`RouterTrace`], [`SwapTrace`],
//! [`ProgramSchedule`]) into the context's typed artifact map; failures
//! surface as a structured [`Diagnostic`] naming the pass.
//!
//! # Batch compilation
//!
//! Whole-suite sweeps (the paper's evaluation compiles every benchmark
//! against many topologies) go through [`Compiler::compile_batch`]: a
//! scoped worker pool, with the calling thread as one of its workers,
//! that keeps results in input order and is byte-identical to compiling
//! each circuit on its own. An optional shared [`CompilationCache`] — an
//! LRU keyed by the structural hash of `(circuit, device, options)` with
//! exact hit/miss counters — answers repeated jobs, and a [`BatchReport`]
//! aggregates per-pass wall times and gate-count deltas across the batch.
//! Its throughput is timed by the repository's benchmark, `perfbench`
//! (the `paper-sweep` and `serve-kiloqubit` workloads), not by this crate.
//!
//! [`PaperConfig`] names the exact compiler configurations evaluated in
//! the paper's figures. Every compiled program carries its initial/final
//! layouts so `trios_sim::Simulator::compiled_equivalent` can verify
//! semantics, and [`CompiledProgram::estimate_success`] applies the §2.6
//! noise model.
//!
//! # Evaluation sweeps
//!
//! The [`sweep`] module turns those pieces into the paper's actual
//! deliverable: [`run_sweep`] expands a [`SweepSpec`] — benchmarks ×
//! devices × routers × calibrations — through the cached parallel batch
//! compiler and the analytic success estimator (optionally cross-checked
//! by Monte Carlo trajectory simulation) into a [`SweepReport`] of
//! per-cell breakdowns, trios/baseline success ratios, and per-router
//! geomeans, serializable to JSON behind the `serde` feature.
//!
//! # Differential fuzzing
//!
//! The [`fuzz`] module turns the equivalence checker into a correctness
//! backstop over *unbounded* inputs: [`run_fuzz`] draws seeded cases from
//! `trios_gen`'s structured families, compiles each through every
//! selected router × device via the cached parallel batch compiler,
//! cross-checks semantics (simulator), hardware legality, and metric
//! invariants, and greedily shrinks any failure to a minimal OpenQASM
//! reproducer.
//!
//! # Requests
//!
//! The [`request`] module parses request values (circuit refs, noise specs,
//! registry names, compile settings) for the CLI and the server alike.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod cache;
mod compiler;
mod context;
mod diagnostics;
pub mod fuzz;
mod manager;
mod options;
mod pass;
mod report;
pub mod request;
mod shard;
pub mod sweep;

pub use batch::{BatchOutcome, BatchPassStat, BatchReport};
pub use cache::{CacheEntry, CacheStats, CachedCompilation, CompilationCache, CompileJob};
pub use compiler::{
    with_measurements, BatchDiagnostic, CompiledProgram, Compiler, CompilerBuilder,
};
pub use context::{Artifact, ArtifactMap, CompileContext, ProgramSchedule, RouterTrace, SwapTrace};
pub use diagnostics::Diagnostic;
pub use fuzz::{
    run_fuzz, run_fuzz_with_registry, shrink_circuit, FuzzError, FuzzFailure, FuzzFailureKind,
    FuzzReport, FuzzReproducer, FuzzSpec,
};
pub use manager::PassManager;
pub use options::{CompileOptions, PaperConfig};
pub use pass::{
    DecomposeToffolisPass, InitialMappingPass, LowerPass, OptimizePass, Pass, RoutePass,
    SchedulePass, ValidatePass,
};
pub use report::{CompileReport, CompileStats, PassRecord};
pub use shard::ShardedCache;
pub use sweep::{
    run_sweep, RatioRow, RouterGeomean, SweepBenchmark, SweepCell, SweepError, SweepMonteCarlo,
    SweepReport, SweepSpec,
};

// Re-export the pieces callers need alongside `Compiler`, so downstream
// users can depend on `trios-core` alone for common workflows.
pub use trios_ir::{Circuit, Gate, GateCounts, Instruction, Qubit};
pub use trios_noise::{Calibration, CrosstalkPolicy, SuccessEstimate};
pub use trios_passes::{
    DecomposerHandle, DecomposerRegistry, DecompositionPlan, DecompositionStrategy,
    EightCnotDecomposition, LoweringCost, OptimizeOptions, QutritCostModel,
    RelativePhaseDecomposition, SixCnotDecomposition, StandardDecomposition, TDepthDecomposition,
    TrioPlacement,
};
pub use trios_route::{
    DirectionPolicy, InitialMapping, Layout, PathMetric, RoutingStrategy, RoutingTrace,
    StrategyRegistry,
};
pub use trios_topology::{parse_spec, PaperDevice, SpecError, Topology};
