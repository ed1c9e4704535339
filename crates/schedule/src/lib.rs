//! # trios-schedule — ASAP/ALAP scheduling and duration models
//!
//! The last pass of both compilation pipelines (paper Fig. 2): assign each
//! instruction a start time, exploiting parallelism between gates on
//! disjoint qubits, and report the total program duration Δ. Δ drives the
//! decoherence term `exp(−Δ/T1 − Δ/T2)` of the paper's success-probability
//! model (§2.6) — fewer/shorter SWAP chains mean a shorter Δ and a better
//! chance the qubits survive the program.
//!
//! Beyond the paper's ASAP pass, [`schedule_alap`] provides
//! as-late-as-possible scheduling and [`idle_report`] quantifies per-qubit
//! idle exposure — the decoherence-relevant refinement that ALAP improves.
//!
//! # Examples
//!
//! ```
//! use trios_ir::Circuit;
//! use trios_schedule::{schedule_asap, GateDurations};
//!
//! let mut c = Circuit::new(4);
//! c.cx(0, 1).cx(2, 3); // disjoint: run in parallel
//! let s = schedule_asap(&c, &GateDurations::johannesburg());
//! assert!((s.total_duration_us() - 0.559).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alap;
mod asap;
mod crosstalk;
mod durations;

pub use alap::{alap_idle_us, asap_idle_us, idle_report, schedule_alap, IdleReport};
pub use asap::{asap_total_us, schedule_asap, Schedule, ScheduledOp};
pub use crosstalk::{crosstalk_conflicts, schedule_crosstalk_aware, schedule_crosstalk_aware_alap};
pub use durations::GateDurations;
