//! # trios-passes — decomposition and optimization passes
//!
//! The gate-level transformations of the Orchestrated Trios compiler:
//!
//! * **Toffoli decompositions** — the 6-CNOT form (paper Fig. 3, needs a
//!   coupling triangle) and the 8-CNOT linear form (paper Fig. 4, needs only
//!   a path, with a free choice of target). The split between them, made
//!   *after* routing, is the paper's "mapping-aware decomposition" — and it
//!   is pluggable: every lowering flows through a [`DecompositionStrategy`]
//!   resolved from the [`DecomposerRegistry`] (`standard`, `six`, `eight`,
//!   `tdepth`, `relative-phase`, `qutrit`), mirroring the routing side's
//!   strategy registry.
//! * **Lowering** — SWAP → 3 CX, CZ/CP/controlled-roots → CX + 1q, and the
//!   final translation into the hardware set `{1q, cx, measure}`.
//! * **Optimization** — inverse-pair cancellation and single-qubit-run
//!   consolidation, mirroring the light optimization Qiskit applies in the
//!   paper's baseline.
//!
//! Every transformation here is verified against the statevector simulator
//! in its unit tests.
//!
//! # Examples
//!
//! ```
//! use trios_ir::{Circuit, Qubit};
//! use trios_passes::toffoli_8cnot_linear;
//!
//! // A Toffoli routed onto the line 4–7–9 with target 9:
//! let gates = toffoli_8cnot_linear(
//!     Qubit::new(4),
//!     Qubit::new(7),
//!     Qubit::new(9),
//!     Qubit::new(9),
//! );
//! let cx_count = gates
//!     .iter()
//!     .filter(|i| i.gate() == trios_ir::Gate::Cx)
//!     .count();
//! assert_eq!(cx_count, 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod commute;
mod decomposer;
mod lower;
mod optimize;
mod three_qubit;
mod toffoli;

pub(crate) use optimize::operands_cancel;

pub use commute::{cancel_commuting_inverses, commutes, merge_commuting_rotations};
pub use decomposer::{
    DecomposerConstructor, DecomposerHandle, DecomposerRegistry, DecompositionPlan,
    DecompositionStrategy, EightCnotDecomposition, LoweringCost, QutritCostModel,
    RelativePhaseDecomposition, SixCnotDecomposition, StandardDecomposition, TDepthDecomposition,
    TrioPlacement,
};
pub use lower::{
    cp_to_cx, cxpow_to_cx, cz_to_cx, lower_swaps, lower_to_hardware_gates, swap_to_cnots,
};
pub use optimize::{
    cancel_adjacent_inverses, merge_single_qubit_runs, optimize, remove_trivial_gates,
    OptimizeOptions,
};
pub use three_qubit::{
    ccz_6cnot, ccz_8cnot_linear, cswap_via_ccx, decompose_one, decompose_three_qubit_gates,
};
pub use toffoli::{
    ccz_tdepth4, decompose_toffolis, toffoli_6cnot, toffoli_8cnot, toffoli_8cnot_linear,
    toffoli_margolus, toffoli_tdepth4,
};
