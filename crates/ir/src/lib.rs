//! # trios-ir — quantum circuit IR for the Orchestrated Trios compiler
//!
//! This crate defines the circuit intermediate representation shared by every
//! pass of the [Orchestrated Trios (ASPLOS 2021)](https://doi.org/10.1145/3445814.3446718)
//! reproduction: a [`Circuit`] is an ordered list of [`Instruction`]s (a
//! [`Gate`] applied to [`Operands`] of [`Qubit`]s).
//!
//! Two design points matter for the Trios compiler specifically:
//!
//! * **Toffoli is first-class.** [`Gate::Ccx`] is an ordinary gate, so the
//!   first decomposition pass can stop at the Toffoli level and the router
//!   can treat a trio of qubits as one schedulable unit — the core idea of
//!   the paper.
//! * **Structural gates survive until lowering.** [`Gate::Swap`] stays a
//!   single instruction until the final SWAP→3·CX lowering, which keeps
//!   routing output readable and lets the cost model count communication
//!   separately from computation.
//!
//! # Examples
//!
//! ```
//! use trios_ir::{Circuit, Gate};
//!
//! // The paper's running example: one Toffoli between three qubits.
//! let mut c = Circuit::with_name(3, "single-toffoli");
//! c.ccx(0, 1, 2).measure_all();
//!
//! assert_eq!(c.counts().ccx, 1);
//! assert!(!c.is_hardware_lowered()); // still needs decomposition
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod circuit;
mod counts;
mod diagram;
mod error;
mod gate;
pub mod hash;
mod instruction;
mod operands;
mod qubit;

pub use circuit::Circuit;
pub use counts::GateCounts;
pub use diagram::diagram;
pub use error::CircuitError;
pub use gate::Gate;
pub use instruction::Instruction;
pub use operands::Operands;
pub use qubit::{Qubit, MAX_QUBITS};
