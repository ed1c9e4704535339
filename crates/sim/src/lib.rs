//! # trios-sim — simulation for compiler verification
//!
//! Three dependency-free simulation backends whose job in the
//! Orchestrated Trios reproduction is *verification*: every routed
//! circuit is checked against the original program's semantics through
//! its initial and final layouts. The [`Simulator`] trait is that check:
//! [`DenseSimulator`] holds a statevector of up to [`MAX_QUBITS`] qubits,
//! [`StabilizerSimulator`] a tableau for Clifford circuits of any width,
//! and [`SparseSimulator`] a list of nonzero amplitudes for wide
//! non-Clifford circuits. The stabilizer's verdicts are exact; dense and
//! sparse check seeded random inputs. [`auto_backend`] picks one per
//! check.
//!
//! Gate decompositions are checked exactly instead: [`circuits_equivalent`]
//! compares the whole unitaries of two small circuits on the dense engine.
//!
//! The crate also hosts the 2×2 matrix utilities ([`zyz_decompose`],
//! [`single_qubit_matrix`]) that the optimizer's single-qubit-merge pass
//! uses to resynthesize gate runs into one `u3`.
//!
//! # Examples
//!
//! ```
//! use trios_ir::Circuit;
//! use trios_sim::{circuits_equivalent, DenseSimulator, Simulator};
//!
//! // CZ = H(t) CX H(t), exactly.
//! let mut a = Circuit::new(2);
//! a.cz(0, 1);
//! let mut b = Circuit::new(2);
//! b.h(1).cx(0, 1).h(1);
//! assert!(circuits_equivalent(&a, &b, 1e-9)?);
//!
//! // CX(0,1) routed on three physical qubits: logical 1 starts on
//! // physical 2 and a SWAP moves it to physical 1.
//! let mut original = Circuit::new(2);
//! original.cx(0, 1);
//! let mut routed = Circuit::new(3);
//! routed.swap(2, 1).cx(0, 1);
//! let sim = DenseSimulator::default();
//! assert!(sim.compiled_equivalent(&original, &routed, &[0, 2], &[0, 1], 2, 7)?);
//! # Ok::<(), trios_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod complex;
mod equivalence;
mod error;
mod matrix;
mod sparse;
mod state;
mod tableau;

pub use backend::{
    auto_backend, Backend, Capability, DenseSimulator, Simulator, StabilizerSimulator,
};
pub use complex::C64;
pub use equivalence::circuits_equivalent;
pub use error::SimError;
pub use matrix::{
    mat2_adjoint, mat2_approx_eq, mat2_eq_up_to_phase, mat2_mul, single_qubit_matrix, u3_matrix,
    xpow_matrix, zyz_decompose, Mat2, ZyzAngles, MAT2_IDENTITY,
};
pub use sparse::{SparseSimulator, SparseState, DEFAULT_MAX_TERMS, SPARSE_MAX_QUBITS};
pub use state::{State, MAX_QUBITS};
pub use tableau::{first_non_clifford, strip_t_gates, Tableau};
