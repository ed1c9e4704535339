//! # trios-qasm — OpenQASM 2.0 interchange
//!
//! Text-format import/export for the Orchestrated Trios circuit IR, so
//! compiled programs can move to and from the wider ecosystem (Qiskit,
//! simulators, visualization tools):
//!
//! * [`emit`] renders a [`Circuit`] as an OpenQASM 2.0 program against
//!   `qelib1.inc`, declaring the few gates the library uses that the
//!   standard header lacks (`ccz`, `xpow`, `cxpow`).
//! * [`parse`] reads OpenQASM 2.0 back into a [`Circuit`], supporting
//!   multiple quantum registers (flattened in declaration order),
//!   parameter expressions with `pi`, and the full `qelib1` gate set this
//!   library understands.
//!
//! Round trips are exact: `parse(&emit(&c))` reproduces `c` gate for gate
//! (see the crate tests, which round-trip the entire benchmark suite and
//! compiled outputs).
//!
//! # Limits
//!
//! [`parse`] takes untrusted text (the CLI reads `.qasm` files, the server
//! takes inline source) and answers every input with a circuit or a
//! [`QasmError`], never a panic. To that end it refuses:
//!
//! * quantum registers wider than [`MAX_QUBITS`] qubits together, and any
//!   classical register wider than [`MAX_QUBITS`] bits
//!   ([`QasmError::TooWide`]);
//! * a broadcast (a one-qubit gate or `measure` applied to a whole
//!   register) that would take the program past [`MAX_INSTRUCTIONS`]
//!   instructions ([`QasmError::TooManyInstructions`]);
//! * a gate applied to one qubit twice, such as `cx q[0], q[0];`
//!   ([`QasmError::RepeatedQubit`]);
//! * parameter expressions nesting parentheses or unary minus more than
//!   256 deep;
//! * classical control (`if`); `gate` bodies are skipped, not expanded, so
//!   applying a gate declared in-file is a [`QasmError::UnknownGate`].
//!
//! # Examples
//!
//! ```
//! use trios_ir::Circuit;
//! use trios_qasm::{emit, parse};
//!
//! # fn main() -> Result<(), trios_qasm::QasmError> {
//! let mut c = Circuit::new(3);
//! c.h(0).ccx(0, 1, 2).measure(2);
//! let text = emit(&c);
//! assert!(text.contains("ccx q[0], q[1], q[2];"));
//! let back = parse(&text)?;
//! assert_eq!(back.len(), c.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod emitter;
mod error;
mod parser;

pub use emitter::emit;
pub use error::QasmError;
pub use parser::parse;

/// The most qubits a program's quantum registers may declare together,
/// and the most bits one classical register may hold. It equals the
/// device-spec cap `trios_topology::MAX_SPEC_QUBITS`: no device this
/// compiler builds is wider.
pub const MAX_QUBITS: usize = 4096;

// The stabilizer backend verifies a compile on a register of the device's
// qubits plus one reference qubit per program qubit, so twice this cap must
// still be a register `trios_ir::Qubit` can index.
const _: () = assert!(2 * MAX_QUBITS <= trios_ir::MAX_QUBITS);

/// The most instructions broadcasts may take a program to. A broadcast
/// yields one instruction per qubit of its register, so a few bytes such
/// as `h q;` can ask for thousands; one that would take the program past
/// this cap is a [`QasmError::TooManyInstructions`]. A statement naming
/// its qubits yields one instruction, so those are bounded by the
/// source's length instead.
pub const MAX_INSTRUCTIONS: usize = 1 << 20;

// Re-exported for doc examples and downstream convenience.
pub use trios_ir::Circuit;
