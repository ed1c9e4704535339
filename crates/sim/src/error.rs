//! Simulator error type.

use std::error::Error;
use std::fmt;
use trios_ir::Instruction;

/// Reasons a simulation request can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The register is too large for dense simulation.
    TooManyQubits {
        /// Requested register width.
        requested: usize,
        /// Hard cap for this simulator.
        max: usize,
    },
    /// A non-unitary instruction (measurement) reached a unitary-only path.
    NonUnitary {
        /// Index of the instruction in its circuit.
        instruction: usize,
    },
    /// Circuit widths (or a layout length) disagree.
    WidthMismatch {
        /// Expected width.
        expected: usize,
        /// Actual width.
        actual: usize,
    },
    /// A gate is outside the backend's supported set (e.g. a T gate on
    /// the stabilizer backend).
    UnsupportedGate {
        /// Display form of the offending gate.
        gate: String,
        /// Backend that rejected it.
        backend: &'static str,
    },
    /// An instruction names one qubit twice, as
    /// [`Instruction::map_qubits`](trios_ir::Instruction::map_qubits) can
    /// build.
    RepeatedOperand {
        /// Display form of the gate.
        gate: String,
        /// The qubit named more than once.
        qubit: usize,
    },
    /// A layout places two logical qubits on one physical qubit.
    DuplicateLayoutEntry {
        /// The physical qubit named more than once.
        qubit: usize,
    },
    /// The sparse state grew past its nonzero-amplitude budget; the
    /// circuit is too entangling for sparse simulation at this budget.
    StateTooDense {
        /// Nonzero amplitudes reached when the budget tripped.
        terms: usize,
        /// The configured budget.
        max_terms: usize,
    },
}

/// [`SimError::RepeatedOperand`] if `instr` names one qubit twice: the
/// dense and stabilizer backends check it once per instruction, before
/// dispatching to kernels that assume distinct operands. (The sparse
/// backend makes the same check inside its per-operand width check.)
pub(crate) fn distinct_operands(instr: &Instruction) -> Result<(), SimError> {
    if instr.operands().are_distinct() {
        return Ok(());
    }
    let qs = instr.qubits();
    let repeated = (1..qs.len())
        .find(|&i| qs[..i].contains(&qs[i]))
        .map_or(0, |i| qs[i].index());
    Err(SimError::RepeatedOperand {
        gate: instr.gate().to_string(),
        qubit: repeated,
    })
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooManyQubits { requested, max } => write!(
                f,
                "dense simulation of {requested} qubits exceeds the {max}-qubit cap"
            ),
            SimError::NonUnitary { instruction } => write!(
                f,
                "instruction {instruction} is a measurement; this operation requires a unitary circuit"
            ),
            SimError::WidthMismatch { expected, actual } => {
                write!(f, "expected width {expected}, got {actual}")
            }
            SimError::UnsupportedGate { gate, backend } => {
                write!(f, "gate {gate} is not supported by the {backend} backend")
            }
            SimError::RepeatedOperand { gate, qubit } => {
                write!(f, "gate {gate} names qubit {qubit} more than once")
            }
            SimError::DuplicateLayoutEntry { qubit } => {
                write!(f, "layout places two qubits on physical qubit {qubit}")
            }
            SimError::StateTooDense { terms, max_terms } => write!(
                f,
                "sparse state reached {terms} nonzero amplitudes, over the {max_terms}-term budget"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::TooManyQubits {
            requested: 40,
            max: 26,
        };
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("26"));
    }
}
