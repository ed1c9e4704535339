//! [`Instruction`]: a gate applied to specific qubits.

use crate::{Gate, Operands, Qubit};
use std::fmt;

/// One step of a circuit: a [`Gate`] applied to concrete [`Operands`].
///
/// # Examples
///
/// ```
/// use trios_ir::{Gate, Instruction, Qubit};
///
/// let toffoli = Instruction::new(
///     Gate::Ccx,
///     &[Qubit::new(0), Qubit::new(1), Qubit::new(2)],
/// );
/// assert_eq!(toffoli.to_string(), "ccx q0, q1, q2");
/// assert_eq!(toffoli.qubits().len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    gate: Gate,
    operands: Operands,
}

// Every pass copies instructions and the server's compile cache stores
// them, so a new field must not silently regrow either type.
const _: () = assert!(std::mem::size_of::<Instruction>() == 40);
const _: () = assert!(std::mem::size_of::<Operands>() == 8);

impl Instruction {
    /// Creates an instruction applying `gate` to `qubits`.
    ///
    /// # Panics
    ///
    /// Panics if the number of qubits does not match the gate's arity, or if
    /// the qubits are not distinct.
    #[inline]
    pub fn new(gate: Gate, qubits: &[Qubit]) -> Self {
        assert_eq!(
            qubits.len(),
            gate.arity(),
            "gate {} expects {} operand(s), got {}",
            gate.name(),
            gate.arity(),
            qubits.len()
        );
        let operands = Operands::from_slice(qubits);
        assert!(
            operands.are_distinct(),
            "gate {} applied to duplicate qubits {operands}",
            gate.name()
        );
        Instruction { gate, operands }
    }

    /// The gate being applied.
    #[inline]
    pub fn gate(&self) -> Gate {
        self.gate
    }

    /// The qubits the gate acts on (controls first, target last).
    #[inline]
    pub fn qubits(&self) -> &[Qubit] {
        self.operands.as_slice()
    }

    /// The operand list.
    #[inline]
    pub fn operands(&self) -> &Operands {
        &self.operands
    }

    /// The `i`-th operand.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.qubits().len()`.
    #[inline]
    pub fn qubit(&self, i: usize) -> Qubit {
        self.operands[i]
    }

    /// Returns a copy with every operand replaced by `f(qubit)`.
    ///
    /// Used by layout application and circuit composition.
    pub fn map_qubits(&self, f: impl FnMut(Qubit) -> Qubit) -> Self {
        Instruction {
            gate: self.gate,
            operands: self.operands.map(f),
        }
    }

    /// The inverse instruction, or `None` if the gate is a measurement.
    #[inline]
    pub fn inverse(&self) -> Option<Instruction> {
        self.gate.inverse().map(|gate| Instruction {
            gate,
            operands: self.operands,
        })
    }

    /// `true` if this instruction shares at least one qubit with `other`.
    #[inline]
    pub fn overlaps(&self, other: &Instruction) -> bool {
        self.qubits().iter().any(|q| other.operands.contains(*q))
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.gate, self.operands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn new_validates_arity() {
        let instr = Instruction::new(Gate::Cx, &[q(0), q(1)]);
        assert_eq!(instr.gate(), Gate::Cx);
        assert_eq!(instr.qubits(), &[q(0), q(1)]);
    }

    #[test]
    #[should_panic(expected = "expects 2 operand(s)")]
    fn new_rejects_wrong_arity() {
        Instruction::new(Gate::Cx, &[q(0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate qubits")]
    fn new_rejects_duplicates() {
        Instruction::new(Gate::Cx, &[q(0), q(0)]);
    }

    #[test]
    fn map_qubits_relabels() {
        let instr = Instruction::new(Gate::Ccx, &[q(0), q(1), q(2)]);
        let moved = instr.map_qubits(|x| Qubit::new(x.index() * 2 + 1));
        assert_eq!(moved.qubits(), &[q(1), q(3), q(5)]);
        assert_eq!(moved.gate(), Gate::Ccx);
    }

    #[test]
    fn inverse_keeps_operands() {
        let instr = Instruction::new(Gate::T, &[q(3)]);
        let inv = instr.inverse().unwrap();
        assert_eq!(inv.gate(), Gate::Tdg);
        assert_eq!(inv.qubits(), &[q(3)]);
        assert!(Instruction::new(Gate::Measure, &[q(0)]).inverse().is_none());
    }

    #[test]
    fn overlap_detection() {
        let a = Instruction::new(Gate::Cx, &[q(0), q(1)]);
        let b = Instruction::new(Gate::Cx, &[q(1), q(2)]);
        let c = Instruction::new(Gate::H, &[q(3)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn display() {
        let instr = Instruction::new(Gate::Swap, &[q(4), q(9)]);
        assert_eq!(instr.to_string(), "swap q4, q9");
    }
}
