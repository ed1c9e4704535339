//! [`GateCounts`]: summary statistics of a circuit.

use crate::Gate;
use std::fmt;

/// Gate-count summary of a circuit, the paper's primary static cost metric
/// (§2.5: "two-qubit gate count ... inversely correlated with success rate").
///
/// Produced by [`Circuit::counts`](crate::Circuit::counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounts {
    /// Total instructions, measurements included.
    pub total: usize,
    /// Single-qubit unitary gates.
    pub one_qubit: usize,
    /// Two-qubit gates of any kind (CX, CZ, CP, SWAP, controlled roots).
    pub two_qubit: usize,
    /// Three-qubit gates (Toffolis).
    pub three_qubit: usize,
    /// Measurements.
    pub measure: usize,
    /// CX gates specifically.
    pub cx: usize,
    /// SWAP gates specifically.
    pub swap: usize,
    /// Toffoli (CCX) gates specifically.
    pub ccx: usize,
    /// Doubly-controlled-Z gates specifically.
    pub ccz: usize,
    /// Fredkin (controlled-SWAP) gates specifically.
    pub cswap: usize,
}

impl GateCounts {
    /// Folds one gate into the summary.
    #[inline]
    pub(crate) fn record(&mut self, gate: Gate) {
        self.add(gate, 1);
    }

    /// Folds `n` uses of one gate into the summary.
    ///
    /// One match names every gate, so a new gate cannot join the counts
    /// unclassified.
    #[inline]
    pub(crate) fn add(&mut self, gate: Gate, n: usize) {
        self.total += n;
        match gate {
            Gate::Measure => self.measure += n,
            Gate::I
            | Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Sxdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::U1(_)
            | Gate::U2(..)
            | Gate::U3(..)
            | Gate::Xpow(_) => self.one_qubit += n,
            Gate::Cz | Gate::Cp(_) | Gate::Cxpow(_) => self.two_qubit += n,
            Gate::Cx => {
                self.two_qubit += n;
                self.cx += n;
            }
            Gate::Swap => {
                self.two_qubit += n;
                self.swap += n;
            }
            Gate::Ccx => {
                self.three_qubit += n;
                self.ccx += n;
            }
            Gate::Ccz => {
                self.three_qubit += n;
                self.ccz += n;
            }
            Gate::Cswap => {
                self.three_qubit += n;
                self.cswap += n;
            }
        }
    }

    /// Two-qubit cost after full lowering: each SWAP counts as 3 CX, each
    /// Toffoli and CCZ as the canonical 6-CNOT decomposition, and each
    /// Fredkin as its 8-CNOT form (CX-conjugated Toffoli).
    ///
    /// This matches how the paper compares circuits that still contain
    /// structural gates against fully-lowered ones.
    pub fn two_qubit_equivalent(&self) -> usize {
        self.two_qubit + 2 * self.swap + 6 * (self.ccx + self.ccz) + 8 * self.cswap
    }
}

impl fmt::Display for GateCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates ({} 1q, {} 2q [{} cx, {} swap], {} 3q, {} measure)",
            self.total,
            self.one_qubit,
            self.two_qubit,
            self.cx,
            self.swap,
            self.three_qubit,
            self.measure
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_gates() {
        let mut c = GateCounts::default();
        c.record(Gate::H);
        c.record(Gate::Cx);
        c.record(Gate::Swap);
        c.record(Gate::Ccx);
        c.record(Gate::Measure);
        assert_eq!(c.total, 5);
        assert_eq!(c.one_qubit, 1);
        assert_eq!(c.two_qubit, 2);
        assert_eq!(c.three_qubit, 1);
        assert_eq!(c.measure, 1);
        assert_eq!(c.cx, 1);
        assert_eq!(c.swap, 1);
        assert_eq!(c.ccx, 1);
    }

    #[test]
    fn record_classes_every_gate_by_arity_then_kind() {
        for gate in crate::gate::EVERY_KIND {
            let mut want = GateCounts {
                total: 1,
                ..GateCounts::default()
            };
            match gate.arity() {
                1 if gate.is_measurement() => want.measure = 1,
                1 => want.one_qubit = 1,
                2 => want.two_qubit = 1,
                3 => want.three_qubit = 1,
                other => panic!("arity {other}"),
            }
            match gate {
                Gate::Cx => want.cx = 1,
                Gate::Swap => want.swap = 1,
                Gate::Ccx => want.ccx = 1,
                Gate::Ccz => want.ccz = 1,
                Gate::Cswap => want.cswap = 1,
                _ => {}
            }
            let mut got = GateCounts::default();
            got.record(gate);
            assert_eq!(got, want, "{gate:?}");
        }
    }

    #[test]
    fn two_qubit_equivalent_expands_structural_gates() {
        let mut c = GateCounts::default();
        c.record(Gate::Cx);
        c.record(Gate::Swap); // 3 CX
        c.record(Gate::Ccx); // 6 CX
        assert_eq!(c.two_qubit_equivalent(), 1 + 3 + 6);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!GateCounts::default().to_string().is_empty());
    }
}
