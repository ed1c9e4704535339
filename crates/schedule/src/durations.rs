//! Gate duration models.

/// Durations (in microseconds) of the primitive operations, used by the
/// ASAP scheduler to compute total program duration Δ for the coherence
/// term `exp(−Δ/T1 − Δ/T2)` of the paper's success model (§2.6).
///
/// Defaults are the paper's published IBM Johannesburg calibration from
/// 2020-08-19: two-qubit gates 0.559 µs, one-qubit gates 0.07 µs. The
/// readout duration is not stated in the paper; 3.5 µs is a typical IBM
/// value of that era and affects all compiler configurations identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDurations {
    /// Single-qubit gate duration (µs).
    pub one_qubit_us: f64,
    /// Two-qubit gate duration (µs).
    pub two_qubit_us: f64,
    /// Measurement duration (µs).
    pub measure_us: f64,
}

impl Default for GateDurations {
    fn default() -> Self {
        GateDurations::johannesburg()
    }
}

impl GateDurations {
    /// The paper's Johannesburg gate times (§5.2).
    pub const fn johannesburg() -> Self {
        GateDurations {
            one_qubit_us: 0.07,
            two_qubit_us: 0.559,
            measure_us: 3.5,
        }
    }

    /// Duration of one instruction, given its arity and kind.
    ///
    /// Structural gates that the scheduler may still encounter are costed
    /// by their standard expansions: SWAP as 3 sequential two-qubit gates,
    /// Toffoli as its 6-CNOT decomposition's critical path (6 two-qubit
    /// plus 2 one-qubit gates). Fully lowered circuits never hit those
    /// branches.
    pub fn of(&self, gate: trios_ir::Gate) -> f64 {
        use trios_ir::Gate;
        match gate {
            Gate::Measure => self.measure_us,
            Gate::Swap => 3.0 * self.two_qubit_us,
            Gate::Ccx => 6.0 * self.two_qubit_us + 2.0 * self.one_qubit_us,
            Gate::Ccz => 6.0 * self.two_qubit_us,
            Gate::Cswap => 8.0 * self.two_qubit_us + 2.0 * self.one_qubit_us,
            g if g.arity() == 1 => self.one_qubit_us,
            _ => self.two_qubit_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trios_ir::Gate;

    #[test]
    fn johannesburg_values_match_paper() {
        let d = GateDurations::johannesburg();
        assert_eq!(d.one_qubit_us, 0.07);
        assert_eq!(d.two_qubit_us, 0.559);
    }

    #[test]
    fn durations_by_gate_kind() {
        let d = GateDurations::default();
        assert_eq!(d.of(Gate::H), d.one_qubit_us);
        assert_eq!(d.of(Gate::Cx), d.two_qubit_us);
        assert_eq!(d.of(Gate::Swap), 3.0 * d.two_qubit_us);
        assert_eq!(d.of(Gate::Measure), d.measure_us);
        assert!(d.of(Gate::Ccx) > 6.0 * d.two_qubit_us);
    }
}
