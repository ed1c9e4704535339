//! The paper's success-probability model (§2.6).

use crate::Calibration;
use std::fmt;
use trios_ir::{Circuit, Gate, GateCounts};
use trios_schedule::{asap_total_us, schedule_asap};

/// Breakdown of a success-probability estimate.
///
/// The paper's simplified model (§2.6): the program succeeds if **no gate
/// errs** and **no decoherence occurs**, i.e.
///
/// ```text
/// P = Π_gates (1 − e_gate) · Π_meas (1 − e_readout) · exp(−Δ/T1 − Δ/T2)
/// ```
///
/// with Δ the ASAP-scheduled total duration. This is a close upper bound on
/// real success rate and is what Figures 6, 8, 9, 11, and 12 report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessEstimate {
    /// Probability that no gate error occurs.
    pub p_gates: f64,
    /// Probability that no readout error occurs.
    pub p_readout: f64,
    /// Probability that no decoherence occurs over the program duration.
    pub p_coherence: f64,
    /// Total program duration Δ (µs).
    pub duration_us: f64,
    /// One-qubit gates counted.
    pub one_qubit_gates: usize,
    /// Two-qubit gates counted (SWAP counts as 3, Toffoli as 6).
    pub two_qubit_gates: usize,
    /// Measurements counted.
    pub measurements: usize,
}

impl SuccessEstimate {
    /// The overall success probability.
    pub fn probability(&self) -> f64 {
        self.p_gates * self.p_readout * self.p_coherence
    }
}

impl fmt::Display for SuccessEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P={:.4} (gates {:.4} × readout {:.4} × coherence {:.4}, Δ={:.2}µs)",
            self.probability(),
            self.p_gates,
            self.p_readout,
            self.p_coherence,
            self.duration_us
        )
    }
}

/// Estimates the success probability of `circuit` under `calibration`:
/// [`estimate_from_counts`] over [`Circuit::counts`] and the ASAP
/// duration Δ under the calibration's gate durations
/// ([`asap_total_us`]).
///
/// The circuit is typically fully lowered; structural gates that remain
/// are costed by their standard expansions (see [`estimate_from_counts`])
/// so the estimate stays meaningful at every pipeline stage.
pub fn estimate_success(circuit: &Circuit, calibration: &Calibration) -> SuccessEstimate {
    estimate_from_counts(
        &circuit.counts(),
        asap_total_us(circuit, &calibration.durations),
        calibration,
    )
}

/// The §2.6 estimate of a circuit with gate counts `counts` and program
/// duration `duration_us` (Δ, µs):
///
/// ```text
/// n1 = one_qubit + 2·ccx + 4·ccz + 2·cswap
/// n2 = two_qubit_equivalent()        (SWAP = 3, CCX = CCZ = 6, CSWAP = 8)
/// nm = measure
/// P  = (1 − e1)^n1 · (1 − e2)^n2 · (1 − e_readout)^nm · exp(−Δ/T1 − Δ/T2)
/// ```
///
/// Each structural gate is costed by its standard expansion: a Toffoli
/// is 6 two-qubit and 2 one-qubit gates, a CCZ the Toffoli plus the two
/// Hadamards on its target, and a Fredkin its 8-CNOT form plus 2
/// one-qubit gates. [`estimate_success`] is this function over
/// [`Circuit::counts`] and the ASAP Δ; a caller that already holds both
/// (a compile's last pass record and its scheduled duration) skips the
/// rescan.
pub fn estimate_from_counts(
    counts: &GateCounts,
    duration_us: f64,
    calibration: &Calibration,
) -> SuccessEstimate {
    let n1 = counts.one_qubit + 2 * counts.ccx + 4 * counts.ccz + 2 * counts.cswap;
    let n2 = counts.two_qubit_equivalent();
    let nm = counts.measure;
    let p_gates = (1.0 - calibration.one_qubit_error).powi(n1 as i32)
        * (1.0 - calibration.two_qubit_error).powi(n2 as i32);
    let p_readout = (1.0 - calibration.readout_error).powi(nm as i32);
    let p_coherence = (-duration_us / calibration.t1_us - duration_us / calibration.t2_us).exp();
    SuccessEstimate {
        p_gates,
        p_readout,
        p_coherence,
        duration_us,
        one_qubit_gates: n1,
        two_qubit_gates: n2,
        measurements: nm,
    }
}

/// How crosstalk enters a success estimate.
///
/// Simultaneous two-qubit gates on coupled edges suffer extra error
/// (paper §2.3); `error_per_conflict` is the additional failure
/// probability charged to each such pair. The policy decides which
/// schedule the program runs under:
///
/// * [`CrosstalkPolicy::Ignore`] — the paper's model: ASAP schedule, no
///   crosstalk term (what Figures 6–12 report).
/// * [`CrosstalkPolicy::Charge`] — ASAP schedule, each conflicting pair
///   multiplies success by `1 − error_per_conflict`.
/// * [`CrosstalkPolicy::Avoid`] — the crosstalk-aware schedule
///   ([`schedule_crosstalk_aware`](trios_schedule::schedule_crosstalk_aware)):
///   zero conflicts by construction, but a longer duration and therefore
///   more decoherence. Whether avoiding beats charging is workload- and
///   rate-dependent — the ablation bench sweeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrosstalkPolicy {
    /// ASAP schedule, crosstalk not modeled (the paper's setting).
    Ignore,
    /// ASAP schedule; charge each simultaneous coupled pair.
    Charge {
        /// Extra failure probability per conflicting pair.
        error_per_conflict: f64,
    },
    /// Serialize coupled pairs instead (longer Δ, zero conflicts).
    Avoid,
}

/// [`estimate_success`] extended with a crosstalk model over the routed
/// circuit on `topology`.
///
/// # Panics
///
/// Panics if `error_per_conflict` is outside `[0, 1]`.
pub fn estimate_success_with_crosstalk(
    circuit: &Circuit,
    calibration: &Calibration,
    topology: &trios_topology::Topology,
    policy: CrosstalkPolicy,
) -> SuccessEstimate {
    use trios_schedule::{crosstalk_conflicts, schedule_crosstalk_aware};
    match policy {
        CrosstalkPolicy::Ignore => estimate_success(circuit, calibration),
        CrosstalkPolicy::Charge { error_per_conflict } => {
            assert!(
                (0.0..=1.0).contains(&error_per_conflict),
                "error_per_conflict must be a probability"
            );
            let mut estimate = estimate_success(circuit, calibration);
            let schedule = schedule_asap(circuit, &calibration.durations);
            let conflicts = crosstalk_conflicts(&schedule, topology);
            estimate.p_gates *= (1.0 - error_per_conflict).powi(conflicts as i32);
            estimate
        }
        CrosstalkPolicy::Avoid => {
            // Same gate arithmetic, but duration comes from the
            // serialized (conflict-free) schedule.
            let mut estimate = estimate_success(circuit, calibration);
            let schedule = schedule_crosstalk_aware(circuit, &calibration.durations, topology);
            let delta = schedule.total_duration_us();
            estimate.duration_us = delta;
            estimate.p_coherence = (-delta / calibration.t1_us - delta / calibration.t2_us).exp();
            estimate
        }
    }
}

/// [`estimate_success`] with **per-edge** two-qubit error rates: each
/// two-qubit gate is charged the error of the specific coupler it runs on.
///
/// This is the evaluation counterpart of the noise-aware compiler options
/// (`InitialMapping::NoiseAware`, `PathMetric::EdgeWeights`): a compiler
/// that steers traffic onto reliable couplers only shows its advantage
/// under an estimator that knows couplers differ.
///
/// `edges` and `edge_errors` run in parallel (the order returned by
/// `Topology::edges()`). The circuit must be routed: every two-qubit gate
/// must act on one of the listed edges.
///
/// # Panics
///
/// Panics if `edges` and `edge_errors` lengths differ, or if a two-qubit
/// gate acts on a pair that is not a listed edge.
pub fn estimate_success_with_edge_errors(
    circuit: &Circuit,
    calibration: &Calibration,
    edges: &[(usize, usize)],
    edge_errors: &[f64],
) -> SuccessEstimate {
    assert_eq!(
        edges.len(),
        edge_errors.len(),
        "one error rate per edge required"
    );
    let error_of: std::collections::HashMap<(usize, usize), f64> = edges
        .iter()
        .copied()
        .zip(edge_errors.iter().copied())
        .collect();

    let mut n1 = 0usize;
    let mut n2 = 0usize;
    let mut nm = 0usize;
    let mut p_gates = 1.0f64;
    for instr in circuit.iter() {
        let gate = instr.gate();
        match gate {
            Gate::Measure => nm += 1,
            g if g.arity() == 1 => {
                n1 += 1;
                p_gates *= 1.0 - calibration.one_qubit_error;
            }
            g if g.arity() == 2 => {
                let (a, b) = (instr.qubit(0).index(), instr.qubit(1).index());
                let key = (a.min(b), a.max(b));
                let e = *error_of
                    .get(&key)
                    .unwrap_or_else(|| panic!("two-qubit gate on non-edge {key:?}"));
                // SWAPs (3 CX on one coupler) may survive in un-lowered
                // circuits; charge them accordingly.
                let reps = if gate == Gate::Swap { 3 } else { 1 };
                n2 += reps;
                p_gates *= (1.0 - e).powi(reps as i32);
            }
            g => panic!("estimate_success_with_edge_errors needs a routed circuit, got {g:?}"),
        }
    }
    let delta = asap_total_us(circuit, &calibration.durations);
    let p_readout = (1.0 - calibration.readout_error).powi(nm as i32);
    let p_coherence = (-delta / calibration.t1_us - delta / calibration.t2_us).exp();
    SuccessEstimate {
        p_gates,
        p_readout,
        p_coherence,
        duration_us: delta,
        one_qubit_gates: n1,
        two_qubit_gates: n2,
        measurements: nm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::johannesburg_2020_08_19()
    }

    #[test]
    fn empty_circuit_succeeds_certainly() {
        let e = estimate_success(&Circuit::new(3), &cal());
        assert_eq!(e.probability(), 1.0);
        assert_eq!(e.duration_us, 0.0);
    }

    #[test]
    fn hand_computed_single_cx() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let e = estimate_success(&c, &cal());
        let expected_gates = 1.0 - 0.0147;
        assert!((e.p_gates - expected_gates).abs() < 1e-12);
        let delta = 0.559;
        let expected_coh = (-delta / 70.87 - delta / 72.72f64).exp();
        assert!((e.p_coherence - expected_coh).abs() < 1e-12);
        assert!((e.probability() - expected_gates * expected_coh).abs() < 1e-12);
    }

    #[test]
    fn more_gates_lower_success() {
        let mut small = Circuit::new(2);
        small.cx(0, 1);
        let mut big = Circuit::new(2);
        for _ in 0..10 {
            big.cx(0, 1);
        }
        assert!(
            estimate_success(&big, &cal()).probability()
                < estimate_success(&small, &cal()).probability()
        );
    }

    #[test]
    fn swap_costs_three_cx() {
        let mut swap = Circuit::new(2);
        swap.swap(0, 1);
        let mut three = Circuit::new(2);
        three.cx(0, 1).cx(1, 0).cx(0, 1);
        let a = estimate_success(&swap, &cal());
        let b = estimate_success(&three, &cal());
        assert_eq!(a.two_qubit_gates, b.two_qubit_gates);
        assert!((a.probability() - b.probability()).abs() < 1e-12);
    }

    #[test]
    fn ccz_costs_at_least_as_many_one_qubit_gates_as_ccx() {
        // Regression: CCZ used to count 6 two-qubit gates but *zero*
        // one-qubit gates, making it look cheaper than the CCX it lowers
        // to (CCZ = H·CCX·H on the target).
        let mut ccx = Circuit::new(3);
        ccx.ccx(0, 1, 2);
        let mut ccz = Circuit::new(3);
        ccz.ccz(0, 1, 2);
        let ex = estimate_success(&ccx, &cal());
        let ez = estimate_success(&ccz, &cal());
        assert_eq!(ez.two_qubit_gates, ex.two_qubit_gates);
        assert!(
            ez.one_qubit_gates >= ex.one_qubit_gates,
            "CCZ 1q cost {} must be >= CCX 1q cost {}",
            ez.one_qubit_gates,
            ex.one_qubit_gates
        );
        assert_eq!(ez.one_qubit_gates, ex.one_qubit_gates + 2);
        assert!(ez.p_gates <= ex.p_gates);
    }

    #[test]
    fn counts_and_delta_give_the_circuit_estimate_bit_for_bit() {
        // Every gate kind the counter classifies, structural gates and
        // measurements included.
        let mut c = Circuit::new(4);
        c.h(0)
            .t(1)
            .rz(0.3, 2)
            .cx(0, 1)
            .cz(1, 2)
            .cp(0.7, 2, 3)
            .swap(0, 3)
            .ccx(0, 1, 2)
            .ccz(1, 2, 3)
            .cswap(0, 2, 3)
            .measure_all();
        for calibration in [cal(), cal().improved(20.0), cal().improved(5.0)] {
            let whole = estimate_success(&c, &calibration);
            let delta = schedule_asap(&c, &calibration.durations).total_duration_us();
            let parts = estimate_from_counts(&c.counts(), delta, &calibration);
            assert_eq!(parts, whole);
            assert_eq!(parts.probability().to_bits(), whole.probability().to_bits());
        }
        let counts = c.counts();
        let e = estimate_success(&c, &cal());
        assert_eq!(e.two_qubit_gates, 3 + 3 + 6 + 6 + 8);
        assert_eq!(e.one_qubit_gates, 3 + 2 + 4 + 2);
        assert_eq!(e.measurements, counts.measure);
    }

    #[test]
    fn improvement_raises_success() {
        let mut c = Circuit::new(2);
        for _ in 0..50 {
            c.cx(0, 1);
        }
        c.measure_all();
        let base = estimate_success(&c, &cal()).probability();
        let better = estimate_success(&c, &cal().improved(20.0)).probability();
        assert!(better > base);
        assert!(better < 1.0);
    }

    #[test]
    fn readout_error_counts_per_measurement() {
        let mut c = Circuit::new(3);
        c.measure_all();
        let e = estimate_success(&c, &cal());
        assert_eq!(e.measurements, 3);
        assert!((e.p_readout - (1.0f64 - 0.02).powi(3)).abs() < 1e-12);
    }

    #[test]
    fn parallel_circuits_decohere_less_than_serial() {
        // Same gate count, different depth → different Δ → different P.
        let mut serial = Circuit::new(2);
        for _ in 0..20 {
            serial.cx(0, 1);
        }
        let mut parallel = Circuit::new(4);
        for _ in 0..10 {
            parallel.cx(0, 1).cx(2, 3);
        }
        let s = estimate_success(&serial, &cal());
        let p = estimate_success(&parallel, &cal());
        assert_eq!(s.two_qubit_gates, p.two_qubit_gates);
        assert!(p.p_coherence > s.p_coherence);
    }

    #[test]
    fn display_is_informative() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let text = estimate_success(&c, &cal()).to_string();
        assert!(text.contains("P="));
        assert!(text.contains("Δ="));
    }

    #[test]
    fn crosstalk_policies_order_as_expected() {
        use trios_topology::line;
        // Two parallel coupled CXs on a 4-line.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let topo = line(4);
        let calibration = cal();
        let ignore =
            estimate_success_with_crosstalk(&c, &calibration, &topo, CrosstalkPolicy::Ignore);
        let charge = estimate_success_with_crosstalk(
            &c,
            &calibration,
            &topo,
            CrosstalkPolicy::Charge {
                error_per_conflict: 0.05,
            },
        );
        let avoid =
            estimate_success_with_crosstalk(&c, &calibration, &topo, CrosstalkPolicy::Avoid);
        // Charging one conflict multiplies gates by 0.95 exactly.
        assert!((charge.p_gates - ignore.p_gates * 0.95).abs() < 1e-12);
        assert_eq!(charge.duration_us, ignore.duration_us);
        // Avoiding doubles the duration and restores the gate term.
        assert!((avoid.duration_us - 2.0 * ignore.duration_us).abs() < 1e-12);
        assert_eq!(avoid.p_gates, ignore.p_gates);
        assert!(avoid.p_coherence < ignore.p_coherence);
        // At this rate, serializing two short gates beats eating the
        // conflict.
        assert!(avoid.probability() > charge.probability());
    }

    #[test]
    fn crosstalk_ignore_matches_plain_estimate() {
        use trios_topology::line;
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure(2);
        let a = estimate_success(&c, &cal());
        let b = estimate_success_with_crosstalk(&c, &cal(), &line(3), CrosstalkPolicy::Ignore);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn crosstalk_charge_validates_rate() {
        use trios_topology::line;
        let c = Circuit::new(2);
        estimate_success_with_crosstalk(
            &c,
            &cal(),
            &line(2),
            CrosstalkPolicy::Charge {
                error_per_conflict: 1.5,
            },
        );
    }

    #[test]
    fn edge_error_estimate_matches_uniform_when_errors_are_uniform() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure(0);
        let calibration = cal();
        let edges = [(0usize, 1usize), (1, 2)];
        let errors = [calibration.two_qubit_error; 2];
        let per_edge = estimate_success_with_edge_errors(&c, &calibration, &edges, &errors);
        let uniform = estimate_success(&c, &calibration);
        assert!((per_edge.probability() - uniform.probability()).abs() < 1e-12);
    }

    #[test]
    fn edge_error_estimate_penalizes_bad_couplers() {
        let mut on_good = Circuit::new(3);
        on_good.cx(0, 1);
        let mut on_bad = Circuit::new(3);
        on_bad.cx(1, 2);
        let calibration = cal();
        let edges = [(0usize, 1usize), (1, 2)];
        let errors = [0.001, 0.2];
        let good = estimate_success_with_edge_errors(&on_good, &calibration, &edges, &errors);
        let bad = estimate_success_with_edge_errors(&on_bad, &calibration, &edges, &errors);
        assert!(good.probability() > bad.probability());
        assert!((bad.p_gates - 0.8).abs() < 1e-12);
    }

    #[test]
    fn edge_error_estimate_charges_swaps_three_times() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let e = estimate_success_with_edge_errors(&c, &cal(), &[(0, 1)], &[0.1]);
        assert_eq!(e.two_qubit_gates, 3);
        assert!((e.p_gates - 0.9f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn edge_error_estimate_rejects_unrouted_circuits() {
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        estimate_success_with_edge_errors(&c, &cal(), &[(0, 1), (1, 2)], &[0.01, 0.01]);
    }
}
