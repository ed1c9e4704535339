//! Monte Carlo (quantum-trajectory) noise simulation, cross-validating the
//! paper's analytic success model (§2.6).
//!
//! The analytic model multiplies "no gate error" probabilities with a
//! whole-program decoherence factor. This module checks that model
//! empirically: it samples noisy executions of the actual circuit on the
//! statevector simulator, injecting
//!
//! * **gate errors** — after each gate, with the calibrated probability, a
//!   uniformly random non-identity Pauli on the gate's operands;
//! * **decoherence** — per qubit and per scheduled time interval (busy and
//!   idle alike, from the ASAP schedule), a Pauli-twirled
//!   relaxation/dephasing channel: `X` with probability
//!   `(1 − e^{−dt/T1})/2` and `Z` with `(1 − e^{−dt/T2})/2`;
//!
//! and reports the mean fidelity with the ideal output. Two analytic
//! quantities are directly validated:
//!
//! * the fraction of completely error-free trajectories is an unbiased
//!   estimator of the model's `p_gates · p_coherence`-style product, and
//! * mean fidelity ≥ that product — erred trajectories retain some
//!   overlap — with the *gap* measuring how pessimistic the paper's
//!   "success = nothing went wrong" approximation is.

use crate::Calibration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;
use trios_ir::{Circuit, Gate, Instruction, Qubit};
use trios_schedule::schedule_asap;
use trios_sim::{SimError, State};

/// Why a Monte Carlo run could not be performed.
#[derive(Debug, Clone, PartialEq)]
pub enum MonteCarloError {
    /// `shots == 0` was requested: the estimator would be a 0/0 and every
    /// statistic NaN, so the configuration is rejected up front.
    ZeroShots,
    /// The statevector simulator refused the circuit.
    Sim(SimError),
}

impl fmt::Display for MonteCarloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonteCarloError::ZeroShots => {
                write!(f, "monte carlo needs at least one shot (got 0)")
            }
            MonteCarloError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for MonteCarloError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MonteCarloError::ZeroShots => None,
            MonteCarloError::Sim(e) => Some(e),
        }
    }
}

impl From<SimError> for MonteCarloError {
    fn from(e: SimError) -> Self {
        MonteCarloError::Sim(e)
    }
}

/// Configuration of a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloOptions {
    /// Number of sampled trajectories.
    pub shots: usize,
    /// RNG seed (trajectories are reproducible per seed).
    pub seed: u64,
    /// Inject per-gate Pauli errors at the calibrated rates.
    pub gate_errors: bool,
    /// Inject time-resolved relaxation/dephasing from the ASAP schedule.
    pub decoherence: bool,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        MonteCarloOptions {
            shots: 200,
            seed: 0,
            gate_errors: true,
            decoherence: true,
        }
    }
}

/// Aggregate result of a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Mean fidelity `|⟨ψ_ideal|ψ_shot⟩|²` over trajectories.
    pub mean_fidelity: f64,
    /// Standard error of the mean fidelity.
    pub std_error: f64,
    /// Trajectories in which no error of any kind was injected.
    pub error_free_shots: usize,
    /// Total trajectories sampled.
    pub shots: usize,
}

impl MonteCarloResult {
    /// Fraction of trajectories with no injected error — the Monte Carlo
    /// estimate of the analytic model's "nothing went wrong" probability.
    ///
    /// Returns `0.0` (never NaN) for a hand-built result with
    /// `shots == 0`; [`monte_carlo_fidelity`] itself rejects that
    /// configuration with [`MonteCarloError::ZeroShots`].
    pub fn error_free_fraction(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.error_free_shots as f64 / self.shots as f64
    }
}

/// Runs `options.shots` noisy trajectories of `circuit` under
/// `calibration` and reports fidelity statistics against the noiseless
/// output.
///
/// Measurements are skipped (fidelity is computed on the pre-measurement
/// state); readout error is a classical per-bit flip best handled
/// analytically, as [`estimate_success`](crate::estimate_success) does.
///
/// # Errors
///
/// Returns [`MonteCarloError::ZeroShots`] when `options.shots == 0` (the
/// statistics would all be NaN), or [`MonteCarloError::Sim`] when the
/// statevector simulator refuses the circuit or an injected error — for
/// example [`SimError::TooManyQubits`] if the circuit is too wide to
/// simulate densely.
pub fn monte_carlo_fidelity(
    circuit: &Circuit,
    calibration: &Calibration,
    options: MonteCarloOptions,
) -> Result<MonteCarloResult, MonteCarloError> {
    if options.shots == 0 {
        return Err(MonteCarloError::ZeroShots);
    }
    let ideal = State::run(circuit)?;
    let schedule = schedule_asap(circuit, &calibration.durations);
    let n = circuit.num_qubits();
    let mut rng = StdRng::seed_from_u64(options.seed);

    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    let mut error_free = 0usize;
    for shot in 0..options.shots {
        let mut state = State::zero(n)?;
        let mut erred = false;
        // Per-qubit time already accounted for by decoherence injection.
        let mut qubit_clock = vec![0.0f64; n];
        for op in schedule.ops() {
            let instr = &op.instruction;
            if instr.gate().is_measurement() {
                continue;
            }
            if options.decoherence {
                // Idle + gate time since this qubit's last update.
                for q in instr.qubits() {
                    let dt = op.end_us() - qubit_clock[q.index()];
                    qubit_clock[q.index()] = op.end_us();
                    erred |= inject_decoherence(&mut state, &mut rng, q.index(), dt, calibration)?;
                }
            }
            state.try_apply(instr)?;
            if options.gate_errors {
                let rate = match instr.gate().arity() {
                    1 => calibration.one_qubit_error,
                    _ => calibration.two_qubit_error,
                };
                if rng.gen_bool(rate) {
                    inject_random_pauli(&mut state, &mut rng, instr.qubits())?;
                    erred = true;
                }
            }
        }
        if options.decoherence {
            // Trailing idle up to circuit end.
            let total = schedule.total_duration_us();
            for (q, clock) in qubit_clock.iter().enumerate() {
                let dt = total - clock;
                erred |= inject_decoherence(&mut state, &mut rng, q, dt, calibration)?;
            }
        }
        if !erred {
            error_free += 1;
        }
        let fidelity = ideal.fidelity(&state);
        // Welford's online mean/variance.
        let delta = fidelity - mean;
        mean += delta / (shot + 1) as f64;
        m2 += delta * (fidelity - mean);
    }
    let variance = if options.shots > 1 {
        m2 / (options.shots - 1) as f64
    } else {
        0.0
    };
    Ok(MonteCarloResult {
        mean_fidelity: mean,
        std_error: (variance / options.shots as f64).sqrt(),
        error_free_shots: error_free,
        shots: options.shots,
    })
}

/// The exact probability that a [`monte_carlo_fidelity`] trajectory under
/// `options` injects **no error at all** — the analytic product the
/// sampler's [`MonteCarloResult::error_free_fraction`] estimates without
/// bias, and therefore a guaranteed (within binomial sampling error)
/// lower bound on its mean fidelity: error-free trajectories replay the
/// ideal circuit, so each contributes fidelity exactly 1.
///
/// The computation walks the same ASAP schedule as the sampler and
/// multiplies, per the enabled channels,
///
/// * `1 − e_gate` per non-measurement gate, and
/// * `(1 − p_relax(dt)) · (1 − p_dephase(dt))` per qubit and scheduled
///   interval (busy and idle alike, including the trailing idle to
///   circuit end), with the Pauli-twirled rates
///   `p = (1 − e^{−dt/T})/2`.
///
/// Note the decoherence factor is **per qubit**, which on wide or
/// idle-heavy circuits is strictly more pessimistic than the paper's
/// whole-program `exp(−Δ/T1 − Δ/T2)` term
/// ([`estimate_success`](crate::estimate_success)); the gap between the
/// two is exactly what the Monte Carlo cross-check measures.
pub fn analytic_error_free_probability(
    circuit: &Circuit,
    calibration: &Calibration,
    options: MonteCarloOptions,
) -> f64 {
    let schedule = schedule_asap(circuit, &calibration.durations);
    let n = circuit.num_qubits();
    let mut p = 1.0f64;
    let mut qubit_clock = vec![0.0f64; n];
    let no_decoherence = |qubit_clock: &mut [f64], q: usize, until: f64| {
        let dt = until - qubit_clock[q];
        qubit_clock[q] = until;
        if dt <= 0.0 {
            return 1.0;
        }
        let p_relax = 0.5 * (1.0 - (-dt / calibration.t1_us).exp());
        let p_dephase = 0.5 * (1.0 - (-dt / calibration.t2_us).exp());
        (1.0 - p_relax.clamp(0.0, 1.0)) * (1.0 - p_dephase.clamp(0.0, 1.0))
    };
    for op in schedule.ops() {
        let instr = &op.instruction;
        if instr.gate().is_measurement() {
            continue;
        }
        if options.decoherence {
            for q in instr.qubits() {
                p *= no_decoherence(&mut qubit_clock, q.index(), op.end_us());
            }
        }
        if options.gate_errors {
            let rate = match instr.gate().arity() {
                1 => calibration.one_qubit_error,
                _ => calibration.two_qubit_error,
            };
            p *= 1.0 - rate;
        }
    }
    if options.decoherence {
        let total = schedule.total_duration_us();
        for q in 0..n {
            p *= no_decoherence(&mut qubit_clock, q, total);
        }
    }
    p
}

/// Applies a uniformly random non-identity Pauli over `qubits`.
fn inject_random_pauli(
    state: &mut State,
    rng: &mut StdRng,
    qubits: &[Qubit],
) -> Result<(), SimError> {
    let options = 4usize.pow(qubits.len() as u32);
    let pick = rng.gen_range(1..options); // 0 = identity, excluded
    for (i, q) in qubits.iter().enumerate() {
        let pauli = (pick >> (2 * i)) & 0b11;
        let gate = match pauli {
            0 => continue,
            1 => Gate::X,
            2 => Gate::Y,
            _ => Gate::Z,
        };
        state.try_apply(&Instruction::new(gate, &[*q]))?;
    }
    Ok(())
}

/// Pauli-twirled relaxation/dephasing on one qubit over `dt` µs. Returns
/// `true` if an error was injected.
fn inject_decoherence(
    state: &mut State,
    rng: &mut StdRng,
    qubit: usize,
    dt: f64,
    calibration: &Calibration,
) -> Result<bool, SimError> {
    if dt <= 0.0 {
        return Ok(false);
    }
    let q = Qubit::new(qubit);
    let mut erred = false;
    let p_relax = 0.5 * (1.0 - (-dt / calibration.t1_us).exp());
    if rng.gen_bool(p_relax.clamp(0.0, 1.0)) {
        state.try_apply(&Instruction::new(Gate::X, &[q]))?;
        erred = true;
    }
    let p_dephase = 0.5 * (1.0 - (-dt / calibration.t2_us).exp());
    if rng.gen_bool(p_dephase.clamp(0.0, 1.0)) {
        state.try_apply(&Instruction::new(Gate::Z, &[q]))?;
        erred = true;
    }
    Ok(erred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_success;

    fn toffoli_program() -> Circuit {
        let mut c = Circuit::new(3);
        c.x(0).x(1).ccx(0, 1, 2);
        c
    }

    fn gate_errors_only(shots: usize, seed: u64) -> MonteCarloOptions {
        MonteCarloOptions {
            shots,
            seed,
            gate_errors: true,
            decoherence: false,
        }
    }

    #[test]
    fn noiseless_run_has_unit_fidelity() {
        let opts = MonteCarloOptions {
            shots: 10,
            seed: 1,
            gate_errors: false,
            decoherence: false,
        };
        let r = monte_carlo_fidelity(&toffoli_program(), &Calibration::default(), opts).unwrap();
        assert!((r.mean_fidelity - 1.0).abs() < 1e-12);
        assert_eq!(r.error_free_shots, 10);
        assert_eq!(r.std_error, 0.0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let cal = Calibration::default();
        let a = monte_carlo_fidelity(&toffoli_program(), &cal, gate_errors_only(50, 9)).unwrap();
        let b = monte_carlo_fidelity(&toffoli_program(), &cal, gate_errors_only(50, 9)).unwrap();
        let c = monte_carlo_fidelity(&toffoli_program(), &cal, gate_errors_only(50, 10)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn error_free_fraction_matches_analytic_gate_model() {
        // A circuit long enough that p_gates is meaningfully below 1.
        let mut c = Circuit::new(3);
        for _ in 0..10 {
            c.cx(0, 1).cx(1, 2).h(0);
        }
        let cal = Calibration::default(); // e2q = 0.0147
        let analytic = estimate_success(&c, &cal);
        let mc = monte_carlo_fidelity(&c, &cal, gate_errors_only(4000, 3)).unwrap();
        // Binomial check: error-free fraction estimates p_gates.
        let p = analytic.p_gates;
        let sigma = (p * (1.0 - p) / 4000.0).sqrt();
        assert!(
            (mc.error_free_fraction() - p).abs() < 4.0 * sigma,
            "mc {} vs analytic {} (4σ = {})",
            mc.error_free_fraction(),
            p,
            4.0 * sigma
        );
        // Fidelity can only exceed the "nothing went wrong" bound.
        assert!(mc.mean_fidelity >= p - 4.0 * sigma);
    }

    #[test]
    fn analytic_model_lower_bounds_fidelity() {
        // Versus pure unitary-noise fidelity, the paper's "success = no
        // error happened" product is a *lower* bound: erred trajectories
        // keep some overlap. The gap is real and circuit-dependent — a
        // Pauli landing on a wire that is in a computational basis state
        // (Z) or a |±⟩ state (X) does no damage at all — so we assert the
        // bound plus a generous cap, and assert tightness separately for
        // phase-sensitive circuits below.
        let mut c = Circuit::new(4);
        for _ in 0..6 {
            c.cx(0, 1).cx(2, 3).cx(0, 2).cx(2, 3).h(1).t(0);
        }
        let cal = Calibration::default();
        let analytic = estimate_success(&c, &cal).p_gates;
        let mc = monte_carlo_fidelity(&c, &cal, gate_errors_only(3000, 5)).unwrap();
        assert!(mc.mean_fidelity >= analytic - 0.03);
        assert!(mc.mean_fidelity <= 1.0 + 1e-12);
    }

    #[test]
    fn model_is_tight_for_phase_sensitive_circuits() {
        // All qubits in superposition with irrational phases: nearly every
        // injected Pauli destroys the overlap, so mean fidelity hugs the
        // error-free fraction.
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        for _ in 0..8 {
            c.t(0).cx(0, 1).rz(0.7, 1).cx(1, 2).t(2).cx(0, 2);
        }
        let cal = Calibration::default();
        let mc = monte_carlo_fidelity(&c, &cal, gate_errors_only(3000, 5)).unwrap();
        let gap = mc.mean_fidelity - mc.error_free_fraction();
        assert!(
            gap.abs() < 0.06,
            "gap {gap} too large: error-free {} vs fidelity {}",
            mc.error_free_fraction(),
            mc.mean_fidelity
        );
    }

    #[test]
    fn decoherence_lowers_fidelity_of_idle_heavy_circuits() {
        // Long idle stretch on a spectator qubit in superposition.
        let mut c = Circuit::new(2);
        c.h(1);
        for _ in 0..60 {
            c.x(0).x(0);
        }
        c.h(1);
        let cal = Calibration::default();
        let without = MonteCarloOptions {
            shots: 300,
            seed: 2,
            gate_errors: false,
            decoherence: false,
        };
        let with = MonteCarloOptions {
            decoherence: true,
            ..without
        };
        let clean = monte_carlo_fidelity(&c, &cal, without).unwrap();
        let noisy = monte_carlo_fidelity(&c, &cal, with).unwrap();
        assert!((clean.mean_fidelity - 1.0).abs() < 1e-12);
        assert!(noisy.mean_fidelity < 0.95);
    }

    #[test]
    fn analytic_error_free_matches_gate_model_without_decoherence() {
        // With decoherence off the product is exactly the per-gate term of
        // the §2.6 model on a lowered circuit.
        let mut c = Circuit::new(3);
        for _ in 0..7 {
            c.cx(0, 1).h(2).cx(1, 2);
        }
        let cal = Calibration::default();
        let p = analytic_error_free_probability(&c, &cal, gate_errors_only(1, 0));
        assert!((p - estimate_success(&c, &cal).p_gates).abs() < 1e-12);
    }

    #[test]
    fn error_free_fraction_is_an_unbiased_estimator_of_the_analytic_product() {
        // The full-channel validation: gate errors AND per-qubit
        // decoherence, fraction within 4σ binomial of the exact product,
        // and mean fidelity above it (error-free shots have fidelity 1).
        let mut c = Circuit::new(3);
        for _ in 0..6 {
            c.cx(0, 1).cx(1, 2).h(0).t(2);
        }
        let cal = Calibration::default();
        let options = MonteCarloOptions {
            shots: 4000,
            seed: 11,
            gate_errors: true,
            decoherence: true,
        };
        let p = analytic_error_free_probability(&c, &cal, options);
        assert!(p > 0.0 && p < 1.0);
        let mc = monte_carlo_fidelity(&c, &cal, options).unwrap();
        let sigma = (p * (1.0 - p) / options.shots as f64).sqrt();
        assert!(
            (mc.error_free_fraction() - p).abs() < 4.0 * sigma,
            "fraction {} vs analytic {} (4σ = {})",
            mc.error_free_fraction(),
            p,
            4.0 * sigma
        );
        assert!(mc.mean_fidelity >= mc.error_free_fraction());
        assert!(mc.mean_fidelity + 4.0 * sigma >= p);
    }

    #[test]
    fn rejects_oversized_circuits() {
        let c = Circuit::new(30);
        let err = monte_carlo_fidelity(&c, &Calibration::default(), MonteCarloOptions::default())
            .unwrap_err();
        assert!(matches!(err, MonteCarloError::Sim(_)), "{err}");
    }

    #[test]
    fn rejects_zero_shots_with_an_error_not_nan() {
        // Regression: shots == 0 used to panic (and a hand-built result
        // divided 0/0 into NaN); it is now a proper, matchable error.
        let opts = MonteCarloOptions {
            shots: 0,
            ..MonteCarloOptions::default()
        };
        let err =
            monte_carlo_fidelity(&Circuit::new(1), &Calibration::default(), opts).unwrap_err();
        assert_eq!(err, MonteCarloError::ZeroShots);
        assert!(err.to_string().contains("at least one shot"));
    }

    #[test]
    fn error_free_fraction_of_empty_result_is_zero_not_nan() {
        let empty = MonteCarloResult {
            mean_fidelity: 0.0,
            std_error: 0.0,
            error_free_shots: 0,
            shots: 0,
        };
        let fraction = empty.error_free_fraction();
        assert!(!fraction.is_nan());
        assert_eq!(fraction, 0.0);
    }
}
