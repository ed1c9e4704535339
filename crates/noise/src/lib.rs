//! # trios-noise — calibration data and the paper's success model
//!
//! Implements §2.6 of the paper: success probability as the product of
//! per-gate no-error probabilities and a whole-program decoherence factor
//! `exp(−Δ/T1 − Δ/T2)`. The calibration constants are the paper's published
//! IBM Johannesburg snapshot (2020-08-19), and [`Calibration::improved`]
//! provides the "20× better" near-future device of the benchmark
//! simulations and the Figure 12 sensitivity sweep.
//!
//! # Examples
//!
//! ```
//! use trios_ir::Circuit;
//! use trios_noise::{estimate_success, Calibration};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).measure_all();
//!
//! let today = estimate_success(&c, &Calibration::johannesburg_2020_08_19());
//! let future = estimate_success(&c, &Calibration::near_future());
//! assert!(future.probability() > today.probability());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calibration;
mod estimate;
mod montecarlo;

pub use calibration::Calibration;
pub use estimate::{
    estimate_from_counts, estimate_success, estimate_success_with_crosstalk,
    estimate_success_with_edge_errors, CrosstalkPolicy, SuccessEstimate,
};
pub use montecarlo::{
    analytic_error_free_probability, monte_carlo_fidelity, MonteCarloError, MonteCarloOptions,
    MonteCarloResult,
};
