//! One request model for the `trios` CLI and the `trios serve` protocol:
//! both parse request values here, so they accept the same values and word
//! a bad one the same way. Parsed values display as the caller spelled
//! them, because replies, headers and sweep cell names echo them. Reading
//! files and building devices stay with the caller.

use crate::{CompileOptions, Compiler, SweepBenchmark};
use std::fmt;
use std::str::FromStr;
use trios_benchmarks::{Benchmark, ExtendedBenchmark};
use trios_gen::Family;
use trios_ir::Circuit;
use trios_noise::{Calibration, CrosstalkPolicy};
use trios_passes::DecomposerRegistry;
use trios_route::StrategyRegistry;

const CALIBRATIONS: &str = "now, future, or improve:<f> with f > 0";
const CROSSTALK: &str = "ignore, avoid, or charge:<p> with 0 <= p <= 1";

/// A request value the compiler cannot take, or OpenQASM source that does
/// not parse. The message names the value and what is accepted instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError(String);

fn unknown(what: &str, value: &str, expected: &str) -> RequestError {
    RequestError(format!("unknown {what} '{value}' (expected {expected})"))
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RequestError {}

fn check<'a>(
    what: &str,
    known: Vec<&str>,
    names: impl IntoIterator<Item = &'a str>,
) -> Result<(), RequestError> {
    match names.into_iter().find(|name| !known.contains(name)) {
        None => Ok(()),
        Some(name) => Err(unknown(what, name, &format!("one of {}", known.join(", ")))),
    }
}

/// Checks router names against the standard registry.
pub fn check_routers<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<(), RequestError> {
    let registry = StrategyRegistry::standard();
    check("router", registry.names().collect(), names)
}

/// Checks decomposer names against the standard registry. Cost-model-only
/// entries such as `qutrit` pass: sweeps reprice them, compiles refuse them.
pub fn check_decomposers<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<(), RequestError> {
    let registry = DecomposerRegistry::standard();
    check("decomposer", registry.names().collect(), names)
}

/// Resolves a generator family by its registry name.
pub fn family(name: &str) -> Result<Family, RequestError> {
    let known = Family::ALL.map(Family::name).to_vec();
    check("generator family", known, [name])?;
    Ok(Family::parse(name).expect("checked above"))
}

#[derive(Debug, Clone, PartialEq)]
enum Source {
    Paper(Benchmark),
    Extended(ExtendedBenchmark),
    Generated(Family, u64),
    Qasm(String),
}

/// The circuit a request compiles: a paper or extended benchmark name,
/// `gen:<family>[:<seed>]` (seed 0 if left out), or OpenQASM source. Only
/// [`CircuitRef::circuit`] builds it, so a server can check a request on
/// its reader thread and leave the work to a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitRef {
    spelling: String,
    source: Source,
}

impl CircuitRef {
    /// OpenQASM 2.0 source, displayed as `name` (a path, `<inline qasm>`).
    pub fn qasm(name: impl Into<String>, source: impl Into<String>) -> Self {
        CircuitRef {
            spelling: name.into(),
            source: Source::Qasm(source.into()),
        }
    }

    /// Builds, generates or parses the circuit.
    pub fn circuit(&self) -> Result<Circuit, RequestError> {
        Ok(match &self.source {
            Source::Paper(benchmark) => benchmark.build(),
            Source::Extended(benchmark) => benchmark.build(),
            Source::Generated(family, seed) => family.generate_case(*seed).circuit,
            Source::Qasm(source) => {
                trios_qasm::parse(source).map_err(|e| RequestError(format!("qasm error: {e}")))?
            }
        })
    }

    /// The circuit as a sweep benchmark, measured unless it measures.
    pub fn sweep_benchmark(&self) -> Result<SweepBenchmark, RequestError> {
        let circuit = self.circuit()?;
        Ok(match circuit.counts().measure {
            0 => SweepBenchmark::measured(&self.spelling, circuit),
            _ => SweepBenchmark::new(&self.spelling, circuit),
        })
    }
}

impl FromStr for CircuitRef {
    type Err = RequestError;

    fn from_str(name: &str) -> Result<Self, RequestError> {
        let paper = Benchmark::ALL.into_iter().find(|b| b.name() == name);
        let extended = ExtendedBenchmark::ALL
            .into_iter()
            .find(|b| b.name() == name);
        let source = match (name.strip_prefix("gen:"), paper, extended) {
            (Some(rest), _, _) => {
                let (family_name, seed) = rest.split_once(':').unwrap_or((rest, "0"));
                let expected = "gen:<family>[:<seed>] with an unsigned integer seed";
                let seed = seed
                    .parse()
                    .map_err(|_| unknown("generator ref", name, expected))?;
                Source::Generated(family(family_name)?, seed)
            }
            (None, Some(benchmark), _) => Source::Paper(benchmark),
            (None, None, Some(benchmark)) => Source::Extended(benchmark),
            (None, None, None) => {
                let names = Benchmark::ALL.map(Benchmark::name).join(", ");
                let more = ExtendedBenchmark::ALL
                    .map(ExtendedBenchmark::name)
                    .join(", ");
                let expected = format!("one of {names}, {more}, or gen:<family>[:<seed>]");
                return Err(unknown("benchmark", name, &expected));
            }
        };
        Ok(CircuitRef {
            spelling: name.to_string(),
            source,
        })
    }
}

/// A calibration: Johannesburg on 2020-08-19 (`now`, the default), its
/// errors improved 20× (`future`) or by any factor `f > 0` (`improve:<f>`).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSpec {
    spelling: String,
    factor: f64,
}

impl CalibrationSpec {
    /// The improvement factor: 1 for `now`, 20 for `future`.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The calibration; `future` is exactly [`Calibration::near_future`].
    pub fn calibration(&self) -> Calibration {
        Calibration::johannesburg_2020_08_19().improved(self.factor)
    }
}

impl Default for CalibrationSpec {
    fn default() -> Self {
        "now".parse().expect("a known calibration")
    }
}

impl FromStr for CalibrationSpec {
    type Err = RequestError;

    fn from_str(spec: &str) -> Result<Self, RequestError> {
        let factor = match spec {
            "now" => Some(1.0),
            "future" => Some(20.0),
            _ => spec.strip_prefix("improve:").and_then(|f| f.parse().ok()),
        };
        // Not `f <= 0`: NaN must fail too, or `Calibration::improved` panics.
        match factor {
            Some(factor) if factor > 0.0 => Ok(CalibrationSpec {
                spelling: spec.into(),
                factor,
            }),
            _ => Err(unknown("calibration", spec, CALIBRATIONS)),
        }
    }
}

/// A crosstalk policy: `ignore`, `avoid`, or `charge:<p>`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkSpec {
    spelling: String,
    policy: CrosstalkPolicy,
}

impl CrosstalkSpec {
    /// The policy.
    pub fn policy(&self) -> CrosstalkPolicy {
        self.policy
    }
}

impl FromStr for CrosstalkSpec {
    type Err = RequestError;

    fn from_str(spec: &str) -> Result<Self, RequestError> {
        let policy = match spec {
            "ignore" => CrosstalkPolicy::Ignore,
            "avoid" => CrosstalkPolicy::Avoid,
            _ => spec
                .strip_prefix("charge:")
                .and_then(|p| p.parse().ok())
                .filter(|p| (0.0..=1.0).contains(p))
                .map(|error_per_conflict| CrosstalkPolicy::Charge { error_per_conflict })
                .ok_or_else(|| unknown("crosstalk policy", spec, CROSSTALK))?,
        };
        Ok(CrosstalkSpec {
            spelling: spec.to_string(),
            policy,
        })
    }
}

macro_rules! display_spelling {
    ($($spelled:ty),*) => {$(
        impl fmt::Display for $spelled {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.spelling)
            }
        }
    )*};
}
display_spelling!(CircuitRef, CalibrationSpec, CrosstalkSpec);

/// The compile settings of a request: the device spec and the compile
/// options. The default is full Trios on Johannesburg.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// Device spec ([`parse_spec`](crate::parse_spec)); the caller builds it.
    pub device: String,
    /// Router, decomposer, seed, lookahead and bridge, among the rest.
    pub options: CompileOptions,
}

impl Default for CompileRequest {
    fn default() -> Self {
        CompileRequest {
            device: "johannesburg".into(),
            options: CompileOptions::default(),
        }
    }
}

impl CompileRequest {
    /// The compiler these settings configure.
    pub fn compiler(&self) -> Compiler {
        Compiler::new(self.options.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuits_resolve_from_names_gen_refs_and_inline_qasm() {
        let by_name: CircuitRef = "cnx_inplace-4".parse().unwrap();
        assert_eq!(by_name.circuit().unwrap().num_qubits(), 4);
        let extended: CircuitRef = "hypergraph_state-12".parse().unwrap();
        assert_eq!(extended.circuit().unwrap().num_qubits(), 12);
        let by_gen: CircuitRef = "gen:qft:3".parse().unwrap();
        assert_eq!(
            by_gen.circuit().unwrap(),
            Family::Qft.generate_case(3).circuit
        );
        let inline = CircuitRef::qasm(
            "<inline qasm>",
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n",
        );
        assert_eq!(inline.circuit().unwrap().num_qubits(), 2);
        for bad in ["nope", "gen:nope:1", "gen:qft:x"] {
            assert!(bad.parse::<CircuitRef>().is_err(), "{bad}");
        }
        let mangled = CircuitRef::qasm("mangled.qasm", "OPENQASM 2.0;\nqreg q[2;\n");
        let err = mangled.circuit().unwrap_err().to_string();
        assert!(err.starts_with("qasm error: "), "{err}");
    }

    #[test]
    fn references_display_as_spelled() {
        for spelling in ["gen:qft", "gen:qft:0", "gen:qft:007", "bv-20"] {
            let parsed: CircuitRef = spelling.parse().unwrap();
            assert_eq!(parsed.to_string(), spelling);
        }
        // `gen:qft` and `gen:qft:0` are one circuit under two names.
        let short: CircuitRef = "gen:qft".parse().unwrap();
        let long: CircuitRef = "gen:qft:0".parse().unwrap();
        assert_eq!(short.circuit().unwrap(), long.circuit().unwrap());
        assert_eq!(
            CircuitRef::qasm("in.qasm", "OPENQASM 2.0;\nqreg q[1];\n").to_string(),
            "in.qasm"
        );
        for spec in ["now", "future", "improve:5", "improve:05.0"] {
            assert_eq!(spec.parse::<CalibrationSpec>().unwrap().to_string(), spec);
        }
        for spec in ["ignore", "avoid", "charge:0.02"] {
            assert_eq!(spec.parse::<CrosstalkSpec>().unwrap().to_string(), spec);
        }
    }

    #[test]
    fn bad_names_name_the_value_and_the_accepted_set() {
        for (err, needles) in [
            (
                "not_a_benchmark".parse::<CircuitRef>().unwrap_err(),
                ["'not_a_benchmark'", "cnx_inplace-4", "hypergraph_state-12"],
            ),
            (
                "gen:nope:3".parse::<CircuitRef>().unwrap_err(),
                ["family 'nope'", "toffoli-ripple", "layered"],
            ),
            (
                "gen:qft:x".parse::<CircuitRef>().unwrap_err(),
                ["'gen:qft:x'", "gen:<family>[:<seed>]", "integer"],
            ),
            (
                check_routers(["trios", "sabre"]).unwrap_err(),
                ["router 'sabre'", "baseline", "trios-noise"],
            ),
            (
                check_decomposers(["margolus"]).unwrap_err(),
                ["decomposer 'margolus'", "relative-phase", "qutrit"],
            ),
            (
                family("nope").unwrap_err(),
                ["family 'nope'", "qft", "layered"],
            ),
        ] {
            let text = err.to_string();
            assert!(needles.iter().all(|n| text.contains(n)), "{text}");
        }
        assert_eq!(check_routers(StrategyRegistry::standard().names()), Ok(()));
        let decomposers = DecomposerRegistry::standard();
        assert_eq!(check_decomposers(decomposers.names()), Ok(()));
    }

    #[test]
    fn calibrations_match_the_noise_model_and_refuse_nonpositive_factors() {
        let parse = |spec: &str| spec.parse::<CalibrationSpec>();
        assert_eq!(
            parse("now").unwrap().calibration(),
            Calibration::johannesburg_2020_08_19()
        );
        assert_eq!(CalibrationSpec::default(), parse("now").unwrap());
        assert_eq!(
            parse("future").unwrap().calibration(),
            Calibration::near_future()
        );
        assert_eq!(
            parse("improve:5").unwrap().calibration(),
            Calibration::johannesburg_2020_08_19().improved(5.0)
        );
        assert_eq!(parse("improve:5").unwrap().factor(), 5.0);
        // Exactly the factors `Calibration::improved` would panic on.
        for bad in [
            "later",
            "improve:",
            "improve:x",
            "improve:0",
            "improve:-0",
            "improve:-3",
            "improve:NaN",
        ] {
            assert_eq!(
                parse(bad).unwrap_err().to_string(),
                format!("unknown calibration '{bad}' (expected {CALIBRATIONS})")
            );
        }
    }

    #[test]
    fn crosstalk_specs_take_probabilities_only() {
        let parse = |spec: &str| spec.parse::<CrosstalkSpec>();
        assert_eq!(parse("ignore").unwrap().policy(), CrosstalkPolicy::Ignore);
        assert_eq!(parse("avoid").unwrap().policy(), CrosstalkPolicy::Avoid);
        assert_eq!(
            parse("charge:0.02").unwrap().policy(),
            CrosstalkPolicy::Charge {
                error_per_conflict: 0.02
            }
        );
        for bad in [
            "maybe",
            "charge:",
            "charge:2.0",
            "charge:-0.1",
            "charge:NaN",
        ] {
            assert_eq!(
                parse(bad).unwrap_err().to_string(),
                format!("unknown crosstalk policy '{bad}' (expected {CROSSTALK})")
            );
        }
    }

    #[test]
    fn sweep_benchmarks_are_measured_unless_they_already_measure() {
        let named: CircuitRef = "cnx_inplace-4".parse().unwrap();
        let benchmark = named.sweep_benchmark().unwrap();
        assert_eq!(benchmark.name, "cnx_inplace-4");
        assert_eq!(benchmark.circuit.counts().measure, 4);
        let measuring = CircuitRef::qasm(
            "m.qasm",
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n",
        );
        let benchmark = measuring.sweep_benchmark().unwrap();
        assert_eq!(benchmark.name, "m.qasm");
        assert_eq!(benchmark.circuit.counts().measure, 1);
    }

    #[test]
    fn compile_requests_configure_every_knob() {
        let defaults = CompileRequest::default();
        assert_eq!(defaults.device, "johannesburg");
        let built = Compiler::builder().build();
        assert_eq!(defaults.compiler().options(), built.options());
        let mut request = CompileRequest::default();
        request.options.router = Some("baseline".into());
        request.options.seed = 9;
        assert_eq!(request.compiler().options(), &request.options);
    }
}
