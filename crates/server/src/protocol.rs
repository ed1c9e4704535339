//! The line-delimited JSON protocol: request parsing and response
//! building.
//!
//! One request per line, one response line per request:
//!
//! ```text
//! → {"id": 1, "method": "compile", "params": {"benchmark": "bv-20", "device": "line:20"}}
//! ← {"id": 1, "ok": true, "result": {"stats": {...}, "cached": false, ...}}
//! → {"id": 2, "method": "frobnicate"}
//! ← {"id": 2, "ok": false, "error": {"kind": "unknown-method", "message": "..."}}
//! ```
//!
//! Responses carry the request's `id` so pipelined clients can match them
//! up; error responses name a machine-readable `kind` (see [`ErrorKind`])
//! next to the human-readable message. Parsing uses the vendored
//! [`serde_json::Value`] walker and building uses a small hand-rolled
//! object writer, mirroring how `SweepReport` round-trips JSON.

use serde_json::Value;
use trios_core::{
    Calibration, Compiler, CrosstalkPolicy, DecomposerRegistry, StrategyRegistry, SweepBenchmark,
};
use trios_gen::Family;

/// Machine-readable error classes of the protocol, the `kind` field of
/// every error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON.
    Parse,
    /// The request was JSON but structurally wrong (missing id/method,
    /// bad params).
    BadRequest,
    /// The `method` names nothing the server knows.
    UnknownMethod,
    /// The admission queue is full; retry later.
    Busy,
    /// The request's compile exceeded the configured timeout.
    Timeout,
    /// Compilation itself failed (a `Diagnostic` from the pipeline).
    Compile,
    /// The request line exceeded the configured size limit.
    Oversized,
    /// The server is draining and takes no new work.
    ShuttingDown,
    /// `shutdown` was requested but the server does not allow it.
    ShutdownDisabled,
}

impl ErrorKind {
    /// The wire spelling of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::UnknownMethod => "unknown-method",
            ErrorKind::Busy => "busy",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Compile => "compile",
            ErrorKind::Oversized => "oversized",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::ShutdownDisabled => "shutdown-disabled",
        }
    }
}

/// A structured protocol failure: the error kind plus its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Machine-readable class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    fn bad(message: impl Into<String>) -> Self {
        ProtocolError {
            kind: ErrorKind::BadRequest,
            message: message.into(),
        }
    }
}

/// What a single circuit request compiles: the circuit reference plus the
/// compiler knobs, each defaulted like the CLI's flags.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileParams {
    /// Benchmark name or `gen:<family>:<seed>` ref (mutually exclusive
    /// with `qasm`).
    pub benchmark: Option<String>,
    /// Inline OpenQASM 2.0 source (mutually exclusive with `benchmark`).
    pub qasm: Option<String>,
    /// Device spec (`trios_topology::parse_spec` grammar).
    pub device: String,
    /// Routing strategy registry name; `None` means `trios`.
    pub router: Option<String>,
    /// Toffoli decomposition registry name; `None` = `standard`.
    pub decomposer: Option<String>,
    /// Routing seed.
    pub seed: u64,
    /// Return the compiled circuit as OpenQASM in the response.
    pub emit_qasm: bool,
}

/// `estimate` params: a compile plus the calibration to score it under.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateParams {
    /// The compilation to estimate.
    pub compile: CompileParams,
    /// `now`, `future`, or `improve:<f>` (default `now`).
    pub calibration: String,
}

/// `sweep` params: the evaluation grid, mirroring `trios sweep` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Benchmark refs (names, `gen:<family>:<seed>`).
    pub benchmarks: Vec<String>,
    /// Device specs.
    pub devices: Vec<String>,
    /// Router registry names.
    pub routers: Vec<String>,
    /// Decomposer registry names.
    pub decomposers: Vec<String>,
    /// Calibration specs.
    pub calibrations: Vec<String>,
    /// Crosstalk policy spec.
    pub crosstalk: String,
    /// Routing seed.
    pub seed: u64,
    /// Monte Carlo shots per simulable cell.
    pub shots: Option<usize>,
}

/// A parsed request: the wire id plus the method with its params.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed back in the response.
    pub id: u64,
    /// What to do.
    pub method: Method,
}

/// The methods of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Server counters, cache and latency stats; answered inline.
    Stats,
    /// Drain and stop (if the server allows it); answered inline.
    Shutdown,
    /// Compile one circuit.
    Compile(CompileParams),
    /// Compile several circuits under shared knobs, results in order.
    CompileBatch(Vec<CompileParams>),
    /// Compile then estimate success probability.
    Estimate(EstimateParams),
    /// Run an evaluation grid; the result embeds a full `SweepReport`.
    Sweep(SweepParams),
}

impl Method {
    /// `true` for the cheap control methods the reader thread answers
    /// without going through the admission queue — so liveness probes and
    /// stats stay responsive even when the queue is full.
    pub fn is_inline(&self) -> bool {
        matches!(self, Method::Ping | Method::Stats | Method::Shutdown)
    }
}

fn str_field(params: &Value, key: &str) -> Result<Option<String>, ProtocolError> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(s) => Ok(Some(s.to_string())),
            None => Err(ProtocolError::bad(format!("'{key}' must be a string"))),
        },
    }
}

fn u64_field(params: &Value, key: &str) -> Result<Option<u64>, ProtocolError> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(ProtocolError::bad(format!(
                "'{key}' must be a non-negative integer"
            ))),
        },
    }
}

fn bool_field(params: &Value, key: &str) -> Result<Option<bool>, ProtocolError> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => match v.as_bool() {
            Some(b) => Ok(Some(b)),
            None => Err(ProtocolError::bad(format!("'{key}' must be a boolean"))),
        },
    }
}

fn string_array(params: &Value, key: &str) -> Result<Option<Vec<String>>, ProtocolError> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_array()
            .ok_or_else(|| ProtocolError::bad(format!("'{key}' must be an array")))?
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ProtocolError::bad(format!("'{key}' must contain strings")))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

/// Validates a router name against the standard registry at parse time,
/// exactly like the CLI's `--router`, so typos fail before any work runs.
fn check_router(name: &str) -> Result<(), ProtocolError> {
    let registry = StrategyRegistry::standard();
    if registry.contains(name) {
        Ok(())
    } else {
        Err(ProtocolError::bad(format!(
            "'router' must be one of {}, got '{name}'",
            registry.names().collect::<Vec<_>>().join(", ")
        )))
    }
}

/// Validates a decomposer name against the standard registry at parse
/// time, like [`check_router`]; `key` names the offending param field.
fn check_decomposer(key: &str, name: &str) -> Result<(), ProtocolError> {
    let registry = DecomposerRegistry::standard();
    if registry.contains(name) {
        Ok(())
    } else {
        Err(ProtocolError::bad(format!(
            "'{key}' must be one of {}, got '{name}'",
            registry.names().collect::<Vec<_>>().join(", ")
        )))
    }
}

fn parse_compile_params(params: &Value) -> Result<CompileParams, ProtocolError> {
    let benchmark = str_field(params, "benchmark")?;
    let qasm = str_field(params, "qasm")?;
    match (&benchmark, &qasm) {
        (None, None) => {
            return Err(ProtocolError::bad(
                "params need a 'benchmark' name or inline 'qasm' source",
            ))
        }
        (Some(_), Some(_)) => {
            return Err(ProtocolError::bad(
                "'benchmark' and 'qasm' are mutually exclusive",
            ))
        }
        _ => {}
    }
    let router = str_field(params, "router")?;
    if let Some(name) = &router {
        check_router(name)?;
    }
    let decomposer = str_field(params, "decomposer")?;
    if let Some(name) = &decomposer {
        check_decomposer("decomposer", name)?;
    }
    Ok(CompileParams {
        benchmark,
        qasm,
        device: str_field(params, "device")?.unwrap_or_else(|| "johannesburg".into()),
        router,
        decomposer,
        seed: u64_field(params, "seed")?.unwrap_or(0),
        emit_qasm: bool_field(params, "emit-qasm")?.unwrap_or(false),
    })
}

fn parse_batch_params(params: &Value) -> Result<Vec<CompileParams>, ProtocolError> {
    let circuits = string_array(params, "circuits")?
        .ok_or_else(|| ProtocolError::bad("'compile-batch' params need a 'circuits' array"))?;
    if circuits.is_empty() {
        return Err(ProtocolError::bad("'circuits' must not be empty"));
    }
    // The shared knobs parse once; each circuit ref becomes one entry.
    let shared = CompileParams {
        benchmark: None,
        qasm: None,
        device: str_field(params, "device")?.unwrap_or_else(|| "johannesburg".into()),
        router: str_field(params, "router")?,
        decomposer: str_field(params, "decomposer")?,
        seed: u64_field(params, "seed")?.unwrap_or(0),
        emit_qasm: false,
    };
    if let Some(name) = &shared.router {
        check_router(name)?;
    }
    if let Some(name) = &shared.decomposer {
        check_decomposer("decomposer", name)?;
    }
    Ok(circuits
        .into_iter()
        .map(|benchmark| CompileParams {
            benchmark: Some(benchmark),
            ..shared.clone()
        })
        .collect())
}

fn parse_estimate_params(params: &Value) -> Result<EstimateParams, ProtocolError> {
    let calibration = str_field(params, "calibration")?.unwrap_or_else(|| "now".into());
    parse_calibration(&calibration)?; // fail at parse time, not mid-queue
    Ok(EstimateParams {
        compile: parse_compile_params(params)?,
        calibration,
    })
}

fn parse_sweep_params(params: &Value) -> Result<SweepParams, ProtocolError> {
    let benchmarks = string_array(params, "benchmarks")?
        .ok_or_else(|| ProtocolError::bad("'sweep' params need a 'benchmarks' array"))?;
    if benchmarks.is_empty() {
        return Err(ProtocolError::bad("'benchmarks' must not be empty"));
    }
    let routers =
        string_array(params, "routers")?.unwrap_or_else(|| vec!["baseline".into(), "trios".into()]);
    for router in &routers {
        check_router(router)?;
    }
    let decomposers =
        string_array(params, "decomposers")?.unwrap_or_else(|| vec!["standard".into()]);
    for decomposer in &decomposers {
        check_decomposer("decomposers", decomposer)?;
    }
    let calibrations =
        string_array(params, "calibrations")?.unwrap_or_else(|| vec!["future".into()]);
    for calibration in &calibrations {
        parse_calibration(calibration)?;
    }
    let crosstalk = str_field(params, "crosstalk")?.unwrap_or_else(|| "ignore".into());
    parse_crosstalk(&crosstalk)?;
    Ok(SweepParams {
        benchmarks,
        devices: string_array(params, "devices")?.unwrap_or_else(|| vec!["johannesburg".into()]),
        routers,
        decomposers,
        calibrations,
        crosstalk,
        seed: u64_field(params, "seed")?.unwrap_or(0),
        shots: u64_field(params, "shots")?.map(|n| n as usize),
    })
}

/// Parses one request line.
///
/// # Errors
///
/// The error carries the id to respond with: the request's own id when it
/// could be read, 0 otherwise (a client that never sends id 0 can tell
/// the difference).
pub fn parse_request(line: &str) -> Result<Request, (u64, ProtocolError)> {
    let value = serde_json::from_str(line).map_err(|e| {
        (
            0,
            ProtocolError {
                kind: ErrorKind::Parse,
                message: format!("request is not valid JSON: {e}"),
            },
        )
    })?;
    let id = match value.get("id") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| (0, ProtocolError::bad("'id' must be a non-negative integer")))?,
        None => return Err((0, ProtocolError::bad("request needs an 'id'"))),
    };
    let fail = |e: ProtocolError| (id, e);
    let method = value
        .get("method")
        .and_then(Value::as_str)
        .ok_or_else(|| fail(ProtocolError::bad("request needs a string 'method'")))?;
    let empty = Value::Object(Vec::new());
    let params = value.get("params").unwrap_or(&empty);
    let method = match method {
        "ping" => Method::Ping,
        "stats" => Method::Stats,
        "shutdown" => Method::Shutdown,
        "compile" => Method::Compile(parse_compile_params(params).map_err(fail)?),
        "compile-batch" => Method::CompileBatch(parse_batch_params(params).map_err(fail)?),
        "estimate" => Method::Estimate(parse_estimate_params(params).map_err(fail)?),
        "sweep" => Method::Sweep(parse_sweep_params(params).map_err(fail)?),
        other => {
            return Err(fail(ProtocolError {
                kind: ErrorKind::UnknownMethod,
                message: format!(
                    "unknown method '{other}' (methods: ping, stats, shutdown, compile, \
                     compile-batch, estimate, sweep)"
                ),
            }))
        }
    };
    Ok(Request { id, method })
}

/// Resolves a benchmark ref or inline QASM to a circuit, mirroring the
/// CLI's input handling minus file paths — a network server must not read
/// arbitrary files on request.
pub fn resolve_circuit(params: &CompileParams) -> Result<trios_core::Circuit, ProtocolError> {
    if let Some(source) = &params.qasm {
        return trios_qasm::parse(source)
            .map_err(|e| ProtocolError::bad(format!("qasm error: {e}")));
    }
    let input = params.benchmark.as_deref().expect("parser requires one");
    if let Some(rest) = input.strip_prefix("gen:") {
        let (name, seed) = match rest.split_once(':') {
            Some((name, seed)) => (
                name,
                seed.parse::<u64>().map_err(|_| {
                    ProtocolError::bad(format!(
                        "gen:<family>:<seed> needs an integer seed, got '{seed}'"
                    ))
                })?,
            ),
            None => (rest, 0),
        };
        let family = Family::parse(name).ok_or_else(|| {
            ProtocolError::bad(format!(
                "unknown generator family '{name}' (families: {})",
                Family::ALL.map(|f| f.name()).join(", ")
            ))
        })?;
        return Ok(family.generate_case(seed).circuit);
    }
    if let Some(b) = trios_benchmarks::Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == input)
    {
        return Ok(b.build());
    }
    if let Some(b) = trios_benchmarks::ExtendedBenchmark::ALL
        .into_iter()
        .find(|b| b.name() == input)
    {
        return Ok(b.build());
    }
    Err(ProtocolError::bad(format!(
        "unknown benchmark '{input}' (paper/extended names, or gen:<family>:<seed>)"
    )))
}

/// Resolves a device spec via the grammar shared with the CLI
/// (`trios_topology::parse_spec`).
pub fn resolve_device(spec: &str) -> Result<trios_core::Topology, ProtocolError> {
    trios_core::parse_spec(spec).map_err(|e| ProtocolError::bad(e.to_string()))
}

/// The configured compiler for one request's knobs — one translation,
/// like the CLI's, so server and CLI compiles cannot diverge.
pub fn compiler_for(params: &CompileParams) -> Compiler {
    let mut builder = Compiler::builder().seed(params.seed);
    if let Some(router) = &params.router {
        builder = builder.router(router.clone());
    }
    if let Some(decomposer) = &params.decomposer {
        builder = builder.decomposer(decomposer.clone());
    }
    builder.build()
}

/// Resolves a calibration spec (`now`, `future`, `improve:<f>`).
pub fn parse_calibration(spec: &str) -> Result<Calibration, ProtocolError> {
    match spec {
        "now" => Ok(Calibration::johannesburg_2020_08_19()),
        "future" => Ok(Calibration::near_future()),
        other => match other.strip_prefix("improve:") {
            Some(factor) => {
                let factor: f64 = factor.parse().map_err(|_| {
                    ProtocolError::bad(format!("improve:<f> needs a number, got '{other}'"))
                })?;
                if factor <= 0.0 {
                    return Err(ProtocolError::bad(format!(
                        "improve:<f> needs a positive factor, got '{other}'"
                    )));
                }
                Ok(Calibration::johannesburg_2020_08_19().improved(factor))
            }
            None => Err(ProtocolError::bad(format!(
                "'calibration' is 'now', 'future', or 'improve:<f>', got '{other}'"
            ))),
        },
    }
}

/// Resolves a crosstalk policy spec (`ignore`, `charge:<p>`, `avoid`).
pub fn parse_crosstalk(spec: &str) -> Result<CrosstalkPolicy, ProtocolError> {
    match spec {
        "ignore" => Ok(CrosstalkPolicy::Ignore),
        "avoid" => Ok(CrosstalkPolicy::Avoid),
        other => match other.strip_prefix("charge:") {
            Some(rate) => {
                let error_per_conflict: f64 = rate.parse().map_err(|_| {
                    ProtocolError::bad(format!("charge:<p> needs a number, got '{other}'"))
                })?;
                if !(0.0..=1.0).contains(&error_per_conflict) {
                    return Err(ProtocolError::bad(format!(
                        "charge:<p> needs a probability, got '{other}'"
                    )));
                }
                Ok(CrosstalkPolicy::Charge { error_per_conflict })
            }
            None => Err(ProtocolError::bad(format!(
                "'crosstalk' is 'ignore', 'charge:<p>', or 'avoid', got '{other}'"
            ))),
        },
    }
}

/// Resolves a sweep's benchmark refs into measured sweep benchmarks.
pub fn resolve_sweep_benchmarks(refs: &[String]) -> Result<Vec<SweepBenchmark>, ProtocolError> {
    refs.iter()
        .map(|name| {
            let params = CompileParams {
                benchmark: Some(name.clone()),
                qasm: None,
                device: String::new(),
                router: None,
                decomposer: None,
                seed: 0,
                emit_qasm: false,
            };
            let circuit = resolve_circuit(&params)?;
            Ok(if circuit.counts().measure > 0 {
                SweepBenchmark::new(name, circuit)
            } else {
                SweepBenchmark::measured(name, circuit)
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Response building
// ---------------------------------------------------------------------

/// Escapes a string into `out` as a JSON string literal, matching the
/// vendored serializer's escaping so hand-built and `Serialize`-built
/// fragments are byte-compatible.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A compact JSON object under construction. The builder exists because
/// responses mix dynamic payloads with fragments from `Serialize` types
/// ([`raw`](JsonObj::raw) splices in `serde_json::to_string` output);
/// number formatting matches the vendored serializer.
#[derive(Debug, Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        write_escaped(&mut self.body, key);
        self.body.push(':');
    }

    /// Adds a pre-serialized JSON fragment verbatim.
    pub fn raw(mut self, key: &str, fragment: &str) -> Self {
        self.key(key);
        self.body.push_str(fragment);
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        write_escaped(&mut self.body, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.body.push_str(&value.to_string());
        self
    }

    /// Adds a float field (finite values only; matches the vendored
    /// serializer's ".0" convention for integral floats).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        let text = value.to_string();
        self.body.push_str(&text);
        if !text.contains('.') && !text.contains('e') && !text.contains('E') {
            self.body.push_str(".0");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object into its JSON text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Joins pre-serialized fragments into a JSON array.
pub fn json_array<I: IntoIterator<Item = String>>(fragments: I) -> String {
    let items: Vec<String> = fragments.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// A success response line (no trailing newline).
pub fn ok_response(id: u64, result: &str) -> String {
    JsonObj::new()
        .u64("id", id)
        .bool("ok", true)
        .raw("result", result)
        .finish()
}

/// An error response line (no trailing newline).
pub fn error_response(id: u64, error: &ProtocolError) -> String {
    JsonObj::new()
        .u64("id", id)
        .bool("ok", false)
        .raw(
            "error",
            &JsonObj::new()
                .str("kind", error.kind.as_str())
                .str("message", &error.message)
                .finish(),
        )
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_compile_request_with_defaults() {
        let req =
            parse_request(r#"{"id": 3, "method": "compile", "params": {"benchmark": "bv-20"}}"#)
                .unwrap();
        assert_eq!(req.id, 3);
        let Method::Compile(p) = req.method else {
            panic!("expected compile");
        };
        assert_eq!(p.benchmark.as_deref(), Some("bv-20"));
        assert_eq!(p.device, "johannesburg");
        assert_eq!(p.seed, 0);
        assert!(p.router.is_none());
        assert!(p.decomposer.is_none());
        assert!(!p.emit_qasm);
    }

    #[test]
    fn decomposer_params_parse_and_validate() {
        let req = parse_request(
            r#"{"id": 2, "method": "compile",
                "params": {"benchmark": "bv-20", "decomposer": "eight"}}"#,
        )
        .unwrap();
        let Method::Compile(p) = req.method else {
            panic!("expected compile");
        };
        assert_eq!(p.decomposer.as_deref(), Some("eight"));
        // Unknown names are a structured bad-request naming the registry.
        let (id, e) = parse_request(
            r#"{"id": 4, "method": "compile",
                "params": {"benchmark": "bv-20", "decomposer": "margolus"}}"#,
        )
        .unwrap_err();
        assert_eq!((id, e.kind), (4, ErrorKind::BadRequest));
        assert!(e.message.contains("margolus"), "{}", e.message);
        assert!(e.message.contains("relative-phase"), "{}", e.message);
        // Batch and sweep validate too.
        assert!(parse_request(
            r#"{"id": 1, "method": "compile-batch",
                "params": {"circuits": ["bv-20"], "decomposer": "margolus"}}"#
        )
        .is_err());
        assert!(parse_request(
            r#"{"id": 1, "method": "sweep",
                "params": {"benchmarks": ["bv-20"], "decomposers": ["margolus"]}}"#
        )
        .is_err());
    }

    #[test]
    fn parses_control_methods_inline() {
        for (method, expect) in [
            ("ping", Method::Ping),
            ("stats", Method::Stats),
            ("shutdown", Method::Shutdown),
        ] {
            let req = parse_request(&format!(r#"{{"id": 1, "method": "{method}"}}"#)).unwrap();
            assert_eq!(req.method, expect);
            assert!(req.method.is_inline());
        }
        let compile =
            parse_request(r#"{"id": 1, "method": "compile", "params": {"benchmark": "bv-20"}}"#)
                .unwrap();
        assert!(!compile.method.is_inline());
    }

    #[test]
    fn malformed_requests_fail_with_the_right_kind() {
        let (id, e) = parse_request("{not json").unwrap_err();
        assert_eq!((id, e.kind), (0, ErrorKind::Parse));
        let (id, e) = parse_request(r#"{"method": "ping"}"#).unwrap_err();
        assert_eq!((id, e.kind), (0, ErrorKind::BadRequest));
        let (id, e) = parse_request(r#"{"id": 7, "method": "frobnicate"}"#).unwrap_err();
        assert_eq!((id, e.kind), (7, ErrorKind::UnknownMethod));
        let (id, e) = parse_request(r#"{"id": 8, "method": "compile"}"#).unwrap_err();
        assert_eq!((id, e.kind), (8, ErrorKind::BadRequest));
        assert!(e.message.contains("benchmark"), "{}", e.message);
        // Unknown router names fail at parse time, naming the registry.
        let (_, e) = parse_request(
            r#"{"id": 9, "method": "compile", "params": {"benchmark": "bv-20", "router": "sabre"}}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.message.contains("sabre"), "{}", e.message);
        assert!(e.message.contains("baseline"), "{}", e.message);
    }

    #[test]
    fn batch_params_expand_shared_knobs() {
        let req = parse_request(
            r#"{"id": 1, "method": "compile-batch",
                "params": {"circuits": ["bv-20", "gen:qft:3"], "device": "line:8", "seed": 5}}"#,
        )
        .unwrap();
        let Method::CompileBatch(items) = req.method else {
            panic!("expected batch");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].benchmark.as_deref(), Some("bv-20"));
        assert_eq!(items[1].benchmark.as_deref(), Some("gen:qft:3"));
        for item in &items {
            assert_eq!(item.device, "line:8");
            assert_eq!(item.seed, 5);
        }
        assert!(parse_request(
            r#"{"id": 1, "method": "compile-batch", "params": {"circuits": []}}"#
        )
        .is_err());
    }

    #[test]
    fn estimate_and_sweep_specs_validate_at_parse_time() {
        assert!(parse_request(
            r#"{"id": 1, "method": "estimate",
                "params": {"benchmark": "bv-20", "calibration": "later"}}"#
        )
        .is_err());
        assert!(parse_request(
            r#"{"id": 1, "method": "sweep",
                "params": {"benchmarks": ["bv-20"], "calibrations": ["improve:-1"]}}"#
        )
        .is_err());
        assert!(parse_request(
            r#"{"id": 1, "method": "sweep",
                "params": {"benchmarks": ["bv-20"], "crosstalk": "maybe"}}"#
        )
        .is_err());
        let req =
            parse_request(r#"{"id": 1, "method": "sweep", "params": {"benchmarks": ["bv-20"]}}"#)
                .unwrap();
        let Method::Sweep(p) = req.method else {
            panic!("expected sweep");
        };
        assert_eq!(p.routers, ["baseline", "trios"]);
        assert_eq!(p.decomposers, ["standard"]);
        assert_eq!(p.calibrations, ["future"]);
        assert_eq!(p.crosstalk, "ignore");
    }

    #[test]
    fn circuits_resolve_from_names_gen_refs_and_inline_qasm() {
        let by_name = CompileParams {
            benchmark: Some("cnx_inplace-4".into()),
            qasm: None,
            device: "line:6".into(),
            router: None,
            decomposer: None,
            seed: 0,
            emit_qasm: false,
        };
        assert_eq!(resolve_circuit(&by_name).unwrap().num_qubits(), 4);
        let by_gen = CompileParams {
            benchmark: Some("gen:qft:3".into()),
            ..by_name.clone()
        };
        assert!(resolve_circuit(&by_gen).is_ok());
        let inline = CompileParams {
            benchmark: None,
            qasm: Some("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n".into()),
            ..by_name.clone()
        };
        assert_eq!(resolve_circuit(&inline).unwrap().num_qubits(), 2);
        for bad in ["nope", "gen:nope:1", "gen:qft:x"] {
            let params = CompileParams {
                benchmark: Some(bad.into()),
                ..by_name.clone()
            };
            assert!(resolve_circuit(&params).is_err(), "{bad}");
        }
    }

    #[test]
    fn responses_are_single_line_json_and_round_trip() {
        let ok = ok_response(5, &JsonObj::new().str("pong", "hi\nthere").finish());
        assert!(!ok.contains('\n'), "{ok}");
        let value = serde_json::from_str(&ok).unwrap();
        assert_eq!(value.get("id").unwrap().as_u64(), Some(5));
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            value.get("result").unwrap().get("pong").unwrap().as_str(),
            Some("hi\nthere")
        );
        let err = error_response(
            7,
            &ProtocolError {
                kind: ErrorKind::Busy,
                message: "queue full".into(),
            },
        );
        let value = serde_json::from_str(&err).unwrap();
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(false));
        let error = value.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("busy"));
    }

    #[test]
    fn json_builder_matches_vendored_number_style() {
        let text = JsonObj::new()
            .f64("a", 2.0)
            .f64("b", 2.5)
            .u64("c", 3)
            .finish();
        assert_eq!(text, r#"{"a":2.0,"b":2.5,"c":3}"#);
        assert_eq!(json_array(["1".into(), "2".into()]), "[1,2]");
        assert_eq!(json_array(Vec::<String>::new()), "[]");
    }
}
