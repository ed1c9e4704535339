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
//! Field values are resolved by [`trios_core::request`], as the CLI's
//! flags are; a [`RequestError`] is a `bad-request`.

use serde_json::Value;
use trios_core::request::{
    self, CalibrationSpec, CircuitRef, CompileRequest, CrosstalkSpec, RequestError,
};

/// Machine-readable error classes of the protocol, the `kind` field of
/// every error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON.
    Parse,
    /// The request was JSON but structurally wrong (missing id/method,
    /// bad or unknown params, a malformed sweep grid).
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
    pub(crate) fn bad(message: impl Into<String>) -> Self {
        ProtocolError {
            kind: ErrorKind::BadRequest,
            message: message.into(),
        }
    }
}

impl From<RequestError> for ProtocolError {
    fn from(e: RequestError) -> Self {
        ProtocolError::bad(e.to_string())
    }
}

/// What a single circuit request compiles: the circuit plus the compile
/// settings, each defaulted like the CLI's flags.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileParams {
    /// The `benchmark` name or `gen:<family>[:<seed>]` ref, or the inline
    /// `qasm` source (shown as `<inline qasm>`).
    pub circuit: CircuitRef,
    /// `device`, `router`, `decomposer` and `seed`.
    pub request: CompileRequest,
    /// Return the compiled circuit as OpenQASM in the response.
    pub emit_qasm: bool,
}

/// `estimate` params: a compile plus the calibration to score it under.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateParams {
    /// The compilation to estimate.
    pub compile: CompileParams,
    /// `now`, `future`, or `improve:<f>` (default `now`).
    pub calibration: CalibrationSpec,
}

/// `sweep` params: the evaluation grid, mirroring `trios sweep` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Benchmark refs (names, `gen:<family>[:<seed>]`).
    pub benchmarks: Vec<CircuitRef>,
    /// Device specs.
    pub devices: Vec<String>,
    /// Router registry names.
    pub routers: Vec<String>,
    /// Decomposer registry names.
    pub decomposers: Vec<String>,
    /// Calibration specs.
    pub calibrations: Vec<CalibrationSpec>,
    /// Crosstalk policy spec.
    pub crosstalk: CrosstalkSpec,
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

/// The params keys each work method reads.
const COMPILE_KEYS: &str = "benchmark qasm device router decomposer seed emit-qasm";
const BATCH_KEYS: &str = "circuits device router decomposer seed";
const ESTIMATE_KEYS: &str = "benchmark qasm device router decomposer seed emit-qasm calibration";
const SWEEP_KEYS: &str = "benchmarks devices routers decomposers calibrations crosstalk seed shots";

/// Refuses params that are not an object or hold a key `method` does not
/// read: skipping what it does not understand would compile the wrong job.
fn check_keys(method: &str, params: &Value, known: &str) -> Result<(), ProtocolError> {
    let Value::Object(fields) = params else {
        return Err(ProtocolError::bad("'params' must be an object"));
    };
    match fields
        .iter()
        .find(|(key, _)| !known.split(' ').any(|k| k == key))
    {
        Some((key, _)) => Err(ProtocolError::bad(format!(
            "unknown param '{key}' for '{method}' (accepted: {})",
            known.replace(' ', ", ")
        ))),
        None => Ok(()),
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

/// The shared compile settings: `device`, `router`, `decomposer`, `seed`.
fn compile_request(params: &Value) -> Result<CompileRequest, ProtocolError> {
    let mut compile = CompileRequest::default();
    if let Some(device) = str_field(params, "device")? {
        compile.device = device;
    }
    let options = &mut compile.options;
    options.router = str_field(params, "router")?;
    options.decomposer = str_field(params, "decomposer")?;
    options.seed = u64_field(params, "seed")?.unwrap_or(0);
    request::check_routers(options.router.as_deref())?;
    request::check_decomposers(options.decomposer.as_deref())?;
    Ok(compile)
}

fn parse_compile_params(params: &Value) -> Result<CompileParams, ProtocolError> {
    check_keys("compile", params, COMPILE_KEYS)?;
    compile_params(params)
}

/// The compile params of `compile` and `estimate`, keys already checked.
fn compile_params(params: &Value) -> Result<CompileParams, ProtocolError> {
    let circuit = match (str_field(params, "benchmark")?, str_field(params, "qasm")?) {
        (Some(name), None) => name.parse()?,
        (None, Some(source)) => CircuitRef::qasm("<inline qasm>", source),
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
    };
    Ok(CompileParams {
        circuit,
        request: compile_request(params)?,
        emit_qasm: bool_field(params, "emit-qasm")?.unwrap_or(false),
    })
}

fn parse_batch_params(params: &Value) -> Result<Vec<CompileParams>, ProtocolError> {
    check_keys("compile-batch", params, BATCH_KEYS)?;
    let circuits = string_array(params, "circuits")?
        .ok_or_else(|| ProtocolError::bad("'compile-batch' params need a 'circuits' array"))?;
    if circuits.is_empty() {
        return Err(ProtocolError::bad("'circuits' must not be empty"));
    }
    // The shared settings parse once; each circuit ref becomes one entry.
    let shared = compile_request(params)?;
    circuits
        .iter()
        .map(|name| {
            Ok(CompileParams {
                circuit: name.parse()?,
                request: shared.clone(),
                emit_qasm: false,
            })
        })
        .collect()
}

fn parse_estimate_params(params: &Value) -> Result<EstimateParams, ProtocolError> {
    check_keys("estimate", params, ESTIMATE_KEYS)?;
    let calibration = str_field(params, "calibration")?;
    Ok(EstimateParams {
        compile: compile_params(params)?,
        calibration: calibration.as_deref().unwrap_or("now").parse()?,
    })
}

fn parse_sweep_params(params: &Value) -> Result<SweepParams, ProtocolError> {
    check_keys("sweep", params, SWEEP_KEYS)?;
    let benchmarks = string_array(params, "benchmarks")?
        .ok_or_else(|| ProtocolError::bad("'sweep' params need a 'benchmarks' array"))?;
    if benchmarks.is_empty() {
        return Err(ProtocolError::bad("'benchmarks' must not be empty"));
    }
    let routers =
        string_array(params, "routers")?.unwrap_or_else(|| vec!["baseline".into(), "trios".into()]);
    request::check_routers(routers.iter().map(String::as_str))?;
    let decomposers =
        string_array(params, "decomposers")?.unwrap_or_else(|| vec!["standard".into()]);
    request::check_decomposers(decomposers.iter().map(String::as_str))?;
    let calibrations =
        string_array(params, "calibrations")?.unwrap_or_else(|| vec!["future".into()]);
    let crosstalk = str_field(params, "crosstalk")?;
    Ok(SweepParams {
        benchmarks: benchmarks
            .iter()
            .map(|name| name.parse())
            .collect::<Result<_, RequestError>>()?,
        devices: string_array(params, "devices")?.unwrap_or_else(|| vec!["johannesburg".into()]),
        routers,
        decomposers,
        calibrations: calibrations
            .iter()
            .map(|spec| spec.parse())
            .collect::<Result<_, RequestError>>()?,
        crosstalk: crosstalk.as_deref().unwrap_or("ignore").parse()?,
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
        assert_eq!(p.circuit, "bv-20".parse().unwrap());
        assert_eq!(p.request, CompileRequest::default());
        assert_eq!(p.request.device, "johannesburg");
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
        assert_eq!(p.request.options.decomposer.as_deref(), Some("eight"));
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
        assert_eq!(items[0].circuit.to_string(), "bv-20");
        assert_eq!(items[1].circuit.to_string(), "gen:qft:3");
        for item in &items {
            assert_eq!(item.request.device, "line:8");
            assert_eq!(item.request.options.seed, 5);
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
        assert_eq!(p.calibrations, ["future".parse().unwrap()]);
        assert_eq!(p.crosstalk, "ignore".parse().unwrap());
    }

    #[test]
    fn params_no_method_reads_are_bad_requests_naming_the_key() {
        for (method, params, key) in [
            (
                "compile",
                r#"{"benchmark": "cnx_inplace-4", "device": "line:6", "routr": "baseline"}"#,
                "routr",
            ),
            (
                "compile-batch",
                r#"{"circuits": ["bv-20"], "emit-qasm": true}"#,
                "emit-qasm",
            ),
            (
                "estimate",
                r#"{"benchmark": "bv-20", "calibrations": "now"}"#,
                "calibrations",
            ),
            (
                "sweep",
                r#"{"benchmarks": ["bv-20"], "device": "line:20"}"#,
                "device",
            ),
        ] {
            let line = format!(r#"{{"id": 6, "method": "{method}", "params": {params}}}"#);
            let (id, e) = parse_request(&line).unwrap_err();
            assert_eq!((id, e.kind), (6, ErrorKind::BadRequest), "{line}");
            assert!(e.message.contains(&format!("'{key}'")), "{}", e.message);
            assert!(e.message.contains(method), "{}", e.message);
        }
        let (_, e) =
            parse_request(r#"{"id": 1, "method": "compile", "params": ["bv-20"]}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        // Every key a method documents is still accepted.
        let req = parse_request(
            r#"{"id": 1, "method": "estimate", "params": {"benchmark": "bv-20", "device": "line:20",
                "router": "baseline", "decomposer": "six", "seed": 2, "emit-qasm": true,
                "calibration": "improve:2"}}"#,
        )
        .unwrap();
        let Method::Estimate(p) = req.method else {
            panic!("expected estimate");
        };
        assert_eq!(p.calibration.to_string(), "improve:2");
        assert!(p.compile.emit_qasm);
    }

    #[test]
    fn nonpositive_improvement_factors_are_bad_requests() {
        for line in [
            r#"{"id": 3, "method": "estimate", "params": {"benchmark": "bv-20", "calibration": "improve:NaN"}}"#,
            r#"{"id": 3, "method": "estimate", "params": {"benchmark": "bv-20", "calibration": "improve:0"}}"#,
            r#"{"id": 3, "method": "sweep", "params": {"benchmarks": ["bv-20"], "calibrations": ["improve:NaN"]}}"#,
        ] {
            let (id, e) = parse_request(line).unwrap_err();
            assert_eq!((id, e.kind), (3, ErrorKind::BadRequest), "{line}");
            assert!(e.message.contains("improve:"), "{}", e.message);
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
