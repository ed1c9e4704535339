//! Argument parsing (hand-rolled; the CLI's surface is small).

use crate::CliError;
use trios_core::request::{self, CalibrationSpec, CompileRequest};
use trios_route::LookaheadConfig;
use trios_topology::{parse_spec, Topology};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `trios list` — benchmarks and devices.
    List,
    /// `trios table1` — regenerate the paper's Table 1.
    Table1,
    /// `trios routers` — the registered routing strategies.
    Routers,
    /// `trios decomposers` — the registered Toffoli decompositions.
    Decomposers,
    /// `trios compile <input> [flags]`.
    Compile(Options),
    /// `trios compile-batch <dir> [flags]`.
    CompileBatch(BatchOptions),
    /// `trios estimate <input> [flags]`.
    Estimate(Options),
    /// `trios verify <input> [flags]`.
    Verify(Options),
    /// `trios sweep [flags]` — the evaluation grid.
    Sweep(SweepOptions),
    /// `trios gen [family] [flags]` — emit a generated circuit (or list
    /// the families).
    Gen(GenOptions),
    /// `trios fuzz [flags]` — the differential fuzz harness.
    Fuzz(FuzzOptions),
    /// `trios serve [flags]` — the compilation daemon.
    Serve(ServeOptions),
    /// `trios help` (also `-h` / `--help` / no arguments).
    Help,
}

/// Flags of `trios gen`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GenOptions {
    /// Family registry name; `None` lists the families and their grids.
    pub family: Option<String>,
    /// Generation seed (also picks the grid entry when no explicit
    /// parameters are given).
    pub seed: u64,
    /// Explicit width override.
    pub qubits: Option<usize>,
    /// Explicit depth override.
    pub depth: Option<usize>,
    /// Explicit three-qubit-gate density override (`layered` only).
    pub density: Option<f64>,
    /// Write the OpenQASM here instead of stdout.
    pub out: Option<String>,
}

/// Flags of `trios fuzz`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOptions {
    /// Comma-separated family names, or `all`.
    pub families: String,
    /// Generated case count.
    pub cases: usize,
    /// Base seed.
    pub seed: u64,
    /// Comma-separated router registry names, or `all`.
    pub routers: String,
    /// Decomposer registry name (must be executable, not cost-model-only).
    pub decomposer: String,
    /// Comma-separated device specs.
    pub devices: String,
    /// Worker threads (`0` = one per available core).
    pub jobs: usize,
    /// Compilation-cache capacity (`0` disables).
    pub cache_size: usize,
    /// Minimize failing cases to QASM reproducers.
    pub shrink: bool,
    /// Equivalence backend policy: `auto`, `dense`, `stabilizer`, or
    /// `sparse`.
    pub backend: String,
    /// Widest device checked with the dense statevector backend.
    pub max_dense_qubits: usize,
    /// Nonzero-amplitude budget for the sparse backend.
    pub max_terms: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            families: "all".into(),
            cases: 25,
            seed: 0,
            routers: "all".into(),
            decomposer: "standard".into(),
            devices: "line:8,grid:4x2".into(),
            jobs: 0,
            cache_size: 256,
            shrink: false,
            backend: "auto".into(),
            max_dense_qubits: 8,
            max_terms: trios_sim::DEFAULT_MAX_TERMS,
        }
    }
}

/// Flags of `trios serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// Admission queue capacity; a full queue answers `busy`.
    pub queue: usize,
    /// Compilation-cache shard count.
    pub shards: usize,
    /// Total compilation-cache capacity in entries (`0` disables).
    pub cache_size: usize,
    /// Per-request budget in milliseconds (`0` = no timeout).
    pub timeout_ms: u64,
    /// Maximum request line length in KiB.
    pub max_line_kb: usize,
    /// Honor `shutdown` requests from clients.
    pub allow_shutdown: bool,
    /// Smoke mode: bind an ephemeral port, round-trip one compile
    /// through a real socket, and exit 0 — a CI/liveness probe.
    pub check: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".into(),
            workers: 0,
            queue: 64,
            shards: 8,
            cache_size: 256,
            timeout_ms: 0,
            max_line_kb: 1024,
            allow_shutdown: false,
            check: false,
        }
    }
}

/// Flags shared by `compile`, `estimate` and `verify`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Options {
    /// Benchmark name, `gen:<family>[:<seed>]` ref, or `.qasm` path.
    pub input: String,
    /// `--device` (default `johannesburg`), `--router`, `--decomposer`,
    /// `--seed`, `--lookahead` and `--bridge`.
    pub compile: CompileRequest,
    /// The calibration `estimate` scores under: `--improve <f>` gives
    /// `improve:<f>`; the default is `now` (factor 1).
    pub calibration: CalibrationSpec,
    /// Emit compiled OpenQASM to this path (`-` for inline output).
    pub emit_qasm: Option<String>,
    /// Print the per-pass compile report (wall times, gate deltas).
    pub report: bool,
}

/// Flags of `compile-batch`: the shared compile [`Options`] (whose
/// `input` is a directory of `.qasm` files) plus the batch knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOptions {
    /// The shared compile flags; `options.input` is the directory.
    pub options: Options,
    /// Worker threads (`0` = one per available core).
    pub jobs: usize,
    /// Compilation-cache capacity in entries (`0` disables caching).
    pub cache_size: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            options: Options::default(),
            jobs: 0,
            cache_size: 256,
        }
    }
}

impl BatchOptions {
    /// The worker count to actually use: `--jobs` if given, otherwise one
    /// worker per available core.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Flags of `trios sweep`: the evaluation grid to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Benchmark selection: `paper` (the full Table 1 suite), `toffoli`
    /// (its Toffoli-bearing members), or a comma-separated name list.
    pub benchmarks: String,
    /// Comma-separated device specs (see [`parse_device`]).
    pub devices: String,
    /// Comma-separated router registry names.
    pub routers: String,
    /// Comma-separated decomposer registry names.
    pub decomposers: String,
    /// Comma-separated calibrations: `now`, `future`, or `improve:<f>`.
    pub calibrations: String,
    /// Crosstalk policy: `ignore`, `charge:<p>`, or `avoid`.
    pub crosstalk: String,
    /// Monte Carlo shots per eligible (≤ 8-qubit) cell.
    pub shots: Option<usize>,
    /// Worker threads (`0` = one per available core).
    pub jobs: usize,
    /// Routing seed.
    pub seed: u64,
    /// Compilation-cache capacity in entries (`0` disables).
    pub cache_size: usize,
    /// Write the JSON report here (`-` appends it to stdout).
    pub report: Option<String>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            benchmarks: "paper".into(),
            devices: "johannesburg".into(),
            routers: "baseline,trios".into(),
            decomposers: "standard".into(),
            calibrations: "future".into(),
            crosstalk: "ignore".into(),
            shots: None,
            jobs: 0,
            seed: 0,
            cache_size: 256,
            report: None,
        }
    }
}

/// Fetches the value following the flag at `rest[*i]`, advancing `i`.
fn flag_value(rest: &[&String], i: &mut usize, flag: &str) -> Result<String, CliError> {
    *i += 1;
    rest.get(*i)
        .map(|s| s.to_string())
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

/// Parses an integer flag value (any unsigned width via `FromStr`).
fn flag_int<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError::Usage(format!("{flag} must be an integer, got '{v}'")))
}

fn parse_sweep_args(rest: &[&String]) -> Result<SweepOptions, CliError> {
    let mut options = SweepOptions::default();
    let mut i = 0usize;
    while i < rest.len() {
        match rest[i].as_str() {
            "--benchmarks" | "-b" => options.benchmarks = flag_value(rest, &mut i, "--benchmarks")?,
            "--devices" | "-d" => options.devices = flag_value(rest, &mut i, "--devices")?,
            "--routers" | "-r" => {
                let names = flag_value(rest, &mut i, "--routers")?;
                request::check_routers(names.split(',').map(str::trim))?;
                options.routers = names;
            }
            "--decomposers" => {
                let names = flag_value(rest, &mut i, "--decomposers")?;
                request::check_decomposers(names.split(',').map(str::trim))?;
                options.decomposers = names;
            }
            "--calibrations" | "-c" => {
                options.calibrations = flag_value(rest, &mut i, "--calibrations")?
            }
            "--crosstalk" => options.crosstalk = flag_value(rest, &mut i, "--crosstalk")?,
            "--shots" => {
                let v = flag_value(rest, &mut i, "--shots")?;
                options.shots = Some(flag_int("--shots", v)?);
            }
            "--jobs" | "-j" => {
                let v = flag_value(rest, &mut i, "--jobs")?;
                options.jobs = flag_int("--jobs", v)?;
            }
            "--seed" | "-s" => {
                let v = flag_value(rest, &mut i, "--seed")?;
                options.seed = flag_int("--seed", v)?;
            }
            "--cache-size" => {
                let v = flag_value(rest, &mut i, "--cache-size")?;
                options.cache_size = flag_int("--cache-size", v)?;
            }
            "--report" => options.report = Some(flag_value(rest, &mut i, "--report")?),
            flag => {
                return Err(CliError::Usage(format!(
                    "unknown sweep flag or argument '{flag}'"
                )))
            }
        }
        i += 1;
    }
    Ok(options)
}

fn parse_gen_args(rest: &[&String]) -> Result<GenOptions, CliError> {
    let mut options = GenOptions::default();
    let mut saw_flag = false;
    let mut i = 0usize;
    while i < rest.len() {
        match rest[i].as_str() {
            "--seed" | "-s" => {
                let v = flag_value(rest, &mut i, "--seed")?;
                options.seed = flag_int("--seed", v)?;
                saw_flag = true;
            }
            "--qubits" | "-n" => {
                let v = flag_value(rest, &mut i, "--qubits")?;
                options.qubits = Some(flag_int("--qubits", v)?);
                saw_flag = true;
            }
            "--depth" => {
                let v = flag_value(rest, &mut i, "--depth")?;
                options.depth = Some(flag_int("--depth", v)?);
                saw_flag = true;
            }
            "--density" => {
                let v = flag_value(rest, &mut i, "--density")?;
                let density: f64 = v.parse().map_err(|_| {
                    CliError::Usage(format!("--density must be a number, got '{v}'"))
                })?;
                if !(0.0..=1.0).contains(&density) {
                    return Err(CliError::Usage(format!(
                        "--density must be in [0, 1], got '{v}'"
                    )));
                }
                options.density = Some(density);
                saw_flag = true;
            }
            "--emit-qasm" | "-o" => {
                options.out = Some(flag_value(rest, &mut i, "--emit-qasm")?);
                saw_flag = true;
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown gen flag '{flag}'")))
            }
            family => {
                if options.family.is_some() {
                    return Err(CliError::Usage("gen takes one family".into()));
                }
                options.family = Some(family.to_string());
            }
        }
        i += 1;
    }
    // Flags without a family are a forgotten argument, not a request for
    // the listing: silently ignoring them (worst case: not writing
    // --emit-qasm's file) would hide the mistake. Checked here, at parse
    // time, so explicitly passed default values ('--seed 0') are caught
    // too.
    if saw_flag && options.family.is_none() {
        return Err(CliError::Usage(
            "gen flags need a family (run 'trios gen' alone to list them)".into(),
        ));
    }
    Ok(options)
}

fn parse_fuzz_args(rest: &[&String]) -> Result<FuzzOptions, CliError> {
    let mut options = FuzzOptions::default();
    let mut i = 0usize;
    while i < rest.len() {
        match rest[i].as_str() {
            "--families" | "-f" => options.families = flag_value(rest, &mut i, "--families")?,
            "--cases" | "-c" => {
                let v = flag_value(rest, &mut i, "--cases")?;
                options.cases = flag_int("--cases", v)?;
            }
            "--seed" | "-s" => {
                let v = flag_value(rest, &mut i, "--seed")?;
                options.seed = flag_int("--seed", v)?;
            }
            "--routers" | "-r" => {
                let names = flag_value(rest, &mut i, "--routers")?;
                if names != "all" {
                    request::check_routers(names.split(',').map(str::trim))?;
                }
                options.routers = names;
            }
            "--decomposer" => {
                let name = flag_value(rest, &mut i, "--decomposer")?;
                request::check_decomposers([name.as_str()])?;
                options.decomposer = name;
            }
            "--devices" | "-d" => options.devices = flag_value(rest, &mut i, "--devices")?,
            "--jobs" | "-j" => {
                let v = flag_value(rest, &mut i, "--jobs")?;
                options.jobs = flag_int("--jobs", v)?;
            }
            "--cache-size" => {
                let v = flag_value(rest, &mut i, "--cache-size")?;
                options.cache_size = flag_int("--cache-size", v)?;
            }
            "--shrink" => options.shrink = true,
            "--backend" => {
                let v = flag_value(rest, &mut i, "--backend")?;
                v.parse::<trios_sim::Backend>().map_err(CliError::Usage)?;
                options.backend = v;
            }
            "--max-dense-qubits" => {
                let v = flag_value(rest, &mut i, "--max-dense-qubits")?;
                options.max_dense_qubits = flag_int("--max-dense-qubits", v)?;
            }
            "--max-terms" => {
                let v = flag_value(rest, &mut i, "--max-terms")?;
                options.max_terms = flag_int("--max-terms", v)?;
            }
            flag => {
                return Err(CliError::Usage(format!(
                    "unknown fuzz flag or argument '{flag}'"
                )))
            }
        }
        i += 1;
    }
    Ok(options)
}

fn parse_serve_args(rest: &[&String]) -> Result<ServeOptions, CliError> {
    let mut options = ServeOptions::default();
    let mut i = 0usize;
    while i < rest.len() {
        match rest[i].as_str() {
            "--addr" | "-a" => options.addr = flag_value(rest, &mut i, "--addr")?,
            "--workers" | "-j" => {
                let v = flag_value(rest, &mut i, "--workers")?;
                options.workers = flag_int("--workers", v)?;
            }
            "--queue" | "-q" => {
                let v = flag_value(rest, &mut i, "--queue")?;
                options.queue = flag_int("--queue", v)?;
            }
            "--shards" => {
                let v = flag_value(rest, &mut i, "--shards")?;
                options.shards = flag_int("--shards", v)?;
            }
            "--cache-size" => {
                let v = flag_value(rest, &mut i, "--cache-size")?;
                options.cache_size = flag_int("--cache-size", v)?;
            }
            "--timeout-ms" => {
                let v = flag_value(rest, &mut i, "--timeout-ms")?;
                options.timeout_ms = flag_int("--timeout-ms", v)?;
            }
            "--max-line-kb" => {
                let v = flag_value(rest, &mut i, "--max-line-kb")?;
                options.max_line_kb = flag_int("--max-line-kb", v)?;
            }
            "--allow-shutdown" => options.allow_shutdown = true,
            "--check" => options.check = true,
            flag => {
                return Err(CliError::Usage(format!(
                    "unknown serve flag or argument '{flag}'"
                )))
            }
        }
        i += 1;
    }
    if options.queue == 0 {
        return Err(CliError::Usage(
            "--queue must be at least 1 (a zero-slot queue rejects everything)".into(),
        ));
    }
    Ok(options)
}

/// Parses a full argument list (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown subcommands, unknown flags, or
/// missing flag values.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "list" => Ok(Command::List),
        "table1" => Ok(Command::Table1),
        "routers" => Ok(Command::Routers),
        "decomposers" => Ok(Command::Decomposers),
        "sweep" => {
            let rest: Vec<&String> = it.collect();
            parse_sweep_args(&rest).map(Command::Sweep)
        }
        "gen" => {
            let rest: Vec<&String> = it.collect();
            parse_gen_args(&rest).map(Command::Gen)
        }
        "fuzz" => {
            let rest: Vec<&String> = it.collect();
            parse_fuzz_args(&rest).map(Command::Fuzz)
        }
        "serve" => {
            let rest: Vec<&String> = it.collect();
            parse_serve_args(&rest).map(Command::Serve)
        }
        "help" | "-h" | "--help" => Ok(Command::Help),
        "compile" | "compile-batch" | "estimate" | "verify" => {
            let mut options = Options::default();
            let mut batch = BatchOptions::default();
            let mut positional = Vec::new();
            let rest: Vec<&String> = it.collect();
            let mut i = 0usize;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--device" | "-d" => {
                        options.compile.device = flag_value(&rest, &mut i, "--device")?
                    }
                    // Names are checked at parse time, so typos fail before
                    // any file IO or compilation starts.
                    "--router" | "-r" => {
                        let name = flag_value(&rest, &mut i, "--router")?;
                        request::check_routers([name.as_str()])?;
                        options.compile.options.router = Some(name);
                    }
                    // Long-only: -d already means --device here.
                    "--decomposer" => {
                        let name = flag_value(&rest, &mut i, "--decomposer")?;
                        request::check_decomposers([name.as_str()])?;
                        options.compile.options.decomposer = Some(name);
                    }
                    "--seed" | "-s" => {
                        let v = flag_value(&rest, &mut i, "--seed")?;
                        options.compile.options.seed = flag_int("--seed", v)?;
                    }
                    // compile-batch falls through to the unknown-flag error
                    // for the per-circuit-output flags it cannot honor,
                    // instead of swallowing them silently.
                    // `--improve <f>` is `improve:<f>`, under the same rule.
                    "--improve" if cmd != "compile-batch" => {
                        let v = flag_value(&rest, &mut i, "--improve")?;
                        options.calibration = format!("improve:{v}").parse()?;
                    }
                    "--lookahead" => {
                        options.compile.options.lookahead = Some(LookaheadConfig::default())
                    }
                    "--bridge" => options.compile.options.bridge = true,
                    "--report" => options.report = true,
                    "--emit-qasm" if cmd != "compile-batch" => {
                        options.emit_qasm = Some(flag_value(&rest, &mut i, "--emit-qasm")?)
                    }
                    "--jobs" | "-j" if cmd == "compile-batch" => {
                        let v = flag_value(&rest, &mut i, "--jobs")?;
                        batch.jobs = flag_int("--jobs", v)?;
                    }
                    "--cache-size" if cmd == "compile-batch" => {
                        let v = flag_value(&rest, &mut i, "--cache-size")?;
                        batch.cache_size = flag_int("--cache-size", v)?;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(CliError::Usage(format!("unknown flag '{flag}'")))
                    }
                    positional_arg => positional.push(positional_arg.to_string()),
                }
                i += 1;
            }
            match positional.len() {
                0 => return Err(CliError::Usage(format!("{cmd} needs an input"))),
                1 => options.input = positional.remove(0),
                n => return Err(CliError::Usage(format!("{cmd} takes one input, got {n}"))),
            }
            match cmd.as_str() {
                "compile" => Ok(Command::Compile(options)),
                "compile-batch" => {
                    batch.options = options;
                    Ok(Command::CompileBatch(batch))
                }
                "estimate" => Ok(Command::Estimate(options)),
                _ => Ok(Command::Verify(options)),
            }
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}' (try 'trios help')"
        ))),
    }
}

/// Resolves a device spec to a topology via the shared grammar in
/// [`trios_topology::parse_spec`] (named devices plus `line:N`, `ring:N`,
/// `full:N`, `grid:CxR`, `clusters:KxS`, `alltoall:N`, `heavy-hex:N`), so
/// the CLI and the serve protocol accept identical specs.
///
/// # Errors
///
/// Returns [`CliError::Device`] for unrecognized or oversized specs.
pub fn parse_device(spec: &str) -> Result<Topology, CliError> {
    parse_spec(spec).map_err(CliError::Device)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_compile_with_flags() {
        let cmd = parse_args(&args(&[
            "compile",
            "grovers-9",
            "--device",
            "line:12",
            "--router",
            "baseline",
            "--seed",
            "7",
            "--lookahead",
        ]))
        .unwrap();
        let Command::Compile(o) = cmd else {
            panic!("expected compile");
        };
        assert_eq!(o.input, "grovers-9");
        assert_eq!(o.compile.device, "line:12");
        assert_eq!(o.compile.options.router.as_deref(), Some("baseline"));
        assert_eq!(o.compile.options.seed, 7);
        assert!(o.compile.options.lookahead.is_some());
    }

    #[test]
    fn parses_compile_batch_with_batch_flags() {
        let cmd = parse_args(&args(&[
            "compile-batch",
            "examples/qasm",
            "--jobs",
            "4",
            "--cache-size",
            "32",
            "--device",
            "grid:3x3",
            "--report",
        ]))
        .unwrap();
        let Command::CompileBatch(batch) = cmd else {
            panic!("expected compile-batch");
        };
        assert_eq!(batch.options.input, "examples/qasm");
        assert_eq!(batch.options.compile.device, "grid:3x3");
        assert!(batch.options.report);
        assert_eq!(batch.jobs, 4);
        assert_eq!(batch.effective_jobs(), 4);
        assert_eq!(batch.cache_size, 32);
    }

    #[test]
    fn compile_batch_defaults_and_flag_scoping() {
        let Command::CompileBatch(batch) = parse_args(&args(&["compile-batch", "d"])).unwrap()
        else {
            panic!("expected compile-batch");
        };
        assert_eq!(batch.jobs, 0, "--jobs defaults to auto");
        assert!(batch.effective_jobs() >= 1);
        assert_eq!(batch.cache_size, 256);
        // The batch flags belong to compile-batch only.
        assert!(parse_args(&args(&["compile", "a", "--jobs", "4"])).is_err());
        assert!(parse_args(&args(&["compile", "a", "--cache-size", "8"])).is_err());
        // And compile-batch rejects the per-circuit-output flags it cannot
        // honor instead of swallowing them.
        assert!(parse_args(&args(&["compile-batch", "d", "--emit-qasm", "o.qasm"])).is_err());
        assert!(parse_args(&args(&["compile-batch", "d", "--improve", "20"])).is_err());
        assert!(parse_args(&args(&["compile-batch", "d", "--jobs", "x"])).is_err());
        assert!(parse_args(&args(&["compile-batch", "d", "--cache-size", "-1"])).is_err());
        assert!(parse_args(&args(&["compile-batch"])).is_err());
    }

    #[test]
    fn parses_router_flag_and_routers_command() {
        assert_eq!(parse_args(&args(&["routers"])).unwrap(), Command::Routers);
        let Command::Compile(o) = parse_args(&args(&[
            "compile",
            "grovers-9",
            "--router",
            "trios-lookahead",
        ]))
        .unwrap() else {
            panic!("expected compile");
        };
        assert_eq!(o.compile.options.router.as_deref(), Some("trios-lookahead"));
        let Command::CompileBatch(batch) =
            parse_args(&args(&["compile-batch", "d", "-r", "trios-noise"])).unwrap()
        else {
            panic!("expected compile-batch");
        };
        assert_eq!(
            batch.options.compile.options.router.as_deref(),
            Some("trios-noise")
        );
        // Unknown names fail at parse time, naming the registry.
        let err = parse_args(&args(&["compile", "a", "--router", "sabre"])).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("sabre"), "{text}");
        assert!(text.contains("baseline"), "{text}");
        assert!(parse_args(&args(&["compile", "a", "--router"])).is_err());
    }

    #[test]
    fn parses_decomposer_flag_and_decomposers_command() {
        assert_eq!(
            parse_args(&args(&["decomposers"])).unwrap(),
            Command::Decomposers
        );
        let Command::Compile(o) = parse_args(&args(&["compile", "grovers-9"])).unwrap() else {
            panic!("expected compile");
        };
        assert_eq!(
            o.compile.options.decomposer, None,
            "default is the registry default"
        );
        for name in ["standard", "six", "eight", "tdepth", "relative-phase"] {
            let Command::Compile(o) =
                parse_args(&args(&["compile", "grovers-9", "--decomposer", name])).unwrap()
            else {
                panic!("expected compile");
            };
            assert_eq!(o.compile.options.decomposer.as_deref(), Some(name));
        }
        let Command::Verify(o) =
            parse_args(&args(&["verify", "grovers-9", "--decomposer", "eight"])).unwrap()
        else {
            panic!("expected verify");
        };
        assert_eq!(o.compile.options.decomposer.as_deref(), Some("eight"));
        // Unknown names fail at parse time, naming the registry.
        let err = parse_args(&args(&["compile", "a", "--decomposer", "margolus"])).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("margolus"), "{text}");
        assert!(text.contains("relative-phase"), "{text}");
        assert!(parse_args(&args(&["compile", "a", "--decomposer"])).is_err());
    }

    #[test]
    fn parses_sweep_with_defaults_and_flags() {
        let Command::Sweep(o) = parse_args(&args(&["sweep"])).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(o, SweepOptions::default());
        assert_eq!(o.benchmarks, "paper");
        assert_eq!(o.routers, "baseline,trios");
        assert_eq!(o.decomposers, "standard");
        assert_eq!(o.calibrations, "future");

        let Command::Sweep(o) = parse_args(&args(&[
            "sweep",
            "--benchmarks",
            "cnx_inplace-4,grovers-9",
            "--devices",
            "line:8,johannesburg",
            "--routers",
            "baseline,trios-lookahead",
            "--decomposers",
            "standard,eight,qutrit",
            "--calibrations",
            "now,improve:10",
            "--crosstalk",
            "charge:0.02",
            "--shots",
            "50",
            "--jobs",
            "2",
            "--seed",
            "7",
            "--cache-size",
            "64",
            "--report",
            "out.json",
        ]))
        .unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(o.benchmarks, "cnx_inplace-4,grovers-9");
        assert_eq!(o.devices, "line:8,johannesburg");
        assert_eq!(o.routers, "baseline,trios-lookahead");
        assert_eq!(o.decomposers, "standard,eight,qutrit");
        assert_eq!(o.calibrations, "now,improve:10");
        assert_eq!(o.crosstalk, "charge:0.02");
        assert_eq!(o.shots, Some(50));
        assert_eq!(o.jobs, 2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.cache_size, 64);
        assert_eq!(o.report.as_deref(), Some("out.json"));
    }

    #[test]
    fn sweep_rejects_unknown_routers_and_flags_at_parse_time() {
        let err = parse_args(&args(&["sweep", "--routers", "baseline,sabre"])).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("sabre"), "{text}");
        assert!(text.contains("trios"), "{text}");
        // Decomposer names too.
        let err = parse_args(&args(&["sweep", "--decomposers", "standard,margolus"])).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("margolus"), "{text}");
        assert!(text.contains("qutrit"), "{text}");
        assert!(parse_args(&args(&["sweep", "--wat"])).is_err());
        assert!(parse_args(&args(&["sweep", "positional"])).is_err());
        assert!(parse_args(&args(&["sweep", "--shots", "x"])).is_err());
        assert!(parse_args(&args(&["sweep", "--shots"])).is_err());
    }

    #[test]
    fn parses_gen_with_flags() {
        let Command::Gen(o) = parse_args(&args(&["gen"])).unwrap() else {
            panic!("expected gen");
        };
        assert_eq!(o, GenOptions::default());
        assert!(o.family.is_none());

        let Command::Gen(o) = parse_args(&args(&[
            "gen",
            "layered",
            "-s",
            "7",
            "-n",
            "6",
            "--depth",
            "12",
            "--density",
            "0.5",
        ]))
        .unwrap() else {
            panic!("expected gen");
        };
        assert_eq!(o.family.as_deref(), Some("layered"));
        assert_eq!(o.seed, 7);
        assert_eq!(o.qubits, Some(6));
        assert_eq!(o.depth, Some(12));
        assert_eq!(o.density, Some(0.5));
        assert!(parse_args(&args(&["gen", "a", "b"])).is_err());
        assert!(parse_args(&args(&["gen", "--qubits", "x"])).is_err());
        assert!(parse_args(&args(&["gen", "--density", "1.5"])).is_err());
        assert!(parse_args(&args(&["gen", "--seed"])).is_err());
    }

    #[test]
    fn parses_fuzz_with_defaults_and_flags() {
        let Command::Fuzz(o) = parse_args(&args(&["fuzz"])).unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!(o, FuzzOptions::default());
        assert_eq!(o.cases, 25);
        assert!(!o.shrink);

        let Command::Fuzz(o) = parse_args(&args(&[
            "fuzz",
            "--seed",
            "42",
            "--cases",
            "50",
            "--families",
            "qft,layered",
            "--routers",
            "baseline,trios",
            "--decomposer",
            "relative-phase",
            "--devices",
            "line:8",
            "--jobs",
            "2",
            "--cache-size",
            "64",
            "--shrink",
            "--backend",
            "stabilizer",
            "--max-dense-qubits",
            "12",
            "--max-terms",
            "4096",
        ]))
        .unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!(o.seed, 42);
        assert_eq!(o.cases, 50);
        assert_eq!(o.families, "qft,layered");
        assert_eq!(o.routers, "baseline,trios");
        assert_eq!(o.decomposer, "relative-phase");
        assert_eq!(o.devices, "line:8");
        assert_eq!(o.jobs, 2);
        assert_eq!(o.cache_size, 64);
        assert!(o.shrink);
        assert_eq!(o.backend, "stabilizer");
        assert_eq!(o.max_dense_qubits, 12);
        assert_eq!(o.max_terms, 4096);
        assert!(parse_args(&args(&["fuzz", "--backend", "sparse"])).is_ok());
        // Router and decomposer names are validated at parse time.
        assert!(parse_args(&args(&["fuzz", "--routers", "sabre"])).is_err());
        assert!(parse_args(&args(&["fuzz", "--decomposer", "margolus"])).is_err());
        assert!(parse_args(&args(&["fuzz", "--wat"])).is_err());
        assert!(parse_args(&args(&["fuzz", "--cases"])).is_err());
        // Backend names are validated at parse time too.
        assert!(parse_args(&args(&["fuzz", "--backend", "statevector"])).is_err());
    }

    #[test]
    fn parses_serve_with_defaults_and_flags() {
        let Command::Serve(o) = parse_args(&args(&["serve"])).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(o, ServeOptions::default());
        assert_eq!(o.addr, "127.0.0.1:7878");
        assert!(!o.allow_shutdown && !o.check);

        let Command::Serve(o) = parse_args(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "8",
            "--shards",
            "4",
            "--cache-size",
            "128",
            "--timeout-ms",
            "500",
            "--max-line-kb",
            "64",
            "--allow-shutdown",
            "--check",
        ]))
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.workers, 2);
        assert_eq!(o.queue, 8);
        assert_eq!(o.shards, 4);
        assert_eq!(o.cache_size, 128);
        assert_eq!(o.timeout_ms, 500);
        assert_eq!(o.max_line_kb, 64);
        assert!(o.allow_shutdown);
        assert!(o.check);

        assert!(parse_args(&args(&["serve", "--queue", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "--workers", "x"])).is_err());
        assert!(parse_args(&args(&["serve", "--wat"])).is_err());
        assert!(parse_args(&args(&["serve", "positional"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&["frob"])).is_err());
        assert!(parse_args(&args(&["compile"])).is_err());
        assert!(parse_args(&args(&["compile", "a", "b"])).is_err());
        assert!(parse_args(&args(&["compile", "a", "--router", "x"])).is_err());
        // The router alone picks the pass structure; there is no
        // `--pipeline` flag.
        for flag in ["--pipeline", "-p"] {
            let err = parse_args(&args(&["compile", "a", flag, "baseline"])).unwrap_err();
            assert!(
                err.to_string().contains(&format!("unknown flag '{flag}'")),
                "{err}"
            );
        }
        assert!(parse_args(&args(&["compile", "a", "--seed", "x"])).is_err());
        assert!(parse_args(&args(&["compile", "a", "--seed"])).is_err());
        assert!(parse_args(&args(&["compile", "a", "--wat"])).is_err());
    }

    #[test]
    fn improve_factors_must_be_positive_numbers() {
        let Command::Estimate(o) =
            parse_args(&args(&["estimate", "a", "--improve", "20"])).unwrap()
        else {
            panic!("expected estimate");
        };
        assert_eq!(o.calibration.factor(), 20.0);
        assert_eq!(Options::default().calibration.factor(), 1.0);
        // Exactly the factors `Calibration::improved` would panic on.
        for bad in ["0", "-2", "NaN", "x"] {
            let err = parse_args(&args(&["estimate", "a", "--improve", bad])).unwrap_err();
            assert!(matches!(err, CliError::Request(_)), "{err:?}");
            assert!(
                err.to_string().contains(&format!("'improve:{bad}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn device_specs_resolve() {
        assert_eq!(parse_device("johannesburg").unwrap().num_qubits(), 20);
        assert_eq!(parse_device("heavy-hex").unwrap().num_qubits(), 27);
        assert_eq!(parse_device("line:7").unwrap().num_qubits(), 7);
        assert_eq!(parse_device("ring:8").unwrap().num_qubits(), 8);
        assert_eq!(parse_device("grid:3x3").unwrap().num_qubits(), 9);
        assert_eq!(parse_device("clusters:2x4").unwrap().num_qubits(), 8);
        assert!(parse_device("torus:3x3").is_err());
        assert!(parse_device("line:x").is_err());
        assert!(parse_device("nonsense").is_err());
        // Oversized specs carry their typed error to the user.
        let err = parse_device("line:100000").unwrap_err();
        assert!(
            matches!(&err, CliError::Device(e) if e.kind == trios_topology::SpecErrorKind::TooLarge),
            "{err}"
        );
        assert!(err.to_string().contains("line:100000"), "{err}");
    }
}
