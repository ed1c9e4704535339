//! Command execution.

use crate::args::{
    parse_args, parse_device, BatchOptions, Command, FuzzOptions, GenOptions, Options,
    ServeOptions, SweepOptions,
};
use crate::CliError;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trios_benchmarks::{Benchmark, ExtendedBenchmark};
use trios_core::request::{self, CalibrationSpec, CircuitRef, CrosstalkSpec};
use trios_core::{
    run_fuzz, run_sweep, CompilationCache, CompiledProgram, Compiler, DecomposerRegistry, FuzzSpec,
    StrategyRegistry, SweepBenchmark, SweepSpec, Topology,
};
use trios_gen::Family;
use trios_ir::Circuit;

const HELP: &str = "\
trios — the Orchestrated Trios quantum compiler (ASPLOS 2021 reproduction)

USAGE:
    trios <command> [arguments]

COMMANDS:
    list                         benchmarks and devices
    routers                      the registered routing strategies
    decomposers                  the registered Toffoli decompositions
    table1                       regenerate the paper's Table 1
    compile <input> [flags]      compile a benchmark or .qasm file
    compile-batch <dir> [flags]  compile every .qasm under a directory, in
                                 parallel with a compilation cache
    estimate <input> [flags]     compile, then estimate success probability
    verify <input> [flags]       compile, then simulate both programs to check
                                 semantics at full device width: stabilizer
                                 for Clifford pairs, dense statevector up to
                                 24 qubits, sparse statevector past that
    sweep [flags]                run a benchmark × device × router ×
                                 calibration evaluation grid (the paper's
                                 Figure 6/8/9/11 comparison)
    gen [family] [flags]         emit a seeded generated circuit as OpenQASM
                                 (no family: list the generator families)
    fuzz [flags]                 differentially fuzz every router: generated
                                 circuits × devices × routers, simulator- and
                                 legality-checked, failures shrunk
    serve [flags]                run the compilation daemon: line-delimited
                                 JSON over TCP with a shared sharded cache,
                                 admission control, and live stats
    help                         this text

FLAGS (compile / estimate / verify):
    --device, -d <spec>          johannesburg | heavy-hex | grid | line |
                                 clusters | line:N | ring:N | full:N |
                                 grid:CxR | clusters:KxS | alltoall:N |
                                 heavy-hex:N (N = 127, 433, 1121, ...)
                                 (default johannesburg)
    --router, -r <name>          routing strategy by name (see 'trios
                                 routers')                 (default trios)
    --decomposer <name>          Toffoli decomposition by name (see 'trios
                                 decomposers')          (default standard)
    --seed, -s <n>               routing seed              (default 0)
    --lookahead                  windowed-lookahead pair routing
    --bridge                     distance-2 CNOTs as 4-CNOT bridges
    --improve <factor>           error-improvement factor for estimate
    --emit-qasm <path|->         write the compiled circuit as OpenQASM 2.0
    --report                     print the per-pass compile report

FLAGS (compile-batch only):
    --jobs, -j <n>               worker threads        (default: one per core)
    --cache-size <n>             cache capacity, 0 = off      (default 256)

FLAGS (sweep):
    --benchmarks, -b <list>      'paper' | 'toffoli' | 'generated' | comma-
                                 separated benchmark names, gen:<family>:<seed>
                                 specs, or .qasm paths (default paper)
    --devices, -d <list>         comma-separated device specs (default johannesburg)
    --routers, -r <list>         comma-separated registry names
                                 (default baseline,trios)
    --decomposers <list>         comma-separated decomposition names; the
                                 grid becomes router x decomposer (cost-
                                 model-only entries like 'qutrit' are
                                 repriced, not simulated) (default standard)
    --calibrations, -c <list>    now | future | improve:<f>, comma-separated
                                 (default future = errors improved 20x)
    --crosstalk <policy>         ignore | charge:<p> | avoid  (default ignore)
    --shots <n>                  Monte Carlo cross-check on cells with <= 8
                                 compiled qubits
    --jobs, -j / --seed, -s / --cache-size    as for compile-batch
    --report <path|->            write the SweepReport JSON

FLAGS (gen):
    --seed, -s <n>               generation seed (also picks grid parameters)
    --qubits, -n <n>             width override
    --depth <n>                  depth/layers/sweeps override (per family)
    --density <f>                3q-gate density override (layered only)
    --emit-qasm, -o <path>       write the QASM to a file instead of stdout

FLAGS (fuzz):
    --families, -f <list>        'all' or comma-separated family names
    --cases, -c <n>              generated case count          (default 25)
    --routers, -r <list>         'all' or comma-separated registry names
    --decomposer <name>          executable decomposition to fuzz
                                 (default standard)
    --devices, -d <list>         comma-separated device specs
                                 (default line:8,grid:4x2)
    --shrink                     minimize failing cases to QASM reproducers
    --backend <which>            auto | dense | stabilizer | sparse
                                 (default auto: stabilizer for Clifford
                                 pairs, dense up to --max-dense-qubits,
                                 sparse for wider non-Clifford circuits)
    --max-dense-qubits <n>       widest device dense-checked   (default 8)
    --max-terms <n>              sparse nonzero-amplitude budget; cells
                                 that outgrow it are recorded as skipped
                                 (default 1048576)
    --jobs, -j / --seed, -s      as for compile-batch

FLAGS (serve):
    --addr, -a <host:port>       bind address        (default 127.0.0.1:7878)
    --workers, -j <n>            worker threads      (default: one per core)
    --queue, -q <n>              admission queue capacity; full queues answer
                                 structured 'busy' errors       (default 64)
    --shards <n>                 compilation-cache shard count   (default 8)
    --cache-size <n>             total cache entries, 0 = off  (default 256)
    --timeout-ms <n>             per-request budget, 0 = none    (default 0)
    --max-line-kb <n>            request line limit in KiB    (default 1024)
    --allow-shutdown             honor 'shutdown' requests from clients
    --check                      smoke mode: bind an ephemeral port, round-
                                 trip one compile, and exit 0 (CI probe)

Benchmark inputs everywhere (compile/estimate/verify/sweep) also accept
'gen:<family>:<seed>' for a generated instance.
";

/// Parses `args` (without the program name) and runs the command,
/// returning its rendered output.
///
/// # Errors
///
/// Returns a [`CliError`] for usage errors, unknown inputs, and
/// compilation failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match parse_args(args)? {
        Command::Help => Ok(HELP.to_string()),
        Command::List => Ok(render_list()),
        Command::Routers => Ok(render_routers()),
        Command::Decomposers => Ok(render_decomposers()),
        Command::Table1 => Ok(render_table1()),
        Command::Compile(options) => {
            let (circuit, device) = resolve(&options)?;
            let (compiled, mut out) = compile_input(&options, &circuit, &device)?;
            if let Some(path) = &options.emit_qasm {
                let qasm = trios_qasm::emit(&compiled.circuit);
                if path == "-" {
                    out.push('\n');
                    out.push_str(&qasm);
                } else {
                    std::fs::write(path, qasm)?;
                    let _ = writeln!(out, "\nwrote compiled OpenQASM to {path}");
                }
            }
            Ok(out)
        }
        Command::CompileBatch(batch) => run_compile_batch(&batch),
        Command::Sweep(options) => run_sweep_command(&options),
        Command::Gen(options) => run_gen_command(&options),
        Command::Fuzz(options) => run_fuzz_command(&options),
        Command::Serve(options) => run_serve(&options),
        Command::Verify(options) => {
            // The program checked is the one compiled.
            let (circuit, device) = resolve(&options)?;
            let (compiled, mut out) = compile_input(&options, &circuit, &device)?;
            let sim = trios_sim::auto_backend(
                device.num_qubits(),
                &[&circuit, &compiled.circuit],
                trios_sim::MAX_QUBITS,
                trios_sim::DEFAULT_MAX_TERMS,
            )
            .ok_or_else(|| {
                CliError::Usage(format!(
                    "no simulator backend can check this program: it is non-Clifford and \
                     touches more than {} qubits",
                    trios_sim::SPARSE_MAX_QUBITS
                ))
            })?;
            let capability = sim.capability();
            let backend = capability.name;
            let trials = 2;
            let ok = sim
                .compiled_equivalent(
                    &circuit,
                    &compiled.circuit,
                    &compiled.initial_layout.to_mapping(),
                    &compiled.final_layout.to_mapping(),
                    trials,
                    options.compile.options.seed.wrapping_add(1),
                )
                .map_err(|e| {
                    CliError::Usage(format!("{backend} verification failed to run: {e}"))
                })?;
            let label = if capability.exact {
                format!("{backend} backend, exact")
            } else {
                format!("{backend} backend, {trials} sampled inputs")
            };
            if !ok {
                return Err(CliError::Usage(format!(
                    "semantics FAILED ({label}): the compiled circuit does not implement the \
                     program — please report this as a compiler bug"
                )));
            }
            let _ = writeln!(
                out,
                "\nsemantics:       VERIFIED ({label}: replay through initial/final layouts)"
            );
            Ok(out)
        }
        Command::Estimate(options) => {
            let (circuit, device) = resolve(&options)?;
            let (compiled, mut out) = compile_input(&options, &circuit, &device)?;
            let estimate = compiled.estimate_success(&options.calibration.calibration());
            let _ = writeln!(
                out,
                "\ncalibration:     Johannesburg 2020-08-19, errors improved {}x",
                options.calibration.factor()
            );
            let _ = writeln!(out, "est. success:    {estimate}");
            Ok(out)
        }
    }
}

/// Every `.qasm` file under `dir` (recursively), sorted by path so batch
/// order — and therefore output and failure reporting — is deterministic.
/// Symlinks are not followed: a symlink cycle must not hang the walk, and
/// a linked directory would compile the same files twice.
fn collect_qasm_files(dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current)? {
            let entry = entry?;
            let file_type = entry.file_type()?;
            let path = entry.path();
            if file_type.is_dir() {
                stack.push(path);
            } else if file_type.is_file() && path.extension().is_some_and(|e| e == "qasm") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn run_compile_batch(batch: &BatchOptions) -> Result<String, CliError> {
    let options = &batch.options;
    let dir = Path::new(&options.input);
    if !dir.is_dir() {
        return Err(CliError::Usage(format!(
            "compile-batch takes a directory of .qasm files, and '{}' is not one",
            dir.display()
        )));
    }
    let files = collect_qasm_files(dir)?;
    if files.is_empty() {
        return Err(CliError::Usage(format!(
            ".qasm files under '{}': none found",
            dir.display()
        )));
    }
    let mut circuits = Vec::with_capacity(files.len());
    for path in &files {
        // Name the file in read/parse failures: in a 50-file batch, a bare
        // "qasm error" would leave the user hunting for the offender.
        let batch_file = |message: String| CliError::BatchFile {
            file: path.display().to_string(),
            message,
        };
        let source = std::fs::read_to_string(path).map_err(|e| batch_file(e.to_string()))?;
        let mut circuit =
            trios_qasm::parse(&source).map_err(|e| batch_file(format!("qasm error: {e}")))?;
        circuit.set_name(path.display().to_string());
        circuits.push(circuit);
    }
    let device = parse_device(&options.compile.device)?;
    let compiler = options.compile.compiler();
    let cache = CompilationCache::new(batch.cache_size);
    let jobs = batch.effective_jobs();
    let outcome = compiler
        .compile_batch(&circuits, &device, jobs, Some(&cache))
        .map_err(|e| CliError::Batch {
            file: files[e.index].display().to_string(),
            source: e,
        })?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch input:     {} ({} .qasm files)",
        dir.display(),
        files.len()
    );
    let _ = writeln!(out, "device:          {device}");
    let _ = writeln!(out, "{}", router_line(&compiler));
    // Report the clamped worker count the engine actually used (a batch
    // never spawns more workers than it has circuits), so this line and
    // the batch summary below agree.
    let _ = writeln!(
        out,
        "workers:         {} jobs, cache capacity {}",
        outcome.report.jobs, batch.cache_size
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<40} {:>6} {:>6} {:>6} {:>10}",
        "file", "2q", "1q", "depth", "µs"
    );
    for (path, (program, _)) in files.iter().zip(&outcome.results) {
        let _ = writeln!(
            out,
            "{:<40} {:>6} {:>6} {:>6} {:>10.3}",
            path.display(),
            program.stats.two_qubit_gates,
            program.stats.one_qubit_gates,
            program.stats.depth,
            program.stats.duration_us,
        );
    }
    let _ = writeln!(out);
    if options.report {
        let _ = writeln!(out, "{}", outcome.report);
        // The cache's own snapshot (the same CacheStats the serve daemon
        // reports over the wire), next to the batch aggregates.
        let _ = writeln!(out, "cache:           {}", cache.stats());
    } else {
        let report = &outcome.report;
        let _ = writeln!(
            out,
            "batch: {} circuits on {} jobs in {:.1?}, cache {} hits / {} misses",
            report.circuits, report.jobs, report.wall_time, report.cache_hits, report.cache_misses
        );
    }
    Ok(out)
}

/// Resolves the `--benchmarks` selector into measured sweep benchmarks.
fn sweep_benchmarks(selector: &str) -> Result<Vec<SweepBenchmark>, CliError> {
    let named = |benchmarks: Vec<Benchmark>| {
        benchmarks
            .into_iter()
            .map(|b| SweepBenchmark::measured(b.name(), b.build()))
            .collect()
    };
    Ok(match selector {
        "paper" => named(Benchmark::ALL.to_vec()),
        "toffoli" => named(Benchmark::toffoli_suite().collect()),
        // One seed-0 instance per generator family: the open-ended suite.
        "generated" => Family::ALL
            .into_iter()
            .map(|family| {
                let case = family.generate_case(0);
                SweepBenchmark::measured(case.name, case.circuit)
            })
            .collect(),
        list => comma(list)
            .iter()
            .map(|name| Ok(load_input(name)?.sweep_benchmark()?))
            .collect::<Result<Vec<_>, CliError>>()?,
    })
}

/// Splits a comma-separated flag value, trimming and dropping empties.
fn comma(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Resolves a comma-separated device list into named topologies.
fn parse_devices(list: &str) -> Result<Vec<(String, trios_core::Topology)>, CliError> {
    comma(list)
        .into_iter()
        .map(|spec| {
            let topology = parse_device(&spec)?;
            Ok((spec, topology))
        })
        .collect()
}

fn run_sweep_command(options: &SweepOptions) -> Result<String, CliError> {
    let devices = parse_devices(&options.devices)?;
    let mut calibrations = Vec::new();
    for spec in comma(&options.calibrations) {
        let calibration: CalibrationSpec = spec.parse()?;
        calibrations.push((spec, calibration.calibration()));
    }
    let spec = SweepSpec {
        benchmarks: sweep_benchmarks(&options.benchmarks)?,
        devices,
        routers: comma(&options.routers),
        decomposers: comma(&options.decomposers),
        calibrations,
        crosstalk: options.crosstalk.parse::<CrosstalkSpec>()?.policy(),
        seed: options.seed,
        jobs: options.jobs,
        cache_size: options.cache_size,
        monte_carlo_shots: options.shots,
    };
    let report = run_sweep(&spec)?;
    let mut out = report.summary_table();
    if let Some(path) = &options.report {
        let json = report.to_json_pretty();
        if path == "-" {
            out.push('\n');
            out.push_str(&json);
            out.push('\n');
        } else {
            std::fs::write(path, json)?;
            let _ = writeln!(out, "\nwrote SweepReport JSON to {path}");
        }
    }
    Ok(out)
}

fn run_gen_command(options: &GenOptions) -> Result<String, CliError> {
    // Flags without a family never reach here: parse_gen_args rejects
    // them, so a missing family always means listing mode.
    let Some(name) = &options.family else {
        return Ok(render_families());
    };
    let family = request::family(name)?;
    let mut case = family.generate_case(options.seed);
    if options.qubits.is_some() || options.depth.is_some() || options.density.is_some() {
        let mut params = case.params;
        if let Some(qubits) = options.qubits {
            params.qubits = qubits;
        }
        if let Some(depth) = options.depth {
            params.depth = depth;
        }
        if let Some(density) = options.density {
            params.three_q_density = density;
        }
        if params.qubits < 3 {
            return Err(CliError::Usage("--qubits must be at least 3".into()));
        }
        let circuit = family.generate(&params, options.seed);
        case.name = circuit.name().to_string();
        case.params = params;
        case.circuit = circuit;
    }
    let qasm = trios_qasm::emit(&case.circuit);
    match &options.out {
        Some(path) => {
            std::fs::write(path, &qasm)?;
            Ok(format!(
                "wrote {} ({} gates, {} qubits) to {path}\n",
                case.name,
                case.circuit.len(),
                case.circuit.num_qubits()
            ))
        }
        None => Ok(qasm),
    }
}

fn render_families() -> String {
    let mut out = String::new();
    out.push_str("generator families (use with 'trios gen <family>', 'trios fuzz --families',\nor as benchmark inputs 'gen:<family>:<seed>'):\n");
    for family in Family::ALL {
        let grid = family.grid();
        let widths: Vec<usize> = grid.iter().map(|p| p.qubits).collect();
        let _ = writeln!(
            out,
            "  {:<16} {} ({} grid entries, {}-{} qubits)",
            family.name(),
            family.description(),
            grid.len(),
            widths.iter().min().expect("grids are nonempty"),
            widths.iter().max().expect("grids are nonempty"),
        );
    }
    out.push_str("\ndeterminism: the same (family, parameters, seed) always generates a\nbyte-identical circuit.\n");
    out
}

fn run_fuzz_command(options: &FuzzOptions) -> Result<String, CliError> {
    let families = if options.families == "all" {
        Family::ALL.to_vec()
    } else {
        comma(&options.families)
            .iter()
            .map(|name| request::family(name))
            .collect::<Result<Vec<_>, _>>()?
    };
    let routers = if options.routers == "all" {
        StrategyRegistry::standard()
            .names()
            .map(str::to_string)
            .collect()
    } else {
        comma(&options.routers)
    };
    let devices = parse_devices(&options.devices)?;
    let spec = FuzzSpec {
        families,
        cases: options.cases,
        seed: options.seed,
        routers,
        decomposer: options.decomposer.clone(),
        devices,
        jobs: options.jobs,
        shrink: options.shrink,
        backend: options.backend.parse().map_err(CliError::Usage)?,
        max_sim_qubits: options.max_dense_qubits,
        max_terms: options.max_terms,
        ..FuzzSpec::new()
    };
    let report = run_fuzz(&spec)?;
    if !report.passed() {
        return Err(CliError::FuzzFailed {
            failures: report.failures.len(),
            report: report.to_string(),
        });
    }
    // A forced backend that skipped every compiled cell verified nothing;
    // exiting zero here would turn "couldn't check" into a silent PASS.
    if report.forced_backend_futile() {
        return Err(CliError::FuzzAllSkipped {
            backend: report.backend.to_string(),
            skipped: report.skips.len(),
            report: report.to_string(),
        });
    }
    Ok(format!("{report}\n"))
}

fn run_serve(options: &ServeOptions) -> Result<String, CliError> {
    use serde_json::Value;
    use trios_server::{Client, Server, ServerConfig};
    let config = ServerConfig {
        // --check must not collide with a real daemon on the default port.
        addr: if options.check {
            "127.0.0.1:0".into()
        } else {
            options.addr.clone()
        },
        workers: options.workers,
        queue_capacity: options.queue,
        shards: options.shards,
        cache_capacity: options.cache_size,
        timeout_ms: options.timeout_ms,
        max_line_bytes: options.max_line_kb * 1024,
        allow_shutdown: options.allow_shutdown || options.check,
    };
    let workers = config.effective_workers();
    let server = Server::start(config)
        .map_err(|e| CliError::Usage(format!("cannot bind '{}': {e}", options.addr)))?;
    let addr = server.local_addr();

    if options.check {
        // Smoke probe: a real client on a real socket round-trips the
        // whole stack — ping, one compile and its cache hit, one estimate
        // and its hit, stats, drained shutdown. The compile's miss emits
        // QASM from the program it compiled and its hit from the decoded
        // entry; both estimates read the entry's gate counts.
        let mut client = Client::connect(addr)?;
        client.ping()?;
        let failed = |what: &str, reply: &str| {
            CliError::Usage(format!("serve check: {what} failed: {reply}"))
        };
        let mut call = |method: &str, params: &str, round: &str| {
            let reply = client.call(method, params)?;
            let result = serde_json::from_str(&reply)
                .ok()
                .filter(|reply: &Value| reply.get("ok").and_then(Value::as_bool) == Some(true))
                .and_then(|reply| reply.get("result").cloned())
                .ok_or_else(|| failed(&format!("{round} {method} round-trip"), &reply))?;
            Ok::<_, CliError>((reply, result))
        };
        let compile = r#"{"benchmark": "cnx_inplace-4", "device": "line:6", "emit-qasm": true}"#;
        let (_, cold) = call("compile", compile, "first")?;
        let (reply, warm) = call("compile", compile, "repeated")?;
        let qasm = |result: &Value| {
            result
                .get("qasm")
                .and_then(Value::as_str)
                .map(str::to_owned)
        };
        if warm.get("cached").and_then(Value::as_bool) != Some(true)
            || warm.get("stats") != cold.get("stats")
            || qasm(&warm).is_none()
            || qasm(&warm) != qasm(&cold)
        {
            return Err(failed(
                "cache hit (cached, equal stats, identical QASM)",
                &reply,
            ));
        }
        let estimate = r#"{"benchmark": "cnx_inplace-4", "device": "line:6", "seed": 1}"#;
        let (_, cold) = call("estimate", estimate, "first")?;
        let (reply, warm) = call("estimate", estimate, "repeated")?;
        if warm.get("cached").and_then(Value::as_bool) != Some(true)
            || warm.get("success").is_none()
            || warm.get("success") != cold.get("success")
        {
            return Err(failed("estimate hit (cached, equal success)", &reply));
        }
        let (stats, result) = call("stats", "{}", "first")?;
        let count = |field| result.get("cache")?.get(field)?.as_u64();
        if (count("hits"), count("misses"), count("collisions")) != (Some(2), Some(2), Some(0))
            || count("bytes").unwrap_or(0) == 0
        {
            return Err(failed(
                "stats round-trip (2 hits, 2 misses, 0 collisions, bytes held)",
                &stats,
            ));
        }
        let _ = client.call("shutdown", "{}")?;
        server.join();
        return Ok(format!(
            "serve check: ok ({addr}, ping + compile + cached compile + estimate + cached estimate + stats round-tripped, drained)\n"
        ));
    }

    // Daemon mode: announce immediately (run()'s return value only prints
    // after the server stops), then block until a client asks us to stop
    // (--allow-shutdown) or the process is killed.
    println!(
        "trios serve: listening on {addr} ({workers} workers, queue {}, {} cache entries in {} shards{})",
        options.queue,
        options.cache_size,
        options.shards,
        if options.allow_shutdown {
            ", shutdown-by-request on"
        } else {
            ""
        }
    );
    server.join();
    Ok("trios serve: drained and stopped\n".to_string())
}

/// Resolves a CLI input: a `.qasm` path is read here (the one input only
/// the CLI takes); anything else is a benchmark name or `gen:` ref.
fn load_input(input: &str) -> Result<CircuitRef, CliError> {
    if input.ends_with(".qasm") {
        return Ok(CircuitRef::qasm(input, std::fs::read_to_string(input)?));
    }
    Ok(input.parse()?)
}

/// The input circuit and the device of a single-circuit command, each
/// resolved once.
fn resolve(options: &Options) -> Result<(Circuit, Topology), CliError> {
    let circuit = load_input(&options.input)?.circuit()?;
    Ok((circuit, parse_device(&options.compile.device)?))
}

/// The header line naming the router that ran and the knobs set around
/// it, shared by `compile`, `verify`, `estimate` and `compile-batch`.
fn router_line(compiler: &Compiler) -> String {
    let options = compiler.options();
    format!(
        "router:          {} (decomposer {}, seed {}{}{})",
        options.router_name(),
        options.decomposer_name(),
        options.seed,
        if options.lookahead.is_some() {
            ", lookahead"
        } else {
            ""
        },
        if options.bridge { ", bridge" } else { "" }
    )
}

fn compile_input(
    options: &Options,
    circuit: &Circuit,
    device: &Topology,
) -> Result<(CompiledProgram, String), CliError> {
    let compiler = options.compile.compiler();
    let (compiled, report) = compiler.compile_with_report(circuit, device)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "input:           {} ({})",
        options.input,
        circuit.counts()
    );
    let _ = writeln!(out, "device:          {device}");
    let _ = writeln!(out, "{}", router_line(&compiler));
    let _ = writeln!(out, "two-qubit gates: {}", compiled.stats.two_qubit_gates);
    let _ = writeln!(out, "one-qubit gates: {}", compiled.stats.one_qubit_gates);
    let _ = writeln!(out, "SWAPs inserted:  {}", compiled.stats.swap_count);
    let _ = writeln!(out, "depth:           {}", compiled.stats.depth);
    let _ = writeln!(out, "duration:        {:.3} µs", compiled.stats.duration_us);
    let _ = writeln!(out, "final layout:    {}", compiled.final_layout);
    if options.report {
        let _ = writeln!(out, "\n{report}");
    }
    Ok((compiled, out))
}

fn render_list() -> String {
    let mut out = String::new();
    out.push_str("paper benchmarks (Table 1):\n");
    for b in Benchmark::ALL {
        let (q, t, cx) = b.table1_row();
        let _ = writeln!(
            out,
            "  {:<28} {:>2} qubits {:>3} toffolis {:>4} cnots",
            b.name(),
            q,
            t,
            cx
        );
    }
    out.push_str("\nextended benchmarks:\n");
    for b in ExtendedBenchmark::ALL {
        let c = b.build();
        let counts = c.counts();
        let _ = writeln!(
            out,
            "  {:<28} {:>2} qubits {:>3} three-qubit gates",
            b.name(),
            c.num_qubits(),
            counts.three_qubit
        );
    }
    out.push_str("\ngenerator families (seeded; see 'trios gen'):\n");
    for family in Family::ALL {
        let _ = writeln!(out, "  gen:{}:<seed>", family.name());
    }
    out.push_str(
        "\ndevices: johannesburg, heavy-hex, grid, line, clusters,\n         \
         line:N, ring:N, full:N, grid:CxR, clusters:KxS,\n         \
         alltoall:N, heavy-hex:N (N a lattice count: 127, 433, 1121, ...)\n",
    );
    out
}

fn render_routers() -> String {
    let registry = StrategyRegistry::standard();
    let mut out = String::new();
    out.push_str("registered routing strategies (select with --router <name>):\n");
    for name in registry.names() {
        let strategy = registry.get(name).expect("listed name resolves");
        let _ = writeln!(out, "  {:<18} {}", name, strategy.description());
        if !strategy.handles_three_qubit_gates() {
            let _ = writeln!(out, "  {:<18} (Toffolis are decomposed before routing)", "");
        }
    }
    out.push_str(
        "\ncustom strategies: implement trios_route::RoutingStrategy and register it\n\
         in a StrategyRegistry (see README \"Choosing a router\")\n",
    );
    out
}

fn render_decomposers() -> String {
    let registry = DecomposerRegistry::standard();
    let mut out = String::new();
    out.push_str("registered Toffoli decompositions (select with --decomposer <name>):\n");
    for name in registry.names() {
        let strategy = registry.get(name).expect("listed name resolves");
        let _ = writeln!(out, "  {:<16} {}", name, strategy.description());
        if !strategy.executable() {
            let _ = writeln!(
                out,
                "  {:<16} (cost model only: sweeps reprice, nothing compiles)",
                ""
            );
        }
    }
    out.push_str(
        "\ncustom strategies: implement trios_passes::DecompositionStrategy and\n\
         register it in a DecomposerRegistry (see README \"Choosing a decomposition\")\n",
    );
    out
}

fn render_table1() -> String {
    let mut out = String::new();
    out.push_str("Table 1: benchmark inventory (CNOTs after 8-CNOT Toffoli decomposition)\n");
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>9} {:>7}",
        "benchmark", "qubits", "toffolis", "cnots"
    );
    let _ = writeln!(out, "{}", "-".repeat(54));
    for b in Benchmark::ALL {
        let (q, t, cx) = b.table1_row();
        let _ = writeln!(out, "{:<28} {:>7} {:>9} {:>7}", b.name(), q, t, cx);
    }
    out
}

/// The binary's entry logic: run and print, mapping errors to stderr and
/// a nonzero exit code.
pub fn main_impl() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trios: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_lists_commands() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("compile"));
        assert!(out.contains("estimate"));
        assert!(out.contains("--device"));
    }

    #[test]
    fn list_names_all_benchmarks() {
        let out = run(&args(&["list"])).unwrap();
        for b in Benchmark::ALL {
            assert!(out.contains(b.name()), "{}", b.name());
        }
        for b in ExtendedBenchmark::ALL {
            assert!(out.contains(b.name()), "{}", b.name());
        }
    }

    #[test]
    fn routers_lists_every_registered_strategy() {
        let out = run(&args(&["routers"])).unwrap();
        for name in StrategyRegistry::standard().names() {
            assert!(out.contains(name), "missing {name}:\n{out}");
        }
        assert!(out.contains("--router"));
        assert!(out.contains("RoutingStrategy"));
    }

    #[test]
    fn router_flag_selects_the_strategy() {
        let base = run(&args(&[
            "compile",
            "cnx_inplace-4",
            "-d",
            "line:6",
            "-s",
            "1",
        ]))
        .unwrap();
        assert!(base.contains("router:          trios "), "{base}");
        for router in ["baseline", "trios-lookahead", "trios-noise"] {
            let out = run(&args(&[
                "compile",
                "cnx_inplace-4",
                "-d",
                "line:6",
                "-s",
                "1",
                "--router",
                router,
            ]))
            .unwrap();
            assert!(
                out.contains(&format!("router:          {router} ")),
                "{out}"
            );
        }
    }

    #[test]
    fn header_names_the_router_that_ran() {
        let header = |out: &str| -> String {
            let mut lines = out.lines().filter(|l| l.starts_with("router:"));
            let line = lines.next().unwrap_or_default().to_string();
            assert_eq!(lines.next(), None, "one router line:\n{out}");
            line
        };
        let dir = batch_dir("batch-header", &[("toffoli.qasm", TOFF)]);
        for router in StrategyRegistry::standard().names() {
            let expected = format!("router:          {router} (decomposer standard, seed 1)");
            for (command, input, device) in [
                ("compile", "cnx_inplace-4", "line:6"),
                ("verify", "cnx_inplace-4", "line:6"),
                ("estimate", "cnx_inplace-4", "line:6"),
                ("compile-batch", dir.to_str().unwrap(), "line:4"),
            ] {
                let out = run(&args(&[
                    command, input, "-d", device, "-s", "1", "-r", router,
                ]))
                .unwrap_or_else(|e| panic!("{command} -r {router}: {e}"));
                assert_eq!(header(&out), expected, "{command}:\n{out}");
                assert!(!out.contains("pipeline"), "{command}:\n{out}");
            }
        }
        // Unset, the router is trios; lookahead and bridge are listed.
        let out = run(&args(&[
            "compile",
            "cnx_inplace-4",
            "-d",
            "line:6",
            "--lookahead",
            "--bridge",
        ]))
        .unwrap();
        assert_eq!(
            header(&out),
            "router:          trios (decomposer standard, seed 0, lookahead, bridge)"
        );
    }

    #[test]
    fn compile_errors_name_the_failing_pass() {
        let err = run(&args(&["compile", "bv-20", "-d", "line:6"])).unwrap_err();
        assert!(matches!(err, CliError::Compile(_)), "{err:?}");
        assert!(
            err.to_string()
                .starts_with("compile error: [initial-mapping] routing failed: circuit has 20"),
            "{err}"
        );
    }

    #[test]
    fn decomposers_lists_every_registered_strategy() {
        let out = run(&args(&["decomposers"])).unwrap();
        for name in DecomposerRegistry::standard().names() {
            assert!(out.contains(name), "missing {name}:\n{out}");
        }
        assert!(out.contains("--decomposer"));
        assert!(out.contains("DecompositionStrategy"));
        assert!(out.contains("cost model only"), "{out}");
    }

    #[test]
    fn decomposer_flag_selects_the_lowering_and_verifies() {
        let base = run(&args(&["compile", "cnx_inplace-4", "-d", "line:6"])).unwrap();
        assert!(base.contains("decomposer standard"), "{base}");
        for name in ["six", "eight", "tdepth", "relative-phase"] {
            let out = run(&args(&[
                "verify",
                "cnx_inplace-4",
                "--device",
                "line:6",
                "--decomposer",
                name,
            ]))
            .unwrap();
            assert!(out.contains(&format!("decomposer {name}")), "{out}");
            assert!(out.contains("VERIFIED"), "{name}:\n{out}");
        }
        // The cost-model-only strategy cannot compile: clean diagnostic.
        let err = run(&args(&[
            "compile",
            "cnx_inplace-4",
            "-d",
            "line:6",
            "--decomposer",
            "qutrit",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("cost-model-only"), "{err}");
    }

    #[test]
    fn sweep_expands_the_decomposer_grid() {
        let out = run(&args(&[
            "sweep",
            "-b",
            "cnx_inplace-4",
            "-d",
            "line:6",
            "-r",
            "baseline,trios",
            "--decomposers",
            "standard,qutrit",
            "-c",
            "future",
            "-j",
            "2",
        ]))
        .unwrap();
        assert!(
            out.contains("1 benchmarks x 1 devices x 2 routers x 2 decomposers x 1 calibrations"),
            "{out}"
        );
        assert!(out.contains("qutrit"), "{out}");
        assert!(out.contains("geomean(trios x qutrit / baseline)"), "{out}");
    }

    #[test]
    fn fuzz_relative_phase_smoke_passes() {
        let out = run(&args(&[
            "fuzz",
            "--families",
            "toffoli-ripple",
            "--cases",
            "2",
            "--seed",
            "5",
            "--routers",
            "trios",
            "--devices",
            "line:8",
            "--decomposer",
            "relative-phase",
        ]))
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("decomposer: relative-phase"), "{out}");
    }

    #[test]
    fn verify_passes_for_every_registered_router() {
        for router in StrategyRegistry::standard().names() {
            let out = run(&args(&[
                "verify",
                "cnx_inplace-4",
                "--device",
                "line:6",
                "--router",
                router,
            ]))
            .unwrap();
            assert!(out.contains("VERIFIED"), "{router}:\n{out}");
        }
    }

    #[test]
    fn table1_matches_paper_rows() {
        let out = run(&args(&["table1"])).unwrap();
        assert!(out.contains("cnx_dirty-11"));
        assert!(out.contains("128"));
    }

    #[test]
    fn compile_reports_stats() {
        let out = run(&args(&[
            "compile",
            "cnx_inplace-4",
            "--device",
            "line:6",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("two-qubit gates:"));
        assert!(out.contains("line-6"));
    }

    #[test]
    fn compile_emits_inline_qasm() {
        let out = run(&args(&[
            "compile",
            "cnx_inplace-4",
            "--device",
            "line:6",
            "--emit-qasm",
            "-",
        ]))
        .unwrap();
        assert!(out.contains("OPENQASM 2.0;"));
        assert!(out.contains("qreg q[6];"));
    }

    #[test]
    fn estimate_includes_probability() {
        let out = run(&args(&[
            "estimate",
            "cnx_inplace-4",
            "--device",
            "line:6",
            "--improve",
            "20",
        ]))
        .unwrap();
        assert!(out.contains("est. success:"));
        assert!(out.contains("20x"));
    }

    #[test]
    fn compile_accepts_qasm_files() {
        let dir = std::env::temp_dir().join("trios-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bell.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n",
        )
        .unwrap();
        let out = run(&args(&[
            "compile",
            path.to_str().unwrap(),
            "--device",
            "line:4",
        ]))
        .unwrap();
        assert!(out.contains("two-qubit gates: 1"));
    }

    fn batch_dir(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("trios-cli-test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        for (file, source) in files {
            std::fs::write(dir.join(file), source).unwrap();
        }
        dir
    }

    const BELL: &str = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";
    const TOFF: &str = "OPENQASM 2.0;\nqreg q[3];\nccx q[0], q[1], q[2];\n";

    #[test]
    fn compile_batch_compiles_a_directory() {
        let dir = batch_dir(
            "batch-ok",
            &[
                ("bell.qasm", BELL),
                ("toffoli.qasm", TOFF),
                ("toffoli_again.qasm", TOFF),
                ("nested/deep.qasm", BELL),
                ("ignored.txt", "not qasm"),
            ],
        );
        let out = run(&args(&[
            "compile-batch",
            dir.to_str().unwrap(),
            "--device",
            "line:5",
            "--jobs",
            "1",
            "--cache-size",
            "16",
        ]))
        .unwrap();
        assert!(out.contains("4 .qasm files"), "{out}");
        assert!(out.contains("bell.qasm"));
        assert!(
            out.contains("deep.qasm"),
            "recursion must find nested files"
        );
        assert!(!out.contains("ignored.txt"));
        // bell/deep and toffoli/toffoli_again are structurally identical
        // pairs: with one worker, each pair is one miss then one hit.
        assert!(out.contains("cache 2 hits / 2 misses"), "{out}");
    }

    #[test]
    fn compile_batch_report_flag_prints_aggregate_passes() {
        let dir = batch_dir("batch-report", &[("toffoli.qasm", TOFF)]);
        let out = run(&args(&[
            "compile-batch",
            dir.to_str().unwrap(),
            "--device",
            "line:4",
            "--report",
        ]))
        .unwrap();
        assert!(out.contains("route-trios"), "{out}");
        assert!(out.contains("throughput:"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        // The CacheStats snapshot line (shared with serve's stats method).
        assert!(out.contains("cache:           "), "{out}");
        assert!(out.contains("entries"), "{out}");
    }

    #[test]
    fn compile_batch_matches_single_compiles() {
        let dir = batch_dir(
            "batch-equiv",
            &[("a_bell.qasm", BELL), ("b_toffoli.qasm", TOFF)],
        );
        let batch_out = run(&args(&[
            "compile-batch",
            dir.to_str().unwrap(),
            "-d",
            "grid:3x2",
            "-s",
            "5",
            "-j",
            "3",
        ]))
        .unwrap();
        // Per-file stats in the batch table match a single `compile` run.
        for file in ["a_bell.qasm", "b_toffoli.qasm"] {
            let single = run(&args(&[
                "compile",
                dir.join(file).to_str().unwrap(),
                "-d",
                "grid:3x2",
                "-s",
                "5",
            ]))
            .unwrap();
            let single_2q: usize = single
                .lines()
                .find(|l| l.starts_with("two-qubit gates:"))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|n| n.parse().ok())
                .unwrap();
            let batch_line = batch_out.lines().find(|l| l.contains(file)).unwrap();
            let batch_2q: usize = batch_line
                .split_whitespace()
                .nth(1)
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(batch_2q, single_2q, "{file}: {batch_line}");
        }
    }

    #[test]
    fn compile_batch_rejects_non_directories_and_empty_dirs() {
        let err = run(&args(&["compile-batch", "/no/such/dir"])).unwrap_err();
        assert!(err.to_string().contains("not one"), "{err}");
        let dir = batch_dir("batch-empty", &[("readme.txt", "no circuits here")]);
        let err = run(&args(&["compile-batch", dir.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("none found"), "{err}");
    }

    #[test]
    fn compile_batch_names_unparseable_files() {
        let dir = batch_dir(
            "batch-badqasm",
            &[
                ("good.qasm", BELL),
                ("mangled.qasm", "OPENQASM 2.0;\nqreg q[2;\n"),
            ],
        );
        let err = run(&args(&[
            "compile-batch",
            dir.to_str().unwrap(),
            "-d",
            "line:4",
        ]))
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("mangled.qasm"), "{text}");
        assert!(text.contains("qasm"), "{text}");
    }

    #[test]
    fn compile_batch_worker_count_is_consistent() {
        // 1 file, --jobs 8: both printed worker counts must be the clamped
        // value, not the requested one.
        let dir = batch_dir("batch-clamp", &[("bell.qasm", BELL)]);
        let out = run(&args(&[
            "compile-batch",
            dir.to_str().unwrap(),
            "-d",
            "line:4",
            "-j",
            "8",
        ]))
        .unwrap();
        assert!(out.contains("workers:         1 jobs"), "{out}");
        assert!(out.contains("on 1 jobs"), "{out}");
    }

    #[test]
    fn compile_batch_names_the_failing_file() {
        // line:4 cannot fit a 9-qubit circuit: the second file fails.
        let wide = "OPENQASM 2.0;\nqreg q[9];\ncx q[0], q[8];\n";
        let dir = batch_dir("batch-fail", &[("a_ok.qasm", BELL), ("b_wide.qasm", wide)]);
        let err = run(&args(&[
            "compile-batch",
            dir.to_str().unwrap(),
            "--device",
            "line:4",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("b_wide.qasm"), "{err}");
    }

    #[test]
    fn sweep_reports_ratio_table_and_geomean() {
        let out = run(&args(&[
            "sweep",
            "--benchmarks",
            "cnx_inplace-4,incrementer_borrowedbit-5",
            "--devices",
            "line:6",
            "--routers",
            "baseline,trios",
            "--calibrations",
            "now,future",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(
            out.contains("2 benchmarks x 1 devices x 2 routers x 1 decomposers x 2 calibrations"),
            "{out}"
        );
        assert!(out.contains("cnx_inplace-4"), "{out}");
        assert!(
            out.contains("success-probability ratios vs baseline:"),
            "{out}"
        );
        assert!(
            out.contains("geomean(trios x standard / baseline)"),
            "{out}"
        );
    }

    #[test]
    fn sweep_writes_a_json_report_that_parses_back() {
        use trios_core::SweepReport;
        let dir = std::env::temp_dir().join("trios-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let out = run(&args(&[
            "sweep",
            "-b",
            "cnx_inplace-4",
            "-d",
            "line:6",
            "-r",
            "baseline,trios",
            "-c",
            "now",
            "--shots",
            "30",
            "--report",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote SweepReport JSON"), "{out}");
        assert!(out.contains("monte carlo:"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let report = SweepReport::from_json(&json).unwrap();
        assert_eq!(report.benchmarks, ["cnx_inplace-4"]);
        assert_eq!(report.routers, ["baseline", "trios"]);
        assert_eq!(report.shots, Some(30));
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            let mc = cell.monte_carlo.expect("line:6 cells are simulable");
            assert!(mc.bound_ok, "{cell:?}");
        }
        assert!(report.geomean_for("trios").is_some());
    }

    #[test]
    fn sweep_inline_report_and_bad_specs() {
        let out = run(&args(&[
            "sweep",
            "-b",
            "cnx_inplace-4",
            "-d",
            "line:6",
            "-c",
            "improve:5",
            "--report",
            "-",
        ]))
        .unwrap();
        assert!(out.contains("\"benchmarks\""), "{out}");
        assert!(out.contains("\"improve:5\""), "{out}");
        // Unknown benchmark, device, calibration, and crosstalk specs all
        // surface as clean usage errors.
        assert!(run(&args(&["sweep", "-b", "nope"])).is_err());
        assert!(run(&args(&["sweep", "-d", "torus:3x3"])).is_err());
        assert!(run(&args(&["sweep", "-c", "later"])).is_err());
        assert!(run(&args(&["sweep", "--crosstalk", "maybe"])).is_err());
        assert!(run(&args(&["sweep", "--crosstalk", "charge:2.0"])).is_err());
        assert!(run(&args(&["sweep", "-c", "improve:-3"])).is_err());
    }

    #[test]
    fn unknown_benchmark_is_a_clean_error() {
        let err = run(&args(&["compile", "not_a_benchmark", "-d", "line:4"])).unwrap_err();
        assert!(err.to_string().contains("not_a_benchmark"));
    }

    #[test]
    fn gen_without_family_lists_families() {
        let out = run(&args(&["gen"])).unwrap();
        for family in Family::ALL {
            assert!(out.contains(family.name()), "missing {family}:\n{out}");
        }
        assert!(out.contains("determinism"), "{out}");
    }

    #[test]
    fn gen_emits_deterministic_qasm() {
        let a = run(&args(&["gen", "layered", "--seed", "42"])).unwrap();
        let b = run(&args(&["gen", "layered", "--seed", "42"])).unwrap();
        assert_eq!(a, b, "same seed must emit byte-identical QASM");
        assert!(a.contains("OPENQASM 2.0;"), "{a}");
        let c = run(&args(&["gen", "layered", "--seed", "43"])).unwrap();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn gen_honors_parameter_overrides_and_writes_files() {
        let out = run(&args(&["gen", "qft", "--qubits", "4", "--seed", "1"])).unwrap();
        assert!(out.contains("qreg q[4];"), "{out}");
        let dir = std::env::temp_dir().join("trios-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.qasm");
        let out = run(&args(&[
            "gen",
            "toffoli-ripple",
            "--qubits",
            "5",
            "--depth",
            "2",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(trios_qasm::parse(&written).is_ok());
    }

    #[test]
    fn gen_rejects_bad_inputs() {
        assert!(run(&args(&["gen", "nope"])).is_err());
        assert!(run(&args(&["gen", "qft", "--qubits", "2"])).is_err());
        assert!(run(&args(&["gen", "qft", "extra"])).is_err());
        assert!(run(&args(&["gen", "layered", "--density", "7"])).is_err());
        assert!(run(&args(&["gen", "layered", "--wat"])).is_err());
        // Flags without a family are a forgotten argument, not a listing
        // request: erroring beats silently skipping --emit-qasm.
        let err = run(&args(&["gen", "--seed", "7"])).unwrap_err();
        assert!(err.to_string().contains("need a family"), "{err}");
    }

    #[test]
    fn gen_benchmark_selector_compiles_and_verifies() {
        let out = run(&args(&[
            "verify",
            "gen:toffoli-ripple:3",
            "--device",
            "line:8",
        ]))
        .unwrap();
        assert!(out.contains("VERIFIED"), "{out}");
        assert!(run(&args(&["compile", "gen:nope:3", "-d", "line:8"])).is_err());
        assert!(run(&args(&["compile", "gen:qft:x", "-d", "line:8"])).is_err());
    }

    #[test]
    fn fuzz_smoke_passes_and_is_deterministic_across_jobs() {
        let fuzz = |jobs: &str| {
            run(&args(&[
                "fuzz",
                "--families",
                "toffoli-ripple,clifford-t",
                "--cases",
                "4",
                "--seed",
                "5",
                "--routers",
                "baseline,trios",
                "--devices",
                "line:8",
                "--jobs",
                jobs,
            ]))
            .unwrap()
        };
        let one = fuzz("1");
        assert!(one.contains("PASS"), "{one}");
        assert!(one.contains("4 cases x 1 devices x 2 routers"), "{one}");
        assert_eq!(one, fuzz("4"), "report must not depend on --jobs");
    }

    #[test]
    fn sweep_accepts_generated_benchmarks() {
        let out = run(&args(&[
            "sweep",
            "-b",
            "gen:toffoli-ripple:1,gen:layered:2",
            "-d",
            "line:8",
            "-r",
            "baseline,trios",
            "-c",
            "future",
            "-j",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("toffoli-ripple"), "{out}");
        assert!(out.contains("layered"), "{out}");
        assert!(
            out.contains("geomean(trios x standard / baseline)"),
            "{out}"
        );
    }

    #[test]
    fn fuzz_forced_dense_on_a_wide_device_exits_nonzero() {
        // Before the skip-reason rework, forcing dense onto a 100-qubit
        // grid silently skipped every equivalence check and reported PASS.
        let err = run(&args(&[
            "fuzz",
            "--families",
            "toffoli-ripple",
            "--cases",
            "2",
            "--devices",
            "grid:10x10",
            "--routers",
            "trios",
            "--backend",
            "dense",
        ]))
        .unwrap_err();
        match err {
            CliError::FuzzAllSkipped {
                ref backend,
                skipped,
                ref report,
            } => {
                assert_eq!(backend, "dense");
                assert!(skipped > 0);
                assert!(report.contains("exceeds the dense cap"), "{report}");
            }
            other => panic!("expected FuzzAllSkipped, got {other}"),
        }
        // The same cells verify cleanly when the backend choice is left
        // to the policy (sparse picks them up at full width).
        let out = run(&args(&[
            "fuzz",
            "--families",
            "toffoli-ripple",
            "--cases",
            "2",
            "--devices",
            "grid:10x10",
            "--routers",
            "trios",
        ]))
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("sparse"), "{out}");
    }

    #[test]
    fn fuzz_rejects_bad_specs() {
        assert!(run(&args(&["fuzz", "--families", "nope"])).is_err());
        assert!(run(&args(&["fuzz", "--routers", "sabre"])).is_err());
        assert!(run(&args(&["fuzz", "--devices", "torus:3x3"])).is_err());
        assert!(run(&args(&["fuzz", "--cases", "x"])).is_err());
        assert!(run(&args(&["fuzz", "positional"])).is_err());
    }

    #[test]
    fn baseline_and_trios_differ_on_toffoli_input() {
        let base = run(&args(&[
            "compile",
            "cnx_inplace-4",
            "-d",
            "line:6",
            "-r",
            "baseline",
        ]))
        .unwrap();
        let trios = run(&args(&[
            "compile",
            "cnx_inplace-4",
            "-d",
            "line:6",
            "-r",
            "trios",
        ]))
        .unwrap();
        let gates = |s: &str| -> usize {
            s.lines()
                .find(|l| l.starts_with("two-qubit gates:"))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|n| n.parse().ok())
                .unwrap()
        };
        assert!(gates(&trios) < gates(&base));
    }

    #[test]
    fn verify_confirms_correct_compilation() {
        let out = run(&args(&[
            "verify",
            "cnx_inplace-4",
            "--device",
            "line:6",
            "--seed",
            "2",
        ]))
        .unwrap();
        assert!(
            out.contains("VERIFIED (dense backend, 2 sampled inputs: "),
            "{out}"
        );
    }

    #[test]
    fn verify_checks_at_full_device_width() {
        // Past the dense cap: a Clifford program goes to the stabilizer,
        // whose verdict is exact, a Toffoli network on a kiloqubit device
        // to the sparse backend, which samples inputs.
        for (input, device, label) in [
            ("bv-20", "full:25", "stabilizer backend, exact"),
            (
                "gen:toffoli-ripple:7",
                "heavy-hex:1121",
                "sparse backend, 2 sampled inputs",
            ),
        ] {
            let out = run(&args(&["verify", input, "--device", device])).unwrap();
            assert!(
                out.contains(&format!("VERIFIED ({label}: ")),
                "{input} on {device}:\n{out}"
            );
        }
        // A program with no qubits verifies rather than panicking.
        let dir = std::env::temp_dir().join("trios-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.qasm");
        std::fs::write(&path, "OPENQASM 2.0;\n").unwrap();
        let out = run(&args(&["verify", path.to_str().unwrap(), "-d", "line:4"])).unwrap();
        assert!(out.contains("VERIFIED"), "{out}");
    }

    #[test]
    fn verify_works_on_qasm_input() {
        let dir = std::env::temp_dir().join("trios-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ghz.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0], q[1];\nccx q[0], q[1], q[2];\n",
        )
        .unwrap();
        let out = run(&args(&[
            "verify",
            path.to_str().unwrap(),
            "--device",
            "grid:3x2",
        ]))
        .unwrap();
        assert!(out.contains("VERIFIED"));
    }

    #[test]
    fn report_flag_prints_per_pass_table() {
        let out = run(&args(&[
            "compile",
            "cnx_inplace-4",
            "--device",
            "line:6",
            "--report",
        ]))
        .unwrap();
        for pass in [
            "initial-mapping",
            "route-trios",
            "lower",
            "optimize",
            "validate",
            "schedule",
        ] {
            assert!(out.contains(pass), "missing pass {pass}:\n{out}");
        }
        assert!(out.contains("total:"));
    }

    #[test]
    fn serve_check_round_trips_a_real_socket() {
        // The check fails unless the repeated compile is a cache hit with
        // equal stats and byte-identical QASM, the repeated estimate a hit
        // with an equal `success`, and `stats` reads 2 hits, 2 misses, 0
        // collisions and a nonzero `bytes`.
        let out = run(&args(&["serve", "--check", "--workers", "2"])).unwrap();
        assert!(out.contains("serve check: ok"), "{out}");
        assert!(out.contains("cached compile"), "{out}");
        assert!(out.contains("cached estimate"), "{out}");
        assert!(out.contains("drained"), "{out}");
    }

    #[test]
    fn help_names_the_serve_command() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("serve"), "{out}");
        assert!(out.contains("--allow-shutdown"), "{out}");
        assert!(out.contains("--check"), "{out}");
    }

    #[test]
    fn lookahead_flag_compiles() {
        let out = run(&args(&[
            "compile",
            "grovers-9",
            "-d",
            "grid:3x3",
            "--lookahead",
        ]))
        .unwrap();
        assert!(out.contains("lookahead"));
    }
}
