//! The repository's benchmark: three workloads, each in its own process,
//! each printing every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`) as the last line of its output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads one after another, each in
//! a child process. See `perfbench/README.md` for what each workload and
//! metric measures and why.

mod cases;
mod check;
mod fuzz;
mod measure;
mod replay;
mod serve;
mod sweep;
mod trace;

use measure::Report;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: measure::Counting = measure::Counting;

const WORKLOADS: [&str; 3] = ["paper-sweep", "serve-kiloqubit", "fuzz-verify"];

/// One run's settings.
#[derive(Debug)]
pub struct Config {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(|| format!("bad --seconds {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace is 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (workloads: {}, all)",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Config {
            workload,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }

    /// Writes the traced run's spans under the build directory.
    pub fn write_trace(&self, tracer: &Tracer, report: &mut Report) {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from)
            .join("perfbench-traces");
        let file = format!("{}-seed{}.json", self.workload, self.seed);
        match tracer.write(&dir, &file) {
            Ok(path) => report.note(format!(
                "trace: {} ops replayed, spans written to {}",
                tracer.ops(),
                path.display()
            )),
            Err(e) => report.note(format!("trace: could not write spans: {e}")),
        }
    }
}

/// The bounds `BENCHMARK.json` fixes, read for the percentile gap check.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(json) = serde_json::from_str(&text) else {
        return Vec::new();
    };
    json.get("end_to_end")
        .and_then(|m| m.as_array())
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// FNV-1a over every source file of the workspace, so a run names the
/// code it measured even outside a git checkout.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn env_stamp(cfg: &Config) -> String {
    let commit = Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (threads, connections) = match cfg.workload.as_str() {
        "serve-kiloqubit" => (2, 2),
        _ => (1, 0),
    };
    format!(
        "env: workload={} seed={} seconds={} trace={} commit={commit} source={} nproc={nproc} cpu=\"{cpu}\" compute_threads={threads} connections={connections}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        source_fingerprint()
    )
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run_one(cfg: &Config) -> Result<bool, String> {
    println!("{}", env_stamp(cfg));
    let mut report = match cfg.workload.as_str() {
        "paper-sweep" => sweep::run(cfg)?,
        "serve-kiloqubit" => serve::run(cfg)?,
        "fuzz-verify" => fuzz::run(cfg)?,
        other => unreachable!("workload {other} was validated"),
    };
    if report.latencies.is_empty() {
        return Err("no op ran in the timed phase".into());
    }
    let bounds = bounds();
    let bound = |name: &str| bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
    let end_to_end = measure::end_to_end(&mut report, bound);
    report.note(format!(
        "failed_share: {}/{} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted as f64
    ));
    for line in &report.notes {
        println!("{line}");
    }
    let metrics = if cfg.trace {
        for (name, unit, value) in &end_to_end {
            println!("end-to-end {name} = {value} {unit} (traced run: use the untraced run's)");
        }
        &report.layers
    } else {
        &end_to_end
    };
    if let Some((name, _, value)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    let correct = report.failed == 0;
    println!(
        "{}",
        result_line(correct, report.attempted, report.failed, metrics)
    );
    Ok(correct)
}

/// Runs every workload in a child process of its own.
fn run_all(cfg: &Config) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &cfg.seed.to_string(),
                "--seconds",
                &cfg.seconds.to_string(),
                "--trace",
                if cfg.trace { "1" } else { "0" },
            ])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("trios-perfbench: {e}");
            eprintln!("usage: trios-perfbench --workload <paper-sweep|serve-kiloqubit|fuzz-verify|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = if cfg.workload == "all" {
        run_all(&cfg)
    } else {
        run_one(&cfg)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("trios-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
