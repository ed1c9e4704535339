//! `serve-kiloqubit`: an in-process `trios_server::Server` with two
//! workers and the default queue, shards and cache, driven by a closed
//! loop of two clients that each hold one connection.
//!
//! Every client owns a pool of `POOL` distinct requests: half
//! `gen:<family>:<seed>` refs and half inline OpenQASM of seeded
//! `toffoli-ripple` circuits of 24–102 qubits; ¾ `compile` and ¼
//! `estimate` (half the `gen` refs); devices `heavy-hex:127`, `433` and
//! `1121` in 30/40/30 shares; routers `trios` and `trios-lookahead`.
//! Requests go out in blocks of `BLOCK` distinct
//! requests, each block sent four times, so ¾ of requests hit the cache
//! while the live key set stays far inside it. After a whole pass over the
//! pool the routing seed moves on, so the next pass misses again.
//!
//! No two requests of a run, warm-up included, share a cache key: a key
//! both clients sent would hit for whichever got there first, and the
//! traced run could not replay the server's hits and misses.
//!
//! Every `SEGMENT_S` of the timed phase both clients pause and time the
//! reference kernel together on the idle server, one on each core, so the
//! speed of both cores is seen (see `measure::Reference`); the pauses are
//! left out of the timed time.

use crate::check::{self, Edges, Verdict};
use crate::measure::{peak_heap_mb, Clock, Interval, Reference, Report};
use crate::trace::Tracer;
use crate::{cases, replay, Config};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;
use trios_core::{
    parse_spec, Calibration, Circuit, CompilationCache, CompileOptions, CompileReport,
    CompiledProgram, Compiler, CrosstalkPolicy, ShardedCache, Topology,
};
use trios_gen::{Family, Params};
use trios_noise::estimate_success_with_crosstalk;
use trios_server::{Client, Server, ServerConfig};

const DEVICES: [&str; 3] = ["heavy-hex:127", "heavy-hex:433", "heavy-hex:1121"];
/// Device of distinct request `i` is `DEVICES[SLOTS[i % 10]]`: 3 × 127,
/// 4 × 433 and 3 × 1121 in every ten.
const SLOTS: [usize; 10] = [2, 1, 0, 1, 2, 1, 0, 1, 2, 0];
const ROUTERS: [&str; 2] = ["trios", "trios-lookahead"];
/// Families of the `gen` inputs. `qft` is left out: its circuit does not
/// depend on the seed, so its requests would share cache keys.
const FAMILIES: [Family; 5] = [
    Family::Qaoa,
    Family::CliffordT,
    Family::Clifford,
    Family::ToffoliRipple,
    Family::Layered,
];
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Distinct requests per client: every combination of device slot,
/// input kind, method and router equally often, and enough circuits for
/// the quality sums and the estimate geomean to repeat across seeds.
const POOL: usize = 320;
const BLOCK: usize = 8;
const REPEATS: usize = 4;
const WARMUP: usize = 10;
/// Request index of the first warm-up request, far past the pool's.
const WARMUP_BASE: usize = 0x8000;
const SETUPS: usize = 5;
/// Inputs tried for one request before the set-up gives up on finding
/// one whose cache key no other request has.
const SALTS: u64 = 64;
/// Seconds of the timed phase between two reference samples.
const SEGMENT_S: f64 = 0.25;

#[derive(Debug)]
enum Input {
    Gen(Family, u64),
    Qasm(String),
}

/// One distinct request; the routing seed is the pass over the pool.
#[derive(Debug)]
struct Request {
    estimate: bool,
    device: usize,
    router: &'static str,
    input: Input,
    /// The params object up to, not including, its `"seed"` field.
    prefix: String,
}

impl Request {
    fn method(&self) -> &'static str {
        if self.estimate {
            "estimate"
        } else {
            "compile"
        }
    }

    fn params(&self, pass: u64) -> String {
        format!("{}\"seed\":{pass}}}", self.prefix)
    }

    fn options(&self, pass: u64) -> CompileOptions {
        Compiler::builder()
            .seed(pass)
            .router(self.router)
            .build()
            .options()
            .clone()
    }

    /// The circuit the server resolves the request's input to.
    fn circuit(&self) -> Result<Circuit, String> {
        match &self.input {
            Input::Gen(family, seed) => Ok(family.generate_case(*seed).circuit),
            Input::Qasm(source) => trios_qasm::parse(source).map_err(|e| e.to_string()),
        }
    }
}

fn json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Distinct request `i` of client `client`'s stream under `seed`; `salt`
/// picks another input of the same size.
fn request(seed: u64, client: usize, i: usize, salt: u64) -> Request {
    let device = SLOTS[i % 10];
    let gen = (i / 10).is_multiple_of(2);
    // Estimates go to half the generated inputs: small circuits, whose
    // success probabilities stay far from zero on any device.
    let estimate = gen && (i / 20) % 2 == 1;
    let router = ROUTERS[(i / 80) % 2];
    // Inputs are unique per (client, request) within a run; the seed
    // picks their contents and their place in the pool picks their size.
    let input_seed = ((seed << 20) | ((client as u64) << 16) | i as u64).wrapping_add(salt << 44);
    let j = i / 20 * 10 + i % 10;
    let mut prefix = String::from("{");
    let input = if gen {
        let family = FAMILIES[j % FAMILIES.len()];
        let case = cases::stratified(family, j / FAMILIES.len(), input_seed, 1 << 20);
        let _ = write!(
            prefix,
            "\"benchmark\":\"gen:{}:{}\",",
            family.name(),
            case.seed
        );
        Input::Gen(family, case.seed)
    } else {
        // Inline ripples walk the widths 24..=102 with a stride coprime
        // to their count.
        let qubits = 24 + (j * 37) % 79;
        let sweeps = 1 + j % 3;
        let circuit = Family::ToffoliRipple.generate(&Params::new(qubits, sweeps), input_seed);
        let qasm = trios_qasm::emit(&circuit);
        prefix.push_str("\"qasm\":");
        json_string(&mut prefix, &qasm);
        prefix.push(',');
        Input::Qasm(qasm)
    };
    let _ = write!(
        prefix,
        "\"device\":\"{}\",\"router\":\"{router}\",",
        DEVICES[device]
    );
    if estimate {
        prefix.push_str("\"calibration\":\"future\",");
    }
    Request {
        estimate,
        device,
        router,
        input,
        prefix,
    }
}

/// One reply as the client saw it.
#[derive(Debug, Clone)]
struct Reply {
    index: usize,
    pass: u64,
    /// When a timed request was sent and how long its reply took; `None`
    /// for an untimed one.
    timing: Option<Interval>,
    error: Option<String>,
    cached: bool,
    /// two-qubit gates, one-qubit gates, SWAPs, depth.
    counts: [u64; 4],
    duration_us: f64,
    probability: Option<f64>,
}

fn parse_reply(line: &str, index: usize, pass: u64, timing: Option<Interval>) -> Reply {
    let mut reply = Reply {
        index,
        pass,
        timing,
        error: None,
        cached: false,
        counts: [0; 4],
        duration_us: 0.0,
        probability: None,
    };
    let value = match serde_json::from_str(line) {
        Ok(value) => value,
        Err(e) => {
            reply.error = Some(format!("unparsable reply: {e}"));
            return reply;
        }
    };
    let result = match (
        value.get("ok").and_then(|v| v.as_bool()),
        value.get("result"),
    ) {
        (Some(true), Some(result)) => result,
        _ => {
            reply.error = Some(line.to_string());
            return reply;
        }
    };
    reply.cached = result.get("cached").and_then(|v| v.as_bool()) == Some(true);
    let stats = result.get("stats");
    let field = |name: &str| stats.and_then(|s| s.get(name));
    for (slot, name) in ["two_qubit_gates", "one_qubit_gates", "swap_count", "depth"]
        .iter()
        .enumerate()
    {
        reply.counts[slot] = field(name).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
    }
    reply.duration_us = field("duration_us")
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN);
    reply.probability = result
        .get("success")
        .and_then(|s| s.get("probability"))
        .and_then(|v| v.as_f64());
    reply
}

/// What one client thread brings back.
struct ClientRun {
    replies: Vec<Reply>,
    /// The timed stretches between pauses (recorded by client 0).
    segments: Vec<Interval>,
    /// The reference kernel's time at every pause.
    reference: Reference,
    tracer: Tracer,
    replay_errors: Vec<String>,
}

struct Setup {
    server: Server,
    clients: Vec<Client>,
    pools: Vec<Vec<Request>>,
}

/// Every client's pool, then its warm-up requests, each request salted
/// until its cache key is one no earlier request has.
fn requests(seed: u64, devices: &[Topology]) -> Result<Vec<Vec<Request>>, String> {
    let mut keys = HashSet::new();
    let mut distinct = |c: usize, i: usize| -> Result<Request, String> {
        for salt in 0..SALTS {
            let req = request(seed, c, i, salt);
            let key = CompilationCache::key(&req.circuit()?, &devices[req.device], &req.options(0));
            if keys.insert(key) {
                return Ok(req);
            }
        }
        Err(format!(
            "client {c} request {i}: every input tried shares a cache key"
        ))
    };
    (0..CLIENTS)
        .map(|c| {
            (0..POOL)
                .chain(WARMUP_BASE..WARMUP_BASE + WARMUP)
                .map(|i| distinct(c, i))
                .collect()
        })
        .collect()
}

fn set_up(seed: u64) -> Result<Setup, String> {
    let devices = DEVICES
        .iter()
        .map(|&spec| parse_spec(spec).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut pools = requests(seed, &devices)?;
    let warm_ups: Vec<Vec<Request>> = pools.iter_mut().map(|p| p.split_off(POOL)).collect();
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up: one request per device slot on every connection, with
    // inputs disjoint from the pool's.
    for (client, warm_up) in clients.iter_mut().zip(&warm_ups) {
        for warm in warm_up {
            let line = client
                .call(warm.method(), &warm.params(0))
                .map_err(|e| format!("warm-up: {e}"))?;
            if let Some(error) = parse_reply(&line, 0, 0, None).error {
                return Err(format!("warm-up request failed: {error}"));
            }
        }
    }
    Ok(Setup {
        server,
        clients,
        pools,
    })
}

fn tear_down(setup: Setup) {
    drop(setup.clients);
    setup.server.shutdown();
    setup.server.join();
}

/// Position `k` of a client's stream: (distinct request, pass).
fn position(k: usize) -> (usize, u64) {
    let per_pass = POOL * REPEATS;
    let pass = (k / per_pass) as u64;
    let within = k % per_pass;
    let block = within / (BLOCK * REPEATS);
    (block * BLOCK + within % BLOCK, pass)
}

/// How the clients of one run share its timed phase.
struct Phase<'a> {
    /// The workload's clock, which the set-ups are timed on too.
    clock: Clock,
    started: Instant,
    seconds: f64,
    trace: bool,
    /// Both clients meet here before the phase and at every pause.
    barrier: &'a Barrier,
}

fn client_loop(
    client: &mut Client,
    pool: &[Request],
    tid: u32,
    phase: &Phase,
    cache: &ShardedCache,
) -> ClientRun {
    let mut run = ClientRun {
        replies: Vec::new(),
        segments: Vec::new(),
        reference: Reference::default(),
        tracer: Tracer::new(Clock::Wall(phase.started), tid),
        replay_errors: Vec::new(),
    };
    let clock = phase.clock;
    let segments = (phase.seconds / SEGMENT_S).ceil().max(1.0) as usize;
    let mut k = 0;
    let mut broken = false;
    phase.barrier.wait();
    for segment in 1..=segments {
        let resumed = clock.now();
        let end = (segment as f64 * SEGMENT_S).min(phase.seconds);
        while !broken && phase.started.elapsed().as_secs_f64() < end {
            let (index, pass) = position(k);
            let req = &pool[index];
            let params = req.params(pass);
            let sent = clock.now();
            let outcome = client.call(req.method(), &params);
            let latency = clock.now() - sent;
            let timing = Some((sent, latency));
            let reply = match outcome {
                Ok(line) => parse_reply(&line, index, pass, timing),
                Err(e) => {
                    let mut reply = parse_reply("", index, pass, timing);
                    reply.error = Some(format!("connection: {e}"));
                    broken = true;
                    reply
                }
            };
            if phase.trace && reply.error.is_none() {
                run.tracer
                    .begin_op(k as u64 + ((tid as u64) << 32), latency);
                if let Err(e) = replay_request(&mut run.tracer, req, &reply, cache) {
                    run.replay_errors.push(e);
                }
            }
            run.replies.push(reply);
            k += 1;
        }
        // Pause: once both clients are here no request is in flight, and
        // both time the reference kernel.
        phase.barrier.wait();
        if tid == 0 {
            run.segments.push((resumed, clock.now() - resumed));
        }
        run.reference.sample(clock);
        phase.barrier.wait();
    }
    if broken {
        return run;
    }
    // The quality metrics cover one whole pass over the pool: send, once
    // and untimed, every distinct request the timed phase did not reach.
    let reached = k.min(POOL * REPEATS);
    let answered: Vec<bool> = (0..POOL)
        .map(|i| (0..reached).any(|p| position(p).0 == i))
        .collect();
    for (index, req) in pool.iter().enumerate() {
        if answered[index] {
            continue;
        }
        let line = client
            .call(req.method(), &req.params(0))
            .unwrap_or_default();
        run.replies.push(parse_reply(&line, index, 0, None));
    }
    run
}

/// Replays one request through the layers the server calls: device
/// construction, circuit resolution, cache key and lookup, the passes on
/// a miss, and the estimate. Fails unless the replay reproduces the reply.
fn replay_request(
    tracer: &mut Tracer,
    req: &Request,
    reply: &Reply,
    cache: &ShardedCache,
) -> Result<(), String> {
    let topology = tracer
        .time("topology.parse_spec_ms", || parse_spec(DEVICES[req.device]))
        .map_err(|e| e.to_string())?;
    let circuit = match &req.input {
        Input::Gen(family, seed) => {
            tracer.time("gen.generate_ms", || family.generate_case(*seed).circuit)
        }
        Input::Qasm(source) => tracer
            .time("qasm.parse_ms", || trios_qasm::parse(source))
            .map_err(|e| e.to_string())?,
    };
    let options = req.options(reply.pass);
    let key = tracer.time("cache.key_ms", || {
        CompilationCache::key(&circuit, &topology, &options)
    });
    let hit = tracer.time("cache.lookup_ms", || cache.get(key));
    tracer.count("cache.lookups", 1.0);
    let (program, cached) = match hit {
        Some((program, _)) => {
            tracer.count("cache.hits", 1.0);
            (program, true)
        }
        None => {
            let mut pipeline = replay::passes(&options);
            let program = replay::compile(tracer, &mut pipeline, &circuit, &topology, &options)?;
            let entry = (
                program.clone(),
                CompileReport::new(Vec::new(), program.stats),
            );
            tracer.time("cache.lookup_ms", || cache.insert(key, entry));
            (program, false)
        }
    };
    let probability = req.estimate.then(|| {
        tracer
            .time("noise.estimate_ms", || {
                estimate_success_with_crosstalk(
                    &program.circuit,
                    &Calibration::near_future(),
                    &topology,
                    CrosstalkPolicy::Ignore,
                )
            })
            .probability()
    });
    if cached != reply.cached || !same_as_reply(&program, probability, reply) {
        return Err(format!(
            "request {} pass {}: replay differs from the reply",
            reply.index, reply.pass
        ));
    }
    Ok(())
}

fn same_as_reply(program: &CompiledProgram, probability: Option<f64>, reply: &Reply) -> bool {
    let s = &program.stats;
    let counts = [
        s.two_qubit_gates as u64,
        s.one_qubit_gates as u64,
        s.swap_count as u64,
        s.depth as u64,
    ];
    counts == reply.counts
        && s.duration_us.to_bits() == reply.duration_us.to_bits()
        && probability.map(f64::to_bits) == reply.probability.map(f64::to_bits)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let clock = Clock::Wall(Instant::now());
    let mut report = Report::default();
    let mut setup = None;
    report.reference.sample(clock);
    for _ in 0..SETUPS {
        let started = clock.now();
        let fresh = set_up(cfg.seed)?;
        report.setups.push((started, clock.now() - started));
        report.reference.sample(clock);
        if let Some(previous) = setup.replace(fresh) {
            tear_down(previous);
        }
    }
    let Setup {
        server,
        mut clients,
        pools,
    } = setup.expect("at least one set-up");

    let cache = ShardedCache::with_total_capacity(
        ServerConfig::default().shards,
        ServerConfig::default().cache_capacity,
    );
    let barrier = Barrier::new(CLIENTS);
    let phase = Phase {
        clock,
        started: Instant::now(),
        seconds: cfg.seconds,
        trace: cfg.trace,
        barrier: &barrier,
    };
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&pools)
            .enumerate()
            .map(|(c, (client, pool))| {
                let (cache, phase) = (&cache, &phase);
                scope.spawn(move || client_loop(client, pool, c as u32, phase, cache))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    report.peak_heap_mb = peak_heap_mb();
    let snapshot = server.snapshot();
    drop(clients);
    server.shutdown();
    server.join();

    report
        .reference
        .merge(Reference::mean(runs.iter().map(|r| &r.reference)));
    let mut tracer = Tracer::new(Clock::Wall(phase.started), 0);
    let mut replay_errors = Vec::new();
    let mut replies: Vec<(usize, Reply)> = Vec::new();
    for (c, run) in runs.into_iter().enumerate() {
        report.timed.extend(run.segments);
        tracer.merge(run.tracer);
        replay_errors.extend(run.replay_errors);
        replies.extend(run.replies.into_iter().map(|r| (c, r)));
    }
    let wrong = check_replies(&pools, &replies, &mut report);
    // Requests sent to complete the first pass count as attempted ops,
    // but only timed ones count towards latency and throughput.
    for (c, reply) in &replies {
        report.attempted += 1;
        let bad = reply.error.is_some() || wrong.contains_key(&(*c, reply.index, reply.pass));
        report.failed += u64::from(bad);
        if let Some(timing) = reply.timing {
            report.latencies.push(timing);
            report.cells += u64::from(reply.error.is_none());
        }
    }
    for (c, reply) in replies.iter().filter(|(_, r)| r.error.is_some()).take(5) {
        report.note(format!(
            "ERROR client {c} request {}: {}",
            reply.index,
            reply.error.as_deref().unwrap_or_default()
        ));
    }
    for ((c, index, pass), reason) in wrong.iter().take(10) {
        report.note(format!(
            "WRONG client {c} request {index} pass {pass}: {reason}"
        ));
    }
    report.note(format!(
        "server: {} received, {} served, {} rejected, {} failed, queue high water {}, cache {} hits / {} misses",
        snapshot.received,
        snapshot.served,
        snapshot.rejected,
        snapshot.failed,
        snapshot.queue_high_water,
        snapshot.cache.hits,
        snapshot.cache.misses
    ));

    if cfg.trace {
        if !replay_errors.is_empty() {
            return Err(format!(
                "{} replays differ, first: {}",
                replay_errors.len(),
                replay_errors[0]
            ));
        }
        let hit_share = tracer.counter("cache.hits") / tracer.counter("cache.lookups").max(1.0);
        let absolute = BTreeMap::from([
            ("server.queue_high_water", snapshot.queue_high_water as f64),
            ("server.rejected", snapshot.rejected as f64),
            ("cache.hit_share", hit_share),
        ]);
        report.layers = tracer.metrics("server.self_ms", &absolute);
        cfg.write_trace(&tracer, &mut report);
    }
    Ok(report)
}

/// What identifies one compiled output: circuit hash and both layouts.
type Fingerprint = (u64, Vec<usize>, Vec<usize>);

/// Compiles every distinct request the server answered directly, checks
/// each reply against it, and runs the independent check on it. Returns
/// the wrong requests, keyed by (client, request, pass).
fn check_replies(
    pools: &[Vec<Request>],
    replies: &[(usize, Reply)],
    report: &mut Report,
) -> HashMap<(usize, usize, u64), String> {
    let devices: Vec<_> = DEVICES
        .iter()
        .map(|&spec| parse_spec(spec).expect("the workload's device specs parse"))
        .collect();
    let edges: Vec<Edges> = devices.iter().map(Edges::of).collect();
    let future = Calibration::near_future();
    let mut by_key: BTreeMap<(usize, usize, u64), Vec<&Reply>> = BTreeMap::new();
    for (c, reply) in replies.iter().filter(|(_, r)| r.error.is_none()) {
        by_key
            .entry((*c, reply.index, reply.pass))
            .or_default()
            .push(reply);
    }
    let mut wrong = HashMap::new();
    let mut unverified = 0;
    let mut first_pass: HashMap<(usize, usize), (Fingerprint, Verdict)> = HashMap::new();
    for (&(c, index, pass), answers) in &by_key {
        let req = &pools[c][index];
        let topology = &devices[req.device];
        let circuit = req.circuit().expect("the set-up resolved every input");
        let program = match Compiler::new(req.options(pass)).compile(&circuit, topology) {
            Ok(program) => program,
            Err(e) => {
                let reason = format!("the server answered, a direct compile failed: {e}");
                wrong.insert((c, index, pass), reason);
                continue;
            }
        };
        let probability = req
            .estimate
            .then(|| program.estimate_success(&future).probability());
        let fingerprint = (
            program.circuit.structural_hash(),
            program.initial_layout.to_mapping(),
            program.final_layout.to_mapping(),
        );
        let verdict = if !answers
            .iter()
            .all(|r| same_as_reply(&program, probability, r))
        {
            Verdict::Wrong("reply differs from a direct compile".into())
        } else if let Some((_, verdict)) = first_pass
            .get(&(c, index))
            .filter(|(seen, _)| *seen == fingerprint)
        {
            // A later pass changed only the routing seed and got the
            // very same output: it shares the first pass's verdict.
            verdict.clone()
        } else {
            check::verify(&circuit, &program, &edges[req.device], pass)
        };
        if pass == 0 {
            first_pass.insert((c, index), (fingerprint, verdict.clone()));
            report.outputs += 1;
            report.two_qubit_gates += program.stats.two_qubit_gates as u64;
            report.swap_count += program.stats.swap_count as u64;
            report.duration_us += program.stats.duration_us;
            report.success.extend(probability);
        }
        match verdict {
            Verdict::Verified => report.verified += u64::from(pass == 0),
            Verdict::Unverified => unverified += 1,
            Verdict::Wrong(reason) => {
                wrong.insert((c, index, pass), reason);
            }
        }
    }
    report.note(format!(
        "check: {} distinct requests answered ({} in the first pass, {} of those verified), {} unverified past the check's budget, {} wrong",
        by_key.len(),
        report.outputs,
        report.verified,
        unverified,
        wrong.len()
    ));
    wrong
}
