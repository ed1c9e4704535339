//! The daemon: acceptor + per-connection readers + a fixed worker pool
//! behind a bounded admission queue.
//!
//! Request flow:
//!
//! 1. The acceptor thread accepts connections and spawns one reader
//!    thread per connection.
//! 2. Readers parse request lines (bounded — an oversized line becomes a
//!    structured error, not unbounded memory). Control methods (`ping`,
//!    `stats`, `shutdown`) are answered inline so liveness probes work
//!    even when the queue is full; work methods go through the admission
//!    queue. A full queue replies with a structured `busy` error —
//!    backpressure instead of unbounded buffering.
//! 3. A fixed worker pool drains the queue. Workers share one
//!    [`ShardedCache`], so repeated requests across *all* connections pay
//!    for each distinct compilation once, and one bounded device table,
//!    so they build each device once. A configurable timeout turns
//!    runaway compiles into clean `timeout` errors.
//!
//! Shutdown (via [`Server::shutdown`] or the `shutdown` method) is a
//! drain, not an abort: admission closes immediately, workers finish
//! everything already queued, and every accepted request gets its
//! response before [`Server::join`] returns.

use crate::devices::DeviceTable;
use crate::histogram::{LatencyHistogram, LatencySnapshot};
use crate::protocol::{
    self, json_array, CompileParams, ErrorKind, JsonObj, Method, ProtocolError, Request,
};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trios_core::{
    run_sweep, CacheStats, CompilationCache, CompiledProgram, ShardedCache, SweepSpec, Topology,
};

/// Tuning knobs of one [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// Admission queue capacity; a full queue answers `busy`.
    pub queue_capacity: usize,
    /// Shard count of the shared compilation cache.
    pub shards: usize,
    /// Total cache capacity in entries, spread over the shards
    /// (`0` disables caching).
    pub cache_capacity: usize,
    /// Per-request budget in milliseconds, queue wait included
    /// (`0` = no timeout).
    pub timeout_ms: u64,
    /// Maximum request line length in bytes; longer lines answer
    /// `oversized`.
    pub max_line_bytes: usize,
    /// Whether the `shutdown` method is honored (probes and tests want
    /// it; an exposed daemon may not).
    pub allow_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 64,
            shards: 8,
            cache_capacity: 256,
            timeout_ms: 0,
            max_line_bytes: 1 << 20,
            allow_shutdown: false,
        }
    }
}

impl ServerConfig {
    /// The worker count actually spawned: `workers` if set, else one per
    /// available core.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One consistent-enough view of the server's counters for `stats`
/// responses, tests, and the bench harness. Each constituent (queue,
/// cache shard, histogram) is snapshotted under its own lock.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSnapshot {
    /// Request lines parsed (including ones that errored).
    pub received: u64,
    /// Successful responses sent.
    pub served: u64,
    /// Requests refused with `busy` by the full admission queue.
    pub rejected: u64,
    /// Requests that completed with an error response.
    pub failed: u64,
    /// Jobs waiting right now.
    pub queue_depth: usize,
    /// Deepest the queue has ever been.
    pub queue_high_water: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Aggregate cache counters.
    pub cache: CacheStats,
    /// Per-shard cache counters, in shard order.
    pub shards: Vec<CacheStats>,
    /// Latency quantiles over executed (queued) requests.
    pub latency: LatencySnapshot,
}

/// One queued unit of work: the request plus where to write its response.
#[derive(Debug)]
struct Job {
    id: u64,
    method: Method,
    writer: Arc<Mutex<TcpStream>>,
    enqueued: Instant,
}

#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    cache: ShardedCache,
    devices: DeviceTable,
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
    /// Read-half clones of live connections, so shutdown can EOF every
    /// reader while leaving write halves open for draining responses.
    conns: Mutex<Vec<TcpStream>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    addr: SocketAddr,
    received: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    queue_high_water: AtomicUsize,
    latency: LatencyHistogram,
}

/// A running compilation daemon. Start with [`Server::start`], stop with
/// [`Server::shutdown`] + [`Server::join`] (or a `shutdown` request when
/// [`ServerConfig::allow_shutdown`] is set).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns
    /// immediately; the server runs until shut down.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.effective_workers();
        let shared = Arc::new(Shared {
            cache: ShardedCache::with_total_capacity(config.shards, config.cache_capacity),
            devices: DeviceTable::default(),
            config,
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            addr,
            received: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            queue_high_water: AtomicUsize::new(0),
            latency: LatencyHistogram::new(),
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || run_worker(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_acceptor(&listener, &shared))
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared compilation cache (for inspection in tests/benches).
    pub fn cache(&self) -> &ShardedCache {
        &self.shared.cache
    }

    /// Current counters.
    pub fn snapshot(&self) -> ServerSnapshot {
        self.shared.snapshot()
    }

    /// Signals shutdown: admission closes, readers are EOF'd, the
    /// acceptor wakes and exits. Idempotent; does not wait — call
    /// [`Server::join`] to wait for the drain.
    pub fn shutdown(&self) {
        self.shared.signal_shutdown();
    }

    /// Waits until the server has fully drained: acceptor, then every
    /// reader, then the workers (which only exit once the queue is
    /// empty). Blocks until something signals shutdown. Afterwards all
    /// connections are dropped, so clients see EOF.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock().expect("readers poisoned"));
        for reader in readers {
            let _ = reader.join();
        }
        // Readers are done, so no new jobs can arrive: wake the workers
        // one last time and let them drain what is queued.
        self.shared.job_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.conns.lock().expect("conns poisoned").clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server (test panic, early return) must not leave
        // threads blocked forever; signal and let detached threads wind
        // down. join() is the graceful path.
        self.shared.signal_shutdown();
    }
}

impl Shared {
    fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            received: self.received.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            queue_depth: self.queue.lock().expect("queue poisoned").len(),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            queue_capacity: self.config.queue_capacity,
            workers: self.config.effective_workers(),
            cache: self.cache.stats(),
            shards: self.cache.shard_stats(),
            latency: self.latency.snapshot(),
        }
    }

    fn signal_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // EOF every reader; write halves stay open so queued responses
        // still drain.
        for conn in self.conns.lock().expect("conns poisoned").iter() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        self.job_ready.notify_all();
    }

    /// Writes one response line, serialized per connection. One single
    /// write per response (payload + newline together): split writes
    /// interact with Nagle's algorithm and delayed ACKs to add ~40ms per
    /// round trip. Send errors mean the client went away; the server
    /// keeps serving others.
    fn send(&self, writer: &Mutex<TcpStream>, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let mut stream = writer.lock().expect("writer poisoned");
        let _ = stream.write_all(&buf);
        let _ = stream.flush();
    }

    fn send_ok(&self, writer: &Mutex<TcpStream>, id: u64, result: &str) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.send(writer, &protocol::ok_response(id, result));
    }

    fn send_error(&self, writer: &Mutex<TcpStream>, id: u64, error: &ProtocolError) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.send(writer, &protocol::error_response(id, error));
    }

    fn stats_result(&self) -> String {
        let snapshot = self.snapshot();
        let requests = JsonObj::new()
            .u64("received", snapshot.received)
            .u64("served", snapshot.served)
            .u64("rejected", snapshot.rejected)
            .u64("failed", snapshot.failed)
            .finish();
        let queue = JsonObj::new()
            .u64("depth", snapshot.queue_depth as u64)
            .u64("capacity", snapshot.queue_capacity as u64)
            .u64("high_water", snapshot.queue_high_water as u64)
            .finish();
        let cache_json =
            |stats: &CacheStats| serde_json::to_string(stats).expect("cache stats are finite");
        let latency = JsonObj::new()
            .u64("count", snapshot.latency.count)
            .u64("p50_us", snapshot.latency.p50_us)
            .u64("p90_us", snapshot.latency.p90_us)
            .u64("p99_us", snapshot.latency.p99_us)
            .u64("max_us", snapshot.latency.max_us)
            .finish();
        JsonObj::new()
            .raw("requests", &requests)
            .raw("queue", &queue)
            .u64("workers", snapshot.workers as u64)
            .raw("cache", &cache_json(&snapshot.cache))
            .raw(
                "shards",
                &json_array(snapshot.shards.iter().map(cache_json)),
            )
            .raw("latency", &latency)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Acceptor and readers
// ---------------------------------------------------------------------

fn run_acceptor(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns poisoned").push(clone);
        }
        let reader_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || run_reader(stream, &reader_shared));
        shared
            .readers
            .lock()
            .expect("readers poisoned")
            .push(handle);
    }
}

/// How one bounded line read ended.
enum LineRead {
    /// A complete line is in the buffer (without the newline).
    Line,
    /// The line exceeded the limit; it was skipped to its newline.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes. Longer lines
/// are consumed (so the connection stays in sync) but reported as
/// [`LineRead::Oversized`] without ever buffering more than `max` bytes.
fn read_line_bounded(
    reader: &mut impl BufRead,
    max: usize,
    buf: &mut Vec<u8>,
) -> io::Result<LineRead> {
    buf.clear();
    let mut oversized = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(match (oversized, buf.is_empty()) {
                (true, _) => LineRead::Oversized,
                (false, true) => LineRead::Eof,
                (false, false) => LineRead::Line, // final line without \n
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if !oversized && buf.len() + newline > max {
                    oversized = true;
                    buf.clear();
                }
                if !oversized {
                    buf.extend_from_slice(&available[..newline]);
                }
                reader.consume(newline + 1);
                return Ok(if oversized {
                    LineRead::Oversized
                } else {
                    LineRead::Line
                });
            }
            None => {
                let chunk = available.len();
                if !oversized && buf.len() + chunk > max {
                    oversized = true;
                    buf.clear();
                }
                if !oversized {
                    buf.extend_from_slice(available);
                }
                reader.consume(chunk);
            }
        }
    }
}

fn run_reader(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        match read_line_bounded(&mut reader, shared.config.max_line_bytes, &mut line) {
            Err(_) | Ok(LineRead::Eof) => return,
            Ok(LineRead::Oversized) => {
                shared.received.fetch_add(1, Ordering::Relaxed);
                shared.send_error(
                    &writer,
                    0,
                    &ProtocolError {
                        kind: ErrorKind::Oversized,
                        message: format!(
                            "request line exceeds {} bytes",
                            shared.config.max_line_bytes
                        ),
                    },
                );
                continue;
            }
            Ok(LineRead::Line) => {}
        }
        let text = String::from_utf8_lossy(&line);
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        shared.received.fetch_add(1, Ordering::Relaxed);
        match protocol::parse_request(text) {
            Err((id, error)) => shared.send_error(&writer, id, &error),
            Ok(request) if request.method.is_inline() => {
                handle_inline(shared, &writer, &request);
            }
            Ok(request) => enqueue(shared, &writer, request),
        }
    }
}

fn handle_inline(shared: &Arc<Shared>, writer: &Arc<Mutex<TcpStream>>, request: &Request) {
    match request.method {
        Method::Ping => {
            shared.send_ok(
                writer,
                request.id,
                &JsonObj::new().bool("pong", true).finish(),
            );
        }
        Method::Stats => {
            let result = shared.stats_result();
            shared.send_ok(writer, request.id, &result);
        }
        Method::Shutdown => {
            if !shared.config.allow_shutdown {
                shared.send_error(
                    writer,
                    request.id,
                    &ProtocolError {
                        kind: ErrorKind::ShutdownDisabled,
                        message: "this server was started without shutdown-by-request".into(),
                    },
                );
                return;
            }
            // Acknowledge before signaling: shutdown(Read) must not race
            // the response onto a half-closed socket.
            shared.send_ok(
                writer,
                request.id,
                &JsonObj::new().bool("shutting-down", true).finish(),
            );
            shared.signal_shutdown();
        }
        _ => unreachable!("only inline methods reach handle_inline"),
    }
}

fn enqueue(shared: &Arc<Shared>, writer: &Arc<Mutex<TcpStream>>, request: Request) {
    let depth = {
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if shared.shutdown.load(Ordering::SeqCst) {
            drop(queue);
            shared.send_error(
                writer,
                request.id,
                &ProtocolError {
                    kind: ErrorKind::ShuttingDown,
                    message: "server is draining and takes no new work".into(),
                },
            );
            return;
        }
        if queue.len() >= shared.config.queue_capacity {
            drop(queue);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.send_error(
                writer,
                request.id,
                &ProtocolError {
                    kind: ErrorKind::Busy,
                    message: format!(
                        "admission queue is full ({} jobs); retry later",
                        shared.config.queue_capacity
                    ),
                },
            );
            return;
        }
        queue.push_back(Job {
            id: request.id,
            method: request.method,
            writer: Arc::clone(writer),
            enqueued: Instant::now(),
        });
        queue.len()
    };
    shared.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    shared.job_ready.notify_one();
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn run_worker(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                // Exit only when shutdown AND empty — checked under the
                // queue lock, so a drained shutdown strands no job.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.job_ready.wait(queue).expect("queue poisoned");
            }
        };
        let Some(job) = job else { return };
        process(shared, job);
    }
}

fn process(shared: &Arc<Shared>, job: Job) {
    let started = Instant::now();
    let outcome = if shared.config.timeout_ms == 0 {
        execute(shared, &job.method)
    } else {
        execute_with_timeout(shared, &job)
    };
    shared
        .latency
        .record_us(started.elapsed().as_micros() as u64);
    match outcome {
        Ok(result) => shared.send_ok(&job.writer, job.id, &result),
        Err(error) => shared.send_error(&job.writer, job.id, &error),
    }
}

/// Runs the job on a helper thread and waits out the request's remaining
/// budget (the timeout covers queue wait + execution). On timeout the
/// helper keeps running detached — its bounded leftover work is the price
/// of turning a runaway compile into a clean error — and its eventual
/// result is dropped.
fn execute_with_timeout(shared: &Arc<Shared>, job: &Job) -> Result<String, ProtocolError> {
    let budget = Duration::from_millis(shared.config.timeout_ms);
    let timed_out = || ProtocolError {
        kind: ErrorKind::Timeout,
        message: format!("request exceeded the {}ms budget", shared.config.timeout_ms),
    };
    let Some(remaining) = budget.checked_sub(job.enqueued.elapsed()) else {
        return Err(timed_out()); // budget burned in the queue
    };
    let (tx, rx) = mpsc::channel();
    let helper_shared = Arc::clone(shared);
    let method = job.method.clone();
    std::thread::spawn(move || {
        let _ = tx.send(execute(&helper_shared, &method));
    });
    match rx.recv_timeout(remaining) {
        Ok(outcome) => outcome,
        Err(_) => Err(timed_out()),
    }
}

fn execute(shared: &Arc<Shared>, method: &Method) -> Result<String, ProtocolError> {
    match method {
        Method::Compile(params) => {
            let (_, result) = compile_one(shared, params)?;
            Ok(result.finish())
        }
        Method::CompileBatch(items) => {
            // Each entry goes through the same cached single-compile path
            // as the `compile` method, in input order, so batch results
            // are byte-identical to individual requests.
            let mut results = Vec::with_capacity(items.len());
            for params in items {
                let (_, result) = compile_one(shared, params)?;
                results.push(result.finish());
            }
            let cache =
                serde_json::to_string(&shared.cache.stats()).expect("cache stats are finite");
            Ok(JsonObj::new()
                .raw("results", &json_array(results))
                .raw("cache", &cache)
                .finish())
        }
        Method::Estimate(params) => {
            let (program, result) = compile_one(shared, &params.compile)?;
            let calibration = protocol::parse_calibration(&params.calibration)?;
            let estimate = program.estimate_success(&calibration);
            let success = JsonObj::new()
                .f64("probability", estimate.probability())
                .f64("p_gates", estimate.p_gates)
                .f64("p_readout", estimate.p_readout)
                .f64("p_coherence", estimate.p_coherence)
                .f64("duration_us", estimate.duration_us)
                .finish();
            Ok(result
                .str("calibration", &params.calibration)
                .raw("success", &success)
                .finish())
        }
        Method::Sweep(params) => {
            let spec = SweepSpec {
                benchmarks: protocol::resolve_sweep_benchmarks(&params.benchmarks)?,
                devices: params
                    .devices
                    .iter()
                    .map(|spec| {
                        // The sweep owns its devices; a clone keeps the
                        // distance rows the table's copy has filled.
                        let device = shared.devices.resolve(spec)?;
                        Ok((spec.clone(), Topology::clone(&device)))
                    })
                    .collect::<Result<Vec<_>, ProtocolError>>()?,
                routers: params.routers.clone(),
                decomposers: params.decomposers.clone(),
                calibrations: params
                    .calibrations
                    .iter()
                    .map(|spec| Ok((spec.clone(), protocol::parse_calibration(spec)?)))
                    .collect::<Result<Vec<_>, ProtocolError>>()?,
                crosstalk: protocol::parse_crosstalk(&params.crosstalk)?,
                seed: params.seed,
                // The worker thread is this request's unit of parallelism;
                // a nested pool per sweep would oversubscribe the host.
                jobs: 1,
                cache_size: 64,
                monte_carlo_shots: params.shots,
            };
            let report = run_sweep(&spec).map_err(|e| ProtocolError {
                kind: ErrorKind::Compile,
                message: e.to_string(),
            })?;
            Ok(JsonObj::new().raw("report", &report.to_json()).finish())
        }
        _ => unreachable!("inline methods never reach the queue"),
    }
}

/// The cached compile at the heart of every work method: key the request
/// on the device table's shared topology, consult the request's shard,
/// compile and fill on miss.
fn compile_one(
    shared: &Arc<Shared>,
    params: &CompileParams,
) -> Result<(CompiledProgram, JsonObj), ProtocolError> {
    let circuit = protocol::resolve_circuit(params)?;
    let device = shared.devices.resolve(&params.device)?;
    let compiler = protocol::compiler_for(params);
    let key = CompilationCache::key(&circuit, &device, compiler.options());
    let (program, cached) = match shared.cache.get(key) {
        Some((program, _report)) => (program, true),
        None => {
            let (program, report) =
                compiler
                    .compile_with_report(&circuit, &device)
                    .map_err(|e| ProtocolError {
                        kind: ErrorKind::Compile,
                        message: e.to_string(),
                    })?;
            shared.cache.insert(key, (program.clone(), report));
            (program, false)
        }
    };
    let stats = JsonObj::new()
        .u64("two_qubit_gates", program.stats.two_qubit_gates as u64)
        .u64("one_qubit_gates", program.stats.one_qubit_gates as u64)
        .u64("swap_count", program.stats.swap_count as u64)
        .u64("depth", program.stats.depth as u64)
        .f64("duration_us", program.stats.duration_us)
        .finish();
    let mut result = JsonObj::new()
        .str(
            "input",
            params.benchmark.as_deref().unwrap_or("<inline qasm>"),
        )
        .str("device", device.name())
        .str("router", compiler.options().router_name())
        .str("decomposer", compiler.options().decomposer_name())
        .u64("seed", params.seed)
        .bool("cached", cached)
        .raw("stats", &stats);
    if params.emit_qasm {
        result = result.str("qasm", &trios_qasm::emit(&program.circuit));
    }
    Ok((program, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(input: &str, max: usize) -> Vec<(String, bool)> {
        let mut reader = BufReader::new(Cursor::new(input.as_bytes().to_vec()));
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        loop {
            match read_line_bounded(&mut reader, max, &mut buf).unwrap() {
                LineRead::Eof => return lines,
                LineRead::Line => {
                    lines.push((String::from_utf8(buf.clone()).unwrap(), false));
                }
                LineRead::Oversized => lines.push((String::new(), true)),
            }
        }
    }

    #[test]
    fn bounded_reads_split_lines_and_flag_oversized_ones() {
        assert_eq!(
            read("ab\ncd\n", 10),
            [("ab".into(), false), ("cd".into(), false)]
        );
        // No trailing newline: the final fragment is still a line.
        assert_eq!(
            read("ab\ncd", 10),
            [("ab".into(), false), ("cd".into(), false)]
        );
        // The long middle line is flagged and skipped; the stream stays in
        // sync for the next line.
        let lines = read("ok\n0123456789abcdef\nnext\n", 8);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], ("ok".into(), false));
        assert!(lines[1].1, "middle line must be oversized");
        assert_eq!(lines[2], ("next".into(), false));
        // Exactly at the limit is fine.
        assert_eq!(read("12345678\n", 8), [("12345678".into(), false)]);
        assert!(read("123456789\n", 8)[0].1);
    }

    /// The `result` object of one successful reply line.
    fn result_of(line: &str) -> serde_json::Value {
        let reply: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(
            reply.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{line}"
        );
        reply.get("result").cloned().unwrap()
    }

    fn test_server() -> Server {
        Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn repeated_requests_share_one_interned_topology() {
        let server = test_server();
        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        let devices = &server.shared.devices;
        let mut interned = None;
        for (method, params) in [
            (
                "compile",
                r#"{"benchmark": "cnx_inplace-4", "device": "heavy-hex:127"}"#,
            ),
            (
                "compile",
                r#"{"benchmark": "bv-20", "device": "heavy-hex:127"}"#,
            ),
            (
                "estimate",
                r#"{"benchmark": "bv-20", "device": "heavy-hex:127", "seed": 3}"#,
            ),
            (
                "compile-batch",
                r#"{"circuits": ["grovers-9"], "device": "heavy-hex:127"}"#,
            ),
            (
                "sweep",
                r#"{"benchmarks": ["cnx_inplace-4"], "devices": ["heavy-hex:127"], "routers": ["trios"]}"#,
            ),
        ] {
            result_of(&client.call(method, params).unwrap());
            let now = devices.get("heavy-hex:127").expect("the spec is interned");
            let first = interned.get_or_insert_with(|| Arc::clone(&now));
            assert!(Arc::ptr_eq(first, &now), "{method} rebuilt the device");
        }
        assert_eq!(devices.specs(), ["heavy-hex:127"]);
        server.shutdown();
        server.join();
    }

    #[test]
    fn more_specs_than_the_table_holds_still_answer_correctly() {
        let server = test_server();
        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        let table = &server.shared.devices;
        let capacity = crate::devices::DEVICE_TABLE_CAPACITY;
        // Twice around the table: every spec is evicted before it returns.
        for round in 0..2 {
            for n in 6..6 + capacity + 4 {
                let params = format!(r#"{{"benchmark": "cnx_inplace-4", "device": "line:{n}"}}"#);
                let result = result_of(&client.call("compile", &params).unwrap());
                let name = format!("line-{n}");
                assert_eq!(
                    result.get("device").and_then(|v| v.as_str()),
                    Some(&name[..])
                );
                // The second round hits the compilation cache, whose key
                // is structural: a rebuilt device keys the same entry.
                let cached = result.get("cached").and_then(|v| v.as_bool());
                assert_eq!(cached, Some(round == 1), "{name}");
                assert!(table.specs().len() <= capacity);
            }
        }
        assert_eq!(table.specs().len(), capacity);
        assert!(table.get("line:6").is_none(), "least recently used is gone");
        server.shutdown();
        server.join();
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = ServerConfig::default();
        assert_eq!(config.queue_capacity, 64);
        assert!(config.effective_workers() >= 1);
        assert!(!config.allow_shutdown);
        let pinned = ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        };
        assert_eq!(pinned.effective_workers(), 3);
    }
}
