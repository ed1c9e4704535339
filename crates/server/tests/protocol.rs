//! End-to-end protocol tests against a real server on a loopback socket:
//! error paths keep the connection serving, backpressure answers `busy`
//! instead of hanging, concurrent clients get byte-identical results to
//! the sequential compiler, and shutdown drains everything admitted.

use serde_json::Value;
use trios_server::{Client, Server, ServerConfig};

fn start(config: ServerConfig) -> Server {
    Server::start(config).expect("bind loopback")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        allow_shutdown: true,
        ..ServerConfig::default()
    }
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn error_kind(response: &Value) -> Option<String> {
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

fn result_of(response: &Value) -> &Value {
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected ok: {response:?}"
    );
    response.get("result").expect("ok responses carry a result")
}

#[test]
fn protocol_errors_answer_structured_and_the_server_keeps_serving() {
    let server = start(test_config());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Malformed JSON.
    client.send_raw("{definitely not json").unwrap();
    let response = parse(&client.read_line().unwrap());
    assert_eq!(error_kind(&response).as_deref(), Some("parse"));
    assert_eq!(response.get("id").and_then(Value::as_u64), Some(0));

    // Unknown method.
    let response = parse(&client.call("frobnicate", "{}").unwrap());
    assert_eq!(error_kind(&response).as_deref(), Some("unknown-method"));

    // Unknown router, named in the message alongside the registry.
    let response = parse(
        &client
            .call("compile", r#"{"benchmark": "bv-20", "router": "sabre"}"#)
            .unwrap(),
    );
    assert_eq!(error_kind(&response).as_deref(), Some("bad-request"));
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(
        message.contains("sabre") && message.contains("trios"),
        "{message}"
    );

    // Unknown device spec.
    let response = parse(
        &client
            .call(
                "compile",
                r#"{"benchmark": "bv-20", "device": "torus:3x3"}"#,
            )
            .unwrap(),
    );
    assert_eq!(error_kind(&response).as_deref(), Some("bad-request"));

    // After all of that, the connection still works.
    client.ping().unwrap();
    let response = parse(
        &client
            .call(
                "compile",
                r#"{"benchmark": "cnx_inplace-4", "device": "line:6"}"#,
            )
            .unwrap(),
    );
    let result = result_of(&response);
    assert_eq!(result.get("device").and_then(Value::as_str), Some("line-6"));

    server.shutdown();
    server.join();
}

#[test]
fn oversized_device_specs_are_bad_requests_and_the_next_compile_succeeds() {
    let server = start(test_config());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Before the size cap this asked for a 10¹⁶-entry distance matrix
    // and aborted the whole daemon.
    let response = parse(
        &client
            .call(
                "compile",
                r#"{"benchmark": "gen:toffoli-ripple:7", "device": "line:100000000"}"#,
            )
            .unwrap(),
    );
    assert_eq!(error_kind(&response).as_deref(), Some("bad-request"));
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(
        message.contains("line:100000000") && message.contains("4096"),
        "{message}"
    );

    // The same connection compiles on a kiloqubit device next.
    let response = parse(
        &client
            .call(
                "compile",
                r#"{"benchmark": "gen:toffoli-ripple:7", "device": "heavy-hex:1121"}"#,
            )
            .unwrap(),
    );
    let result = result_of(&response);
    assert_eq!(
        result.get("device").and_then(Value::as_str),
        Some("heavy-hex-1121")
    );
    assert_eq!(result.get("cached").and_then(Value::as_bool), Some(false));

    server.shutdown();
    server.join();
}

#[test]
fn oversized_lines_error_without_desyncing_the_stream() {
    let server = start(ServerConfig {
        max_line_bytes: 512,
        ..test_config()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.send_raw(&"x".repeat(4096)).unwrap();
    let response = parse(&client.read_line().unwrap());
    assert_eq!(error_kind(&response).as_deref(), Some("oversized"));

    // The next (normal) request on the same connection still works.
    client.ping().unwrap();

    server.shutdown();
    server.join();
}

#[test]
fn full_queue_answers_busy_instead_of_hanging() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 0, // every request pays full compile cost
        ..test_config()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Fire a burst without reading responses: the single worker cannot
    // keep up with the reader, so the one-slot queue must overflow.
    let burst = 32;
    for i in 0..burst {
        client
            .send_raw(&format!(
                r#"{{"id": {i}, "method": "compile", "params": {{"benchmark": "cnx_dirty-11", "seed": {i}}}}}"#
            ))
            .unwrap();
    }
    let mut ok = 0;
    let mut busy = 0;
    for _ in 0..burst {
        let response = parse(&client.read_line().unwrap());
        if response.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        } else {
            assert_eq!(error_kind(&response).as_deref(), Some("busy"));
            busy += 1;
        }
    }
    assert!(ok >= 1, "some requests must be served");
    assert!(busy >= 1, "the burst must overflow the one-slot queue");

    let snapshot = server.snapshot();
    assert_eq!(snapshot.rejected, busy);
    assert_eq!(snapshot.queue_high_water, 1);

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_clients_match_the_sequential_compiler_byte_for_byte() {
    use trios_core::Compiler;

    let device = trios_core::parse_spec("johannesburg").unwrap();
    let benchmarks = [
        "bv-20",
        "cnx_inplace-4",
        "grovers-9",
        "incrementer_borrowedbit-5",
    ];
    // Sequential reference: same compiler configuration, in process.
    let reference: Vec<String> = benchmarks
        .iter()
        .map(|name| {
            let circuit = trios_benchmarks::Benchmark::ALL
                .into_iter()
                .find(|b| b.name() == *name)
                .unwrap()
                .build();
            let compiler = Compiler::builder().seed(7).build();
            let (program, _) = compiler.compile_with_report(&circuit, &device).unwrap();
            trios_qasm::emit(&program.circuit)
        })
        .collect();

    let server = start(ServerConfig {
        workers: 4,
        ..test_config()
    });
    let addr = server.local_addr();
    let served: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = benchmarks
            .iter()
            .map(|name| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let response = parse(
                        &client
                            .call(
                                "compile",
                                &format!(
                                    r#"{{"benchmark": "{name}", "seed": 7, "emit-qasm": true}}"#
                                ),
                            )
                            .unwrap(),
                    );
                    result_of(&response)
                        .get("qasm")
                        .and_then(Value::as_str)
                        .expect("qasm requested")
                        .to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(served, reference);

    server.shutdown();
    server.join();
}

#[test]
fn repeated_requests_hit_the_shared_cache_across_connections() {
    let server = start(test_config());

    let mut first = Client::connect(server.local_addr()).unwrap();
    let response = parse(&first.call("compile", r#"{"benchmark": "bv-20"}"#).unwrap());
    assert_eq!(
        result_of(&response).get("cached").and_then(Value::as_bool),
        Some(false)
    );

    // A different connection, same request: served from the shared cache.
    let mut second = Client::connect(server.local_addr()).unwrap();
    let response = parse(&second.call("compile", r#"{"benchmark": "bv-20"}"#).unwrap());
    assert_eq!(
        result_of(&response).get("cached").and_then(Value::as_bool),
        Some(true)
    );

    let stats = server.cache().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // The stats method reports the same numbers over the wire.
    let response = parse(&second.call("stats", "{}").unwrap());
    let result = result_of(&response);
    let cache = result.get("cache").expect("stats carry cache block");
    assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
    assert_eq!(
        result
            .get("latency")
            .and_then(|l| l.get("count"))
            .and_then(Value::as_u64),
        Some(2)
    );
    let shards = result.get("shards").and_then(Value::as_array).unwrap();
    assert_eq!(shards.len(), ServerConfig::default().shards);

    server.shutdown();
    server.join();
}

/// Replays each client's slice of `compile` params on its own connection
/// and thread; returns the wall time and the number of cached replies.
fn replay(addr: std::net::SocketAddr, requests: &[Vec<String>]) -> (std::time::Duration, usize) {
    let started = std::time::Instant::now();
    let cached = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|slice| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    slice
                        .iter()
                        .filter(|params| {
                            let response = parse(&client.call("compile", params).unwrap());
                            result_of(&response).get("cached").and_then(Value::as_bool)
                                == Some(true)
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    (started.elapsed(), cached)
}

#[test]
fn cold_replay_misses_and_its_warm_repeat_hits_every_request_faster() {
    // Two clients, four distinct generated circuits each: families round
    // robin, gen seeds never reused, and the routing seed varies too, since
    // families like qft are deterministic per width.
    const FAMILIES: [&str; 4] = ["qft", "toffoli-ripple", "clifford-t", "layered"];
    let (clients, per_client) = (2, 4);
    let requests: Vec<Vec<String>> = (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    let n = c * per_client + i;
                    format!(
                        r#"{{"benchmark": "gen:{}:{}", "device": "line:8", "seed": {n}}}"#,
                        FAMILIES[n % FAMILIES.len()],
                        n / FAMILIES.len()
                    )
                })
                .collect()
        })
        .collect();
    let server = start(ServerConfig {
        workers: 4,
        ..test_config()
    });

    let addr = server.local_addr();
    let (cold, cached_cold) = replay(addr, &requests);
    assert_eq!(cached_cold, 0, "cold requests are all distinct");
    let (warm, cached_warm) = replay(addr, &requests);
    assert_eq!(
        cached_warm,
        clients * per_client,
        "warm requests must all hit the shared cache"
    );
    assert_eq!(server.snapshot().served, 2 * (clients * per_client) as u64);
    // Other tests share the CPUs, and being preempted only ever slows a
    // replay down, so the fastest of three warm replays stands for warm.
    let warm = (0..2)
        .map(|_| replay(addr, &requests).0)
        .fold(warm, Ord::min);
    assert!(
        warm < cold,
        "the warm replay must beat the cold one ({warm:?} vs {cold:?})"
    );

    server.shutdown();
    server.join();
}

#[test]
fn decomposers_never_share_cache_hits_and_unknown_names_error() {
    let server = start(test_config());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Unknown decomposer: a structured bad-request naming the registry,
    // and the connection keeps serving.
    let response = parse(
        &client
            .call(
                "compile",
                r#"{"benchmark": "cnx_inplace-4", "decomposer": "margolus"}"#,
            )
            .unwrap(),
    );
    assert_eq!(error_kind(&response).as_deref(), Some("bad-request"));
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(
        message.contains("margolus") && message.contains("relative-phase"),
        "{message}"
    );

    // The same circuit/device/seed under each decomposer: every first
    // request must miss (no cross-decomposer hit), every repeat must hit.
    let mut two_qubit = std::collections::BTreeMap::new();
    for decomposer in ["standard", "six", "eight", "tdepth", "relative-phase"] {
        let request = format!(
            r#"{{"benchmark": "cnx_inplace-4", "device": "line:6", "decomposer": "{decomposer}"}}"#
        );
        let response = parse(&client.call("compile", &request).unwrap());
        let result = result_of(&response);
        assert_eq!(
            result.get("cached").and_then(Value::as_bool),
            Some(false),
            "{decomposer} must not hit another decomposer's entry"
        );
        assert_eq!(
            result.get("decomposer").and_then(Value::as_str),
            Some(decomposer)
        );
        two_qubit.insert(
            decomposer,
            result
                .get("stats")
                .and_then(|s| s.get("two_qubit_gates"))
                .and_then(Value::as_u64)
                .expect("stats carry 2q count"),
        );
        let response = parse(&client.call("compile", &request).unwrap());
        assert_eq!(
            result_of(&response).get("cached").and_then(Value::as_bool),
            Some(true),
            "{decomposer} repeat must hit its own entry"
        );
    }
    // Forced variants really differ from each other on a line device.
    assert_ne!(two_qubit["six"], two_qubit["eight"]);

    // An absent decomposer shares the standard entry (same options hash).
    let response = parse(
        &client
            .call(
                "compile",
                r#"{"benchmark": "cnx_inplace-4", "device": "line:6"}"#,
            )
            .unwrap(),
    );
    assert_eq!(
        result_of(&response).get("cached").and_then(Value::as_bool),
        Some(true)
    );

    server.shutdown();
    server.join();
}

#[test]
fn estimate_compile_batch_and_sweep_answer_over_the_wire() {
    let server = start(test_config());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let response = parse(
        &client
            .call(
                "estimate",
                r#"{"benchmark": "cnx_inplace-4", "calibration": "future"}"#,
            )
            .unwrap(),
    );
    let success = result_of(&response).get("success").expect("success block");
    let probability = success
        .get("probability")
        .and_then(Value::as_f64)
        .expect("probability");
    assert!((0.0..=1.0).contains(&probability), "{probability}");

    let response = parse(
        &client
            .call(
                "compile-batch",
                r#"{"circuits": ["bv-20", "cnx_inplace-4"], "seed": 3}"#,
            )
            .unwrap(),
    );
    let result = result_of(&response);
    let results = result.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0].get("input").and_then(Value::as_str),
        Some("bv-20")
    );
    assert!(result.get("cache").is_some(), "batch reports cache stats");

    let response = parse(
        &client
            .call(
                "sweep",
                r#"{"benchmarks": ["cnx_inplace-4"], "devices": ["line:8"], "routers": ["trios"], "decomposers": ["standard", "eight"]}"#,
            )
            .unwrap(),
    );
    let report = result_of(&response).get("report").expect("sweep report");
    let cells = report
        .get("cells")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("report has cells: {report:?}"));
    assert_eq!(cells.len(), 2, "router x decomposer grid: {report:?}");

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_every_admitted_request() {
    let server = start(ServerConfig {
        workers: 1,
        ..test_config()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Queue several jobs on the single worker, then ask for shutdown.
    let jobs = 5;
    for i in 1..=jobs {
        client
            .send_raw(&format!(
                r#"{{"id": {i}, "method": "compile", "params": {{"benchmark": "bv-20", "seed": {i}}}}}"#
            ))
            .unwrap();
    }
    client
        .send_raw(r#"{"id": 99, "method": "shutdown"}"#)
        .unwrap();

    // Every admitted job answers, plus the shutdown ack; the ack may
    // arrive before the drained compile responses (it is inline).
    let mut answered = std::collections::BTreeSet::new();
    for _ in 0..=jobs {
        let response = parse(&client.read_line().unwrap());
        let id = response.get("id").and_then(Value::as_u64).unwrap();
        if id == 99 {
            assert_eq!(
                result_of(&response)
                    .get("shutting-down")
                    .and_then(Value::as_bool),
                Some(true)
            );
        } else {
            assert_eq!(
                result_of(&response).get("cached").and_then(Value::as_bool),
                Some(false)
            );
        }
        assert!(answered.insert(id), "duplicate response for id {id}");
    }
    assert_eq!(answered.len() as u64, jobs + 1);

    // join() returns (drained), and afterwards the connection reads EOF.
    server.join();
    assert!(client.read_line().is_err(), "connection must be closed");
}

#[test]
fn shutdown_requests_are_refused_when_disabled() {
    let server = start(ServerConfig {
        allow_shutdown: false,
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = parse(&client.call("shutdown", "{}").unwrap());
    assert_eq!(error_kind(&response).as_deref(), Some("shutdown-disabled"));
    // Still serving.
    client.ping().unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn timeouts_turn_slow_requests_into_clean_errors() {
    let server = start(ServerConfig {
        workers: 1,
        timeout_ms: 1, // everything but the cheapest request blows this
        ..test_config()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    // A compiler that keeps getting faster occasionally finished the old
    // two-benchmark request inside 1 ms, flaking the assertion — Monte
    // Carlo shots pin the request comfortably past any compile speedup.
    let response = parse(
        &client
            .call(
                "sweep",
                r#"{"benchmarks": ["cuccaro_adder-20", "takahashi_adder-20"], "devices": ["johannesburg", "grid", "line", "clusters"], "shots": 2000}"#,
            )
            .unwrap(),
    );
    assert_eq!(error_kind(&response).as_deref(), Some("timeout"));
    // The worker is free again: a follow-up request answers.
    client.ping().unwrap();
    server.shutdown();
    server.join();
}

/// One request line on a raw connection with a read timeout, so a server
/// that never answers fails the test instead of hanging it.
fn call_raw(stream: &mut std::io::BufReader<std::net::TcpStream>, line: &str) -> Value {
    use std::io::{BufRead, Write};
    let mut request = line.to_string();
    request.push('\n');
    stream.get_mut().write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    stream
        .read_line(&mut reply)
        .unwrap_or_else(|e| panic!("no reply to {line}: {e}"));
    assert!(
        !reply.is_empty(),
        "connection closed instead of answering {line}"
    );
    parse(&reply)
}

#[test]
fn bad_improvement_factors_answer_bad_request_and_the_connection_keeps_serving() {
    let server = start(test_config());
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut stream = std::io::BufReader::new(stream);
    for (id, line) in [
        (
            1,
            r#"{"id": 1, "method": "estimate", "params": {"benchmark": "cnx_inplace-4", "device": "line:6", "calibration": "improve:NaN"}}"#,
        ),
        (
            2,
            r#"{"id": 2, "method": "sweep", "params": {"benchmarks": ["cnx_inplace-4"], "devices": ["line:6"], "calibrations": ["improve:NaN"]}}"#,
        ),
        (
            3,
            r#"{"id": 3, "method": "estimate", "params": {"benchmark": "cnx_inplace-4", "calibration": "improve:0"}}"#,
        ),
    ] {
        let response = call_raw(&mut stream, line);
        assert_eq!(response.get("id").and_then(Value::as_u64), Some(id));
        assert_eq!(error_kind(&response).as_deref(), Some("bad-request"));
        let pong = call_raw(&mut stream, r#"{"id": 9, "method": "ping"}"#);
        assert_eq!(
            result_of(&pong).get("pong").and_then(Value::as_bool),
            Some(true)
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn params_a_method_does_not_read_and_malformed_grids_are_bad_requests() {
    let server = start(test_config());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let message = |response: &Value| -> String {
        response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    for (method, params, named) in [
        (
            "compile",
            r#"{"benchmark": "cnx_inplace-4", "device": "line:6", "routr": "baseline"}"#,
            "'routr'",
        ),
        (
            "compile-batch",
            r#"{"circuits": ["cnx_inplace-4"], "device": "line:6", "emit-qasm": true}"#,
            "'emit-qasm'",
        ),
        (
            "sweep",
            r#"{"benchmarks": ["cnx_inplace-4"], "devices": ["line:6"], "shots": 0}"#,
            "shots",
        ),
        (
            "sweep",
            r#"{"benchmarks": ["cnx_inplace-4"], "devices": ["line:6", "line:6"]}"#,
            "'line:6'",
        ),
        (
            "sweep",
            r#"{"benchmarks": ["cnx_inplace-4"], "devices": []}"#,
            "'devices'",
        ),
    ] {
        let response = parse(&client.call(method, params).unwrap());
        assert_eq!(
            error_kind(&response).as_deref(),
            Some("bad-request"),
            "{method} {params}: {response:?}"
        );
        assert!(message(&response).contains(named), "{}", message(&response));
    }
    // A cell that fails to compile is still a compile error.
    let response = parse(
        &client
            .call(
                "sweep",
                r#"{"benchmarks": ["cnx_dirty-11"], "devices": ["line:6"]}"#,
            )
            .unwrap(),
    );
    assert_eq!(error_kind(&response).as_deref(), Some("compile"));
    client.ping().unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn hostile_qasm_answers_bad_request_and_every_worker_survives() {
    // Two workers: were the first two requests to panic them, the valid
    // last one would get no reply (and the third asks for a register
    // whose compile would abort the whole process).
    let server = start(test_config());
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut stream = std::io::BufReader::new(stream);
    let sources = [
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n",
        "OPENQASM 2.0;\nqreg q[3];\nccx q[0], q[1], q[0];\n",
        "OPENQASM 2.0;\nqreg q[1000000000000000];\n",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n",
    ];
    // All four go out before any reply is read.
    let mut lines = String::new();
    for (id, source) in sources.iter().enumerate() {
        let qasm = serde_json::to_string(source).unwrap();
        lines.push_str(&format!(
            "{{\"id\":{id},\"method\":\"compile\",\"params\":{{\"qasm\":{qasm},\"device\":\"line:6\"}}}}\n"
        ));
    }
    use std::io::{BufRead, Write};
    stream.get_mut().write_all(lines.as_bytes()).unwrap();
    let mut replies = std::collections::BTreeMap::new();
    for _ in 0..sources.len() {
        let mut line = String::new();
        stream
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("only {} of 4 replies: {e}", replies.len()));
        let response = parse(&line);
        replies.insert(
            response.get("id").and_then(Value::as_u64).unwrap(),
            response,
        );
    }
    for (id, needle) in [
        (0, "q[0] more than once"),
        (1, "q[0] more than once"),
        (2, "4096-qubit cap"),
    ] {
        let response = &replies[&id];
        assert_eq!(error_kind(response).as_deref(), Some("bad-request"));
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(message.contains(needle), "{message}");
    }
    let two_qubit_gates = result_of(&replies[&3])
        .get("stats")
        .and_then(|s| s.get("two_qubit_gates"))
        .and_then(Value::as_u64);
    assert_eq!(two_qubit_gates, Some(1));
    assert_eq!(server.snapshot().failed, 3);
    server.shutdown();
    server.join();
}
