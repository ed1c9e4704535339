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
