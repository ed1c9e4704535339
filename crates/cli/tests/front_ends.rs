//! The CLI and the server resolve requests through one model
//! (`trios_core::request`), so one request gives one output from either
//! front end, and a bad request is an error from either, never a panic.

use proptest::prelude::*;
use proptest::sample::select;
use std::net::SocketAddr;
use std::process::Command;
use std::sync::OnceLock;
use trios_core::request::CircuitRef;
use trios_core::{DecomposerRegistry, StrategyRegistry};
use trios_gen::Family;
use trios_server::{Client, Server, ServerConfig};

/// One server for every case. Repeated requests hit its cache, which must
/// not change a reply's QASM either.
fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            Server::start(ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            })
            .expect("bind loopback")
        })
        .local_addr()
}

/// A circuit input as a request names it. The CLI reads generated QASM
/// from a file; the server takes it inline.
#[derive(Debug, Clone)]
enum Input {
    Name(&'static str),
    Gen(String),
    Qasm(Family, u64),
}

fn inputs() -> impl Strategy<Value = Input> {
    let names = select(vec![
        "cnx_inplace-4",
        "incrementer_borrowedbit-5",
        "grovers-9",
        "qaoa_complete-10",
        "cnx_dirty-11",
        "fredkin_network-11",
        "hypergraph_state-12",
    ]);
    let families = || select(Family::ALL.to_vec());
    (0u8..3, names, families(), 0u64..50, any::<bool>()).prop_map(
        |(kind, name, family, seed, short)| match kind {
            0 => Input::Name(name),
            // `gen:<family>` is seed 0, spelled without it.
            1 if short => Input::Gen(format!("gen:{family}")),
            1 => Input::Gen(format!("gen:{family}:{seed}")),
            _ => Input::Qasm(family, seed),
        },
    )
}

fn executable_decomposers() -> Vec<String> {
    let registry = DecomposerRegistry::standard();
    registry
        .names()
        .filter(|name| registry.get(name).is_some_and(|d| d.executable()))
        .map(str::to_string)
        .collect()
}

/// The compiled QASM `trios compile … --emit-qasm -` prints after its
/// header.
fn cli_qasm(input: &str, device: &str, router: &str, decomposer: &str, seed: u64) -> String {
    let seed = seed.to_string();
    let args: Vec<String> = [
        "compile",
        input,
        "-d",
        device,
        "-r",
        router,
        "--decomposer",
        decomposer,
        "-s",
        &seed,
        "--emit-qasm",
        "-",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = trios_cli::run(&args).unwrap_or_else(|e| panic!("trios {args:?}: {e}"));
    // A blank line ends the header; the QASM follows it.
    let (_, qasm) = out.split_once("\n\n").expect("inline QASM");
    qasm.to_string()
}

/// The compiled QASM the server's `compile` method returns for `circuit`,
/// a `"benchmark"` or `"qasm"` JSON field.
fn server_qasm(circuit: &str, device: &str, router: &str, decomposer: &str, seed: u64) -> String {
    let params = format!(
        r#"{{{circuit}, "device": "{device}", "router": "{router}", "decomposer": "{decomposer}", "seed": {seed}, "emit-qasm": true}}"#
    );
    let mut client = Client::connect(server_addr()).unwrap();
    let reply = client.call("compile", &params).unwrap();
    let reply = serde_json::from_str(&reply).unwrap();
    reply
        .get("result")
        .and_then(|r| r.get("qasm"))
        .and_then(|q| q.as_str())
        .unwrap_or_else(|| panic!("no qasm for {params}: {reply:?}"))
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_request_through_either_front_end_gives_one_qasm(
        input in inputs(),
        device in select(vec![("line:12", 12), ("grid:4x3", 12), ("ring:10", 10), ("johannesburg", 20)]),
        router in select(StrategyRegistry::standard().names().map(str::to_string).collect::<Vec<_>>()),
        decomposer in select(executable_decomposers()),
        seed in 0u64..1000,
    ) {
        let width = |reference: &str| {
            let circuit = reference.parse::<CircuitRef>().unwrap().circuit().unwrap();
            circuit.num_qubits()
        };
        let (cli_input, server_circuit, width) = match &input {
            Input::Name(name) => (name.to_string(), format!(r#""benchmark": "{name}""#), width(name)),
            Input::Gen(reference) => (
                reference.clone(),
                format!(r#""benchmark": "{reference}""#),
                width(reference),
            ),
            Input::Qasm(family, seed) => {
                let circuit = family.generate_case(*seed).circuit;
                let source = trios_qasm::emit(&circuit);
                let path = std::env::temp_dir()
                    .join("trios-front-ends")
                    .join(format!("{family}-{seed}.qasm"));
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, &source).unwrap();
                let inline = serde_json::to_string(&source).unwrap();
                (path.display().to_string(), format!(r#""qasm": {inline}"#), circuit.num_qubits())
            }
        };
        // A circuit wider than the drawn device goes to the widest one.
        let device = if width > device.1 { "johannesburg" } else { device.0 };
        let cli = cli_qasm(&cli_input, device, &router, &decomposer, seed);
        let served = server_qasm(&server_circuit, device, &router, &decomposer, seed);
        prop_assert_eq!(cli, served);
    }
}

#[test]
fn bad_improvement_factors_exit_1_without_a_panic() {
    let trios = env!("CARGO_BIN_EXE_trios");
    let estimates = ["0", "-2", "NaN"]
        .map(|factor| format!("estimate cnx_inplace-4 -d line:6 --improve {factor}"));
    let sweep = "sweep -b cnx_inplace-4 -d line:6 -c improve:NaN".to_string();
    for command in estimates.iter().chain([&sweep]) {
        let output = Command::new(trios)
            .args(command.split(' '))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "trios {command}: {stderr}");
        assert!(
            stderr.starts_with("trios: unknown calibration 'improve:"),
            "{stderr}"
        );
    }
}
