//! The differential fuzz harness, end to end: fixed-seed runs over every
//! registered router must be clean and byte-identical across worker
//! counts, and an injected known-bad strategy must be caught and shrunk
//! to a minimal QASM reproducer.

use orchestrated_trios::core::fuzz::{run_fuzz, run_fuzz_with_registry, FuzzFailureKind, FuzzSpec};
use orchestrated_trios::core::Compiler;
use orchestrated_trios::gen::Family;
use orchestrated_trios::ir::Circuit;
use orchestrated_trios::route::{
    Layout, OrchestratedTrios, RouteError, RoutedCircuit, RouterOptions, RoutingStrategy,
    StrategyRegistry,
};
use orchestrated_trios::sim::{DenseSimulator, Simulator};
use orchestrated_trios::topology::{johannesburg, line, Topology};

#[test]
fn fixed_seed_fuzz_is_clean_over_every_router_and_family() {
    // The acceptance grid, scaled for test time: every family, every
    // registered router, a fully simulable device. Zero failures
    // expected — this is the "the compiler is actually correct on
    // adversarial inputs" assertion.
    let spec = FuzzSpec {
        cases: 10,
        seed: 42,
        devices: vec![("line:8".into(), line(8))],
        jobs: 2,
        shrink: true,
        ..FuzzSpec::new()
    };
    assert_eq!(spec.families.len(), Family::ALL.len(), "all families");
    assert_eq!(spec.routers.len(), 4, "all registered routers");
    let report = run_fuzz(&spec).unwrap();
    assert!(report.passed(), "{report}");
    // The clifford family generates up to 20 qubits, so its wide cases
    // skip line:8; everything that fits is compiled and dense-checked.
    assert_eq!(
        report.cells + report.skipped,
        10 * 4,
        "every (case, router) cell compiled or counted as skipped"
    );
    assert_eq!(
        report.equivalence_checked, report.cells,
        "an 8-qubit device simulates every fitting cell"
    );
    // Clifford pairs go to the stabilizer regardless of width; everything
    // else fits under the dense cap on line:8, so nothing needs sparse.
    assert_eq!(
        report.equivalence_dense + report.equivalence_stabilizer,
        report.cells,
        "{report}"
    );
    assert!(
        report.skips.is_empty(),
        "no cell silently skipped: {report}"
    );
}

#[test]
fn every_family_verifies_at_full_johannesburg_width() {
    // The acceptance test of the sparse backend: every paper
    // benchmark family — including the non-Clifford ones that the
    // stabilizer cannot touch and the dense backend cannot fit — is
    // equivalence-checked at the full 20-qubit Johannesburg width, with
    // zero silently-skipped cells.
    // Cases cycle through the family list, so 6 cases touch every family
    // exactly once.
    let spec = FuzzSpec {
        cases: 6,
        seed: 11,
        devices: vec![("johannesburg".into(), johannesburg())],
        jobs: 2,
        ..FuzzSpec::new()
    };
    assert_eq!(spec.families.len(), Family::ALL.len(), "all families");
    let report = run_fuzz(&spec).unwrap();
    assert!(report.passed(), "{report}");
    assert_eq!(report.skipped, 0, "everything fits a 20-qubit device");
    assert!(
        report.skips.is_empty(),
        "no equivalence check skipped: {report}"
    );
    assert_eq!(
        report.equivalence_checked, report.cells,
        "every compiled cell verified at device width:\n{report}"
    );
    assert!(
        report.equivalence_sparse > 0,
        "wide non-Clifford cells go through the sparse backend:\n{report}"
    );
    assert!(
        report.equivalence_stabilizer > 0,
        "Clifford cells keep the tableau fast path:\n{report}"
    );
}

#[test]
fn full_johannesburg_clifford_fuzz_passes_through_the_stabilizer_backend() {
    // The acceptance test of the simulator refactor: routed-vs-input
    // equivalence on the full 20-qubit Johannesburg device — impossible
    // under the old 8-qubit dense wall — for every registered router.
    let spec = FuzzSpec {
        cases: 4,
        seed: 42,
        families: vec![Family::Clifford],
        devices: vec![("johannesburg".into(), johannesburg())],
        jobs: 2,
        ..FuzzSpec::new()
    };
    assert_eq!(spec.routers.len(), 4, "all registered routers");
    let report = run_fuzz(&spec).unwrap();
    assert!(report.passed(), "{report}");
    assert_eq!(report.cells, 4 * 4);
    assert_eq!(
        report.equivalence_stabilizer, report.cells,
        "every cell tableau-checked at device width:\n{report}"
    );
    assert_eq!(report.skipped, 0);
}

#[test]
fn fuzz_reports_are_byte_identical_across_worker_counts() {
    let spec_for = |jobs: usize| FuzzSpec {
        cases: 6,
        seed: 7,
        families: vec![Family::Qft, Family::CliffordT, Family::ToffoliRipple],
        devices: vec![("line:8".into(), line(8))],
        jobs,
        ..FuzzSpec::new()
    };
    let reference = run_fuzz(&spec_for(1)).unwrap();
    for jobs in [2, 4, 8] {
        let report = run_fuzz(&spec_for(jobs)).unwrap();
        assert_eq!(report, reference, "jobs = {jobs}");
        assert_eq!(
            report.to_string(),
            reference.to_string(),
            "rendered report must be byte-identical at jobs = {jobs}"
        );
    }
}

/// A deliberately broken trio router: routes correctly, then flips
/// physical qubit 0 whenever the program contained a three-qubit gate —
/// the shape of a real "trio decomposition emitted one gate too many"
/// bug. Legality is untouched (an X is always legal), so only the
/// statevector check can catch it.
struct BrokenTrios;

impl RoutingStrategy for BrokenTrios {
    fn name(&self) -> &str {
        "broken-trios"
    }

    fn route(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        layout: Layout,
        options: &RouterOptions,
    ) -> Result<RoutedCircuit, RouteError> {
        let mut routed = OrchestratedTrios.route(circuit, topology, layout, options)?;
        if circuit.counts().three_qubit > 0 {
            routed.circuit.x(0);
        }
        Ok(routed)
    }
}

#[test]
fn injected_bad_strategy_yields_a_minimized_reproducer() {
    let mut registry = StrategyRegistry::standard();
    registry.register("broken-trios", || Box::new(BrokenTrios));
    let spec = FuzzSpec {
        cases: 6,
        seed: 1,
        families: vec![Family::ToffoliRipple, Family::Layered],
        routers: vec!["broken-trios".into()],
        devices: vec![("line:8".into(), line(8))],
        jobs: 2,
        shrink: true,
        ..FuzzSpec::new()
    };
    let report = run_fuzz_with_registry(&spec, &registry).unwrap();
    assert!(!report.passed(), "the planted bug must be found:\n{report}");

    let failure = report
        .failures
        .iter()
        .find(|f| f.kind == FuzzFailureKind::Equivalence)
        .expect("the planted bug is an equivalence bug");
    assert_eq!(failure.router, "broken-trios");
    let repro = failure
        .reproducer
        .as_ref()
        .expect("shrink was on, so the failure carries a reproducer");

    // The acceptance bound — and, for this bug, the exact minimum: one
    // three-qubit gate on three qubits (everything else shrinks away,
    // because the tamper only fires when a 3q gate is present).
    assert!(repro.gates <= 10, "reproducer has {} gates", repro.gates);
    assert_eq!(repro.gates, 1, "{}", repro.qasm);
    assert_eq!(repro.qubits, 3, "{}", repro.qasm);

    // The reproducer is real: it parses back and still exposes the bug
    // through a fresh compile.
    let minimal = orchestrated_trios::qasm::parse(&repro.qasm).unwrap();
    assert_eq!(minimal.counts().three_qubit, 1);
    let compiler = Compiler::builder()
        .router("broken-trios")
        .seed(spec.seed)
        .strategies(registry.clone())
        .build();
    let compiled = compiler.compile(&minimal, &line(8)).unwrap();
    let equivalent = DenseSimulator::new(1e-7)
        .compiled_equivalent(
            &minimal,
            &compiled.circuit,
            &compiled.initial_layout.to_mapping(),
            &compiled.final_layout.to_mapping(),
            2,
            spec.seed,
        )
        .unwrap();
    assert!(!equivalent, "the minimized reproducer must still fail");

    // The report text carries the reproducer for copy-paste.
    let text = report.to_string();
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("OPENQASM 2.0;"), "{text}");
}

#[test]
fn failure_rows_name_the_exact_cell() {
    let mut registry = StrategyRegistry::standard();
    registry.register("broken-trios", || Box::new(BrokenTrios));
    let spec = FuzzSpec {
        cases: 2,
        seed: 9,
        families: vec![Family::ToffoliRipple],
        routers: vec!["trios".into(), "broken-trios".into()],
        devices: vec![("line:8".into(), line(8))],
        jobs: 1,
        ..FuzzSpec::new()
    };
    let report = run_fuzz_with_registry(&spec, &registry).unwrap();
    // The healthy router is clean; only the broken one fails.
    assert_eq!(report.failures.len(), 2, "{report}");
    for failure in &report.failures {
        assert_eq!(failure.router, "broken-trios");
        assert_eq!(failure.family, "toffoli-ripple");
        assert_eq!(failure.device, "line:8");
        assert!(
            failure.case.contains(&format!("s{}", failure.seed)),
            "case name {} must embed seed {}",
            failure.case,
            failure.seed
        );
        // Regenerating from the recorded (family, seed) reproduces the
        // exact input circuit — the determinism guarantee in action.
        let regenerated = Family::ToffoliRipple.generate_case(failure.seed);
        assert_eq!(regenerated.name, failure.case);
    }
}

#[test]
fn generated_qasm_is_byte_identical_per_seed() {
    for family in Family::ALL {
        let a = orchestrated_trios::qasm::emit(&family.generate_case(42).circuit);
        let b = orchestrated_trios::qasm::emit(&family.generate_case(42).circuit);
        assert_eq!(a, b, "{family}: same seed must emit identical QASM");
        // And the emitted text round-trips through the parser.
        let parsed = orchestrated_trios::qasm::parse(&a).unwrap();
        assert_eq!(
            parsed.instructions(),
            family.generate_case(42).circuit.instructions(),
            "{family}"
        );
    }
}
