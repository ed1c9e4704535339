//! The committed sweep files, `BENCH_sweep.json` (Figures 6/8) and
//! `BENCH_decomp.json` (router × decomposer grid), must be what a fresh
//! run of their specs produces. Probabilities and geomeans match to
//! 1e-12 relative, since libm's `exp`/`ln` may differ in the last bit
//! between CPUs; names, counts and every other field match exactly.
//! Timing fields are not compared.

use trios_bench::{all_decomposers, decomposer_grid_spec, fig6_fig8_spec, FIG67_TRIPLETS};
use trios_benchmarks::Benchmark;
use trios_core::{run_sweep, SweepReport, SweepSpec};

/// Asserts `fresh` is within 1e-12 relative of `committed`, then
/// overwrites it with `committed` so the final whole-report equality
/// checks every other field exactly.
fn snap(fresh: &mut f64, committed: f64, what: &str) {
    let scale = fresh.abs().max(committed.abs());
    assert!(
        (*fresh - committed).abs() <= 1e-12 * scale,
        "{what}: fresh {fresh} vs committed {committed}"
    );
    *fresh = committed;
}

fn assert_committed_matches_fresh(file: &str, spec: &SweepSpec) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let committed = SweepReport::from_json(&text)
        .unwrap_or_else(|e| panic!("{file} does not parse: {e}"))
        .normalized();
    let mut fresh = run_sweep(spec).unwrap().normalized();
    assert_eq!(fresh.cells.len(), committed.cells.len(), "{file}: cells");
    assert_eq!(fresh.ratios.len(), committed.ratios.len(), "{file}: ratios");
    assert_eq!(
        fresh.geomeans.len(),
        committed.geomeans.len(),
        "{file}: geomeans"
    );
    for (f, c) in fresh.cells.iter_mut().zip(&committed.cells) {
        let at = format!("{file}: {}/{}/{}", c.benchmark, c.router, c.decomposer);
        snap(&mut f.probability, c.probability, &at);
        snap(&mut f.p_gates, c.p_gates, &at);
        snap(&mut f.p_readout, c.p_readout, &at);
        snap(&mut f.p_coherence, c.p_coherence, &at);
        assert_eq!(f, c, "{at}");
    }
    for (f, c) in fresh.ratios.iter_mut().zip(&committed.ratios) {
        let at = format!(
            "{file}: ratio {}/{}/{}",
            c.benchmark, c.router, c.decomposer
        );
        snap(&mut f.baseline_probability, c.baseline_probability, &at);
        snap(&mut f.probability, c.probability, &at);
        snap(&mut f.ratio, c.ratio, &at);
        assert_eq!(f, c, "{at}");
    }
    for (f, c) in fresh.geomeans.iter_mut().zip(&committed.geomeans) {
        let at = format!("{file}: geomean {}/{}", c.router, c.decomposer);
        snap(&mut f.geomean, c.geomean, &at);
    }
    assert_eq!(
        fresh, committed,
        "{file} differs from a fresh run of its spec"
    );
}

#[test]
fn bench_sweep_json_matches_a_fresh_figure_6_8_sweep() {
    assert_committed_matches_fresh("BENCH_sweep.json", &fig6_fig8_spec(FIG67_TRIPLETS.len()));
}

#[test]
fn bench_decomp_json_matches_a_fresh_decomposer_grid() {
    let suite: Vec<Benchmark> = Benchmark::toffoli_suite().collect();
    assert_committed_matches_fresh(
        "BENCH_decomp.json",
        &decomposer_grid_spec(&suite, all_decomposers()),
    );
}
