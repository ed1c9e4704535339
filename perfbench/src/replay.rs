//! Replays one compile through the public `Pass::run` of each pass, in
//! the order `PassManager::for_options` assembles them, timing each pass
//! in its own span. The result must equal the program's own compile.

use crate::trace::Tracer;
use trios_core::{
    Circuit, CompileContext, CompileOptions, CompileStats, CompiledProgram, DecomposeToffolisPass,
    InitialMappingPass, LowerPass, OptimizePass, Pass, ProgramSchedule, RoutePass, RouterTrace,
    SchedulePass, StrategyRegistry, SwapTrace, Topology, ValidatePass,
};
use trios_route::{check_legal, ToffoliPolicy};

/// The standard pipeline for `options`, each pass paired with the span
/// name its time is reported under.
pub fn passes(options: &CompileOptions) -> Vec<(&'static str, Box<dyn Pass>)> {
    let router = options.router_name();
    let decompose_first = StrategyRegistry::standard()
        .get(router)
        .is_some_and(|strategy| !strategy.handles_three_qubit_gates());
    let mut passes: Vec<(&'static str, Box<dyn Pass>)> =
        vec![("pass.initial_mapping_ms", Box::new(InitialMappingPass))];
    if decompose_first {
        passes.push((
            "pass.decompose_ms",
            Box::new(DecomposeToffolisPass::named(options.decomposer_name())),
        ));
    }
    passes.push(("pass.route_ms", Box::new(RoutePass::named(router))));
    passes.push(("pass.lower_ms", Box::new(LowerPass)));
    passes.push(("pass.optimize_ms", Box::new(OptimizePass)));
    if options.validate {
        passes.push(("pass.validate_ms", Box::new(ValidatePass)));
    }
    passes.push(("pass.schedule_ms", Box::new(SchedulePass::new())));
    passes
}

/// Compiles `circuit` pass by pass under spans. The gate scan the pass
/// manager makes after every pass is timed with that pass.
pub fn compile(
    tracer: &mut Tracer,
    pipeline: &mut [(&'static str, Box<dyn Pass>)],
    circuit: &Circuit,
    topology: &Topology,
    options: &CompileOptions,
) -> Result<CompiledProgram, String> {
    let mut cx = CompileContext::new(circuit.clone(), topology, options);
    let mut gates = cx.circuit.counts();
    let mut depth = cx.circuit.depth();
    for (span, pass) in pipeline.iter_mut() {
        let before = gates.total;
        tracer
            .time(span, || {
                let result = pass.run(&mut cx);
                gates = cx.circuit.counts();
                depth = cx.circuit.depth();
                result
            })
            .map_err(|d| d.to_string())?;
        match *span {
            "pass.route_ms" => {
                tracer.count("pass.route_gates_after", gates.total as f64);
                if let Some(SwapTrace(events)) = cx.artifacts.get::<SwapTrace>() {
                    tracer.count("route.trio_gathers", events.len() as f64);
                    let hops: usize = events.iter().map(|e| e.gather_distance).sum();
                    tracer.count("route.gather_distance", hops as f64);
                }
            }
            "pass.optimize_ms" => {
                tracer.count(
                    "pass.optimize_gates_removed",
                    before.saturating_sub(gates.total) as f64,
                );
            }
            "pass.validate_ms" => {
                // The validate pass spends most of its time in the route
                // crate's legality check; replay that call on its own and
                // move its time out of the pass's self time.
                tracer
                    .time_nested("route.legality_ms", "pass.validate_ms", || {
                        check_legal(&cx.circuit, topology, ToffoliPolicy::Forbid)
                    })
                    .map_err(|v| v.to_string())?;
            }
            _ => {}
        }
    }
    let duration_us = cx
        .artifacts
        .get::<ProgramSchedule>()
        .map(|s| s.0.total_duration_us())
        .unwrap_or_default();
    let mut stats = CompileStats::new(cx.swap_count, gates, depth, duration_us);
    stats.mean_gather_distance = cx
        .artifacts
        .get::<RouterTrace>()
        .and_then(|trace| trace.0.mean_gather_distance());
    Ok(CompiledProgram {
        initial_layout: cx.initial_layout.take().ok_or("no initial layout")?,
        final_layout: cx.final_layout.take().ok_or("no final layout")?,
        circuit: cx.circuit,
        stats,
    })
}
