//! The record of one routing run: the routed circuit, its layouts, and
//! the [`RoutingTrace`] of what the router did on the way.

use crate::Layout;
use trios_ir::{Circuit, Gate};
use trios_topology::TripleShape;

/// One gathered trio, recorded by the Trios router as it runs — the
/// per-Toffoli data behind the paper's Figure 6/7 x-axis ("total swap
/// distance") and its §6.3 placement discussion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrioEvent {
    /// The gate that was gathered.
    pub gate: Gate,
    /// Gather distance before routing: the minimum summed distance from
    /// two operands to the third (0 when already connected).
    pub gather_distance: usize,
    /// SWAPs this gather inserted.
    pub swaps: usize,
    /// How the trio sat after gathering.
    pub shape: TripleShape,
}

/// What one routing run did: the raw counters behind the paper's
/// communication metrics, recorded once, as the engine emits them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingTrace {
    /// Name of the strategy that ran. The compiler's route pass fills it
    /// from [`RoutingStrategy::name`](crate::RoutingStrategy::name); a
    /// direct [`RoutingStrategy::route`](crate::RoutingStrategy::route)
    /// call leaves it `None`.
    pub strategy: Option<String>,
    /// SWAP gates inserted.
    pub swaps: usize,
    /// One entry per three-qubit gate the trio router processed, in
    /// program order (a `cswap` contributes a second entry for its inner
    /// Toffoli; empty for the baseline pair router).
    pub trio_events: Vec<TrioEvent>,
}

impl RoutingTrace {
    /// An empty trace.
    pub fn new() -> Self {
        RoutingTrace::default()
    }

    /// Mean gather distance over the routed trios — a one-number locality
    /// profile of the workload on this device.
    ///
    /// Returns `None` (never `Some(NaN)`, never a panic) when no trio
    /// events were recorded: the program had no three-qubit gates, or it
    /// was routed by a pair strategy that records none.
    pub fn mean_gather_distance(&self) -> Option<f64> {
        let events = &self.trio_events;
        if events.is_empty() {
            return None;
        }
        Some(events.iter().map(|e| e.gather_distance as f64).sum::<f64>() / events.len() as f64)
    }
}

/// The product of a routing run: a physical-qubit circuit (with explicit
/// SWAPs), the layouts needed to interpret and verify it, and the run's
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCircuit {
    /// The routed circuit over physical qubits. Contains `swap` gates;
    /// contains `ccx` only when routing ran with `lower_toffoli = false`.
    pub circuit: Circuit,
    /// Where each logical qubit started.
    pub initial_layout: Layout,
    /// Where each logical qubit ended after all routing SWAPs.
    pub final_layout: Layout,
    /// The SWAPs and trio events of this run.
    pub trace: RoutingTrace,
}

impl RoutedCircuit {
    /// Two-qubit gate count after lowering SWAPs to 3 CX each — the
    /// paper's primary static metric.
    pub fn cx_cost(&self) -> usize {
        self.circuit.counts().two_qubit_equivalent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        DecomposeFirst, DirectionPolicy, LookaheadConfig, OrchestratedTrios, PathMetric,
        RouteError, RouterOptions, RoutingStrategy,
    };
    use trios_passes::{lower_swaps, DecomposerHandle, SixCnotDecomposition};
    use trios_sim::{DenseSimulator, Simulator};
    use trios_topology::{grid, johannesburg, line};

    const EPS: f64 = 1e-9;

    fn verify(original: &Circuit, routed: &RoutedCircuit) -> bool {
        let lowered = lower_swaps(&routed.circuit);
        DenseSimulator::new(EPS)
            .compiled_equivalent(
                original,
                &lowered,
                &routed.initial_layout.to_mapping(),
                &routed.final_layout.to_mapping(),
                3,
                7,
            )
            .unwrap()
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let topo = line(3);
        let routed = DecomposeFirst
            .route(
                &c,
                &topo,
                Layout::trivial(3, 3),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(routed.trace.swaps, 0);
        assert_eq!(routed.circuit.len(), 3);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn distant_pair_gets_swapped_together() {
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let topo = line(5);
        let routed = DecomposeFirst
            .route(
                &c,
                &topo,
                Layout::trivial(5, 5),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(routed.trace.swaps, 3);
        assert!(verify(&c, &routed));
        // MoveFirst: logical 0 walked to physical 3.
        assert_eq!(routed.final_layout.physical(0), 3);
    }

    #[test]
    fn move_second_policy_moves_target() {
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let topo = line(5);
        let opts = RouterOptions {
            direction: DirectionPolicy::MoveSecond,
            ..RouterOptions::default()
        };
        let routed = DecomposeFirst
            .route(&c, &topo, Layout::trivial(5, 5), &opts)
            .unwrap();
        assert_eq!(routed.trace.swaps, 3);
        assert_eq!(routed.final_layout.physical(4), 1);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn meet_in_middle_splits_the_walk() {
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        let topo = line(6);
        let opts = RouterOptions {
            direction: DirectionPolicy::MeetInMiddle,
            ..RouterOptions::default()
        };
        let routed = DecomposeFirst
            .route(&c, &topo, Layout::trivial(6, 6), &opts)
            .unwrap();
        assert_eq!(routed.trace.swaps, 4);
        assert_eq!(routed.final_layout.physical(0), 2);
        assert_eq!(routed.final_layout.physical(5), 3);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn stochastic_policy_is_seed_deterministic() {
        let mut c = Circuit::new(8);
        c.cx(0, 7).cx(1, 6).cx(2, 5);
        let topo = line(8);
        let a = DecomposeFirst
            .route(
                &c,
                &topo,
                Layout::trivial(8, 8),
                &RouterOptions::with_seed(3),
            )
            .unwrap();
        let b = DecomposeFirst
            .route(
                &c,
                &topo,
                Layout::trivial(8, 8),
                &RouterOptions::with_seed(3),
            )
            .unwrap();
        assert_eq!(a.circuit, b.circuit);
        assert!(verify(&c, &a));
    }

    #[test]
    fn baseline_rejects_toffolis() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let topo = line(3);
        let err = DecomposeFirst
            .route(&c, &topo, Layout::trivial(3, 3), &RouterOptions::default())
            .unwrap_err();
        assert!(matches!(
            err,
            RouteError::UnsupportedGate { gate: "ccx", .. }
        ));
    }

    #[test]
    fn too_wide_circuit_is_rejected() {
        let topo = line(5);
        assert!(matches!(
            DecomposeFirst.route(
                &Circuit::new(10),
                &topo,
                Layout::trivial(5, 5),
                &RouterOptions::default()
            ),
            Err(RouteError::CircuitTooWide { .. })
        ));
        // A layout whose logical width disagrees with the circuit is also
        // rejected.
        assert!(matches!(
            DecomposeFirst.route(
                &Circuit::new(3),
                &topo,
                Layout::trivial(5, 5),
                &RouterOptions::default()
            ),
            Err(RouteError::InvalidLayout { .. })
        ));
    }

    #[test]
    fn trios_gathers_distant_toffoli_on_a_line() {
        let mut c = Circuit::new(7);
        c.ccx(0, 3, 6);
        let topo = line(7);
        let opts = RouterOptions {
            lower_toffoli: false,
            ..RouterOptions::deterministic()
        };
        let routed = OrchestratedTrios
            .route(&c, &topo, Layout::trivial(7, 7), &opts)
            .unwrap();
        // Destination is the middle operand (logical 1 at phys 3):
        // movers 0 and 6 each travel 2 SWAPs.
        assert_eq!(routed.trace.swaps, 4);
        let ccx = routed
            .circuit
            .iter()
            .find(|i| i.gate() == Gate::Ccx)
            .expect("ccx preserved");
        let (a, m, b) = (
            ccx.qubit(0).index(),
            ccx.qubit(1).index(),
            ccx.qubit(2).index(),
        );
        assert_ne!(
            topo.triple_shape(a, m, b),
            TripleShape::Disconnected,
            "trio must be gathered"
        );
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_lowered_output_is_hardware_ready_after_swap_lowering() {
        let mut c = Circuit::new(7);
        c.h(0).ccx(0, 3, 6).cx(0, 1).ccx(2, 4, 5);
        let topo = line(7);
        let routed = OrchestratedTrios
            .route(
                &c,
                &topo,
                Layout::trivial(7, 7),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(routed.circuit.counts().ccx, 0);
        let lowered = lower_swaps(&routed.circuit);
        assert!(lowered.is_hardware_lowered());
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_connectivity_aware_picks_8cnot_on_triangle_free_devices() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let topo = johannesburg();
        let layout = Layout::from_mapping(&[0, 1, 2], 20).unwrap();
        let routed = OrchestratedTrios
            .route(&c, &topo, layout, &RouterOptions::deterministic())
            .unwrap();
        // Adjacent line 0–1–2: no SWAPs, 8 CX (Johannesburg has no triangles).
        assert_eq!(routed.trace.swaps, 0);
        assert_eq!(routed.circuit.counts().cx, 8);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_forced_six_on_a_line_needs_one_extra_swap() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let topo = line(3);
        let opts = RouterOptions {
            decomposer: DecomposerHandle::named("six"),
            ..RouterOptions::deterministic()
        };
        let routed = OrchestratedTrios
            .route(&c, &topo, Layout::trivial(3, 3), &opts)
            .unwrap();
        // The 6-CNOT decomposition interleaves all three qubit pairs, so on
        // a line the qubits "compete to be neighbors" (paper §3) and extra
        // SWAPs appear. The paper's conclusion: 8-CNOT wins on lines.
        assert_eq!(routed.circuit.counts().cx, 6);
        assert!(routed.trace.swaps >= 1);
        assert_eq!(routed.cx_cost(), 6 + 3 * routed.trace.swaps);
        assert!(
            routed.cx_cost() > 8,
            "forced 6-CNOT on a line must cost more than the 8-CNOT form"
        );
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_forced_eight_matches_connectivity_aware_on_lines() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let topo = line(3);
        let opts = RouterOptions {
            decomposer: DecomposerHandle::named("eight"),
            ..RouterOptions::deterministic()
        };
        let routed = OrchestratedTrios
            .route(&c, &topo, Layout::trivial(3, 3), &opts)
            .unwrap();
        assert_eq!(routed.trace.swaps, 0);
        assert_eq!(routed.circuit.counts().cx, 8);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_on_triangle_uses_6cnot() {
        use trios_topology::full;
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let topo = full(3);
        let routed = OrchestratedTrios
            .route(
                &c,
                &topo,
                Layout::trivial(3, 3),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(routed.trace.swaps, 0);
        assert_eq!(routed.circuit.counts().cx, 6);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn fig1_trios_beats_baseline_on_johannesburg() {
        // The paper's Figure 1 scenario: a single distant Toffoli.
        let mut toffoli_level = Circuit::new(20);
        toffoli_level.ccx(0, 1, 2);
        let decomposed = trios_passes::decompose_toffolis(&toffoli_level, &SixCnotDecomposition);
        let topo = johannesburg();
        // Qubits placed far apart, like the paper's red trio.
        let mapping: Vec<usize> = {
            let mut m: Vec<usize> = (0..20).collect();
            // logical 0 → 6, logical 1 → 17, logical 2 → 3 (Fig. 6's
            // hardest triple), displacing the identity assignment.
            m.swap(0, 6);
            m.swap(1, 17);
            m.swap(2, 3);
            m
        };
        let layout = Layout::from_mapping(&mapping, 20).unwrap();
        let opts = RouterOptions::deterministic();
        let base = DecomposeFirst
            .route(&decomposed, &topo, layout.clone(), &opts)
            .unwrap();
        let trios = OrchestratedTrios
            .route(&toffoli_level, &topo, layout, &opts)
            .unwrap();
        assert!(
            trios.cx_cost() < base.cx_cost(),
            "trios {} should beat baseline {}",
            trios.cx_cost(),
            base.cx_cost()
        );
        assert!(verify(&toffoli_level, &trios));
        assert!(verify(&decomposed, &base));
    }

    #[test]
    fn noise_aware_metric_detours_around_bad_edges() {
        let topo = grid(3, 2); // 0-1-2 / 3-4-5
        let mut c = Circuit::new(6);
        c.cx(0, 2);
        // Make edge (1,2) terrible so the router detours through the back
        // row. Edges are sorted; build weights aligned with them.
        let weights: Vec<f64> = topo
            .edges()
            .iter()
            .map(|&e| if e == (1, 2) { 100.0 } else { 1.0 })
            .collect();
        let opts = RouterOptions {
            metric: PathMetric::EdgeWeights(weights),
            ..RouterOptions::deterministic()
        };
        let routed = DecomposeFirst
            .route(&c, &topo, Layout::trivial(6, 6), &opts)
            .unwrap();
        // Detour 0→3→4→5→2 costs 3 swaps instead of 1; the router should
        // prefer it only because of the weights.
        assert!(routed.circuit.iter().all(|i| i.gate() != Gate::Swap
            || (i.qubit(0).index(), i.qubit(1).index()) != (1, 2)
                && (i.qubit(1).index(), i.qubit(0).index()) != (1, 2)));
        assert!(verify(&c, &routed));
    }

    fn lookahead_opts() -> RouterOptions {
        RouterOptions {
            lookahead: Some(LookaheadConfig::default()),
            ..RouterOptions::deterministic()
        }
    }

    #[test]
    fn lookahead_single_pair_uses_minimum_swaps() {
        // One distant gate: lookahead must match the shortest-path walk
        // exactly (distance − 1 SWAPs).
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        let topo = line(6);
        let routed = DecomposeFirst
            .route(&c, &topo, Layout::trivial(6, 6), &lookahead_opts())
            .unwrap();
        assert_eq!(routed.trace.swaps, 4);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn lookahead_adjacent_pair_is_a_noop() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let topo = line(3);
        let routed = DecomposeFirst
            .route(&c, &topo, Layout::trivial(3, 3), &lookahead_opts())
            .unwrap();
        assert_eq!(routed.trace.swaps, 0);
    }

    #[test]
    fn lookahead_steers_toward_future_partners() {
        // Grid 3×3 (0-1-2 / 3-4-5 / 6-7-8). First gate CX(0,8) has many
        // shortest paths; the follow-up CX(0,2) makes paths through the
        // top row strictly better. The committed walk cannot see that.
        let topo = grid(3, 3);
        let mut c = Circuit::new(9);
        c.cx(0, 8).cx(0, 2);
        let look = DecomposeFirst
            .route(&c, &topo, Layout::trivial(9, 9), &lookahead_opts())
            .unwrap();
        let blind = DecomposeFirst
            .route(
                &c,
                &topo,
                Layout::trivial(9, 9),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert!(
            look.trace.swaps <= blind.trace.swaps,
            "lookahead {} should not lose to committed walk {}",
            look.trace.swaps,
            blind.trace.swaps
        );
        assert!(verify(&c, &look));
        assert!(verify(&c, &blind));
    }

    #[test]
    fn lookahead_is_deterministic() {
        let mut c = Circuit::new(8);
        c.cx(0, 7).cx(2, 6).cx(1, 5).cx(0, 4);
        let topo = grid(4, 2);
        let a = DecomposeFirst
            .route(&c, &topo, Layout::trivial(8, 8), &lookahead_opts())
            .unwrap();
        let b = DecomposeFirst
            .route(&c, &topo, Layout::trivial(8, 8), &lookahead_opts())
            .unwrap();
        assert_eq!(a.circuit, b.circuit);
        assert!(verify(&c, &a));
    }

    #[test]
    fn lookahead_works_under_trios_gather() {
        // Lookahead handles the 2q traffic while trios gather the ccx.
        let mut c = Circuit::new(7);
        c.cx(0, 6).ccx(0, 3, 6).cx(0, 6);
        let topo = line(7);
        let routed = OrchestratedTrios
            .route(&c, &topo, Layout::trivial(7, 7), &lookahead_opts())
            .unwrap();
        assert_eq!(routed.circuit.counts().three_qubit, 0);
        assert!(verify(&c, &routed));
    }

    fn bridge_opts() -> RouterOptions {
        RouterOptions {
            bridge: true,
            ..RouterOptions::deterministic()
        }
    }

    #[test]
    fn bridge_replaces_distance_two_cnot_without_moving_data() {
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let topo = line(3);
        let routed = DecomposeFirst
            .route(&c, &topo, Layout::trivial(3, 3), &bridge_opts())
            .unwrap();
        assert_eq!(routed.trace.swaps, 0, "bridge must not permute the layout");
        assert_eq!(routed.circuit.counts().cx, 4);
        assert_eq!(routed.initial_layout, routed.final_layout);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn bridge_ignores_longer_distances_and_other_gates() {
        // Distance 3: falls back to SWAP routing.
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let topo = line(4);
        let routed = DecomposeFirst
            .route(&c, &topo, Layout::trivial(4, 4), &bridge_opts())
            .unwrap();
        assert!(routed.trace.swaps > 0);
        assert!(verify(&c, &routed));
        // CZ at distance 2: no bridge identity, SWAP routing.
        let mut c = Circuit::new(3);
        c.cz(0, 2);
        let topo = line(3);
        let routed = DecomposeFirst
            .route(&c, &topo, Layout::trivial(3, 3), &bridge_opts())
            .unwrap();
        assert_eq!(routed.trace.swaps, 1);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn bridge_wins_when_pair_interacts_once_loses_on_reuse() {
        let topo = line(3);
        // Single interaction: bridge 4 CX vs swap 3+1 = 4 CX — tie on
        // gates, but the layout stays home (observable below).
        let mut once = Circuit::new(3);
        once.cx(0, 2);
        // Repeated interaction: swapping once amortizes; bridging pays 4
        // CX every time.
        let mut thrice = Circuit::new(3);
        thrice.cx(0, 2).cx(0, 2).cx(0, 2);
        let bridged = DecomposeFirst
            .route(&thrice, &topo, Layout::trivial(3, 3), &bridge_opts())
            .unwrap();
        let swapped = DecomposeFirst
            .route(
                &thrice,
                &topo,
                Layout::trivial(3, 3),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(bridged.cx_cost(), 12);
        assert_eq!(swapped.cx_cost(), 3 + 3, "one swap then three local CX");
        assert!(verify(&thrice, &bridged));
        assert!(verify(&thrice, &swapped));
        let _ = once;
    }

    #[test]
    fn bridge_composes_with_trios_gather() {
        let mut c = Circuit::new(5);
        c.cx(0, 2).ccx(0, 2, 4).cx(2, 4);
        let topo = line(5);
        let routed = OrchestratedTrios
            .route(&c, &topo, Layout::trivial(5, 5), &bridge_opts())
            .unwrap();
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_routes_ccz_with_symmetric_decomposition() {
        // CCZ on a line: 8-CNOT CCZ form, no H gates, no extra SWAPs once
        // gathered.
        let mut c = Circuit::new(7);
        c.ccz(0, 3, 6);
        let topo = line(7);
        let routed = OrchestratedTrios
            .route(
                &c,
                &topo,
                Layout::trivial(7, 7),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(routed.trace.swaps, 4, "same gather cost as a Toffoli");
        assert_eq!(routed.circuit.counts().cx, 8);
        assert_eq!(
            routed
                .circuit
                .iter()
                .filter(|i| i.gate() == Gate::H)
                .count(),
            0,
            "CCZ decomposition has no Hadamards"
        );
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_routes_ccz_on_triangle_with_6cnot() {
        use trios_topology::full;
        let mut c = Circuit::new(3);
        c.ccz(0, 1, 2);
        let topo = full(3);
        let routed = OrchestratedTrios
            .route(
                &c,
                &topo,
                Layout::trivial(3, 3),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(routed.trace.swaps, 0);
        assert_eq!(routed.circuit.counts().cx, 6);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_routes_cswap_as_gathered_unit() {
        let mut c = Circuit::new(7);
        c.cswap(0, 3, 6);
        let topo = line(7);
        let routed = OrchestratedTrios
            .route(
                &c,
                &topo,
                Layout::trivial(7, 7),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        // Gather cost plus the CX-conjugated 8-CNOT Toffoli; the gather
        // centers on a swapped operand so the conjugating CXs are adjacent.
        assert_eq!(routed.circuit.counts().cswap, 0);
        assert_eq!(routed.circuit.counts().cx, 10);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn trios_cswap_destination_is_a_swapped_operand() {
        // Control far out on one side: the unrestricted destination rule
        // would pick the middle operand regardless of role; for Fredkin the
        // destination must be one of the swapped pair.
        let mut c = Circuit::new(9);
        c.cswap(4, 0, 8); // control sits physically between the pair
        let topo = line(9);
        let opts = RouterOptions {
            lower_toffoli: false,
            ..RouterOptions::deterministic()
        };
        let routed = OrchestratedTrios
            .route(&c, &topo, Layout::trivial(9, 9), &opts)
            .unwrap();
        let kept = routed
            .circuit
            .iter()
            .find(|i| i.gate() == Gate::Cswap)
            .expect("cswap preserved when lowering is off");
        // The physical trio must be connected.
        let (pc, pa, pb) = (
            kept.qubit(0).index(),
            kept.qubit(1).index(),
            kept.qubit(2).index(),
        );
        assert_ne!(topo.triple_shape(pc, pa, pb), TripleShape::Disconnected);
        assert!(verify(&c, &routed));
    }

    #[test]
    fn mixed_three_qubit_program_routes_and_verifies() {
        let mut c = Circuit::new(8);
        c.h(0)
            .ccx(0, 3, 6)
            .ccz(1, 4, 7)
            .cswap(2, 5, 7)
            .cx(0, 7)
            .ccz(0, 1, 2);
        let topo = grid(4, 2);
        for seed in [0u64, 1, 2] {
            let routed = OrchestratedTrios
                .route(
                    &c,
                    &topo,
                    Layout::trivial(8, 8),
                    &RouterOptions::with_seed(seed),
                )
                .unwrap();
            assert_eq!(routed.circuit.counts().three_qubit, 0);
            assert!(verify(&c, &routed), "seed {seed}");
        }
    }

    #[test]
    fn trio_events_record_gather_distance_and_shape() {
        let mut c = Circuit::new(7);
        c.ccx(0, 3, 6).ccx(0, 3, 6);
        let topo = line(7);
        let routed = OrchestratedTrios
            .route(
                &c,
                &topo,
                Layout::trivial(7, 7),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(routed.trace.trio_events.len(), 2);
        let first = routed.trace.trio_events[0];
        assert_eq!(first.gate, Gate::Ccx);
        // Trivial layout 0–3–6 on a line: best destination is the middle
        // operand, summed distance 6, i.e. 4 SWAPs beyond connected.
        assert_eq!(first.gather_distance, 4);
        assert_eq!(first.swaps, 4);
        assert!(matches!(first.shape, TripleShape::Line { .. }));
        // The second Toffoli reuses the gathered placement.
        let second = routed.trace.trio_events[1];
        assert_eq!(second.gather_distance, 0);
        assert_eq!(second.swaps, 0);
        assert!((routed.trace.mean_gather_distance().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_routing_records_no_trio_events() {
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let topo = line(4);
        let routed = DecomposeFirst
            .route(
                &c,
                &topo,
                Layout::trivial(4, 4),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert!(routed.trace.trio_events.is_empty());
        assert_eq!(routed.trace.mean_gather_distance(), None);
    }

    #[test]
    fn mean_gather_distance_is_none_not_nan_without_events() {
        // Constructed directly (not via a router) so the empty-events
        // contract is pinned independently of any strategy's behavior.
        assert_eq!(RoutingTrace::new().mean_gather_distance(), None);
        // And with events, the mean is finite — never NaN.
        let trace = RoutingTrace {
            trio_events: vec![TrioEvent {
                gate: Gate::Ccx,
                gather_distance: 3,
                swaps: 3,
                shape: TripleShape::Line { middle: 1 },
            }],
            ..RoutingTrace::new()
        };
        let mean = trace.mean_gather_distance().unwrap();
        assert!(mean.is_finite());
        assert!((mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cswap_contributes_two_trio_events() {
        let mut c = Circuit::new(5);
        c.cswap(0, 2, 4);
        let topo = line(5);
        let routed = OrchestratedTrios
            .route(
                &c,
                &topo,
                Layout::trivial(5, 5),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        assert_eq!(routed.trace.trio_events.len(), 2);
        assert_eq!(routed.trace.trio_events[0].gate, Gate::Cswap);
        assert_eq!(routed.trace.trio_events[1].gate, Gate::Ccx);
        assert_eq!(
            routed.trace.trio_events[1].gather_distance, 0,
            "inner ccx is pre-gathered"
        );
    }

    #[test]
    fn measurements_are_mapped_to_physical_homes() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).measure(0).measure(1);
        let topo = line(4);
        let layout = Layout::from_mapping(&[2, 3], 4).unwrap();
        let routed = DecomposeFirst
            .route(&c, &topo, layout, &RouterOptions::deterministic())
            .unwrap();
        let measured: Vec<usize> = routed
            .circuit
            .iter()
            .filter(|i| i.gate() == Gate::Measure)
            .map(|i| i.qubit(0).index())
            .collect();
        assert_eq!(measured, vec![2, 3]);
    }
}
