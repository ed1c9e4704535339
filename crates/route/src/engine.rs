//! [`RoutingEngine`]: the shared routing core every
//! [`RoutingStrategy`](crate::RoutingStrategy) builds on.
//!
//! The engine owns the machinery that used to live inside the two
//! hard-coded routers: layout bookkeeping, SWAP emission, direction
//! fixing, bridge rewriting, windowed-lookahead stepping, trio gathering
//! with gather-distance accounting, and trio-event recording. Strategies
//! decide *policy* (which gates to allow, which metric and lookahead to
//! use); the engine supplies the *mechanism* and records each SWAP and
//! trio once, in the [`RoutingTrace`] it returns.

use crate::{
    DirectionPolicy, Layout, LookaheadConfig, PathMetric, RouteError, RoutedCircuit, RouterOptions,
    RoutingTrace, TrioEvent,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use trios_ir::{Circuit, Gate, Instruction, Qubit};
use trios_passes::{DecompositionPlan, DecompositionStrategy, TrioPlacement};
use trios_topology::{SearchScratch, Topology, TripleShape};

/// The shared routing core: a live layout, an output circuit under
/// construction, and every primitive a routing strategy needs (SWAP
/// emission, shortest paths under the configured metric, adjacency
/// fixing, bridging, trio gathering).
///
/// Custom strategies drive it directly:
///
/// ```
/// use trios_ir::Circuit;
/// use trios_route::{Layout, RouterOptions, RoutingEngine};
/// use trios_topology::line;
///
/// let mut program = Circuit::new(3);
/// program.cx(0, 2);
/// let device = line(3);
/// let options = RouterOptions::deterministic();
/// let engine = RoutingEngine::new(&device, Layout::trivial(3, 3), &options, &program)?;
/// let routed = engine.run(&program, false)?;
/// assert_eq!(routed.trace.swaps, 1);
/// # Ok::<(), trios_route::RouteError>(())
/// ```
pub struct RoutingEngine<'a> {
    topo: &'a Topology,
    opts: &'a RouterOptions,
    layout: Layout,
    out: Circuit,
    trace: RoutingTrace,
    rng: StdRng,
    weights: Option<WeightedPaths>,
    /// The path buffer every SWAP walk of the run fills.
    path: Vec<usize>,
    decomposer: Arc<dyn DecompositionStrategy>,
    plan: DecompositionPlan,
}

impl std::fmt::Debug for RoutingEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingEngine")
            .field("layout", &self.layout)
            .field("swap_count", &self.trace.swaps)
            .field("emitted", &self.out.len())
            .finish()
    }
}

impl<'a> RoutingEngine<'a> {
    /// Validates the job and builds an engine over `topo` starting from
    /// `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::CircuitTooWide`] if the circuit does not fit
    /// the device, [`RouteError::InvalidLayout`] if the layout's shape
    /// disagrees with the circuit/device, or
    /// [`RouteError::InvalidOptions`] if a [`PathMetric::EdgeWeights`]
    /// metric does not hold one finite, non-negative weight per edge of
    /// [`Topology::edges`].
    pub fn new(
        topo: &'a Topology,
        initial: Layout,
        opts: &'a RouterOptions,
        circuit: &Circuit,
    ) -> Result<Self, RouteError> {
        if circuit.num_qubits() > topo.num_qubits() {
            return Err(RouteError::CircuitTooWide {
                logical: circuit.num_qubits(),
                physical: topo.num_qubits(),
            });
        }
        if initial.num_logical() != circuit.num_qubits()
            || initial.num_physical() != topo.num_qubits()
        {
            return Err(RouteError::InvalidLayout {
                reason: format!(
                    "layout is {}→{} but circuit/device are {}→{}",
                    initial.num_logical(),
                    initial.num_physical(),
                    circuit.num_qubits(),
                    topo.num_qubits()
                ),
            });
        }
        let weights = match &opts.metric {
            PathMetric::Hops => None,
            PathMetric::EdgeWeights(w) => Some(WeightedPaths {
                table: WeightTable::new(topo, w)?,
                memo: HashMap::new(),
                arena: Vec::new(),
                scratch: SearchScratch::new(),
            }),
        };
        let decomposer = opts
            .decomposer
            .resolve()
            .map_err(|name| RouteError::InvalidOptions {
                reason: format!("unknown decomposition strategy '{name}'"),
            })?;
        if opts.lower_toffoli && !decomposer.executable() {
            return Err(RouteError::InvalidOptions {
                reason: format!(
                    "decomposition strategy '{}' is cost-model-only and cannot emit gates",
                    decomposer.name()
                ),
            });
        }
        // The plan is computed lazily in `run` (this constructor does not
        // know which circuit will be routed).
        let plan = DecompositionPlan::new();
        Ok(RoutingEngine {
            topo,
            opts,
            layout: initial,
            out: Circuit::with_name(topo.num_qubits(), circuit.name().to_string()),
            trace: RoutingTrace::new(),
            rng: StdRng::seed_from_u64(opts.seed),
            weights,
            path: Vec::new(),
            decomposer,
            plan,
        })
    }

    /// The current logical→physical layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The device being routed onto.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The options this engine was built with.
    pub fn options(&self) -> &RouterOptions {
        self.opts
    }

    /// SWAPs emitted so far.
    pub fn swap_count(&self) -> usize {
        self.trace.swaps
    }

    /// Drives the standard routing loop over `circuit`: 1-qubit gates are
    /// re-mapped and emitted, 2-qubit gates are bridged or made adjacent
    /// (with lookahead when configured), and 3-qubit gates are gathered as
    /// trios when `allow_ccx` is set (rejected otherwise — the
    /// decompose-first contract).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::UnsupportedGate`] for a 3-qubit gate when
    /// `allow_ccx` is `false`, or [`RouteError::Disconnected`] if
    /// interacting qubits cannot be joined.
    pub fn run(mut self, circuit: &Circuit, allow_ccx: bool) -> Result<RoutedCircuit, RouteError> {
        let initial_layout = self.layout.clone();
        // Per-circuit decomposition decisions (e.g. relative-phase's
        // compute/uncompute pairing) are computed over the logical circuit
        // before any gate moves.
        self.plan = self.decomposer.plan(circuit);
        // Every input gate emits at least one instruction.
        self.out.reserve(circuit.len());
        let mut queue: VecDeque<Instruction> = circuit.iter().copied().collect();
        let mut index = 0usize;
        while let Some(instr) = queue.pop_front() {
            match instr.qubits().len() {
                1 => self.emit_mapped(&instr),
                2 => {
                    let (la, lb) = (instr.qubit(0).index(), instr.qubit(1).index());
                    if self.try_bridge(&instr, la, lb) {
                        index += 1;
                        continue;
                    }
                    match self.opts.lookahead {
                        Some(cfg) => self.make_adjacent_lookahead(la, lb, &queue, cfg)?,
                        None => self.make_adjacent(la, lb)?,
                    }
                    self.emit_mapped(&instr);
                }
                3 => {
                    if !allow_ccx {
                        return Err(RouteError::UnsupportedGate {
                            gate: instr.gate().name(),
                            instruction: index,
                        });
                    }
                    let expansion = self.gather_trio(&instr)?;
                    for sub in expansion.into_iter().rev() {
                        queue.push_front(sub);
                    }
                }
                _ => unreachable!("IR gates have arity 1..=3"),
            }
            index += 1;
        }
        Ok(RoutedCircuit {
            circuit: self.out,
            initial_layout,
            final_layout: self.layout,
            trace: self.trace,
        })
    }

    /// Emits an instruction with its logical operands mapped to their
    /// current physical homes.
    pub fn emit_mapped(&mut self, instr: &Instruction) {
        let mapped = instr.map_qubits(|q| Qubit::new(self.layout.physical(q.index())));
        self.out.push(mapped);
    }

    /// Emits a SWAP on the coupling edge `p1`–`p2` and updates the layout
    /// and trace accordingly.
    pub fn emit_swap(&mut self, p1: usize, p2: usize) {
        debug_assert!(self.topo.are_adjacent(p1, p2), "swap on non-edge {p1}-{p2}");
        self.out.push(Instruction::new(
            Gate::Swap,
            &[Qubit::new(p1), Qubit::new(p2)],
        ));
        self.layout.swap_physical(p1, p2);
        self.trace.swaps += 1;
    }

    /// Shortest physical path under the configured metric.
    ///
    /// Under [`PathMetric::EdgeWeights`], the first query of an ordered
    /// pair runs Dijkstra, and a repeated one reads that answer from a
    /// memo kept for this routing run. The weights do not change while the
    /// engine routes, so the memo answers as a new search would; keeping
    /// it is why this method takes `&mut self`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Disconnected`] if no path exists.
    pub fn path(&mut self, a: usize, b: usize) -> Result<Vec<usize>, RouteError> {
        let mut path = Vec::new();
        self.path_into(a, b, &mut path)?;
        Ok(path)
    }

    /// [`RoutingEngine::path`] into `path`, which is cleared first.
    fn path_into(&mut self, a: usize, b: usize, path: &mut Vec<usize>) -> Result<(), RouteError> {
        let found = match &mut self.weights {
            None => self.topo.shortest_path_into(a, b, path),
            Some(w) => w.path_into(self.topo, a, b, path),
        };
        if found {
            Ok(())
        } else {
            Err(RouteError::Disconnected { a, b })
        }
    }

    /// Finds the path from `a` to `b` in the run's path buffer and hands
    /// it to `walk`, which may emit SWAPs along it.
    fn with_path<T>(
        &mut self,
        a: usize,
        b: usize,
        walk: impl FnOnce(&mut Self, &[usize]) -> T,
    ) -> Result<T, RouteError> {
        let mut path = std::mem::take(&mut self.path);
        let walked = self.path_into(a, b, &mut path).map(|()| walk(self, &path));
        self.path = path;
        walked
    }

    /// Inserts SWAPs until logical qubits `la` and `lb` are physically
    /// adjacent, following the configured direction policy.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Disconnected`] if the pair cannot be joined.
    pub fn make_adjacent(&mut self, la: usize, lb: usize) -> Result<(), RouteError> {
        let pa = self.layout.physical(la);
        let pb = self.layout.physical(lb);
        if self.topo.are_adjacent(pa, pb) {
            return Ok(());
        }
        self.with_path(pa, pb, |engine, path| {
            let hops = path.len() - 2; // SWAPs needed
            let first_moves = match engine.opts.direction {
                DirectionPolicy::MoveFirst => hops,
                DirectionPolicy::MoveSecond => 0,
                DirectionPolicy::Stochastic => {
                    if engine.rng.gen_bool(0.5) {
                        hops
                    } else {
                        0
                    }
                }
                DirectionPolicy::MeetInMiddle => hops / 2,
            };
            // First operand walks forward to path[first_moves] …
            for i in 0..first_moves {
                engine.emit_swap(path[i], path[i + 1]);
            }
            // … second operand walks backward to path[first_moves + 1].
            for i in ((first_moves + 2)..path.len()).rev() {
                engine.emit_swap(path[i], path[i - 1]);
            }
        })?;
        debug_assert!(self
            .topo
            .are_adjacent(self.layout.physical(la), self.layout.physical(lb)));
        Ok(())
    }

    /// Bridge shortcut: a CNOT whose operands sit at distance exactly 2 is
    /// emitted as the 4-CNOT bridge
    /// `CX(a,m)·CX(m,b)·CX(a,m)·CX(m,b) = CX(a,b)` over the middle qubit
    /// `m`, leaving the layout untouched. Returns `true` if it applied.
    ///
    /// Only plain CNOTs bridge; other two-qubit gates fall through to SWAP
    /// routing.
    pub fn try_bridge(&mut self, instr: &Instruction, la: usize, lb: usize) -> bool {
        if !self.opts.bridge || instr.gate() != Gate::Cx {
            return false;
        }
        let pa = self.layout.physical(la);
        let pb = self.layout.physical(lb);
        if self.topo.distance(pa, pb) != Some(2) {
            return false;
        }
        // The middle must come from the *hop*-shortest path: a weighted
        // metric can prefer a longer detour whose second node is not a
        // common neighbor, and a bridge over such an "m" would emit CNOTs
        // on non-edges.
        let Some(m) = bridge_middle(self.topo, pa, pb) else {
            return false;
        };
        debug_assert!(self.topo.are_adjacent(pa, m) && self.topo.are_adjacent(m, pb));
        let q = Qubit::new;
        for _ in 0..2 {
            self.out.push(Instruction::new(Gate::Cx, &[q(pa), q(m)]));
            self.out.push(Instruction::new(Gate::Cx, &[q(m), q(pb)]));
        }
        true
    }

    /// Lookahead variant of [`RoutingEngine::make_adjacent`]: one SWAP at
    /// a time, each chosen among the moves that strictly shrink the front
    /// gate's distance, scored by a decayed sum of upcoming gate distances
    /// (the look-ahead schemes the paper cites as prior work in §3).
    ///
    /// Lookahead scoring is hop-based even under a noise-aware
    /// [`PathMetric`]; the metric still governs committed shortest-path
    /// walks elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Disconnected`] if the pair cannot be joined.
    pub fn make_adjacent_lookahead(
        &mut self,
        la: usize,
        lb: usize,
        upcoming: &VecDeque<Instruction>,
        cfg: LookaheadConfig,
    ) -> Result<(), RouteError> {
        loop {
            let pa = self.layout.physical(la);
            let pb = self.layout.physical(lb);
            if self.topo.are_adjacent(pa, pb) {
                return Ok(());
            }
            let d0 = self
                .topo
                .distance(pa, pb)
                .ok_or(RouteError::Disconnected { a: pa, b: pb })?;

            // Candidates: swaps on edges incident to either endpoint that
            // bring the pair strictly closer. Moving one endpoint along any
            // shortest path qualifies, so the set is never empty.
            let mut best: Option<(f64, (usize, usize))> = None;
            for (end, other) in [(pa, pb), (pb, pa)] {
                for n in self.topo.neighbors(end) {
                    let d1 = match self.topo.distance(n, other) {
                        Some(d) => d,
                        None => continue,
                    };
                    if d1 + 1 != d0 {
                        continue;
                    }
                    // Score the candidate by applying the swap in place and
                    // undoing it: `swap_physical` is O(1) both ways, where
                    // cloning the layout per candidate is O(n) — the
                    // difference between routing kiloqubit devices and not.
                    self.layout.swap_physical(end, n);
                    let window = self.window_cost(&self.layout, upcoming, cfg);
                    self.layout.swap_physical(end, n);
                    let cost = d1 as f64 + cfg.weight * window;
                    let edge = (end.min(n), end.max(n));
                    let better = match best {
                        None => true,
                        Some((bc, be)) => {
                            cost < bc - 1e-9 || ((cost - bc).abs() <= 1e-9 && edge < be)
                        }
                    };
                    if better {
                        best = Some((cost, edge));
                    }
                }
            }
            let (_, (p1, p2)) = best.expect("a distance-decreasing swap always exists");
            self.emit_swap(p1, p2);
        }
    }

    /// Decayed sum of the physical distances of the next `cfg.window`
    /// multi-qubit gates under `layout` (trios cost their gather distance).
    ///
    /// A disconnected pair or trio scores a large finite penalty — twice
    /// the device qubit count, which strictly exceeds any achievable
    /// per-gate cost (pair distances cap at `n − 1`; a trio's gather
    /// distance sums two of them, capping at `2n − 4` after the
    /// already-connected discount) — so unreachable placements can never
    /// look *cheaper* than reachable ones to lookahead scoring. (They
    /// used to score 0, i.e. free, via `unwrap_or(0)`.)
    pub fn window_cost(
        &self,
        layout: &Layout,
        upcoming: &VecDeque<Instruction>,
        cfg: LookaheadConfig,
    ) -> f64 {
        let disconnected = 2 * self.topo.num_qubits();
        let mut cost = 0.0;
        let mut weight = 1.0;
        let mut counted = 0usize;
        for instr in upcoming {
            let qs = instr.qubits();
            let d = match qs.len() {
                2 => {
                    let a = layout.physical(qs[0].index());
                    let b = layout.physical(qs[1].index());
                    match self.topo.distance(a, b) {
                        Some(d) => d.saturating_sub(1),
                        None => disconnected,
                    }
                }
                3 => {
                    let a = layout.physical(qs[0].index());
                    let b = layout.physical(qs[1].index());
                    let c = layout.physical(qs[2].index());
                    match self.topo.triple_distance(a, b, c) {
                        Some(d) => d.saturating_sub(2),
                        None => disconnected,
                    }
                }
                _ => continue,
            };
            cost += weight * d as f64;
            weight *= cfg.decay;
            counted += 1;
            if counted >= cfg.window {
                break;
            }
        }
        cost
    }

    /// The Trios gather step (paper §4): pick the operand with the minimal
    /// summed distance as the destination, route the other two to be
    /// adjacent to it (with the overlap refinement), then hand back the
    /// placement-appropriate decomposition — or leave the three-qubit gate
    /// intact when `lower_toffoli` is off.
    ///
    /// Handles the full three-qubit gate set (the paper's §4 extension):
    /// `ccx` and `ccz` decompose in place; `cswap` expands into its
    /// CX-conjugated Toffoli, whose inner `ccx` re-enters this gather (by
    /// then a no-op, the trio being connected).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Disconnected`] if the trio cannot be joined.
    pub fn gather_trio(&mut self, instr: &Instruction) -> Result<Vec<Instruction>, RouteError> {
        let logical = match *instr.qubits() {
            [a, b, c] => [a.index(), b.index(), c.index()],
            _ => unreachable!("a trio has three operands"),
        };
        let phys = logical.map(|l| self.layout.physical(l));
        let gather_distance = self
            .topo
            .triple_distance(phys[0], phys[1], phys[2])
            .map(|d| d.saturating_sub(2)) // 2 = already connected
            .unwrap_or(0);
        let swaps_before = self.trace.swaps;

        if self.topo.triple_shape(phys[0], phys[1], phys[2]) == TripleShape::Disconnected {
            let dest_phys = match instr.gate() {
                // Fredkin: gather around one of the *swapped* operands so
                // the conjugating CNOT pair lands on a coupling edge.
                Gate::Cswap => self.gather_destination(&phys[1..], &phys)?,
                _ => self.gather_destination(&phys, &phys)?,
            };
            let dest_logical = self
                .layout
                .logical(dest_phys)
                .expect("destination holds one of the trio");
            let mut movers = logical.into_iter().filter(|&l| l != dest_logical);
            let (m1, m2) = match (movers.next(), movers.next()) {
                (Some(m1), Some(m2)) => (m1, m2),
                _ => unreachable!("the destination holds one of three distinct operands"),
            };

            // First mover: stop on the neighbor of the destination.
            self.with_path(self.layout.physical(m1), dest_phys, |engine, path1| {
                for i in 0..path1.len().saturating_sub(2) {
                    engine.emit_swap(path1[i], path1[i + 1]);
                }
            })?;

            // Second mover: recompute from the updated layout. If its
            // stopping point is where the first mover now sits, stop one
            // step earlier — the first mover becomes the middle qubit
            // (saves one SWAP; paper §4).
            self.with_path(self.layout.physical(m2), dest_phys, |engine, path2| {
                let mut swaps = path2.len().saturating_sub(2);
                if swaps > 0 && path2[path2.len() - 2] == engine.layout.physical(m1) {
                    swaps -= 1;
                }
                for i in 0..swaps {
                    engine.emit_swap(path2[i], path2[i + 1]);
                }
            })?;
        }

        let shape = self.topo.triple_shape(
            self.layout.physical(logical[0]),
            self.layout.physical(logical[1]),
            self.layout.physical(logical[2]),
        );
        debug_assert_ne!(
            shape,
            TripleShape::Disconnected,
            "gather must produce a line or triangle"
        );
        self.trace.trio_events.push(TrioEvent {
            gate: instr.gate(),
            gather_distance,
            swaps: self.trace.swaps - swaps_before,
            shape,
        });

        if !self.opts.lower_toffoli {
            self.emit_mapped(instr);
            return Ok(Vec::new());
        }

        // Second decomposition pass, now placement-aware: hand the routed
        // placement to the configured strategy. The decomposition is
        // expressed over *logical* qubits and re-mapped at emission, so any
        // SWAPs inserted for non-adjacent pairs in the chosen form keep the
        // bookkeeping consistent. A `cswap` expansion's inner `ccx`
        // re-enters this gather (a no-op by then, the trio being connected)
        // and picks its own placement-appropriate form.
        let placement = match shape {
            TripleShape::Triangle => TrioPlacement::Triangle,
            TripleShape::Line { middle } => {
                let middle_logical = self
                    .layout
                    .logical(middle)
                    .expect("middle of the trio holds data");
                let middle_operand = logical
                    .iter()
                    .position(|&l| l == middle_logical)
                    .expect("middle of the trio is one of the operands");
                TrioPlacement::Line {
                    middle: middle_operand,
                }
            }
            TripleShape::Disconnected => unreachable!("checked above"),
        };
        let decomposer = Arc::clone(&self.decomposer);
        Ok(decomposer.lower(instr, placement, &mut self.plan))
    }

    /// The gather destination: the candidate with the smallest summed hop
    /// distance to the other trio members (paper §4), ties toward the
    /// earlier operand.
    fn gather_destination(
        &self,
        candidates: &[usize],
        trio: &[usize],
    ) -> Result<usize, RouteError> {
        let mut best: Option<(usize, usize)> = None;
        for &cand in candidates {
            let mut sum = 0usize;
            for &other in trio.iter().filter(|&&p| p != cand) {
                sum += self
                    .topo
                    .distance(cand, other)
                    .ok_or(RouteError::Disconnected { a: cand, b: other })?;
            }
            if best.is_none_or(|(_, d)| sum < d) {
                best = Some((cand, sum));
            }
        }
        Ok(best.expect("candidate list is non-empty").0)
    }
}

/// The middle qubit of the hop-shortest path from `pa` to `pb`, two hops
/// apart: the lowest-index neighbor of `pa` at distance 1 from `pb`,
/// which is the qubit `topo.shortest_path(pa, pb)[1]` returns, found
/// without building the path.
fn bridge_middle(topo: &Topology, pa: usize, pb: usize) -> Option<usize> {
    topo.neighbors(pa)
        .find(|&m| topo.distance(m, pb) == Some(1))
}

/// The weighted shortest paths of one routing run: the metric, every
/// path found so far by its ordered endpoints, and the buffers the
/// searches run in.
struct WeightedPaths {
    table: WeightTable,
    /// Where each ordered pair's path lies in `arena`, as `start..end`.
    memo: HashMap<(usize, usize), (usize, usize)>,
    /// Every path found so far, end to end, so the run's searches share
    /// one buffer instead of allocating one each.
    arena: Vec<usize>,
    scratch: SearchScratch,
}

impl WeightedPaths {
    /// Writes the weighted shortest path from `a` to `b` into `path`,
    /// searched once per ordered pair and run; `false` if there is none.
    fn path_into(&mut self, topo: &Topology, a: usize, b: usize, path: &mut Vec<usize>) -> bool {
        if let Some(&(start, end)) = self.memo.get(&(a, b)) {
            path.clear();
            path.extend_from_slice(&self.arena[start..end]);
            return true;
        }
        let table = &self.table;
        let weight = |x, y| table.weight(x, y);
        if topo
            .shortest_path_weighted_into(a, b, &weight, &mut self.scratch, path)
            .is_none()
        {
            return false;
        }
        let start = self.arena.len();
        self.arena.extend_from_slice(path);
        self.memo.insert((a, b), (start, self.arena.len()));
        true
    }
}

/// A [`PathMetric::EdgeWeights`] metric laid out by adjacency slot, so a
/// Dijkstra relaxation reads its edge's weight from the row of the qubit
/// it leaves instead of hashing the edge. Built once per routing run.
///
/// A row holds a qubit's few neighbors, so searching it is cheaper than
/// a binary search of the whole [`Topology::edges`] list per relaxation.
struct WeightTable {
    /// Qubit `u`'s neighbors and their edge weights are entries
    /// `offsets[u]..offsets[u + 1]` of `neighbors` and `weights`, in
    /// ascending neighbor order.
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
    weights: Vec<f64>,
}

impl WeightTable {
    /// Lays out `weights`, one per edge of `topo.edges()` in that order.
    fn new(topo: &Topology, weights: &[f64]) -> Result<Self, RouteError> {
        let edges = topo.edges();
        if weights.len() != edges.len() {
            return Err(RouteError::InvalidOptions {
                reason: format!(
                    "{} edge weights supplied for a topology with {} edges",
                    weights.len(),
                    edges.len()
                ),
            });
        }
        if let Some((edge, weight)) = edges
            .iter()
            .zip(weights)
            .find(|(_, w)| !(w.is_finite() && **w >= 0.0))
        {
            return Err(RouteError::InvalidOptions {
                reason: format!(
                    "edge {}-{} has weight {weight}; weights must be finite and non-negative",
                    edge.0, edge.1
                ),
            });
        }
        let n = topo.num_qubits();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * edges.len());
        offsets.push(0);
        for u in 0..n {
            neighbors.extend(topo.neighbors(u));
            offsets.push(neighbors.len());
        }
        let mut table = WeightTable {
            offsets,
            weights: vec![0.0; neighbors.len()],
            neighbors,
        };
        for (&(a, b), &weight) in edges.iter().zip(weights) {
            let (ab, ba) = (table.slot(a, b), table.slot(b, a));
            table.weights[ab] = weight;
            table.weights[ba] = weight;
        }
        Ok(table)
    }

    /// The index of edge `u`–`v` in `u`'s row.
    fn slot(&self, u: usize, v: usize) -> usize {
        let start = self.offsets[u];
        let row = &self.neighbors[start..self.offsets[u + 1]];
        start
            + row
                .binary_search(&v)
                .expect("weights are only read for coupling edges")
    }

    /// The weight of edge `u`–`v`.
    fn weight(&self, u: usize, v: usize) -> f64 {
        self.weights[self.slot(u, v)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint 2-qubit components: 0–1 and 2–3.
    fn split_topology() -> Topology {
        Topology::from_edges("split-2x2", 4, &[(0, 1), (2, 3)]).unwrap()
    }

    fn window_cost_of(topo: &Topology, upcoming: &VecDeque<Instruction>) -> f64 {
        let circuit = Circuit::new(topo.num_qubits());
        let options = RouterOptions::deterministic();
        let layout = Layout::trivial(topo.num_qubits(), topo.num_qubits());
        let engine = RoutingEngine::new(topo, layout.clone(), &options, &circuit).unwrap();
        engine.window_cost(&layout, upcoming, LookaheadConfig::default())
    }

    #[test]
    fn window_cost_penalizes_disconnected_pairs() {
        // Regression: a gate across the two components used to score 0
        // (free) via unwrap_or(0); it must score a large finite penalty,
        // strictly above any connected gate's cost.
        let topo = split_topology();
        let disconnected: VecDeque<Instruction> =
            [Instruction::new(Gate::Cx, &[Qubit::new(1), Qubit::new(2)])]
                .into_iter()
                .collect();
        let adjacent: VecDeque<Instruction> =
            [Instruction::new(Gate::Cx, &[Qubit::new(0), Qubit::new(1)])]
                .into_iter()
                .collect();
        let bad = window_cost_of(&topo, &disconnected);
        let good = window_cost_of(&topo, &adjacent);
        assert!(bad.is_finite());
        assert!(
            bad >= 2.0 * topo.num_qubits() as f64,
            "disconnected pair must outcost any reachable placement, got {bad}"
        );
        assert_eq!(good, 0.0, "an adjacent pair costs nothing");
        assert!(bad > good);
    }

    #[test]
    fn window_cost_penalizes_disconnected_trios() {
        let topo = split_topology();
        let trio: VecDeque<Instruction> = [Instruction::new(
            Gate::Ccx,
            &[Qubit::new(0), Qubit::new(1), Qubit::new(2)],
        )]
        .into_iter()
        .collect();
        let bad = window_cost_of(&topo, &trio);
        assert!(bad.is_finite());
        // 2n strictly exceeds the worst reachable trio gather cost
        // (2n − 4), so even a maximally spread *connected* trio can never
        // outcost a disconnected one.
        assert!(bad >= 2.0 * topo.num_qubits() as f64, "got {bad}");
    }

    #[test]
    fn unknown_decomposer_is_rejected_at_engine_construction() {
        let topo = trios_topology::line(3);
        let circuit = Circuit::new(3);
        let options = RouterOptions {
            decomposer: trios_passes::DecomposerHandle::named("nope"),
            ..RouterOptions::deterministic()
        };
        let err = match RoutingEngine::new(&topo, Layout::trivial(3, 3), &options, &circuit) {
            Err(e) => e,
            Ok(_) => panic!("unknown decomposer must not build"),
        };
        assert!(matches!(err, RouteError::InvalidOptions { .. }));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn cost_model_only_decomposer_is_rejected_when_lowering() {
        let topo = trios_topology::line(3);
        let circuit = Circuit::new(3);
        let options = RouterOptions {
            decomposer: trios_passes::DecomposerHandle::named("qutrit"),
            ..RouterOptions::deterministic()
        };
        let err = match RoutingEngine::new(&topo, Layout::trivial(3, 3), &options, &circuit) {
            Err(e) => e,
            Ok(_) => panic!("cost-model-only decomposer must not lower"),
        };
        assert!(err.to_string().contains("cost-model-only"));

        // With lowering off the router never asks it for gates, so it is
        // allowed (e.g. for routing-only inspection runs).
        let options = RouterOptions {
            decomposer: trios_passes::DecomposerHandle::named("qutrit"),
            lower_toffoli: false,
            ..RouterOptions::deterministic()
        };
        assert!(RoutingEngine::new(&topo, Layout::trivial(3, 3), &options, &circuit).is_ok());
    }

    /// An engine over `topo` with `metric`, or the error building it.
    fn weighted_engine<'a>(
        topo: &'a Topology,
        options: &'a RouterOptions,
    ) -> Result<RoutingEngine<'a>, RouteError> {
        let n = topo.num_qubits();
        RoutingEngine::new(topo, Layout::trivial(n, n), options, &Circuit::new(n))
    }

    #[test]
    fn malformed_edge_weights_are_invalid_options() {
        let topo = trios_topology::grid(3, 2);
        assert_eq!(topo.num_edges(), 7);
        let mut nan = vec![1.0; 7];
        nan[3] = f64::NAN;
        let mut negative = vec![1.0; 7];
        negative[6] = -1.0;
        let mut infinite = vec![1.0; 7];
        infinite[0] = f64::INFINITY;
        for (weights, says) in [
            (
                vec![1.0; 3],
                "3 edge weights supplied for a topology with 7 edges",
            ),
            (
                vec![1.0; 8],
                "8 edge weights supplied for a topology with 7 edges",
            ),
            (nan, "edge 1-4 has weight NaN"),
            (negative, "edge 4-5 has weight -1"),
            (infinite, "edge 0-1 has weight inf"),
        ] {
            let options = RouterOptions {
                metric: PathMetric::EdgeWeights(weights),
                ..RouterOptions::deterministic()
            };
            match weighted_engine(&topo, &options) {
                Err(RouteError::InvalidOptions { reason }) => {
                    assert!(reason.contains(says), "{reason}")
                }
                Err(other) => panic!("{says}: wrong error {other}"),
                Ok(_) => panic!("{says}: accepted"),
            }
        }
        let options = RouterOptions {
            metric: PathMetric::EdgeWeights(vec![0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            ..RouterOptions::deterministic()
        };
        assert!(weighted_engine(&topo, &options).is_ok());
    }

    #[test]
    fn weighted_paths_match_a_lookup_of_each_edge_in_a_map() {
        // The table must answer every Dijkstra exactly as a per-call map
        // lookup of the canonical edge did, ties included: weights come
        // from a few repeated values (zero among them) and a few random
        // ones. Every ordered pair is asked twice, so the second round
        // reads only the memo, and each answer is checked against a new
        // search from that pair's first endpoint. On the square 0-1-3-2-0
        // the two routes between 0 and 3 tie, and the search from 0 takes
        // 0-2-3 where the one from 3 takes 3-1-0: the memo must not answer
        // one pair with the other reversed.
        let square = Topology::from_edges("square", 4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let mut devices = vec![("square", square, vec![1.0, 0.0, 0.0, 1.0])];
        for spec in ["johannesburg", "grid", "line", "clusters", "heavy-hex:127"] {
            let topo = trios_topology::parse_spec(spec).unwrap();
            let mut rng = StdRng::seed_from_u64(topo.num_edges() as u64);
            let weights: Vec<f64> = (0..topo.num_edges())
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.25,
                    1 => 0.0,
                    _ => rng.gen_range(0.0..2.0),
                })
                .collect();
            devices.push((spec, topo, weights));
        }
        for (spec, topo, weights) in devices {
            let map: std::collections::HashMap<(usize, usize), f64> = topo
                .edges()
                .iter()
                .copied()
                .zip(weights.iter().copied())
                .collect();
            let options = RouterOptions {
                metric: PathMetric::EdgeWeights(weights),
                ..RouterOptions::deterministic()
            };
            let mut engine = weighted_engine(&topo, &options).unwrap();
            let by_map = |x: usize, y: usize| *map.get(&(x.min(y), x.max(y))).unwrap_or(&1.0);
            if spec == "square" {
                assert_eq!(engine.path(0, 3), Ok(vec![0, 2, 3]));
                assert_eq!(engine.path(3, 0), Ok(vec![3, 1, 0]));
            }
            let n = topo.num_qubits();
            for round in ["searched", "memoized"] {
                for a in 0..n {
                    for b in 0..n {
                        let expected = topo
                            .shortest_path_weighted(a, b, &by_map)
                            .map(|(path, _)| path)
                            .ok_or(RouteError::Disconnected { a, b });
                        assert_eq!(engine.path(a, b), expected, "{spec}: {a} -> {b}, {round}");
                    }
                }
            }
        }
    }

    /// Every named spec, some parameterized ones, both complete
    /// families, and a device in two components.
    fn search_devices() -> Vec<Topology> {
        let mut devices: Vec<Topology> = [
            "johannesburg",
            "heavy-hex",
            "grid",
            "line",
            "clusters",
            "grid:5x5",
            "heavy-hex:127",
            "full:6",
            "alltoall:6",
        ]
        .into_iter()
        .map(|spec| trios_topology::parse_spec(spec).unwrap())
        .collect();
        devices.push(split_topology());
        devices
    }

    #[test]
    fn weighted_search_in_kept_buffers_answers_as_the_allocating_one() {
        // Under the noise router's sampled weights, every ordered pair is
        // searched twice through one scratch and one path buffer, so an
        // entry left stale by an earlier search would show.
        for topo in search_devices() {
            let errors = trios_noise::Calibration::johannesburg_2020_08_19().sampled_edge_errors(
                topo.num_edges(),
                crate::NOISE_AWARE_DEFAULT_SPREAD,
                topo.num_qubits() as u64,
            );
            let PathMetric::EdgeWeights(sampled) = PathMetric::from_edge_errors(&errors) else {
                unreachable!("edge errors make edge weights")
            };
            let table = WeightTable::new(&topo, &sampled).unwrap();
            let weight = |u: usize, v: usize| table.weight(u, v);
            let mut scratch = SearchScratch::new();
            let mut path = vec![usize::MAX; 3];
            let n = topo.num_qubits();
            for round in ["first", "second"] {
                for a in 0..n {
                    for b in 0..n {
                        let cost = topo.shortest_path_weighted_into(
                            a,
                            b,
                            &weight,
                            &mut scratch,
                            &mut path,
                        );
                        let (want_path, want_cost) =
                            match topo.shortest_path_weighted(a, b, &weight) {
                                Some((p, c)) => (p, Some(c.to_bits())),
                                None => (Vec::new(), None),
                            };
                        assert_eq!(cost.map(f64::to_bits), want_cost, "{topo}: {a} -> {b}");
                        assert_eq!(path, want_path, "{topo}: {a} -> {b}, {round}");
                    }
                }
            }
        }
    }

    #[test]
    fn bridge_middle_is_the_second_qubit_of_the_hop_path() {
        for spec in ["johannesburg", "grid:5x5", "heavy-hex:127"] {
            let topo = trios_topology::parse_spec(spec).unwrap();
            let n = topo.num_qubits();
            let mut pairs = 0;
            for pa in 0..n {
                for pb in (0..n).filter(|&pb| topo.distance(pa, pb) == Some(2)) {
                    let path = topo.shortest_path(pa, pb).unwrap();
                    assert_eq!(
                        bridge_middle(&topo, pa, pb),
                        Some(path[1]),
                        "{spec}: {pa} -> {pb}"
                    );
                    pairs += 1;
                }
            }
            assert!(pairs > 0, "{spec} has pairs two hops apart");
        }
    }

    #[test]
    fn window_cost_still_prefers_closer_reachable_placements() {
        // On a connected line, the penalty path is never taken and nearer
        // placements stay cheaper.
        let topo = trios_topology::line(5);
        let far: VecDeque<Instruction> =
            [Instruction::new(Gate::Cx, &[Qubit::new(0), Qubit::new(4)])]
                .into_iter()
                .collect();
        let near: VecDeque<Instruction> =
            [Instruction::new(Gate::Cx, &[Qubit::new(0), Qubit::new(2)])]
                .into_iter()
                .collect();
        assert!(window_cost_of(&topo, &far) > window_cost_of(&topo, &near));
    }
}
