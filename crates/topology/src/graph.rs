//! [`Topology`]: an undirected qubit coupling graph whose hop distances
//! are computed one source row at a time, on first use.

use crate::TopologyError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// How three routed qubits sit in the coupling graph — determines which
/// Toffoli decomposition the mapping-aware pass picks (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripleShape {
    /// All three pairs connected: the 6-CNOT decomposition applies directly.
    Triangle,
    /// A path `a – middle – b`: the 8-CNOT decomposition applies with
    /// `middle` as the middle qubit.
    Line {
        /// The qubit adjacent to both others.
        middle: usize,
    },
    /// Fewer than two pairs connected: not a valid routed trio.
    Disconnected,
}

/// Per-coupling-edge cost model of an implicitly-stored device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkCost {
    /// Every coupling costs the same (superconducting-style).
    Uniform,
    /// Coupling `a`–`b` costs `|a − b|`: the ion-shuttling model of a
    /// linear-trap all-to-all device, where any pair can interact but
    /// distant ions pay transport proportional to their separation.
    LinearShuttle,
}

/// Internal storage: explicit adjacency + lazily filled BFS distance rows
/// for sparse hardware graphs, or a closed-form complete graph for
/// all-to-all devices. A 1000-qubit all-to-all device has ~500k edges;
/// storing (or BFS-ing) them is pure waste when every distance is 0 or 1,
/// so the complete representation materializes nothing.
#[derive(Debug)]
enum Repr {
    Explicit {
        adj: Vec<Vec<usize>>,
        edges: Vec<(usize, usize)>,
        /// `rows[s][q]` is the hop distance from `s` to `q`. Each row is
        /// one BFS, run the first time a query needs it: routing only
        /// asks about the qubits around a circuit's footprint, so a
        /// kiloqubit device never pays for the n² distances it would
        /// never read.
        rows: Box<[OnceLock<Box<[u32]>>]>,
    },
    Complete {
        cost: LinkCost,
        /// Materialized only if a caller insists on an edge *list*
        /// (noise-aware per-edge error vectors do); closed-form paths
        /// never touch it.
        edges: OnceLock<Vec<(usize, usize)>>,
    },
}

impl Clone for Repr {
    fn clone(&self) -> Self {
        match self {
            // Filled rows are copied: a memcpy is cheaper than the BFS.
            Repr::Explicit { adj, edges, rows } => Repr::Explicit {
                adj: adj.clone(),
                edges: edges.clone(),
                rows: rows.clone(),
            },
            // The lazy edge cache is derived state: a clone starts cold.
            Repr::Complete { cost, .. } => Repr::Complete {
                cost: *cost,
                edges: OnceLock::new(),
            },
        }
    }
}

/// An undirected hardware coupling graph.
///
/// Two-qubit gates may only execute across edges of this graph; the routing
/// passes insert SWAPs to satisfy that constraint. Sparse devices keep one
/// distance row per source qubit and fill it with a BFS the first time a
/// query reads it, so construction is `O(n + m)` and memory grows only
/// with the rows a workload touches. Rows fill at most once, also when
/// threads sharing one topology race for the same row. All-to-all
/// devices ([`Topology::complete`]) answer every query in closed form
/// and never materialize their ~n²/2 edges.
///
/// # Examples
///
/// ```
/// use trios_topology::line;
///
/// let device = line(5);
/// assert_eq!(device.distance(0, 4), Some(4));
/// assert!(device.are_adjacent(2, 3));
/// assert_eq!(device.shortest_path(0, 3), Some(vec![0, 1, 2, 3]));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    num_qubits: usize,
    repr: Repr,
    /// [`Topology::structural_hash`], computed once at construction.
    hash: u64,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.num_qubits == other.num_qubits
            && match (&self.repr, &other.repr) {
                (Repr::Explicit { edges: a, .. }, Repr::Explicit { edges: b, .. }) => a == b,
                (Repr::Complete { cost: a, .. }, Repr::Complete { cost: b, .. }) => a == b,
                _ => false,
            }
    }
}

impl Eq for Topology {}

/// Iterator over the neighbors of a qubit, in ascending order.
///
/// Sparse topologies yield from their adjacency list; complete topologies
/// yield `0..n` minus the qubit itself without materializing anything.
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: NeighborsInner<'a>,
}

#[derive(Debug, Clone)]
enum NeighborsInner<'a> {
    Slice(std::slice::Iter<'a, usize>),
    Complete { n: usize, skip: usize, next: usize },
}

impl Iterator for Neighbors<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match &mut self.inner {
            NeighborsInner::Slice(it) => it.next().copied(),
            NeighborsInner::Complete { n, skip, next } => {
                if *next == *skip {
                    *next += 1;
                }
                if *next >= *n {
                    return None;
                }
                let v = *next;
                *next += 1;
                Some(v)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            NeighborsInner::Slice(it) => it.size_hint(),
            NeighborsInner::Complete { n, skip, next } => {
                let mut remaining = n.saturating_sub(*next);
                if *next <= *skip && *skip < *n {
                    remaining -= 1;
                }
                (remaining, Some(remaining))
            }
        }
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

const UNREACHABLE: u32 = u32::MAX;

impl Topology {
    /// Builds a topology from an undirected edge list.
    ///
    /// Edges are deduplicated; `(a, b)` and `(b, a)` are the same edge.
    /// Deduplication is sort-based (`O(m log m)`), so half-million-edge
    /// lists construct in well under a second — the linear-scan version
    /// this replaced was `O(m²)` and effectively hung on them.
    ///
    /// # Errors
    ///
    /// Returns an error for zero qubits, out-of-range endpoints, or
    /// self-loops.
    pub fn from_edges(
        name: impl Into<String>,
        num_qubits: usize,
        edges: &[(usize, usize)],
    ) -> Result<Self, TopologyError> {
        if num_qubits == 0 {
            return Err(TopologyError::Empty);
        }
        let mut canon: Vec<(usize, usize)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if a == b {
                return Err(TopologyError::SelfLoop { qubit: a });
            }
            for q in [a, b] {
                if q >= num_qubits {
                    return Err(TopologyError::InvalidQubit {
                        qubit: q,
                        num_qubits,
                    });
                }
            }
            canon.push((a.min(b), a.max(b)));
        }
        canon.sort_unstable();
        canon.dedup();
        let mut adj = vec![Vec::new(); num_qubits];
        for &(a, b) in &canon {
            adj[a].push(b);
            adj[b].push(a);
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        let repr = Repr::Explicit {
            adj,
            edges: canon,
            rows: (0..num_qubits).map(|_| OnceLock::new()).collect(),
        };
        Ok(Topology::new(name.into(), num_qubits, repr))
    }

    /// A fully connected device with unit-cost couplings, stored
    /// implicitly: no edge list, no BFS, every query closed-form.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn complete(name: impl Into<String>, n: usize) -> Self {
        Topology::complete_with_cost(name, n, LinkCost::Uniform)
    }

    /// A fully connected ion-trap-style device where coupling `a`–`b`
    /// costs `|a − b|` (linear shuttling distance). Stored implicitly
    /// like [`Topology::complete`]; [`Topology::link_cost`] and
    /// [`Topology::cost_distance`] expose the weights.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn complete_linear_cost(name: impl Into<String>, n: usize) -> Self {
        Topology::complete_with_cost(name, n, LinkCost::LinearShuttle)
    }

    fn complete_with_cost(name: impl Into<String>, n: usize, cost: LinkCost) -> Self {
        assert!(n > 0, "device size must be positive");
        let repr = Repr::Complete {
            cost,
            edges: OnceLock::new(),
        };
        Topology::new(name.into(), n, repr)
    }

    fn new(name: String, num_qubits: usize, repr: Repr) -> Self {
        let mut topology = Topology {
            name,
            num_qubits,
            repr,
            hash: 0,
        };
        topology.hash = topology.hash_structure();
        topology
    }

    /// The hop distances from `source` to every qubit, running the BFS
    /// that fills the row if no query has needed it yet. `None` for
    /// complete devices, whose distances are closed-form.
    fn row(&self, source: usize) -> Option<&[u32]> {
        match &self.repr {
            Repr::Explicit { adj, rows, .. } => {
                Some(rows[source].get_or_init(|| bfs_row(adj, source)))
            }
            Repr::Complete { .. } => None,
        }
    }

    /// Human-readable device name (e.g. `"ibmq-johannesburg"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of coupling edges. Closed-form for complete devices —
    /// prefer this over `edges().len()`, which would materialize them.
    pub fn num_edges(&self) -> usize {
        match &self.repr {
            Repr::Explicit { edges, .. } => edges.len(),
            Repr::Complete { .. } => self.num_qubits * (self.num_qubits - 1) / 2,
        }
    }

    /// Canonical (a < b) undirected edge list, sorted.
    ///
    /// For complete devices this materializes all `n(n−1)/2` edges on
    /// first call (and caches them) — only per-edge consumers like
    /// noise-calibration vectors need it; routing never calls this.
    pub fn edges(&self) -> &[(usize, usize)] {
        match &self.repr {
            Repr::Explicit { edges, .. } => edges,
            Repr::Complete { edges, .. } => edges.get_or_init(|| {
                let n = self.num_qubits;
                let mut all = Vec::with_capacity(n * (n - 1) / 2);
                for a in 0..n {
                    for b in a + 1..n {
                        all.push((a, b));
                    }
                }
                all
            }),
        }
    }

    /// Neighbors of `q`, in ascending order.
    pub fn neighbors(&self, q: usize) -> Neighbors<'_> {
        let inner = match &self.repr {
            Repr::Explicit { adj, .. } => NeighborsInner::Slice(adj[q].iter()),
            Repr::Complete { .. } => NeighborsInner::Complete {
                n: self.num_qubits,
                skip: q,
                next: 0,
            },
        };
        Neighbors { inner }
    }

    /// Degree of `q`.
    pub fn degree(&self, q: usize) -> usize {
        match &self.repr {
            Repr::Explicit { adj, .. } => adj[q].len(),
            Repr::Complete { .. } => self.num_qubits - 1,
        }
    }

    /// `true` if `a` and `b` share an edge.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        match &self.repr {
            Repr::Explicit { adj, .. } => adj[a].binary_search(&b).is_ok(),
            Repr::Complete { .. } => a != b && a < self.num_qubits && b < self.num_qubits,
        }
    }

    /// Hop distance between `a` and `b` (`Some(0)` when equal), or `None`
    /// if disconnected.
    ///
    /// Reads the row of `b`, like [`Topology::shortest_path`], so a
    /// distance test followed by a path query fills one row, not two.
    pub fn distance(&self, a: usize, b: usize) -> Option<usize> {
        match self.row(b) {
            Some(row) => (row[a] != UNREACHABLE).then_some(row[a] as usize),
            None => Some(usize::from(a != b)),
        }
    }

    /// Cost of the direct coupling `a`–`b`, or `None` if not adjacent.
    ///
    /// Explicitly-built devices have unit-cost couplings; complete
    /// ion-trap devices ([`Topology::complete_linear_cost`]) charge
    /// `|a − b|` shuttling distance.
    pub fn link_cost(&self, a: usize, b: usize) -> Option<f64> {
        if !self.are_adjacent(a, b) {
            return None;
        }
        Some(match &self.repr {
            Repr::Explicit { .. } => 1.0,
            Repr::Complete { cost, .. } => match cost {
                LinkCost::Uniform => 1.0,
                LinkCost::LinearShuttle => a.abs_diff(b) as f64,
            },
        })
    }

    /// Cheapest-path distance under the device's intrinsic link costs
    /// (`Some(0.0)` when equal), or `None` if disconnected.
    ///
    /// For unit-cost devices this equals the hop distance; for an
    /// ion-trap all-to-all device it is the `|a − b|` shuttling distance
    /// (the direct link, which the triangle inequality makes optimal).
    /// Placement uses this so hot pairs land on *cheap* couplings, not
    /// merely few hops apart.
    pub fn cost_distance(&self, a: usize, b: usize) -> Option<f64> {
        match &self.repr {
            Repr::Explicit { .. } => self.distance(a, b).map(|d| d as f64),
            Repr::Complete { cost, .. } => Some(match cost {
                LinkCost::Uniform => f64::from(a != b),
                LinkCost::LinearShuttle => a.abs_diff(b) as f64,
            }),
        }
    }

    /// `true` if every qubit can reach every other. Fills only row 0.
    pub fn is_connected(&self) -> bool {
        self.row(0)
            .is_none_or(|row| row.iter().all(|&d| d != UNREACHABLE))
    }

    /// A shortest path from `a` to `b` inclusive, or `None` if disconnected.
    ///
    /// Ties are broken toward lower qubit indices, so routing — and
    /// anything keyed on routed output, like compilation caches — is
    /// reproducible regardless of how the adjacency lists happen to be
    /// ordered.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        let Repr::Explicit { adj, .. } = &self.repr else {
            return Some(if a == b { vec![a] } else { vec![a, b] });
        };
        // Distances are symmetric, so the row of the target `b` holds
        // every `d(v, b)` the walk needs: one row per query, not one per
        // hop.
        let to_b = self.row(b).expect("explicit devices have distance rows");
        if to_b[a] == UNREACHABLE {
            return None;
        }
        // Walk greedily from a toward b along those distances. The qubit
        // index is part of the key: `min_by_key` alone would resolve
        // equal-distance neighbors by iteration order, which is an
        // accident of adjacency-list construction, not a guarantee.
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            let next = *adj[cur]
                .iter()
                .min_by_key(|&&v| (to_b[v], v))
                .expect("connected node has neighbors");
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// Dijkstra shortest path under a per-edge weight function (used by
    /// noise-aware routing with `w = −log(1 − e2q)`), or `None` if
    /// disconnected.
    ///
    /// Binary-heap extraction (`O(m log n)`); the linear-scan extraction
    /// this replaced was `O(n²)` per query, which dominated noise-aware
    /// setup on kiloqubit devices. Weights must be non-negative; ties
    /// break toward lower indices, exactly as the linear scan did.
    pub fn shortest_path_weighted(
        &self,
        a: usize,
        b: usize,
        weight: &dyn Fn(usize, usize) -> f64,
    ) -> Option<(Vec<usize>, f64)> {
        let n = self.num_qubits;
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut done = vec![false; n];
        let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
        dist[a] = 0.0;
        heap.push(Reverse(HeapEntry { cost: 0.0, node: a }));
        while let Some(Reverse(HeapEntry { node: u, .. })) = heap.pop() {
            if u == b {
                break;
            }
            if done[u] {
                continue;
            }
            done[u] = true;
            for v in self.neighbors(u) {
                let w = weight(u, v);
                debug_assert!(w >= 0.0, "edge weights must be non-negative");
                let nd = dist[u] + w;
                if nd < dist[v] - 1e-15 {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Reverse(HeapEntry { cost: nd, node: v }));
                }
            }
        }
        if dist[b].is_infinite() {
            return None;
        }
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some((path, dist[b]))
    }

    /// Single-source Dijkstra distances under a per-edge weight function:
    /// `result[b]` is the weighted distance from `source` to `b`
    /// (`f64::INFINITY` when unreachable, `0.0` at the source).
    ///
    /// One call computes what `num_qubits` calls of
    /// [`Topology::shortest_path_weighted`] from the same source would —
    /// the all-pairs reliability matrix of the noise-aware mapper costs
    /// `O(n)` heap-based Dijkstra runs (`O(m log n)` each) instead of
    /// `O(n)` linear-extraction runs at `O(n²)` each.
    ///
    /// Weights must be non-negative.
    pub fn weighted_distances_from(
        &self,
        source: usize,
        weight: &dyn Fn(usize, usize) -> f64,
    ) -> Vec<f64> {
        let n = self.num_qubits;
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
        dist[source] = 0.0;
        heap.push(Reverse(HeapEntry {
            cost: 0.0,
            node: source,
        }));
        while let Some(Reverse(HeapEntry { node: u, .. })) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            for v in self.neighbors(u) {
                let w = weight(u, v);
                debug_assert!(w >= 0.0, "edge weights must be non-negative");
                let nd = dist[u] + w;
                if nd < dist[v] - 1e-15 {
                    dist[v] = nd;
                    heap.push(Reverse(HeapEntry { cost: nd, node: v }));
                }
            }
        }
        dist
    }

    /// The gather cost of a qubit triple: the minimum, over the choice of a
    /// destination qubit among the three, of the summed distances from the
    /// other two to it. This is the paper's "total swap distance" label on
    /// the Figure 6/7 x-axis and the metric the Trios router minimizes when
    /// picking the destination.
    pub fn triple_distance(&self, a: usize, b: usize, c: usize) -> Option<usize> {
        self.best_gather_destination(a, b, c).map(|(_, d)| d)
    }

    /// Chooses the destination qubit for gathering a trio: the operand with
    /// the smallest summed distance to the other two (paper §4). Ties break
    /// toward the earlier operand, so routing is deterministic.
    ///
    /// Returns `(destination, summed distance)` or `None` if any pair is
    /// disconnected.
    pub fn best_gather_destination(&self, a: usize, b: usize, c: usize) -> Option<(usize, usize)> {
        let ab = self.distance(a, b)?;
        let ac = self.distance(a, c)?;
        let bc = self.distance(b, c)?;
        let candidates = [(a, ab + ac), (b, ab + bc), (c, ac + bc)];
        candidates.into_iter().min_by_key(|&(_, d)| d)
    }

    /// Classifies how a routed triple sits in the graph.
    pub fn triple_shape(&self, a: usize, b: usize, c: usize) -> TripleShape {
        let ab = self.are_adjacent(a, b);
        let ac = self.are_adjacent(a, c);
        let bc = self.are_adjacent(b, c);
        match (ab, ac, bc) {
            (true, true, true) => TripleShape::Triangle,
            (true, true, false) => TripleShape::Line { middle: a },
            (true, false, true) => TripleShape::Line { middle: b },
            (false, true, true) => TripleShape::Line { middle: c },
            _ => TripleShape::Disconnected,
        }
    }

    /// The longest shortest path in the graph, or `None` when disconnected.
    ///
    /// The diameter bounds the worst-case SWAP chain any router can be
    /// forced into; the paper's Figure 6/7 x-axis ("total swap distance")
    /// tops out near twice this value. Reads every pair, so it fills the
    /// distance rows.
    pub fn diameter(&self) -> Option<usize> {
        if let Repr::Complete { .. } = &self.repr {
            return Some(usize::from(self.num_qubits > 1));
        }
        let mut best = 0usize;
        for a in 0..self.num_qubits() {
            for b in (a + 1)..self.num_qubits() {
                best = best.max(self.distance(a, b)?);
            }
        }
        Some(best)
    }

    /// Mean pairwise shortest-path distance, or `None` when disconnected
    /// (or for graphs with fewer than two qubits).
    ///
    /// A single-number proxy for expected routing cost: the paper's §6.1
    /// ordering of topology benefit (line > grid ≳ Johannesburg > clusters)
    /// tracks this metric. Reads every pair, so it fills the distance rows.
    pub fn mean_distance(&self) -> Option<f64> {
        let n = self.num_qubits();
        if n < 2 {
            return None;
        }
        if let Repr::Complete { .. } = &self.repr {
            return Some(1.0);
        }
        let mut sum = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                sum += self.distance(a, b)?;
            }
        }
        Some(sum as f64 / (n * (n - 1) / 2) as f64)
    }

    /// A 64-bit FNV-1a hash of the coupling structure: the qubit count and
    /// the canonical (deduplicated, `a < b`, sorted) edge list.
    ///
    /// The device *name* is excluded — two devices with the same coupling
    /// graph compile every circuit identically, so they must key the same
    /// compilation-cache entries. The hash is a pure function of the
    /// structure, stable across runs and platforms. Complete devices hash
    /// their closed form (count plus cost model — an ion-trap all-to-all
    /// and a unit-cost full graph place circuits differently, so they must
    /// not share cache entries) without materializing edges.
    ///
    /// Computed once at construction; this is a field read.
    pub fn structural_hash(&self) -> u64 {
        self.hash
    }

    fn hash_structure(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let write_u64 = |mut h: u64, word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
            h
        };
        let mut h = OFFSET;
        h = write_u64(h, self.num_qubits as u64);
        h = write_u64(h, self.num_edges() as u64);
        match &self.repr {
            Repr::Explicit { edges, .. } => {
                for &(a, b) in edges {
                    h = write_u64(h, a as u64);
                    h = write_u64(h, b as u64);
                }
            }
            Repr::Complete { cost, .. } => {
                // A distinct marker word keeps the closed form from
                // colliding with any explicit edge list prefix.
                h = write_u64(h, 0xC0CC_0000_0000_0001);
                h = write_u64(
                    h,
                    match cost {
                        LinkCost::Uniform => 0,
                        LinkCost::LinearShuttle => 1,
                    },
                );
            }
        }
        h
    }

    /// `true` if the graph contains at least one triangle.
    ///
    /// On triangle-free devices (Johannesburg, grids, lines, heavy-hex)
    /// the 6-CNOT Toffoli always needs extra SWAPs — the paper's central
    /// observation.
    pub fn has_triangle(&self) -> bool {
        match &self.repr {
            Repr::Explicit { adj, edges, .. } => edges
                .iter()
                .any(|&(a, b)| adj[a].iter().any(|&c| c != b && self.are_adjacent(b, c))),
            Repr::Complete { .. } => self.num_qubits >= 3,
        }
    }
}

/// Heap entry ordered by `(cost, node)` — the node index tie-break keeps
/// Dijkstra's settling order identical to the old lowest-index linear
/// scan, so weighted routing stays byte-for-byte reproducible.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .total_cmp(&other.cost)
            .then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} edges)",
            self.name,
            self.num_qubits,
            self.num_edges()
        )
    }
}

/// Hop distances from `source` to every qubit ([`UNREACHABLE`] across
/// components): one BFS over the adjacency lists.
fn bfs_row(adj: &[Vec<usize>], source: usize) -> Box<[u32]> {
    let mut row = vec![UNREACHABLE; adj.len()].into_boxed_slice();
    row[source] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if row[v] == UNREACHABLE {
                row[v] = row[u] + 1;
                queue.push_back(v);
            }
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Topology {
        Topology::from_edges("p4", 4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    fn filled_rows(t: &Topology) -> Vec<usize> {
        match &t.repr {
            Repr::Explicit { rows, .. } => (0..rows.len())
                .filter(|&s| rows[s].get().is_some())
                .collect(),
            Repr::Complete { .. } => Vec::new(),
        }
    }

    #[test]
    fn distance_rows_fill_only_when_a_query_needs_them() {
        let t = crate::heavy_hex(21);
        assert!(filled_rows(&t).is_empty(), "construction runs no BFS");
        // A distance test and the path query that follows it share the
        // row of their target.
        assert_eq!(t.distance(3, 700), t.distance(700, 3));
        assert_eq!(filled_rows(&t), [3, 700]);
        let path = t.shortest_path(5, 700).unwrap();
        assert_eq!(path.len(), t.distance(5, 700).unwrap() + 1);
        assert_eq!(filled_rows(&t), [3, 700]);
        assert!(t.is_connected());
        assert_eq!(filled_rows(&t), [0, 3, 700]);
        // Clones keep the rows already filled.
        assert_eq!(filled_rows(&t.clone()), [0, 3, 700]);
        // Whole-graph summaries fill every row.
        assert!(t.diameter().is_some());
        assert_eq!(filled_rows(&t).len(), t.num_qubits());
    }

    #[test]
    fn threads_racing_for_cold_rows_all_get_the_same_answers() {
        use std::sync::{Arc, Barrier};
        const TARGETS: [usize; 4] = [0, 17, 216, 432];
        fn answers(t: &Topology) -> Vec<(Option<usize>, Option<Vec<usize>>)> {
            let mut out = Vec::new();
            for b in TARGETS {
                for a in (0..t.num_qubits()).step_by(7) {
                    out.push((t.distance(a, b), t.shortest_path(a, b)));
                }
            }
            out
        }
        let shared = Arc::new(crate::heavy_hex(13));
        let expected = answers(&crate::heavy_hex(13));
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (t, barrier) = (Arc::clone(&shared), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    answers(&t)
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), expected);
        }
        assert_eq!(filled_rows(&shared), TARGETS);
    }

    #[test]
    fn structural_hash_is_stored_at_construction() {
        // Pinned values: the hash is part of every compilation-cache key,
        // so computing it once must not change it.
        assert_eq!(path4().structural_hash(), 0x64c0_63a4_0eba_cac1);
        assert_eq!(
            crate::heavy_hex(21).structural_hash(),
            0x940a_ba40_f41a_e2a0
        );
        assert_eq!(
            Topology::complete("k", 40).structural_hash(),
            0x3218_c038_ac74_024d
        );
        assert_eq!(
            crate::alltoall(1121).structural_hash(),
            0xe26a_1359_381c_3c69
        );
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        let t = Topology::from_edges("t", 3, &[(1, 0), (0, 1), (2, 1)]).unwrap();
        assert_eq!(t.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(t.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(t.degree(1), 2);
    }

    #[test]
    fn dedup_handles_half_a_million_edges_in_bounded_time() {
        // Regression for the O(m²) `canon.contains` dedup: a long line
        // with every edge repeated many times used to take O(m_in · m_out)
        // comparisons (~10⁹ here) — effectively a hang. Sort-based dedup
        // finishes in well under a second.
        let n = 2_000usize;
        let mut edges = Vec::with_capacity((n - 1) * 250);
        for _ in 0..250 {
            for i in 0..n - 1 {
                // Alternate orientation so canonicalization is exercised.
                edges.push(if i % 2 == 0 { (i, i + 1) } else { (i + 1, i) });
            }
        }
        let started = std::time::Instant::now();
        let t = Topology::from_edges("fat-line", n, &edges).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(20),
            "construction took {:?}",
            started.elapsed()
        );
        assert_eq!(t.num_edges(), n - 1);
        assert_eq!(t.distance(0, n - 1), Some(n - 1));
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Topology::from_edges("t", 0, &[]),
            Err(TopologyError::Empty)
        ));
        assert!(matches!(
            Topology::from_edges("t", 2, &[(0, 2)]),
            Err(TopologyError::InvalidQubit { qubit: 2, .. })
        ));
        assert!(matches!(
            Topology::from_edges("t", 2, &[(1, 1)]),
            Err(TopologyError::SelfLoop { qubit: 1 })
        ));
    }

    #[test]
    fn distances_on_a_path() {
        let t = path4();
        assert_eq!(t.distance(0, 3), Some(3));
        assert_eq!(t.distance(2, 2), Some(0));
        assert!(t.is_connected());
    }

    #[test]
    fn disconnected_components() {
        let t = Topology::from_edges("t", 4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(t.distance(0, 3), None);
        assert!(!t.is_connected());
        assert_eq!(t.shortest_path(0, 2), None);
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let t = path4();
        let p = t.shortest_path(0, 3).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3]);
        let trivial = t.shortest_path(2, 2).unwrap();
        assert_eq!(trivial, vec![2]);
    }

    #[test]
    fn shortest_path_is_deterministic_on_ties() {
        // A 4-cycle has two equal paths 0→2; tie-break must pick via qubit 1.
        let t = Topology::from_edges("c4", 4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(t.shortest_path(0, 2).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn shortest_path_ties_break_by_lowest_index_everywhere() {
        // Regression: tie-breaking must be by qubit index, not by whatever
        // order neighbors were inserted. Declare the edges highest-first so
        // any accidental dependence on input order would surface.
        let t = Topology::from_edges("c4", 4, &[(3, 0), (2, 3), (1, 2), (0, 1)]).unwrap();
        // Both neighbors of 1 (0 and 2) are at distance 1 from 3: pick 0.
        assert_eq!(t.shortest_path(1, 3).unwrap(), vec![1, 0, 3]);
        // Symmetric query from the other end: neighbors of 3 are 0 and 2,
        // both at distance 1 from 1: pick 0 again.
        assert_eq!(t.shortest_path(3, 1).unwrap(), vec![3, 0, 1]);
        // A larger even ring: the two arcs tie, and every hop of the chosen
        // path must still prefer the lower index.
        let ring6 =
            Topology::from_edges("r6", 6, &[(5, 0), (4, 5), (3, 4), (2, 3), (1, 2), (0, 1)])
                .unwrap();
        assert_eq!(ring6.shortest_path(0, 3).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(ring6.shortest_path(3, 0).unwrap(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn structural_hash_ignores_name_and_edge_order() {
        let a = Topology::from_edges("a", 4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let b = Topology::from_edges("b", 4, &[(2, 3), (1, 0), (1, 2), (0, 1)]).unwrap();
        assert_eq!(a.structural_hash(), b.structural_hash());

        // Extra qubit (even if isolated) changes the structure.
        let wider = Topology::from_edges("a", 5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_ne!(a.structural_hash(), wider.structural_hash());

        // Different coupling changes the structure.
        let ring = Topology::from_edges("a", 4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_ne!(a.structural_hash(), ring.structural_hash());
    }

    #[test]
    fn weighted_path_avoids_heavy_edges() {
        // Square where the 0-1 edge is very noisy: prefer 0-3-2-1.
        let t = Topology::from_edges("c4", 4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let w = |a: usize, b: usize| {
            if (a.min(b), a.max(b)) == (0, 1) {
                10.0
            } else {
                1.0
            }
        };
        let (path, cost) = t.shortest_path_weighted(0, 1, &w).unwrap();
        assert_eq!(path, vec![0, 3, 2, 1]);
        assert!((cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_matches_unweighted_with_unit_weights() {
        let t = path4();
        let (path, cost) = t.shortest_path_weighted(0, 3, &|_, _| 1.0).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3]);
        assert!((cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn triple_shape_classification() {
        let tri = Topology::from_edges("k3", 3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(tri.triple_shape(0, 1, 2), TripleShape::Triangle);
        assert!(tri.has_triangle());

        let line = path4();
        assert_eq!(line.triple_shape(0, 1, 2), TripleShape::Line { middle: 1 });
        assert_eq!(line.triple_shape(1, 0, 2), TripleShape::Line { middle: 1 });
        assert_eq!(line.triple_shape(2, 0, 1), TripleShape::Line { middle: 1 });
        assert_eq!(line.triple_shape(0, 1, 3), TripleShape::Disconnected);
        assert!(!line.has_triangle());
    }

    #[test]
    fn triple_distance_is_best_gather_cost() {
        let t = path4();
        // Destinations: 0 → 1+3=4, 1 → 1+2=3, 3 → 3+2=5. Best is qubit 1.
        assert_eq!(t.best_gather_destination(0, 1, 3), Some((1, 3)));
        assert_eq!(t.triple_distance(0, 1, 3), Some(3));
    }

    #[test]
    fn gather_destination_tie_breaks_toward_first_operand() {
        // Symmetric path: ends tie through the middle.
        let t = path4();
        // (0, 2) around middle 1: dests 0→1+1? d(0,2)=2, d(0,1)=1, d(1,2)=1.
        // 0 → 2+1=3, 2 → 2+1=3, 1 → 1+1=2: middle wins outright.
        assert_eq!(t.best_gather_destination(0, 2, 1), Some((1, 2)));
        // True tie: qubits 1 and 2 for trio (1, 2, 3) on a path:
        // 1 → 1+2=3, 2 → 1+1=2, 3 → 2+1=3.
        assert_eq!(t.best_gather_destination(1, 2, 3), Some((2, 2)));
    }

    #[test]
    fn display_mentions_name_and_size() {
        let t = path4();
        assert_eq!(t.to_string(), "p4 (4 qubits, 3 edges)");
    }

    #[test]
    fn diameter_of_named_shapes() {
        use crate::{full, grid, line, ring};
        assert_eq!(line(20).diameter(), Some(19));
        assert_eq!(ring(20).diameter(), Some(10));
        assert_eq!(grid(5, 4).diameter(), Some(7));
        assert_eq!(full(6).diameter(), Some(1));
        assert_eq!(full(1).diameter(), Some(0));
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let t = Topology::from_edges("two-islands", 4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(t.diameter(), None);
        assert_eq!(t.mean_distance(), None);
    }

    #[test]
    fn mean_distance_orders_paper_topologies() {
        use crate::{clusters, grid, johannesburg, line};
        // The paper's benefit ordering (line most, clusters least — §6.1)
        // tracks mean pairwise distance.
        let line_d = line(20).mean_distance().unwrap();
        let grid_d = grid(5, 4).mean_distance().unwrap();
        let jo_d = johannesburg().mean_distance().unwrap();
        let cl_d = clusters(4, 5).mean_distance().unwrap();
        assert!(line_d > jo_d && line_d > grid_d && line_d > cl_d);
        assert!(cl_d < jo_d && cl_d < grid_d);
    }

    #[test]
    fn mean_distance_of_full_graph_is_one() {
        use crate::full;
        assert_eq!(full(5).mean_distance(), Some(1.0));
        assert_eq!(full(1).mean_distance(), None);
    }

    #[test]
    fn weighted_distances_from_matches_per_pair_dijkstra() {
        use crate::johannesburg;
        let topo = johannesburg();
        // Deterministic non-uniform weights keyed off the edge endpoints.
        let weight =
            |a: usize, b: usize| 1.0 + 0.13 * ((a * 7 + b * 3) % 5) as f64 + 0.01 * a.min(b) as f64;
        for a in 0..topo.num_qubits() {
            let row = topo.weighted_distances_from(a, &weight);
            assert_eq!(row[a], 0.0);
            for (b, &value) in row.iter().enumerate() {
                if a == b {
                    continue;
                }
                let (_, pairwise) = topo.shortest_path_weighted(a, b, &weight).unwrap();
                assert_eq!(
                    value, pairwise,
                    "single-source and per-pair Dijkstra disagree on {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn heap_dijkstra_matches_linear_extraction_exactly() {
        // Regression for the BinaryHeap rewrite: dist AND tie-broken prev
        // pointers must reproduce the old lowest-index linear extraction.
        // The old implementation, verbatim:
        fn linear_dijkstra(
            t: &Topology,
            a: usize,
            b: usize,
            weight: &dyn Fn(usize, usize) -> f64,
        ) -> Option<(Vec<usize>, f64)> {
            let n = t.num_qubits();
            let mut dist = vec![f64::INFINITY; n];
            let mut prev = vec![usize::MAX; n];
            let mut done = vec![false; n];
            dist[a] = 0.0;
            for _ in 0..n {
                let mut u = usize::MAX;
                let mut best = f64::INFINITY;
                for v in 0..n {
                    if !done[v] && dist[v] < best {
                        best = dist[v];
                        u = v;
                    }
                }
                if u == usize::MAX || u == b {
                    break;
                }
                done[u] = true;
                for v in t.neighbors(u) {
                    let nd = dist[u] + weight(u, v);
                    if nd < dist[v] - 1e-15 {
                        dist[v] = nd;
                        prev[v] = u;
                    }
                }
            }
            if dist[b].is_infinite() {
                return None;
            }
            let mut path = vec![b];
            let mut cur = b;
            while cur != a {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            Some((path, dist[b]))
        }

        use crate::{grid, johannesburg};
        for topo in [johannesburg(), grid(6, 5)] {
            // Weights with deliberate ties (many equal values) so the
            // tie-breaking path is actually exercised.
            let weight = |a: usize, b: usize| 1.0 + ((a + b) % 3) as f64;
            for a in 0..topo.num_qubits() {
                for b in 0..topo.num_qubits() {
                    if a == b {
                        continue;
                    }
                    let fast = topo.shortest_path_weighted(a, b, &weight);
                    let slow = linear_dijkstra(&topo, a, b, &weight);
                    assert_eq!(fast, slow, "heap vs linear diverged on {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn weighted_distances_from_marks_unreachable_as_infinite() {
        let t = Topology::from_edges("two-islands", 4, &[(0, 1), (2, 3)]).unwrap();
        let row = t.weighted_distances_from(0, &|_, _| 1.0);
        assert_eq!(row[0], 0.0);
        assert_eq!(row[1], 1.0);
        assert!(row[2].is_infinite());
        assert!(row[3].is_infinite());
    }

    #[test]
    fn complete_answers_everything_in_closed_form() {
        let t = Topology::complete("k1000", 1000);
        assert_eq!(t.num_qubits(), 1000);
        assert_eq!(t.num_edges(), 499_500);
        assert!(t.is_connected());
        assert!(t.has_triangle());
        assert_eq!(t.distance(3, 997), Some(1));
        assert_eq!(t.distance(5, 5), Some(0));
        assert!(t.are_adjacent(0, 999));
        assert!(!t.are_adjacent(7, 7));
        assert_eq!(t.degree(500), 999);
        assert_eq!(t.diameter(), Some(1));
        assert_eq!(t.mean_distance(), Some(1.0));
        assert_eq!(t.shortest_path(4, 2), Some(vec![4, 2]));
        assert_eq!(t.shortest_path(4, 4), Some(vec![4]));
        assert_eq!(t.triple_shape(0, 500, 999), TripleShape::Triangle);
        assert_eq!(t.to_string(), "k1000 (1000 qubits, 499500 edges)");
    }

    #[test]
    fn complete_neighbors_iterate_everyone_else() {
        let t = Topology::complete("k5", 5);
        assert_eq!(t.neighbors(2).collect::<Vec<_>>(), vec![0, 1, 3, 4]);
        assert_eq!(t.neighbors(0).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(t.neighbors(4).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(t.neighbors(2).len(), 4);
    }

    #[test]
    fn complete_edges_materialize_lazily_and_match_explicit() {
        let implicit = Topology::complete("k5", 5);
        let mut pairs = Vec::new();
        for a in 0..5 {
            for b in a + 1..5 {
                pairs.push((a, b));
            }
        }
        let explicit = Topology::from_edges("k5", 5, &pairs).unwrap();
        assert_eq!(implicit.edges(), explicit.edges());
        // A clone starts with a cold cache but yields the same list.
        assert_eq!(implicit.clone().edges(), explicit.edges());
    }

    #[test]
    fn complete_link_costs() {
        let uniform = Topology::complete("full-6", 6);
        assert_eq!(uniform.link_cost(0, 5), Some(1.0));
        assert_eq!(uniform.link_cost(2, 2), None);
        assert_eq!(uniform.cost_distance(0, 5), Some(1.0));
        assert_eq!(uniform.cost_distance(3, 3), Some(0.0));

        let trap = Topology::complete_linear_cost("alltoall-6", 6);
        assert_eq!(trap.link_cost(0, 5), Some(5.0));
        assert_eq!(trap.link_cost(5, 0), Some(5.0));
        assert_eq!(trap.link_cost(2, 3), Some(1.0));
        assert_eq!(trap.cost_distance(0, 5), Some(5.0));
        assert_eq!(trap.cost_distance(4, 4), Some(0.0));

        // Explicit devices have unit link costs and hop cost-distances.
        let line = path4();
        assert_eq!(line.link_cost(0, 1), Some(1.0));
        assert_eq!(line.link_cost(0, 2), None);
        assert_eq!(line.cost_distance(0, 3), Some(3.0));
    }

    #[test]
    fn complete_structural_hash_separates_cost_models() {
        let full = Topology::complete("a", 40);
        let trap = Topology::complete_linear_cost("b", 40);
        // Same coupling, different costs → different compile results →
        // must not share compilation-cache entries.
        assert_ne!(full.structural_hash(), trap.structural_hash());
        // Name is still excluded.
        assert_eq!(
            full.structural_hash(),
            Topology::complete("z", 40).structural_hash()
        );
        // And sizes separate.
        assert_ne!(
            full.structural_hash(),
            Topology::complete("a", 41).structural_hash()
        );
    }

    #[test]
    fn complete_equality_is_structural() {
        assert_eq!(Topology::complete("k", 9), Topology::complete("k", 9));
        assert_ne!(
            Topology::complete("k", 9),
            Topology::complete_linear_cost("k", 9)
        );
        assert_ne!(Topology::complete("k", 9), Topology::complete("j", 9));
    }

    #[test]
    fn weighted_search_works_on_complete_graphs() {
        // Dijkstra over an implicit K_n: the direct edge wins under the
        // shuttling metric (triangle inequality), and single-source rows
        // agree with per-pair queries.
        let t = Topology::complete_linear_cost("trap", 12);
        let w = |a: usize, b: usize| t.link_cost(a, b).unwrap();
        let (path, cost) = t.shortest_path_weighted(2, 9, &w).unwrap();
        assert_eq!(path, vec![2, 9]);
        assert!((cost - 7.0).abs() < 1e-12);
        let row = t.weighted_distances_from(0, &w);
        for (b, &value) in row.iter().enumerate() {
            assert!((value - b as f64).abs() < 1e-12, "row[{b}] = {value}");
        }
    }
}
