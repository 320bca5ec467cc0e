//! Euclidean minimum spanning trees.
//!
//! The centralized connectivity results the paper compares against
//! (Halldórsson & Mitra, SODA 2012 \[11\]) schedule the links of the
//! Euclidean MST; the baselines crate builds on this module.
//!
//! Two implementations produce **identical output** (same edges, same
//! order, bit for bit):
//!
//! - [`euclidean_mst_prim`] — the exact `O(n²)` reference, kept for the
//!   parity gates and still the faster choice for small instances;
//! - [`euclidean_mst_grid`] — lazy Prim over a uniform bucket grid:
//!   each tree vertex holds one heap entry — its nearest outside vertex
//!   (found by an expanding Chebyshev-ring search that resumes past the
//!   rings it already found empty), or a lower bound to wait on when
//!   the rings around it are empty — a heap pops the globally best
//!   entry, and stale or due entries are searched on lazily. About 70
//!   cell visits per vertex on uniform instances from n = 4096 to
//!   65536, which unlocks the capability sweeps of experiment E12.
//!
//! [`euclidean_mst`] dispatches on the instance size. The tie-break is
//! deterministic and mirrors the reference exactly: Prim's strict `<`
//! updates keep, per vertex `v`, the *earliest-added* tree vertex among
//! those at minimal distance, and select the smallest `v` among minimal
//! keys — the grid path encodes the same order as the lexicographic
//! heap key `(distance bits, v, tree-insertion order)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::extremes::DenseGrid;
use crate::{Instance, NodeId};

/// An undirected MST edge between two nodes.
pub type MstEdge = (NodeId, NodeId);

/// Below this many nodes the quadratic Prim reference beats building a
/// grid, so [`euclidean_mst`] dispatches to it directly.
const GRID_CUTOFF: usize = 256;

/// Relative safety margin on the ring-search stop condition (see
/// [`crate::extremes`]): never trust the last ulp of the geometric
/// lower bound `ring · cell`.
const RING_MARGIN: f64 = 1.0 - 1e-12;

/// Empty rings a search scans past its resume point before it defers
/// (see [`euclidean_mst_grid`]). Deferring after 1, 2 or 3 rings was
/// measured; 2 was fastest or close to it on uniform, clustered and
/// two-tier instances.
const DEFER_AFTER: usize = 2;

/// The target of a deferred heap entry: sorts after every real vertex
/// at the same key, and is never in the tree.
const DEFERRED: NodeId = NodeId::MAX;

/// Computes the Euclidean minimum spanning tree.
///
/// Returns `n − 1` undirected edges (empty for a single-node instance).
/// Dispatches between the `O(n²)` Prim reference
/// ([`euclidean_mst_prim`]) for small instances and the grid-pruned
/// lazy Prim ([`euclidean_mst_grid`]) above `GRID_CUTOFF` (256) nodes; the
/// two produce identical edges in identical order, so the dispatch is
/// unobservable except in wall-clock.
///
/// # Example
///
/// ```
/// use sinr_geom::{gen, mst};
///
/// let inst = gen::uniform_square(32, 2.0, 3)?;
/// let edges = mst::euclidean_mst(&inst);
/// assert_eq!(edges.len(), 31);
/// # Ok::<(), sinr_geom::GeomError>(())
/// ```
pub fn euclidean_mst(instance: &Instance) -> Vec<MstEdge> {
    if instance.len() <= GRID_CUTOFF {
        euclidean_mst_prim(instance)
    } else {
        euclidean_mst_grid(instance)
    }
}

/// The `O(n²)` Prim reference implementation.
///
/// This is the parity oracle for [`euclidean_mst_grid`] (the
/// determinism suite compares full edge sequences) and the dispatch
/// target for small instances.
pub fn euclidean_mst_prim(instance: &Instance) -> Vec<MstEdge> {
    let n = instance.len();
    if n < 2 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best_dist = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut edges = Vec::with_capacity(n - 1);

    in_tree[0] = true;
    for (v, d) in best_dist.iter_mut().enumerate().skip(1) {
        *d = instance.distance(0, v);
    }

    for _ in 1..n {
        let mut u = usize::MAX;
        let mut du = f64::INFINITY;
        for v in 0..n {
            if !in_tree[v] && best_dist[v] < du {
                du = best_dist[v];
                u = v;
            }
        }
        debug_assert!(
            u != usize::MAX,
            "graph is complete; a candidate always exists"
        );
        in_tree[u] = true;
        edges.push((best_from[u], u));
        for v in 0..n {
            if !in_tree[v] {
                let d = instance.distance(u, v);
                if d < best_dist[v] {
                    best_dist[v] = d;
                    best_from[v] = u;
                }
            }
        }
    }
    edges
}

/// Grid-pruned lazy Prim, bit-identical to [`euclidean_mst_prim`].
///
/// Every tree vertex keeps one heap entry `(d, v, order, t)`, tagged
/// with `t`'s tree-insertion order: its nearest outside vertex `v` at
/// distance `d` (ties broken toward the smallest `v`), or a deferred
/// entry `(lb, DEFERRED)` whose `lb` is a strict lower bound on that
/// distance. Because the outside set only shrinks, an entry's key
/// lower-bounds its owner's true current nearest — so the heap minimum
/// with an *outside* `v` is exactly the cut-minimal edge Prim would
/// take, and the lexicographic key reproduces Prim's strict-`<`
/// tie-break (see module docs). A deferred entry pops before any real
/// candidate its owner could beat or tie, since `lb < d`.
///
/// The search is resumable for the same reason: rings once found empty
/// of outside vertices stay empty, so each tree vertex remembers how
/// far they reach and resumes there. A search that scans
/// `DEFER_AFTER` more empty rings stops and pushes a deferred entry
/// with the bound `(r − 1) · cell` of the first unscanned ring `r`,
/// so a vertex deep inside the tree waits in the heap instead of
/// scanning the tree's empty interior. Entries that went stale (their
/// `v` joined the tree) or came due (deferred) are searched on when
/// popped.
pub fn euclidean_mst_grid(instance: &Instance) -> Vec<MstEdge> {
    let n = instance.len();
    if n < 2 {
        return Vec::new();
    }
    let points = instance.points();
    let axis = (n as f64).sqrt().ceil() as usize;
    let mut grid = DenseGrid::build(points, axis);
    let cell = grid.cell();

    let mut in_tree = vec![false; n];
    let mut t_order = vec![0usize; n];
    // Rings `0..empty_to[t]` around tree vertex `t` hold no outside
    // vertex.
    let mut empty_to = vec![0usize; n];
    let mut edges: Vec<MstEdge> = Vec::with_capacity(n - 1);
    // Min-heap keyed `(distance bits, v, insertion order of t, t)`;
    // non-negative finite distances order identically to their IEEE
    // bits.
    let mut heap: BinaryHeap<Reverse<(u64, NodeId, usize, NodeId)>> = BinaryHeap::new();

    // Tree vertex `t`'s next heap entry: its nearest vertex still
    // outside the tree (tree vertices are removed from their buckets,
    // so every member seen is outside; tie-break: smallest id), or
    // `(lb, DEFERRED)`, or nothing once every vertex is in the tree.
    let search = |grid: &DenseGrid, t: NodeId, empty_to: &mut usize| -> Option<(f64, NodeId)> {
        let p = points[t];
        let start = *empty_to;
        let mut best: Option<(f64, NodeId)> = None;
        for ring in start..=grid.max_ring_from(p) {
            // Unseen members sit beyond `(ring − 1) · cell` (with
            // margin): past the best, later rings can neither improve
            // nor tie it; with no best yet, it bounds the search.
            let unseen_beyond = ring.saturating_sub(1) as f64 * cell * RING_MARGIN;
            match best {
                Some((bd, _)) if ring >= 2 && bd < unseen_beyond => break,
                None if ring - start >= DEFER_AFTER => return Some((unseen_beyond, DEFERRED)),
                _ => {}
            }
            grid.for_each_ring_member(p, ring, |v| {
                let d = instance.distance(t, v);
                let better = match best {
                    None => true,
                    Some((bd, bv)) => d < bd || (d == bd && v < bv),
                };
                if better {
                    best = Some((d, v));
                }
            });
            if best.is_none() {
                *empty_to = ring + 1;
            }
        }
        best
    };

    in_tree[0] = true;
    grid.remove(0, points[0]);
    if let Some((d, v)) = search(&grid, 0, &mut empty_to[0]) {
        heap.push(Reverse((d.to_bits(), v, 0, 0)));
    }
    let mut next_order = 1usize;
    while edges.len() < n - 1 {
        let Reverse((_, v, _, t)) = heap
            .pop()
            .expect("complete graph: every tree vertex keeps a live entry");
        if v == DEFERRED || in_tree[v] {
            // A deferred search came due, or the candidate went stale
            // (its target joined the tree since): search on and retry.
            if let Some((d, w)) = search(&grid, t, &mut empty_to[t]) {
                heap.push(Reverse((d.to_bits(), w, t_order[t], t)));
            }
            continue;
        }
        edges.push((t, v));
        in_tree[v] = true;
        t_order[v] = next_order;
        next_order += 1;
        grid.remove(v, points[v]);
        // Both `v` (new tree vertex) and `t` (its candidate was just
        // consumed) need fresh entries to keep the heap invariant.
        if let Some((d, w)) = search(&grid, v, &mut empty_to[v]) {
            heap.push(Reverse((d.to_bits(), w, t_order[v], v)));
        }
        if let Some((d, w)) = search(&grid, t, &mut empty_to[t]) {
            heap.push(Reverse((d.to_bits(), w, t_order[t], t)));
        }
    }
    edges
}

/// Orients the MST toward `root`, returning a parent array:
/// `parent[u] = Some(v)` means the tree edge `u → v` points toward the
/// root; `parent[root] = None`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn mst_parent_array(instance: &Instance, root: NodeId) -> Vec<Option<NodeId>> {
    let n = instance.len();
    assert!(root < n, "root {root} out of range for {n} nodes");
    let edges = euclidean_mst(instance);
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut parent = vec![None; n];
    let mut visited = vec![false; n];
    let mut stack = vec![root];
    visited[root] = true;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                parent[v] = Some(u);
                stack.push(v);
            }
        }
    }
    parent
}

/// Total Euclidean weight of a set of edges.
pub fn total_weight(instance: &Instance, edges: &[MstEdge]) -> f64 {
    edges.iter().map(|&(a, b)| instance.distance(a, b)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Point};

    /// Union-find used to check spanning/acyclicity in tests.
    struct Dsu(Vec<usize>);
    impl Dsu {
        fn new(n: usize) -> Self {
            Dsu((0..n).collect())
        }
        fn find(&mut self, x: usize) -> usize {
            if self.0[x] != x {
                let r = self.find(self.0[x]);
                self.0[x] = r;
            }
            self.0[x]
        }
        fn union(&mut self, a: usize, b: usize) -> bool {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                return false;
            }
            self.0[ra] = rb;
            true
        }
    }

    #[test]
    fn single_node_has_no_edges() {
        let inst = Instance::new(vec![Point::ORIGIN]).unwrap();
        assert!(euclidean_mst(&inst).is_empty());
        assert!(euclidean_mst_grid(&inst).is_empty());
    }

    /// The core parity property: the grid path emits the exact edge
    /// sequence of the Prim reference, on every generator family,
    /// including the tie-heavy integer line.
    #[test]
    fn grid_matches_prim_edge_for_edge() {
        for seed in 0..3u64 {
            for (what, inst) in [
                ("uniform", gen::uniform_square(350, 1.5, seed).unwrap()),
                ("clustered", gen::clustered(14, 24, 1.5, 2.0, seed).unwrap()),
                ("lattice", gen::grid_lattice(18, 18, 0.25, seed).unwrap()),
                ("chain", gen::exponential_chain(48, 1.35, seed).unwrap()),
                ("line", gen::line(40).unwrap()),
                ("annulus", gen::annulus(300, 6.0, 14.0, seed).unwrap()),
            ] {
                assert_eq!(
                    euclidean_mst_grid(&inst),
                    euclidean_mst_prim(&inst),
                    "{what} seed {seed}: edge sequences diverged"
                );
            }
        }
    }

    /// The grid MST stays near-linear: cell visits per vertex on a
    /// uniform instance grow by less than 1.5× from n = 4096 to 16384.
    /// A search that rescans a tree's empty interior grows them about
    /// 2.5× over the same step.
    #[test]
    fn grid_mst_cell_visits_per_vertex_stay_flat() {
        use crate::extremes::CELL_VISITS;
        let per_vertex = |n: usize| {
            let inst = gen::uniform_square(n, 1.5, 4).unwrap();
            CELL_VISITS.with(|c| c.set(0));
            assert_eq!(euclidean_mst_grid(&inst).len(), n - 1);
            CELL_VISITS.with(|c| c.get()) as f64 / n as f64
        };
        let (small, large) = (per_vertex(4096), per_vertex(16384));
        assert!(
            large < 1.5 * small,
            "cell visits per vertex grew {small:.1} → {large:.1} from n = 4096 to 16384"
        );
    }

    #[test]
    fn dispatch_switches_at_cutoff() {
        let small = gen::uniform_square(60, 1.5, 5).unwrap();
        let big = gen::uniform_square(400, 1.5, 5).unwrap();
        assert_eq!(euclidean_mst(&small), euclidean_mst_prim(&small));
        assert_eq!(euclidean_mst(&big), euclidean_mst_grid(&big));
        assert_eq!(euclidean_mst_grid(&big), euclidean_mst_prim(&big));
    }

    #[test]
    fn spanning_and_acyclic() {
        for seed in 0..5 {
            let inst = gen::uniform_square(120, 1.5, seed).unwrap();
            let edges = euclidean_mst(&inst);
            assert_eq!(edges.len(), inst.len() - 1);
            let mut dsu = Dsu::new(inst.len());
            for &(a, b) in &edges {
                assert!(dsu.union(a, b), "MST contained a cycle (seed {seed})");
            }
        }
    }

    #[test]
    fn line_mst_is_the_path() {
        let inst = gen::line(6).unwrap();
        let mut edges = euclidean_mst(&inst);
        for e in &mut edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(total_weight(&inst, &edges), 5.0);
    }

    #[test]
    fn mst_weight_is_minimal_vs_star() {
        // The star from node 0 is a spanning tree; MST must not be heavier.
        let inst = gen::uniform_square(60, 2.0, 8).unwrap();
        let mst_w = total_weight(&inst, &euclidean_mst(&inst));
        let star: Vec<MstEdge> = (1..inst.len()).map(|v| (0, v)).collect();
        assert!(mst_w <= total_weight(&inst, &star) + 1e-9);
    }

    #[test]
    fn parent_array_roots_correctly() {
        let inst = gen::uniform_square(50, 2.0, 2).unwrap();
        for root in [0usize, 7, 49] {
            let parent = mst_parent_array(&inst, root);
            assert_eq!(parent[root], None);
            assert_eq!(parent.iter().filter(|p| p.is_none()).count(), 1);
            // Every node reaches the root.
            #[allow(clippy::needless_range_loop)]
            for mut u in 0..inst.len() {
                let mut hops = 0;
                while let Some(p) = parent[u] {
                    u = p;
                    hops += 1;
                    assert!(hops <= inst.len(), "cycle detected");
                }
                assert_eq!(u, root);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn parent_array_rejects_bad_root() {
        let inst = gen::line(3).unwrap();
        let _ = mst_parent_array(&inst, 5);
    }
}
