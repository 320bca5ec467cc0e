//! Uniform-grid spatial indexes.
//!
//! Two structures live here:
//!
//! - [`GridIndex`] — an immutable index over *all* nodes of an
//!   [`Instance`], for range queries and nearest-neighbor searches;
//! - [`WeightedCellGrid`] — a bucket grid over an arbitrary weighted
//!   subset of nodes, rebuilt per use, the substrate of the
//!   interference field in `sinr-phy` (total transmit power,
//!   ring-ordered cell enumeration for certified far-field bounds).

use std::collections::HashMap;

use crate::{Instance, NodeId, Point};

/// Integer key of a grid cell: `(⌊x/cell⌋, ⌊y/cell⌋)`.
pub type CellKey = (i64, i64);

/// A uniform grid over the nodes of an [`Instance`], supporting fast
/// range (ball) queries.
///
/// The simulator uses it to prune interference sums and the `Init`
/// analysis tooling uses it for annulus counting. Cells are square with a
/// caller-chosen side length; nodes are bucketed by `floor(coord / cell)`.
///
/// # Example
///
/// ```
/// use sinr_geom::{gen, GridIndex};
///
/// let inst = gen::uniform_square(128, 2.0, 7)?;
/// let grid = GridIndex::build(&inst, 4.0);
/// let center = inst.position(0);
/// let mut near = 0;
/// grid.for_each_within(center, 10.0, |_| near += 1);
/// let brute = inst.iter().filter(|&(_, p)| p.distance(center) <= 10.0).count();
/// assert_eq!(near, brute);
/// # Ok::<(), sinr_geom::GeomError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex {
    cell: f64,
    cells: HashMap<(i64, i64), Vec<NodeId>>,
    positions: Vec<Point>,
    /// Bounding rectangle of occupied cell keys; range queries are
    /// clamped to it so an arbitrarily large radius never scans more
    /// cells than exist.
    key_min: (i64, i64),
    key_max: (i64, i64),
}

impl GridIndex {
    /// Builds an index with square cells of side `cell_size`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn build(instance: &Instance, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        let mut cells: HashMap<(i64, i64), Vec<NodeId>> = HashMap::new();
        let mut key_min = (i64::MAX, i64::MAX);
        let mut key_max = (i64::MIN, i64::MIN);
        for (id, p) in instance.iter() {
            let k = Self::key(p, cell_size);
            key_min = (key_min.0.min(k.0), key_min.1.min(k.1));
            key_max = (key_max.0.max(k.0), key_max.1.max(k.1));
            cells.entry(k).or_default().push(id);
        }
        GridIndex {
            cell: cell_size,
            cells,
            positions: instance.points().to_vec(),
            key_min,
            key_max,
        }
    }

    #[inline]
    fn key(p: Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Cell side length.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of non-empty cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// All nodes within the closed ball of `radius` around `center`,
    /// collected into a fresh `Vec` — the tests' view of
    /// [`for_each_within`](GridIndex::for_each_within).
    #[cfg(test)]
    pub fn nodes_within(&self, center: Point, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |id| out.push(id));
        out
    }

    /// Calls `f` for each node within the closed ball, without allocating.
    ///
    /// The cell scan is clamped to the occupied-cell bounding rectangle,
    /// so the cost is `O(min(query area, occupied area) / cell² +
    /// matches)` — a huge radius degrades gracefully to a full scan of
    /// the existing cells rather than of the query rectangle.
    pub fn for_each_within<F: FnMut(NodeId)>(&self, center: Point, radius: f64, mut f: F) {
        let r2 = radius * radius;
        self.for_each_cell_within(center, radius, |_, bucket| {
            for &id in bucket {
                if self.positions[id].distance_sq(center) <= r2 {
                    f(id);
                }
            }
        });
    }

    /// Calls `f` once per occupied cell whose key rectangle intersects
    /// the axis-aligned bounding box of the query ball, passing the cell
    /// key and its bucket.
    ///
    /// This is the cell-aggregate primitive: the bucket may contain
    /// nodes slightly *outside* the ball (corner cells), but every node
    /// *inside* the ball is guaranteed to be in some visited bucket.
    /// Callers doing exact work must filter by distance themselves;
    /// callers deriving bounds may use the bucket wholesale.
    pub fn for_each_cell_within<F: FnMut(CellKey, &[NodeId])>(
        &self,
        center: Point,
        radius: f64,
        mut f: F,
    ) {
        if radius.is_nan() || radius < 0.0 || self.cells.is_empty() {
            return;
        }
        let (qx0, qy0) = Self::key(Point::new(center.x - radius, center.y - radius), self.cell);
        let (qx1, qy1) = Self::key(Point::new(center.x + radius, center.y + radius), self.cell);
        let (cx0, cy0) = (qx0.max(self.key_min.0), qy0.max(self.key_min.1));
        let (cx1, cy1) = (qx1.min(self.key_max.0), qy1.min(self.key_max.1));
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    f((cx, cy), bucket);
                }
            }
        }
    }

    /// Count of nodes within the closed ball (no allocation).
    pub fn count_within(&self, center: Point, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_within(center, radius, |_| n += 1);
        n
    }

    /// The nearest other node to `u`, or `None` for a 1-node instance.
    ///
    /// Runs an expanding-ring search, so it is fast when the grid cell is
    /// on the order of the typical nearest-neighbor distance.
    pub fn nearest_neighbor(&self, u: NodeId) -> Option<(NodeId, f64)> {
        if self.positions.len() < 2 {
            return None;
        }
        let center = self.positions[u];
        let mut radius = self.cell;
        loop {
            let mut best: Option<(NodeId, f64)> = None;
            self.for_each_within(center, radius, |id| {
                if id != u {
                    let d = self.positions[id].distance(center);
                    if best.map_or(true, |(_, bd)| d < bd) {
                        best = Some((id, d));
                    }
                }
            });
            // A candidate found strictly inside the ring is provably the
            // global nearest once radius exceeds its distance.
            if let Some((id, d)) = best {
                if d <= radius {
                    return Some((id, d));
                }
            }
            radius *= 2.0;
            // Diameter bound: every node is within this radius eventually.
            if radius > 4.0 * self.diameter_upper_bound() {
                return best;
            }
        }
    }

    fn diameter_upper_bound(&self) -> f64 {
        // Conservative: diagonal of the bounding box of stored positions.
        let bb = crate::Aabb::from_points(self.positions.iter().copied())
            .expect("index holds at least one point");
        bb.diagonal().max(self.cell)
    }
}

/// A read-only view of one occupied [`WeightedCellGrid`] cell: the
/// member columns as parallel slices (structure-of-arrays), in
/// insertion order.
///
/// The slice accessors are the hot-loop interface: a ring
/// accumulation walks `ws()`/`xs()`/`ys()` as contiguous `f64` runs
/// with no pointer chasing. [`members`](CellView::members) re-zips
/// them for callers that want tuples.
#[derive(Clone, Copy, Debug)]
pub struct CellView<'a> {
    ids: &'a [NodeId],
    xs: &'a [f64],
    ys: &'a [f64],
    ws: &'a [f64],
}

impl<'a> CellView<'a> {
    /// Member node ids, in insertion order.
    #[inline]
    pub fn ids(&self) -> &'a [NodeId] {
        self.ids
    }

    /// Member x coordinates, parallel to [`ids`](CellView::ids).
    #[inline]
    pub fn xs(&self) -> &'a [f64] {
        self.xs
    }

    /// Member y coordinates, parallel to [`ids`](CellView::ids).
    #[inline]
    pub fn ys(&self) -> &'a [f64] {
        self.ys
    }

    /// Member weights, parallel to [`ids`](CellView::ids).
    #[inline]
    pub fn ws(&self) -> &'a [f64] {
        self.ws
    }

    /// The `(node, position, weight)` members, re-zipped from the
    /// parallel columns.
    pub fn members(&self) -> impl Iterator<Item = (NodeId, Point, f64)> + 'a {
        let (ids, xs, ys, ws) = (self.ids, self.xs, self.ys, self.ws);
        (0..ids.len()).map(move |i| (ids[i], Point::new(xs[i], ys[i]), ws[i]))
    }
}

/// Largest cell-index magnitude the dense layout accepts: `2^31` keeps
/// every index exactly representable as `f64`, makes the `as i64` cast
/// lossless, and lets rectangle extents multiply without overflow.
const MAX_CELL_INDEX: f64 = (1i64 << 31) as f64;

/// Debug-build ceiling on the dense cell-table area. The interference
/// field clamps its cell size to `span / MAX_CELLS_PER_AXIS`, which
/// bounds the table at ~67×67 regardless of n; anything within a few
/// orders of magnitude of this limit means a degenerate cell size for
/// the coordinate range (the dense table would dwarf the member set).
const MAX_DENSE_CELLS: u128 = 1 << 24;

/// A bucket grid over weighted points, with ring-ordered cell
/// enumeration.
///
/// This is the spatial substrate of `sinr-phy`'s interference field: a
/// slot's transmitters are bucketed with their transmit power as the
/// weight; the total weight and the weight seen so far then bound the
/// far-field interference of every cell not yet enumerated (`remaining
/// weight × gain(min distance)`), which is what lets the field certify
/// SINR decisions from a near-field prefix.
///
/// # Layout
///
/// Storage is structure-of-arrays: members live in four parallel flat
/// `Vec`s (`ids`/`xs`/`ys`/`ws`) grouped by cell, indexed by a
/// CSR-style `cell_start` table over a *dense* column-major cell
/// rectangle (the bounding rectangle of occupied keys). Queries do no
/// hashing: a cell is one index computation and one contiguous slice.
/// [`rebuild`](WeightedCellGrid::rebuild) is the one way to fill it: it
/// scatters the members straight into the CSR layout with a stable
/// counting sort, so within-cell member order is exactly iteration
/// order — the order every accumulated float in `sinr-phy` depends on —
/// and it reuses every buffer across calls.
#[derive(Clone, Debug)]
pub struct WeightedCellGrid {
    cell: f64,
    total_weight: f64,
    key_min: CellKey,
    key_max: CellKey,
    /// Dense cell-table height (cells along y). Column-major
    /// linearization (`x` major, `y` minor) so the rectangular
    /// near-scan's inner loop walks contiguous cells.
    rows: usize,
    /// CSR index: member range of linear cell `c` is
    /// `cell_start[c] .. cell_start[c + 1]`.
    cell_start: Vec<u32>,
    occupied: usize,
    /// Cell-grouped member columns.
    ids: Vec<NodeId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ws: Vec<f64>,
    /// Scatter cursors (scratch kept for reuse).
    cursor: Vec<u32>,
}

impl WeightedCellGrid {
    /// Creates an empty grid with square cells of side `cell_size`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        let mut grid = WeightedCellGrid {
            cell: cell_size,
            total_weight: 0.0,
            key_min: (i64::MAX, i64::MAX),
            key_max: (i64::MIN, i64::MIN),
            rows: 0,
            cell_start: Vec::new(),
            occupied: 0,
            ids: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            ws: Vec::new(),
            cursor: Vec::new(),
        };
        grid.rebuild(cell_size, std::iter::empty());
        grid
    }

    /// Cell side length.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of members currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the grid is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn occupied_cells(&self) -> usize {
        self.occupied
    }

    /// Sum of all member weights, accumulated in iteration order. It
    /// carries summation rounding, so callers using it as a bound must
    /// still apply their own guard factor.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The cell key containing point `p`.
    ///
    /// Debug builds assert the index magnitude stays below `2^31` —
    /// beyond that the `f64 → i64` cast would quantize or saturate,
    /// which means the cell size is degenerate for the coordinate
    /// range.
    #[inline]
    pub fn key_of(&self, p: Point) -> CellKey {
        let kx = (p.x / self.cell).floor();
        let ky = (p.y / self.cell).floor();
        debug_assert!(
            kx.abs() < MAX_CELL_INDEX && ky.abs() < MAX_CELL_INDEX,
            "cell index overflow: point ({}, {}) with cell size {} needs index ({kx}, {ky})",
            p.x,
            p.y,
            self.cell
        );
        (kx as i64, ky as i64)
    }

    /// Linear (column-major) index of an in-rectangle cell key.
    #[inline]
    fn lin(&self, k: CellKey) -> usize {
        (k.0 - self.key_min.0) as usize * self.rows + (k.1 - self.key_min.1) as usize
    }

    #[inline]
    fn in_rect(&self, k: CellKey) -> bool {
        k.0 >= self.key_min.0
            && k.0 <= self.key_max.0
            && k.1 >= self.key_min.1
            && k.1 <= self.key_max.1
    }

    /// The member range of linear cell `c`.
    #[inline]
    fn seg(&self, c: usize) -> (usize, usize) {
        (self.cell_start[c] as usize, self.cell_start[c + 1] as usize)
    }

    /// Re-keys the grid to `cell_size` and fills it with `members`,
    /// keeping every buffer's capacity.
    ///
    /// Three linear passes over `members`: grow the key rectangle and
    /// the total weight, count per cell and prefix-sum, then
    /// stable-scatter. Within-cell member order is iteration order
    /// restricted to the cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn rebuild<I>(&mut self, cell_size: f64, members: I)
    where
        I: IntoIterator<Item = (NodeId, Point, f64)>,
        I::IntoIter: Clone,
    {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        let members = members.into_iter();
        self.cell = cell_size;
        self.total_weight = 0.0;
        self.key_min = (i64::MAX, i64::MAX);
        self.key_max = (i64::MIN, i64::MIN);
        let mut n = 0usize;
        for (_, p, w) in members.clone() {
            let k = self.key_of(p);
            self.key_min = (self.key_min.0.min(k.0), self.key_min.1.min(k.1));
            self.key_max = (self.key_max.0.max(k.0), self.key_max.1.max(k.1));
            self.total_weight += w;
            n += 1;
        }
        self.ids.clear();
        self.xs.clear();
        self.ys.clear();
        self.ws.clear();
        self.cell_start.clear();
        self.cell_start.push(0);
        self.occupied = 0;
        if n == 0 {
            // Keep the zero-extent empty table.
            self.rows = 0;
            return;
        }
        let cols = (self.key_max.0 - self.key_min.0 + 1) as u128;
        let rows = (self.key_max.1 - self.key_min.1 + 1) as u128;
        debug_assert!(
            cols * rows <= MAX_DENSE_CELLS,
            "degenerate cell size: {n} members span a {cols}×{rows} cell rectangle \
             (cell {}, key rect {:?}..={:?}); the dense layout caps at {MAX_DENSE_CELLS} cells",
            self.cell,
            self.key_min,
            self.key_max
        );
        debug_assert!(
            n < u32::MAX as usize,
            "member count overflows the u32 CSR index"
        );
        self.rows = rows as usize;
        let ncells = cols as usize * self.rows;

        self.cell_start.resize(ncells + 1, 0);
        for (_, p, _) in members.clone() {
            let c = self.lin(self.key_of(p));
            self.cell_start[c + 1] += 1;
        }
        for c in 0..ncells {
            if self.cell_start[c + 1] > 0 {
                self.occupied += 1;
            }
            self.cell_start[c + 1] += self.cell_start[c];
        }

        self.cursor.clear();
        self.cursor.extend_from_slice(&self.cell_start[..ncells]);
        self.ids.resize(n, 0);
        self.xs.resize(n, 0.0);
        self.ys.resize(n, 0.0);
        self.ws.resize(n, 0.0);
        for (id, p, w) in members {
            let c = self.lin(self.key_of(p));
            let dst = self.cursor[c] as usize;
            self.cursor[c] += 1;
            self.ids[dst] = id;
            self.xs[dst] = p.x;
            self.ys[dst] = p.y;
            self.ws[dst] = w;
        }
    }

    /// Calls `f` for every member of every cell whose rectangle
    /// intersects the bounding box of the ball around `center` — a
    /// superset of the members within `radius`; callers needing the
    /// exact ball must filter by distance themselves.
    pub fn for_each_member_near<F: FnMut(NodeId, Point, f64)>(
        &self,
        center: Point,
        radius: f64,
        mut f: F,
    ) {
        if radius.is_nan() || radius < 0.0 || self.is_empty() {
            return;
        }
        let lo = self.key_of(Point::new(center.x - radius, center.y - radius));
        let hi = self.key_of(Point::new(center.x + radius, center.y + radius));
        let (cx0, cy0) = (lo.0.max(self.key_min.0), lo.1.max(self.key_min.1));
        let (cx1, cy1) = (hi.0.min(self.key_max.0), hi.1.min(self.key_max.1));
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                let (lo, hi) = self.seg(self.lin((cx, cy)));
                for i in lo..hi {
                    f(self.ids[i], Point::new(self.xs[i], self.ys[i]), self.ws[i]);
                }
            }
        }
    }

    /// Visits every occupied cell at Chebyshev ring `ring` around the
    /// cell containing `center` (ring 0 is the center cell itself),
    /// clamped to the occupied-key rectangle. Returns the number of
    /// occupied cells visited.
    ///
    /// Together with [`max_ring_from`](WeightedCellGrid::max_ring_from)
    /// this enumerates every occupied cell exactly once, in
    /// nondecreasing order of a *distance lower bound*: once ring `r`
    /// has been visited, every unvisited member lies at distance
    /// `> (r · cell)` from any point inside the center cell — the
    /// certified far-field cutoff the interference field relies on.
    pub fn for_each_ring_cell<F: FnMut(CellView<'_>)>(
        &self,
        center: Point,
        ring: i64,
        mut f: F,
    ) -> usize {
        if self.is_empty() || ring < 0 {
            return 0;
        }
        let (cx, cy) = self.key_of(center);
        let mut visited = 0;
        let mut visit = |k: CellKey| {
            if !self.in_rect(k) {
                return 0;
            }
            let c = self.lin(k);
            let (lo, hi) = self.seg(c);
            if lo == hi {
                return 0;
            }
            f(CellView {
                ids: &self.ids[lo..hi],
                xs: &self.xs[lo..hi],
                ys: &self.ys[lo..hi],
                ws: &self.ws[lo..hi],
            });
            1
        };
        if ring == 0 {
            return visit((cx, cy));
        }
        // Top and bottom rows of the ring square, full width.
        for x in (cx - ring)..=(cx + ring) {
            visited += visit((x, cy - ring));
            visited += visit((x, cy + ring));
        }
        // Left and right columns, excluding the corners already done.
        for y in (cy - ring + 1)..=(cy + ring - 1) {
            visited += visit((cx - ring, y));
            visited += visit((cx + ring, y));
        }
        visited
    }

    /// The largest ring index around `center` that can contain an
    /// occupied cell (Chebyshev distance from the center key to the
    /// farthest corner of the occupied-key rectangle).
    pub fn max_ring_from(&self, center: Point) -> i64 {
        if self.is_empty() {
            return -1;
        }
        let (cx, cy) = self.key_of(center);
        let dx = (cx - self.key_min.0).abs().max((self.key_max.0 - cx).abs());
        let dy = (cy - self.key_min.1).abs().max((self.key_max.1 - cy).abs());
        dx.max(dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn rejects_zero_cell() {
        let inst = Instance::new(vec![Point::ORIGIN]).unwrap();
        let _ = GridIndex::build(&inst, 0.0);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        for seed in 0..5u64 {
            let inst = gen::uniform_square(200, 1.5, seed).unwrap();
            let grid = GridIndex::build(&inst, 3.0);
            for q in 0..10 {
                let center = inst.position(q * 17 % inst.len());
                for radius in [0.5, 2.0, 10.0, 1e6] {
                    let mut a = grid.nodes_within(center, radius);
                    let mut b = inst.nodes_in_ball(center, radius);
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "seed {seed} radius {radius}");
                }
            }
        }
    }

    proptest::proptest! {
        /// Grid range queries agree with brute force for arbitrary cell
        /// sizes.
        #[test]
        fn grid_matches_bruteforce(seed in 0u64..100, n in 1usize..60,
                                   cell in 0.5f64..20.0, radius in 0.0f64..50.0) {
            let inst = gen::uniform_square(n, 2.0, seed).unwrap();
            let grid = GridIndex::build(&inst, cell);
            let center = inst.position(seed as usize % n);
            let mut a = grid.nodes_within(center, radius);
            let mut b = inst.nodes_in_ball(center, radius);
            a.sort_unstable();
            b.sort_unstable();
            proptest::prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn negative_radius_is_empty() {
        let inst = gen::uniform_square(10, 2.0, 1).unwrap();
        let grid = GridIndex::build(&inst, 1.0);
        assert!(grid.nodes_within(Point::ORIGIN, -1.0).is_empty());
    }

    #[test]
    fn nearest_neighbor_matches_brute_force() {
        let inst = gen::uniform_square(100, 2.0, 3).unwrap();
        let grid = GridIndex::build(&inst, 2.0);
        for u in 0..inst.len() {
            let (nn, d) = grid.nearest_neighbor(u).unwrap();
            let mut best = (usize::MAX, f64::INFINITY);
            for v in 0..inst.len() {
                if v != u {
                    let dv = inst.distance(u, v);
                    if dv < best.1 {
                        best = (v, dv);
                    }
                }
            }
            assert_eq!(nn, best.0, "node {u}");
            assert!((d - best.1).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_neighbor_single_node() {
        let inst = Instance::new(vec![Point::ORIGIN]).unwrap();
        let grid = GridIndex::build(&inst, 1.0);
        assert!(grid.nearest_neighbor(0).is_none());
    }

    #[test]
    fn count_matches_len() {
        let inst = gen::uniform_square(64, 2.0, 9).unwrap();
        let grid = GridIndex::build(&inst, 5.0);
        let c = inst.position(5);
        assert_eq!(grid.count_within(c, 7.5), grid.nodes_within(c, 7.5).len());
    }

    #[test]
    fn cell_iteration_covers_ball() {
        let inst = gen::uniform_square(150, 1.5, 4).unwrap();
        let grid = GridIndex::build(&inst, 2.5);
        let center = inst.position(3);
        for radius in [0.5, 3.0, 12.0] {
            let mut via_cells = Vec::new();
            grid.for_each_cell_within(center, radius, |_, bucket| {
                via_cells.extend(
                    bucket
                        .iter()
                        .copied()
                        .filter(|&id| inst.position(id).distance(center) <= radius),
                );
            });
            via_cells.sort_unstable();
            let mut brute = inst.nodes_in_ball(center, radius);
            brute.sort_unstable();
            assert_eq!(via_cells, brute, "radius {radius}");
        }
    }

    #[test]
    fn weighted_grid_near_is_superset_of_ball() {
        let inst = gen::uniform_square(100, 1.5, 11).unwrap();
        let mut g = WeightedCellGrid::new(2.0);
        g.rebuild(2.0, (0..inst.len()).map(|id| (id, inst.position(id), 1.0)));
        let center = inst.position(0);
        for radius in [1.0, 4.0, 9.0] {
            let mut near = Vec::new();
            g.for_each_member_near(center, radius, |id, _, _| near.push(id));
            for id in inst.nodes_in_ball(center, radius) {
                assert!(near.contains(&id), "node {id} within {radius} missed");
            }
        }
    }

    #[test]
    fn ring_enumeration_visits_every_cell_once_with_distance_bound() {
        let inst = gen::uniform_square(120, 1.5, 6).unwrap();
        let cell = 1.7;
        let mut g = WeightedCellGrid::new(cell);
        g.rebuild(cell, (0..inst.len()).map(|id| (id, inst.position(id), 1.0)));
        let center = inst.position(7);
        let mut seen = 0usize;
        let mut member_total = 0usize;
        for ring in 0..=g.max_ring_from(center) {
            let mut ring_members = Vec::new();
            seen += g.for_each_ring_cell(center, ring, |cell| {
                ring_members.extend(cell.members());
            });
            member_total += ring_members.len();
            // The certified bound: members first reachable at ring r+1 or
            // later are farther than (r · cell) from the center point.
            for &(_, p, _) in &ring_members {
                assert!(
                    p.distance(center) >= ((ring - 1).max(0) as f64) * cell - 1e-12,
                    "ring {ring} member too close: {}",
                    p.distance(center)
                );
            }
        }
        assert_eq!(seen, g.occupied_cells());
        assert_eq!(member_total, g.len());
    }

    /// Rebuilding a used grid must behave exactly like filling a fresh
    /// one (no stale rectangle, counts, or members leaking through).
    #[test]
    fn weighted_grid_rebuild_reuses_cleanly() {
        let mut g = WeightedCellGrid::new(1.0);
        g.rebuild(
            1.0,
            [
                (0, Point::new(100.5, -40.5), 2.0),
                (1, Point::new(103.5, -42.5), 4.0),
            ],
        );
        g.rebuild(2.5, std::iter::empty());
        assert!(g.is_empty());
        assert_eq!(g.occupied_cells(), 0);
        assert_eq!(g.total_weight(), 0.0);
        assert_eq!(g.max_ring_from(Point::ORIGIN), -1);
        assert_eq!(g.cell_size(), 2.5);

        let inst = gen::uniform_square(80, 1.5, 21).unwrap();
        let members = (0..inst.len()).map(|id| (id, inst.position(id), 1.0 + id as f64 * 0.37));
        g.rebuild(2.5, members.clone());
        let mut fresh = WeightedCellGrid::new(2.5);
        fresh.rebuild(2.5, members);
        assert_eq!(g.len(), fresh.len());
        assert_eq!(g.occupied_cells(), fresh.occupied_cells());
        assert_eq!(g.total_weight().to_bits(), fresh.total_weight().to_bits());
        let center = inst.position(9);
        assert_eq!(g.max_ring_from(center), fresh.max_ring_from(center));
        for ring in 0..=g.max_ring_from(center) {
            let mut a = Vec::new();
            let mut b = Vec::new();
            g.for_each_ring_cell(center, ring, |c| a.extend(c.members()));
            fresh.for_each_ring_cell(center, ring, |c| b.extend(c.members()));
            assert_eq!(a, b, "ring {ring}");
        }
    }

    /// Satellite: the degenerate-cell guard. Two members one unit apart
    /// with a tiny cell size produce a key rectangle of ~10¹⁸ cells —
    /// the debug assert must fire *before* the dense table allocates.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "degenerate cell size")]
    fn weighted_grid_rejects_degenerate_cell_rectangle() {
        let mut g = WeightedCellGrid::new(1e-9);
        g.rebuild(
            1e-9,
            [(0, Point::ORIGIN, 1.0), (1, Point::new(1.0, 1.0), 1.0)],
        );
    }

    /// Satellite: cell-index overflow guard at the cast boundary. A
    /// coordinate-to-cell ratio beyond 2³¹ would quantize in the
    /// `f64 → i64` cast; the debug assert in `key_of` names it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cell index overflow")]
    fn weighted_grid_rejects_cell_index_overflow() {
        let g = WeightedCellGrid::new(1e-9);
        let _ = g.key_of(Point::new(1e25, 0.0));
    }

    /// Just inside both guards nothing fires and queries stay sane.
    #[test]
    fn weighted_grid_guard_boundary_is_accepted() {
        let mut g = WeightedCellGrid::new(1.0);
        // Key ~2³¹ − 2: inside the index guard; single occupied cell
        // keeps the rectangle dense-table small.
        let far = Point::new((1u64 << 31) as f64 - 2.0, 0.0);
        g.rebuild(1.0, [(0, far, 1.0)]);
        assert_eq!(g.len(), 1);
        let mut seen = Vec::new();
        g.for_each_member_near(far, 0.5, |id, _, _| seen.push(id));
        assert_eq!(seen, vec![0]);
    }
}
