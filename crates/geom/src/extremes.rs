//! Extreme pairwise distances of a point set.
//!
//! [`Instance`](crate::Instance) construction needs exactly two scalars
//! from the raw points — the minimum pairwise distance (the paper's
//! normalization unit, and the coincidence check) and the maximum
//! pairwise distance `Δ`. The reference implementation is the exact
//! `O(n²)` scan [`extreme_distances_naive`]; [`extreme_distances_grid`]
//! computes the *same values, bit for bit* subquadratically:
//!
//! - **minimum**: bucket the points into a uniform grid and run an
//!   expanding Chebyshev-ring nearest-neighbor search from every point,
//!   pruned by the global best — once a ring's distance lower bound
//!   exceeds the best candidate, no unseen point can improve (or
//!   lexicographically tie) it;
//! - **maximum**: the diameter endpoints are convex-hull vertices
//!   (Andrew's monotone chain, `O(n log n)`), so scanning hull-vertex ×
//!   point pairs (`O(hn)`, hull size `h ≪ n`) covers the argmax pair.
//!
//! Both paths evaluate candidate pairs with the same
//! [`Point::distance_sq`] expression the naive scan uses, and the
//! min/max of a set of `f64`s does not depend on the order candidates
//! are compared in, so the returned values are bit-identical — the
//! parity gate in `tests/determinism.rs` and this module's own tests
//! enforce it. [`extreme_distances`] dispatches on `n`.

use crate::Point;

/// The extreme pairwise distances of a point set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Extremes {
    /// Minimum pairwise distance.
    pub min: f64,
    /// Maximum pairwise distance (`Δ`).
    pub max: f64,
    /// The lexicographically first `(i, j)`, `i < j`, attaining the
    /// minimum — the pair reported by the coincidence check.
    pub min_pair: (usize, usize),
}

/// Below this many points the quadratic scan is cheaper than building
/// any index, so [`extreme_distances`] dispatches to the naive path.
const GRID_CUTOFF: usize = 256;

/// Cells per grid axis: `≈ √n` keeps the expected bucket occupancy
/// constant on density-bounded instances, clamped so degenerate spreads
/// (exponential chains) cannot allocate unbounded cell tables.
const MAX_CELLS_PER_AXIS: usize = 512;

/// Relative safety margin on ring-search stop conditions: the geometric
/// distance lower bound `ring · cell` holds in real arithmetic, so the
/// float comparison keeps one extra ring of slack rather than trusting
/// the last ulp.
const RING_MARGIN: f64 = 1.0 - 1e-12;

/// Exact `O(n²)` reference scan for the extreme pairwise distances.
///
/// Returns `None` for fewer than two points. This is the parity
/// reference for [`extreme_distances_grid`]; the dispatcher
/// [`extreme_distances`] still uses it directly for small inputs, where
/// it beats any index.
pub fn extreme_distances_naive(points: &[Point]) -> Option<Extremes> {
    if points.len() < 2 {
        return None;
    }
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let mut min_pair = (0, 1);
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let d = points[i].distance_sq(points[j]);
            if d < min {
                min = d;
                min_pair = (i, j);
            }
            max = max.max(d);
        }
    }
    Some(Extremes {
        min: min.sqrt(),
        max: max.sqrt(),
        min_pair,
    })
}

/// Grid-and-hull computation of the extreme pairwise distances,
/// bit-identical to [`extreme_distances_naive`] (see module docs).
///
/// Returns `None` for fewer than two points. Subquadratic on
/// density-bounded instances (uniform, clustered, lattice); a spread so
/// skewed that most points share one clamped cell (extreme exponential
/// chains) degrades toward the quadratic scan but never loses
/// exactness.
pub fn extreme_distances_grid(points: &[Point]) -> Option<Extremes> {
    if points.len() < 2 {
        return None;
    }
    let (min, min_pair) = min_pair_grid(points);
    let max = diameter_sq_hull(points);
    Some(Extremes {
        min: min.sqrt(),
        max: max.sqrt(),
        min_pair,
    })
}

/// The extreme pairwise distances: dispatches to the naive scan below
/// `GRID_CUTOFF` (256) points and to the grid/hull path above it. Both
/// paths return identical bits.
pub fn extreme_distances(points: &[Point]) -> Option<Extremes> {
    if points.len() <= GRID_CUTOFF {
        extreme_distances_naive(points)
    } else {
        extreme_distances_grid(points)
    }
}

/// The maximum pairwise distance `Δ` of a point set alone (`0` for
/// fewer than two points): the `max` half of [`extreme_distances`],
/// with the same dispatch — the naive scan up to `GRID_CUTOFF` (256)
/// points, the hull scan above — and the same bits.
///
/// Callers that need the diameter of a subset (e.g. `Init`'s
/// participants) get it in `O(k log k)` instead of a pairwise scan:
/// `max √d² = √(max d²)` because `sqrt` is correctly rounded and
/// monotone, and every path compares [`Point::distance_sq`] values.
pub fn diameter(points: &[Point]) -> f64 {
    if points.len() <= GRID_CUTOFF {
        extreme_distances_naive(points).map_or(0.0, |e| e.max)
    } else {
        diameter_sq_hull(points).sqrt()
    }
}

#[cfg(test)]
thread_local! {
    /// Cells visited by [`DenseGrid::for_each_ring_member`] on this
    /// thread, for the MST's scaling test.
    pub(crate) static CELL_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A minimal dense bucket grid over a point slice, shared by the
/// closest-pair search here and the MST candidate pruning in
/// [`crate::mst`]. Cells are addressed row-major; out-of-range rings
/// clamp to the table.
pub(crate) struct DenseGrid {
    cell: f64,
    cols: usize,
    rows: usize,
    min_x: f64,
    min_y: f64,
    pub(crate) buckets: Vec<Vec<usize>>,
}

impl DenseGrid {
    /// Builds the grid with `≈ axis_cells²` cells over the bounding box.
    pub(crate) fn build(points: &[Point], axis_cells: usize) -> Self {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let span = (max_x - min_x).max(max_y - min_y).max(f64::MIN_POSITIVE);
        let axis = axis_cells.clamp(1, MAX_CELLS_PER_AXIS);
        let cell = span / axis as f64;
        let cols = (((max_x - min_x) / cell).floor() as usize + 1).max(1);
        let rows = (((max_y - min_y) / cell).floor() as usize + 1).max(1);
        let mut grid = DenseGrid {
            cell,
            cols,
            rows,
            min_x,
            min_y,
            buckets: vec![Vec::new(); cols * rows],
        };
        for (i, p) in points.iter().enumerate() {
            let k = grid.key_of(*p);
            grid.buckets[k].push(i);
        }
        grid
    }

    /// Cell side length.
    #[inline]
    pub(crate) fn cell(&self) -> f64 {
        self.cell
    }

    /// Row-major bucket index of the cell containing `p`.
    #[inline]
    pub(crate) fn key_of(&self, p: Point) -> usize {
        let cx = (((p.x - self.min_x) / self.cell).floor() as usize).min(self.cols - 1);
        let cy = (((p.y - self.min_y) / self.cell).floor() as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// Removes one occurrence of `id` from its bucket (order within the
    /// bucket is not preserved — callers must not depend on it).
    pub(crate) fn remove(&mut self, id: usize, p: Point) {
        let k = self.key_of(p);
        let bucket = &mut self.buckets[k];
        if let Some(pos) = bucket.iter().position(|&m| m == id) {
            bucket.swap_remove(pos);
        }
    }

    /// The largest Chebyshev ring index around `p`'s cell that can
    /// contain a cell of the table.
    pub(crate) fn max_ring_from(&self, p: Point) -> usize {
        let k = self.key_of(p);
        let (cx, cy) = (k % self.cols, k / self.cols);
        let dx = cx.max(self.cols - 1 - cx);
        let dy = cy.max(self.rows - 1 - cy);
        dx.max(dy)
    }

    /// Calls `f` with every member of every cell at Chebyshev ring
    /// `ring` around `p`'s cell (ring 0 is the cell itself), clamped to
    /// the table.
    pub(crate) fn for_each_ring_member<F: FnMut(usize)>(&self, p: Point, ring: usize, mut f: F) {
        let k = self.key_of(p);
        let (cx, cy) = ((k % self.cols) as i64, (k / self.cols) as i64);
        let r = ring as i64;
        let (x0, x1) = ((cx - r).max(0), (cx + r).min(self.cols as i64 - 1));
        let (y0, y1) = ((cy - r).max(0), (cy + r).min(self.rows as i64 - 1));
        let visit = |x: i64, y: i64, f: &mut F| {
            #[cfg(test)]
            CELL_VISITS.with(|c| c.set(c.get() + 1));
            for &m in &self.buckets[y as usize * self.cols + x as usize] {
                f(m);
            }
        };
        if r == 0 {
            visit(cx, cy, &mut f);
            return;
        }
        for y in y0..=y1 {
            // Only the border of the ring square belongs to this ring.
            if y == cy - r || y == cy + r {
                for x in x0..=x1 {
                    visit(x, y, &mut f);
                }
            } else {
                if cx - r >= 0 {
                    visit(cx - r, y, &mut f);
                }
                if cx + r < self.cols as i64 {
                    visit(cx + r, y, &mut f);
                }
            }
        }
    }
}

/// Globally closest pair via per-point expanding-ring search, with the
/// naive scan's tie-break: lexicographically smallest `(d², i, j)`,
/// `i < j`.
fn min_pair_grid(points: &[Point]) -> (f64, (usize, usize)) {
    let axis = (points.len() as f64).sqrt().ceil() as usize;
    let grid = DenseGrid::build(points, axis);
    let cell = grid.cell();
    let mut best = (f64::INFINITY, (0usize, 1usize));
    for (i, p) in points.iter().enumerate() {
        let max_ring = grid.max_ring_from(*p);
        for ring in 0..=max_ring {
            // Every unseen point sits beyond `(ring − 1) · cell`; once
            // that bound (with margin) exceeds the best distance, later
            // rings can neither improve nor tie the lex-min pair.
            if ring >= 2 {
                let bound = (ring - 1) as f64 * cell * RING_MARGIN;
                if best.0 < bound * bound {
                    break;
                }
            }
            grid.for_each_ring_member(*p, ring, |j| {
                if j == i {
                    return;
                }
                let pair = (i.min(j), i.max(j));
                let d = points[pair.0].distance_sq(points[pair.1]);
                if d < best.0 || (d == best.0 && pair < best.1) {
                    best = (d, pair);
                }
            });
        }
    }
    best
}

/// Cross product `(b − a) × (c − a)`.
#[inline]
fn cross(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Squared diameter via Andrew's monotone chain + hull-vertex scan.
///
/// The diameter endpoints are vertices of the convex hull; scanning
/// every (hull vertex, point) pair therefore covers the argmax even if
/// float rounding in the orientation test dropped a near-collinear
/// vertex from one side — only pairs with *both* endpoints misclassified
/// could be missed, which requires two independent degeneracies at
/// opposite extremes of the set. The fold uses the same
/// `max(d²)`-then-`sqrt` expressions as the naive scan, so including
/// extra pairs never changes the result bits.
fn diameter_sq_hull(points: &[Point]) -> f64 {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_unstable_by(|&a, &b| {
        (points[a].x, points[a].y)
            .partial_cmp(&(points[b].x, points[b].y))
            .expect("instance points are finite")
    });
    let mut hull: Vec<usize> = Vec::with_capacity(idx.len() + 1);
    // Lower then upper chain; non-left turns (including collinear) pop.
    for pass in 0..2 {
        let start = hull.len();
        let iter: Box<dyn Iterator<Item = &usize>> = if pass == 0 {
            Box::new(idx.iter())
        } else {
            Box::new(idx.iter().rev())
        };
        for &i in iter {
            while hull.len() >= start + 2
                && cross(
                    points[hull[hull.len() - 2]],
                    points[hull[hull.len() - 1]],
                    points[i],
                ) <= 0.0
            {
                hull.pop();
            }
            hull.push(i);
        }
        hull.pop(); // chain endpoint repeats as the next chain's start
    }
    if hull.is_empty() {
        // Fully degenerate input (all points identical cannot happen for
        // n ≥ 2 distinct points, but stay total).
        hull = idx;
    }
    let mut max: f64 = 0.0;
    for &h in &hull {
        for p in points {
            max = max.max(points[h].distance_sq(*p));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn assert_parity(points: &[Point], what: &str) {
        let naive = extreme_distances_naive(points);
        let grid = extreme_distances_grid(points);
        match (naive, grid) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.min.to_bits(), b.min.to_bits(), "{what}: min bits");
                assert_eq!(a.max.to_bits(), b.max.to_bits(), "{what}: max bits");
                assert_eq!(a.min_pair, b.min_pair, "{what}: min pair");
            }
            other => panic!("{what}: presence diverged: {other:?}"),
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(extreme_distances(&[]), None);
        assert_eq!(extreme_distances(&[Point::ORIGIN]), None);
        assert_eq!(extreme_distances_grid(&[Point::ORIGIN]), None);
        let two = [Point::ORIGIN, Point::new(3.0, 4.0)];
        let e = extreme_distances_grid(&two).unwrap();
        assert_eq!(e.min, 5.0);
        assert_eq!(e.max, 5.0);
        assert_eq!(e.min_pair, (0, 1));
    }

    #[test]
    fn parity_on_every_generator_family() {
        for seed in 0..4u64 {
            for (what, inst) in [
                ("uniform", gen::uniform_square(300, 1.5, seed).unwrap()),
                ("clustered", gen::clustered(12, 25, 1.5, 2.0, seed).unwrap()),
                ("lattice", gen::grid_lattice(17, 18, 0.25, seed).unwrap()),
                ("chain", gen::exponential_chain(40, 1.4, seed).unwrap()),
                ("line", gen::line(64).unwrap()),
                ("annulus", gen::annulus(280, 6.0, 14.0, seed).unwrap()),
            ] {
                assert_parity(inst.points(), what);
            }
        }
    }

    #[test]
    fn coincident_points_are_found() {
        // Two coincident pairs: the lex-first one must be reported.
        let mut pts: Vec<Point> = gen::uniform_square(400, 1.5, 9).unwrap().into();
        let a = pts[37];
        let b = pts[101];
        pts.push(b); // (101, 400)
        pts.push(a); // (37, 401)
        assert_parity(&pts, "coincident");
        let e = extreme_distances_grid(&pts).unwrap();
        assert_eq!(e.min, 0.0);
        // The naive scan's i-major order reaches i = 37 first.
        assert_eq!(e.min_pair, (37, 401));
    }

    #[test]
    fn collinear_diameter() {
        let pts: Vec<Point> = gen::line(300).unwrap().into();
        assert_parity(&pts, "line-300");
    }

    /// Subsets on both sides of the cutoff, and the full set, get the
    /// bits of the pairwise `Point::distance` scan `Init` once ran.
    #[test]
    fn diameter_matches_the_pairwise_scan_on_subsets() {
        let pairwise = |pts: &[Point]| {
            let mut max = 0.0f64;
            for (i, p) in pts.iter().enumerate() {
                for q in &pts[i + 1..] {
                    max = max.max(p.distance(*q));
                }
            }
            max
        };
        for seed in 0..3u64 {
            let all: Vec<Point> = gen::uniform_square(600, 1.5, seed).unwrap().into();
            for k in [2usize, 200, 300] {
                // A strided partial mask, so the subset spans the square.
                let stride = all.len() / k;
                let subset: Vec<Point> = all.iter().step_by(stride).take(k).copied().collect();
                assert_eq!(subset.len(), k);
                assert_eq!(
                    diameter(&subset).to_bits(),
                    pairwise(&subset).to_bits(),
                    "seed {seed}, {k} participants"
                );
            }
            assert_eq!(diameter(&all).to_bits(), pairwise(&all).to_bits());
            assert_eq!(
                diameter(&all),
                extreme_distances(&all).unwrap().max,
                "seed {seed}: the full set's diameter is its Δ"
            );
        }
        assert_eq!(diameter(&[]), 0.0);
        assert_eq!(diameter(&[Point::ORIGIN]), 0.0);
    }

    #[test]
    fn dispatch_matches_both_paths() {
        let big: Vec<Point> = gen::uniform_square(400, 1.5, 3).unwrap().into();
        let small: Vec<Point> = gen::uniform_square(40, 1.5, 3).unwrap().into();
        assert_eq!(extreme_distances(&big), extreme_distances_grid(&big));
        assert_eq!(extreme_distances(&small), extreme_distances_naive(&small));
    }
}
