//! Seeded instance generators.
//!
//! Every generator is deterministic in its `seed` and returns a
//! [normalized](crate::Instance::is_normalized) instance (minimum pairwise
//! distance exactly 1), matching the paper's model assumption.
//!
//! The families cover the workloads the experiments need:
//!
//! - [`uniform_square`] / [`uniform_disk`] — the standard random
//!   deployments used to sweep `n`;
//! - [`clustered`] — sensor-style clustered deployments (near/far mix);
//! - [`grid_lattice`] — worst-case-regular deployments;
//! - [`exponential_chain`] — instances whose `Δ` grows exponentially in
//!   `n`, used to sweep `log Δ` independently of `n`;
//! - [`line()`] — evenly spaced collinear points (degenerate geometry);
//! - [`annulus`] — ring deployments (hollow center);
//! - [`two_tier`] — a sparse backbone lattice of hubs, each with a
//!   tight cluster of members (the heterogeneous power-class family);
//! - [`percolation`] — a Bernoulli-occupied jittered lattice, swept
//!   through the site-percolation threshold by the density ladder.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{GeomError, Instance, Point, Result};

/// Maximum attempts at regenerating an instance whose random draw
/// produced coincident points (probability ~0 for `f64` draws).
const MAX_ATTEMPTS: u32 = 16;

fn param_err(name: &'static str, reason: &'static str) -> GeomError {
    GeomError::InvalidParameter { name, reason }
}

fn build_with_retry<F>(seed: u64, mut draw: F) -> Result<Instance>
where
    F: FnMut(&mut StdRng) -> Vec<Point>,
{
    let mut last = Err(GeomError::EmptyInstance);
    for attempt in 0..MAX_ATTEMPTS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(u64::from(attempt) << 32));
        last = Instance::normalized(draw(&mut rng));
        match &last {
            Ok(_) => return last,
            Err(GeomError::CoincidentPoints { .. }) => continue,
            Err(_) => return last,
        }
    }
    last
}

/// `n` points drawn uniformly at random from a square of side
/// `spread · √n` (constant expected density as `n` grows), then
/// normalized to minimum distance 1.
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] if `n == 0` or `spread` is not
/// strictly positive and finite.
pub fn uniform_square(n: usize, spread: f64, seed: u64) -> Result<Instance> {
    if n == 0 {
        return Err(param_err("n", "must be at least 1"));
    }
    if !(spread.is_finite() && spread > 0.0) {
        return Err(param_err("spread", "must be positive and finite"));
    }
    let side = spread * (n as f64).sqrt();
    build_with_retry(seed, |rng| {
        let d = Uniform::new_inclusive(0.0, side);
        (0..n)
            .map(|_| Point::new(d.sample(rng), d.sample(rng)))
            .collect()
    })
}

/// `n` points drawn uniformly at random from a disk of radius
/// `spread · √n`, then normalized.
///
/// # Errors
///
/// Same parameter conditions as [`uniform_square`].
pub fn uniform_disk(n: usize, spread: f64, seed: u64) -> Result<Instance> {
    if n == 0 {
        return Err(param_err("n", "must be at least 1"));
    }
    if !(spread.is_finite() && spread > 0.0) {
        return Err(param_err("spread", "must be positive and finite"));
    }
    let radius = spread * (n as f64).sqrt();
    build_with_retry(seed, |rng| {
        (0..n)
            .map(|_| {
                let r = radius * rng.gen::<f64>().sqrt();
                let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                Point::new(r * theta.cos(), r * theta.sin())
            })
            .collect()
    })
}

/// A `rows × cols` lattice with unit spacing, each point perturbed by a
/// uniform jitter of at most `jitter` in each coordinate.
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] if the lattice is empty or
/// `jitter ∉ [0, 0.45)` (larger jitter could collapse neighbors).
pub fn grid_lattice(rows: usize, cols: usize, jitter: f64, seed: u64) -> Result<Instance> {
    if rows == 0 || cols == 0 {
        return Err(param_err("rows/cols", "lattice must be non-empty"));
    }
    if !(jitter.is_finite() && (0.0..0.45).contains(&jitter)) {
        return Err(param_err("jitter", "must lie in [0, 0.45)"));
    }
    build_with_retry(seed, |rng| {
        let mut pts = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let jx = if jitter > 0.0 {
                    rng.gen_range(-jitter..jitter)
                } else {
                    0.0
                };
                let jy = if jitter > 0.0 {
                    rng.gen_range(-jitter..jitter)
                } else {
                    0.0
                };
                pts.push(Point::new(c as f64 + jx, r as f64 + jy));
            }
        }
        pts
    })
}

/// A Thomas-style clustered deployment: `clusters` cluster centers drawn
/// uniformly from a square of side `spread · √(clusters · per_cluster)`,
/// each with `per_cluster` points at Gaussian-ish offsets of scale
/// `cluster_radius`.
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] on zero counts or non-positive
/// `spread`/`cluster_radius`.
pub fn clustered(
    clusters: usize,
    per_cluster: usize,
    cluster_radius: f64,
    spread: f64,
    seed: u64,
) -> Result<Instance> {
    if clusters == 0 || per_cluster == 0 {
        return Err(param_err("clusters/per_cluster", "must be at least 1"));
    }
    if !(cluster_radius.is_finite() && cluster_radius > 0.0) {
        return Err(param_err("cluster_radius", "must be positive and finite"));
    }
    if !(spread.is_finite() && spread > 0.0) {
        return Err(param_err("spread", "must be positive and finite"));
    }
    let n = clusters * per_cluster;
    let side = spread * (n as f64).sqrt();
    build_with_retry(seed, |rng| {
        let d = Uniform::new_inclusive(0.0, side);
        let mut pts = Vec::with_capacity(n);
        for _ in 0..clusters {
            let center = Point::new(d.sample(rng), d.sample(rng));
            for _ in 0..per_cluster {
                // Sum of two uniforms approximates a centered Gaussian
                // without needing a normal-distribution dependency.
                let off =
                    |rng: &mut StdRng| cluster_radius * (rng.gen::<f64>() + rng.gen::<f64>() - 1.0);
                pts.push(Point::new(center.x + off(rng), center.y + off(rng)));
            }
        }
        pts
    })
}

/// `n` points on a near-line with exponentially growing gaps: the gap
/// after point `i` is `growth^i`. The aspect ratio is
/// `Δ ≈ (growth^{n-1} - 1)/(growth - 1)`, so `log Δ ≈ (n-1)·log growth`
/// — the family used to sweep `log Δ` independently of `n`.
///
/// A small deterministic perpendicular offset (±0.1, alternating) avoids
/// exact collinearity, which keeps MST tie-breaking and sparsity-ball
/// counting well-behaved without affecting lengths meaningfully.
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] if `n == 0`, or `growth < 1`,
/// or the largest gap overflows `f64`.
pub fn exponential_chain(n: usize, growth: f64, seed: u64) -> Result<Instance> {
    if n == 0 {
        return Err(param_err("n", "must be at least 1"));
    }
    if !(growth.is_finite() && growth >= 1.0) {
        return Err(param_err("growth", "must be ≥ 1 and finite"));
    }
    if n > 2 && growth.powi(n as i32 - 2) > 1e280 {
        return Err(param_err("growth", "growth^(n-2) overflows f64"));
    }
    build_with_retry(seed, |rng| {
        let mut pts = Vec::with_capacity(n);
        let mut x = 0.0;
        let mut gap = 1.0;
        for i in 0..n {
            let y = if i % 2 == 0 { 0.1 } else { -0.1 };
            // Tiny seeded jitter keeps distinct seeds distinct while
            // preserving the designed length profile.
            let eps = rng.gen::<f64>() * 1e-3;
            pts.push(Point::new(x + eps, y));
            x += gap;
            gap *= growth;
        }
        pts
    })
}

/// `n` evenly spaced points on a horizontal line (spacing 1).
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] if `n == 0`.
pub fn line(n: usize) -> Result<Instance> {
    if n == 0 {
        return Err(param_err("n", "must be at least 1"));
    }
    Instance::normalized((0..n).map(|i| Point::new(i as f64, 0.0)).collect())
}

/// `n` points uniform on an annulus with the given radii (before
/// normalization).
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] if `n == 0` or the radii are
/// not `0 ≤ inner < outer < ∞`.
pub fn annulus(n: usize, inner: f64, outer: f64, seed: u64) -> Result<Instance> {
    if n == 0 {
        return Err(param_err("n", "must be at least 1"));
    }
    if !(inner.is_finite() && outer.is_finite() && 0.0 <= inner && inner < outer) {
        return Err(param_err("inner/outer", "need 0 ≤ inner < outer < ∞"));
    }
    build_with_retry(seed, |rng| {
        (0..n)
            .map(|_| {
                // Area-uniform radius between inner and outer.
                let u = rng.gen::<f64>();
                let r = (inner * inner + u * (outer * outer - inner * inner)).sqrt();
                let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                Point::new(r * theta.cos(), r * theta.sin())
            })
            .collect()
    })
}

/// A two-tier deployment: `hubs` backbone nodes on a coarse jittered
/// lattice with spacing `hub_spacing`, each surrounded by `members`
/// member nodes at Gaussian-ish offsets of scale `member_radius`. Node
/// order is hub-major (hub `i` at index `i·(members+1)`), so callers
/// can derive per-node power classes from the index alone.
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] on zero counts, a
/// non-positive `member_radius`, or `hub_spacing < 4·member_radius`
/// (clusters would overlap their neighbors).
pub fn two_tier(
    hubs: usize,
    members: usize,
    member_radius: f64,
    hub_spacing: f64,
    seed: u64,
) -> Result<Instance> {
    if hubs == 0 {
        return Err(param_err("hubs", "must be at least 1"));
    }
    if !(member_radius.is_finite() && member_radius > 0.0) {
        return Err(param_err("member_radius", "must be positive and finite"));
    }
    if !(hub_spacing.is_finite() && hub_spacing >= 4.0 * member_radius) {
        return Err(param_err(
            "hub_spacing",
            "must be finite and at least 4·member_radius",
        ));
    }
    let cols = (hubs as f64).sqrt().ceil() as usize;
    build_with_retry(seed, |rng| {
        let mut pts = Vec::with_capacity(hubs * (members + 1));
        for h in 0..hubs {
            let (r, c) = (h / cols, h % cols);
            let jx = rng.gen_range(-0.1..0.1) * hub_spacing;
            let jy = rng.gen_range(-0.1..0.1) * hub_spacing;
            let center = Point::new(c as f64 * hub_spacing + jx, r as f64 * hub_spacing + jy);
            pts.push(center);
            for _ in 0..members {
                let off =
                    |rng: &mut StdRng| member_radius * (rng.gen::<f64>() + rng.gen::<f64>() - 1.0);
                pts.push(Point::new(center.x + off(rng), center.y + off(rng)));
            }
        }
        pts
    })
}

/// A site-percolation deployment: a `rows × cols` unit lattice where
/// each site survives independently with probability `occupancy`, then
/// per-coordinate jitter as in [`grid_lattice`]. The 2D site-percolation
/// threshold is ≈ 0.5927, so sweeping `occupancy` through it moves the
/// instance from dust through the critical regime to a dense grid. The
/// site nearest the lattice center is always kept (an instance cannot
/// be empty), so every draw is non-empty deterministically.
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] if the lattice is empty,
/// `occupancy ∉ (0, 1]` or `jitter ∉ [0, 0.45)`.
pub fn percolation(
    rows: usize,
    cols: usize,
    occupancy: f64,
    jitter: f64,
    seed: u64,
) -> Result<Instance> {
    if rows == 0 || cols == 0 {
        return Err(param_err("rows/cols", "lattice must be non-empty"));
    }
    if !(occupancy.is_finite() && occupancy > 0.0 && occupancy <= 1.0) {
        return Err(param_err("occupancy", "must lie in (0, 1]"));
    }
    if !(jitter.is_finite() && (0.0..0.45).contains(&jitter)) {
        return Err(param_err("jitter", "must lie in [0, 0.45)"));
    }
    let anchor = (rows / 2, cols / 2);
    build_with_retry(seed, |rng| {
        let mut pts = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                // Draw before the keep decision so the jitter stream is
                // identical across occupancies (same seed ⇒ kept sites
                // sit at the same perturbed coordinates in every rung
                // of the density ladder).
                let keep = rng.gen::<f64>() < occupancy;
                let jx = if jitter > 0.0 {
                    rng.gen_range(-jitter..jitter)
                } else {
                    0.0
                };
                let jy = if jitter > 0.0 {
                    rng.gen_range(-jitter..jitter)
                } else {
                    0.0
                };
                if keep || (r, c) == anchor {
                    pts.push(Point::new(c as f64 + jx, r as f64 + jy));
                }
            }
        }
        pts
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_square_is_normalized_and_deterministic() {
        let a = uniform_square(100, 1.5, 11).unwrap();
        let b = uniform_square(100, 1.5, 11).unwrap();
        assert_eq!(a, b);
        assert!(a.is_normalized());
        assert_eq!(a.len(), 100);
        let c = uniform_square(100, 1.5, 12).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_square_rejects_bad_params() {
        assert!(uniform_square(0, 1.0, 0).is_err());
        assert!(uniform_square(10, 0.0, 0).is_err());
        assert!(uniform_square(10, f64::NAN, 0).is_err());
    }

    #[test]
    fn uniform_disk_in_disk() {
        let inst = uniform_disk(256, 1.0, 5).unwrap();
        assert!(inst.is_normalized());
        assert_eq!(inst.len(), 256);
    }

    #[test]
    fn lattice_shape() {
        let inst = grid_lattice(4, 8, 0.0, 0).unwrap();
        assert_eq!(inst.len(), 32);
        assert!(inst.is_normalized());
        // Unit lattice: min distance 1, delta the diagonal.
        assert!((inst.delta() - (49.0_f64 + 9.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn lattice_rejects_bad_jitter() {
        assert!(grid_lattice(2, 2, 0.45, 0).is_err());
        assert!(grid_lattice(2, 2, -0.1, 0).is_err());
        assert!(grid_lattice(0, 2, 0.0, 0).is_err());
    }

    #[test]
    fn clustered_counts() {
        let inst = clustered(5, 10, 1.0, 3.0, 21).unwrap();
        assert_eq!(inst.len(), 50);
        assert!(inst.is_normalized());
    }

    #[test]
    fn exponential_chain_delta_grows() {
        let small = exponential_chain(8, 1.5, 0).unwrap();
        let big = exponential_chain(8, 2.5, 0).unwrap();
        assert!(big.delta() > small.delta());
        assert!(big.num_length_classes() > small.num_length_classes());
    }

    #[test]
    fn exponential_chain_rejects_overflow() {
        assert!(exponential_chain(2000, 2.0, 0).is_err());
        assert!(exponential_chain(8, 0.5, 0).is_err());
    }

    #[test]
    fn line_spacing() {
        let inst = line(10).unwrap();
        assert_eq!(inst.len(), 10);
        assert_eq!(inst.delta(), 9.0);
        assert!(line(0).is_err());
    }

    #[test]
    fn annulus_radii() {
        let inst = annulus(64, 5.0, 10.0, 4).unwrap();
        assert_eq!(inst.len(), 64);
        assert!(annulus(10, 5.0, 5.0, 0).is_err());
        assert!(annulus(10, -1.0, 5.0, 0).is_err());
    }

    #[test]
    fn two_tier_counts_and_order() {
        let inst = two_tier(4, 5, 1.0, 8.0, 7).unwrap();
        assert_eq!(inst.len(), 24);
        assert!(inst.is_normalized());
        // Deterministic in the seed.
        assert_eq!(inst, two_tier(4, 5, 1.0, 8.0, 7).unwrap());
        assert_ne!(inst, two_tier(4, 5, 1.0, 8.0, 8).unwrap());
        assert!(two_tier(0, 5, 1.0, 8.0, 0).is_err());
        assert!(two_tier(4, 5, 1.0, 2.0, 0).is_err());
    }

    #[test]
    fn percolation_density_ladder() {
        let sparse = percolation(12, 12, 0.3, 0.2, 3).unwrap();
        let dense = percolation(12, 12, 0.9, 0.2, 3).unwrap();
        assert!(sparse.len() < dense.len());
        assert!(dense.len() <= 144);
        assert!(sparse.is_normalized() && dense.is_normalized());
        assert_eq!(sparse, percolation(12, 12, 0.3, 0.2, 3).unwrap());
        // Even occupancy → 0⁺ keeps the anchor site.
        assert!(!percolation(3, 3, 1e-12, 0.0, 0).unwrap().is_empty());
        assert!(percolation(0, 3, 0.5, 0.0, 0).is_err());
        assert!(percolation(3, 3, 1.5, 0.0, 0).is_err());
    }

    #[test]
    fn single_point_families() {
        assert_eq!(uniform_square(1, 1.0, 0).unwrap().len(), 1);
        assert_eq!(line(1).unwrap().len(), 1);
        assert_eq!(exponential_chain(1, 2.0, 0).unwrap().len(), 1);
    }
}
