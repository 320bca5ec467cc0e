//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use sinr_geom::{gen, Aabb, Instance, Point};

fn finite_coord() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

/// Shared body of the grid-MST properties: spanning, n−1 edges, and a
/// total weight that matches the naive Prim reference bit for bit
/// (stronger than approximate equality — the edge sequences are
/// identical, so the summation order is too).
fn check_grid_mst_against_prim(inst: &Instance) {
    let grid = sinr_geom::mst::euclidean_mst_grid(inst);
    let prim = sinr_geom::mst::euclidean_mst_prim(inst);
    let n = inst.len();
    assert_eq!(grid.len(), n.saturating_sub(1));
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in &grid {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    assert!(seen.into_iter().all(|s| s), "grid MST does not span");
    assert_eq!(
        sinr_geom::mst::total_weight(inst, &grid).to_bits(),
        sinr_geom::mst::total_weight(inst, &prim).to_bits(),
        "grid MST weight bits diverged from Prim"
    );
    assert_eq!(grid, prim, "grid MST edge sequence diverged from Prim");
}

prop_compose! {
    fn arb_point()(x in finite_coord(), y in finite_coord()) -> Point {
        Point::new(x, y)
    }
}

proptest! {
    /// Triangle inequality for point distances.
    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6);
    }

    /// Distance is symmetric and zero only at self.
    #[test]
    fn distance_symmetry(a in arb_point(), b in arb_point()) {
        prop_assert_eq!(a.distance(b), b.distance(a));
        prop_assert_eq!(a.distance(a), 0.0);
    }

    /// Normalization always produces min distance 1 for ≥2 distinct points.
    #[test]
    fn normalization_invariant(seed in 0u64..500, n in 2usize..80) {
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        prop_assert!((inst.min_distance() - 1.0).abs() < 1e-9);
        prop_assert!(inst.delta() >= inst.min_distance());
    }

    /// Length-class of any pairwise distance is within the instance's count.
    #[test]
    fn length_class_bounded(seed in 0u64..200, n in 2usize..40) {
        let inst = gen::uniform_square(n, 2.0, seed).unwrap();
        let classes = inst.num_length_classes();
        for u in 0..n {
            for v in (u + 1)..n {
                let c = Instance::length_class_of(inst.distance(u, v));
                prop_assert!(c >= 1 && c <= classes,
                    "distance {} got class {c} of {classes}", inst.distance(u, v));
            }
        }
    }

    /// The grid MST spans all nodes with n−1 edges and its total weight
    /// equals the naive Prim weight to the bit, on random uniform
    /// instances straddling the dispatch cutoff.
    #[test]
    fn grid_mst_spans_with_prim_weight_uniform(seed in 0u64..40, n in 2usize..400) {
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        check_grid_mst_against_prim(&inst);
    }

    /// Same property on clustered (Thomas-process) instances, whose
    /// dense cells stress the ring pruning differently.
    #[test]
    fn grid_mst_spans_with_prim_weight_clustered(seed in 0u64..40,
                                                 clusters in 2usize..12,
                                                 per in 2usize..24) {
        let inst = gen::clustered(clusters, per, 1.5, 2.0, seed).unwrap();
        check_grid_mst_against_prim(&inst);
    }

    /// MST has n−1 edges and connects everything, on every family.
    #[test]
    fn mst_spans(seed in 0u64..100, n in 1usize..60) {
        let inst = gen::uniform_disk(n, 1.5, seed).unwrap();
        let edges = sinr_geom::mst::euclidean_mst(&inst);
        prop_assert_eq!(edges.len(), n.saturating_sub(1));
        // Reachability from node 0.
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] { seen[v] = true; stack.push(v); }
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Aabb::union contains both inputs' corners.
    #[test]
    fn union_contains(a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point()) {
        let (b1, b2) = (Aabb::from_points([a, b]).unwrap(), Aabb::from_points([c, d]).unwrap());
        let u = b1.union(&b2);
        for p in [a, b, c, d] {
            prop_assert!(u.contains(p));
        }
    }

    /// Generators are deterministic in the seed.
    #[test]
    fn generators_deterministic(seed in 0u64..300) {
        let a = gen::clustered(3, 5, 1.0, 2.0, seed).unwrap();
        let b = gen::clustered(3, 5, 1.0, 2.0, seed).unwrap();
        prop_assert_eq!(a, b);
    }
}
