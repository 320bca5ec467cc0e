//! Property-based tests for links, trees, schedules and sparsity.

use proptest::prelude::*;
use sinr_geom::{gen, NodeId};
use sinr_links::{independence, sparsity, InTree, Link, LinkSet, Schedule};

/// Random valid parent array of size n (parent index < own index after
/// a random relabeling → always acyclic, rooted at the relabeled 0).
fn arb_tree(n: usize, seed: u64) -> InTree {
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut label: Vec<NodeId> = (0..n).collect();
    label.shuffle(&mut rng);
    let mut parents = vec![None; n];
    for pos in 1..n {
        let parent_pos = rng.gen_range(0..pos);
        parents[label[pos]] = Some(label[parent_pos]);
    }
    InTree::from_parents(parents).expect("construction is acyclic")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Dual is an involution and preserves cardinality and degrees.
    #[test]
    fn dual_involution(n in 2usize..40, seed in 0u64..1000) {
        let tree = arb_tree(n, seed);
        let links = tree.aggregation_links();
        let dual = links.dual();
        prop_assert_eq!(dual.dual(), links.clone());
        prop_assert_eq!(dual.len(), links.len());
        for node in links.nodes() {
            prop_assert_eq!(links.degree_of(node), dual.degree_of(node));
        }
    }

    /// Trees: exactly one root, depths consistent, every subtree
    /// contains its own root, and leaf-to-root order is valid.
    #[test]
    fn tree_invariants(n in 1usize..60, seed in 0u64..1000) {
        let tree = arb_tree(n, seed);
        prop_assert_eq!(tree.len(), n);
        let mut roots = 0;
        for u in 0..n {
            match tree.parent(u) {
                None => roots += 1,
                Some(p) => prop_assert_eq!(tree.depth(u), tree.depth(p) + 1),
            }
            prop_assert!(tree.subtree(u).contains(&u));
            prop_assert!(tree.is_ancestor(tree.root(), u));
        }
        prop_assert_eq!(roots, 1);
        let order = tree.leaf_to_root_order();
        // Deepest first, ascending ids within a depth.
        let mut sorted: Vec<NodeId> = (0..n).collect();
        sorted.sort_by_key(|&u| (std::cmp::Reverse(tree.depth(u)), u));
        prop_assert_eq!(&order, &sorted);
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        for u in 0..n {
            if let Some(p) = tree.parent(u) {
                prop_assert!(pos[&u] < pos[&p], "child after parent in order");
            }
        }
    }

    /// LCA symmetry and hop-distance triangle equality through the LCA.
    #[test]
    fn lca_properties(n in 2usize..50, seed in 0u64..500, a in 0usize..50, b in 0usize..50) {
        let tree = arb_tree(n, seed);
        let (a, b) = (a % n, b % n);
        let l = tree.lca(a, b);
        prop_assert_eq!(l, tree.lca(b, a));
        prop_assert!(tree.is_ancestor(l, a));
        prop_assert!(tree.is_ancestor(l, b));
        prop_assert_eq!(
            tree.hop_distance(a, b),
            tree.depth(a) + tree.depth(b) - 2 * tree.depth(l)
        );
    }

    /// Schedule compaction removes exactly the empty slots and keeps
    /// relative order; reversal is an involution.
    #[test]
    fn schedule_compact_and_reverse(slots in proptest::collection::vec(0usize..30, 1..20)) {
        let mut schedule = Schedule::new();
        for (i, &s) in slots.iter().enumerate() {
            // Distinct links: i → i + 1000.
            schedule.assign(Link::new(i, i + 1000), s);
        }
        let original = schedule.clone();
        let removed = schedule.compact();
        let distinct: std::collections::BTreeSet<usize> = slots.iter().copied().collect();
        prop_assert_eq!(schedule.num_slots(), distinct.len());
        prop_assert_eq!(removed, original.num_slots() - distinct.len());
        // Relative order preserved.
        for (la, sa) in original.iter() {
            for (lb, sb) in original.iter() {
                let (ca, cb) = (schedule.slot_of(la).unwrap(), schedule.slot_of(lb).unwrap());
                if sa < sb { prop_assert!(ca < cb); }
                if sa == sb { prop_assert_eq!(ca, cb); }
            }
        }
        prop_assert_eq!(original.reversed().reversed(), original.clone());
    }

    /// Sparsity is monotone under subsets and the lower bound never
    /// exceeds the upper bound, on MST workloads.
    #[test]
    fn sparsity_bounds(n in 2usize..48, seed in 0u64..500) {
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let links: LinkSet = sinr_geom::mst::mst_parent_array(&inst, 0)
            .iter()
            .enumerate()
            .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
            .collect();
        let lo = sparsity::sparsity_lower_bound(&inst, &links);
        let hi = sparsity::sparsity_upper_bound(&inst, &links);
        prop_assert!(lo <= hi);
        // Halve the set: sparsity cannot grow.
        let mut half = LinkSet::new();
        for (i, l) in links.iter().enumerate() {
            if i % 2 == 0 { half.insert(l); }
        }
        prop_assert!(sparsity::sparsity_lower_bound(&inst, &half) <= lo);
    }

    /// q-independence partitions are correct for any q, and coarser q
    /// never needs fewer classes.
    #[test]
    fn independence_partition(n in 2usize..30, seed in 0u64..300) {
        let inst = gen::uniform_square(n, 2.5, seed).unwrap();
        let links: LinkSet = sinr_geom::mst::mst_parent_array(&inst, 0)
            .iter()
            .enumerate()
            .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
            .collect();
        let small_q = independence::partition_q_independent(&inst, &links, 0.5);
        let big_q = independence::partition_q_independent(&inst, &links, 2.0);
        prop_assert!(small_q.len() <= big_q.len());
        for class in &big_q {
            let v = class.links();
            for i in 0..v.len() {
                for j in (i + 1)..v.len() {
                    prop_assert!(independence::are_q_independent(&inst, v[i], v[j], 2.0));
                }
            }
        }
        let total: usize = big_q.iter().map(LinkSet::len).sum();
        prop_assert_eq!(total, links.len());
    }
}
