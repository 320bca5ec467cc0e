//! Bi-trees: aggregation trees with complementary dissemination trees.

use sinr_geom::NodeId;

use crate::{InTree, Link, LinkError, Result, Schedule};

/// An *aggregation tree* with a complementary *dissemination tree*
/// (Definition 1 of the paper): the same links used in both directions,
/// the aggregation schedule satisfying leaf-to-root ordering and the
/// dissemination direction using the same schedule in opposite order.
///
/// With a bi-tree, converge-cast (aggregation), broadcast and any
/// node-to-node communication complete within (twice) the schedule
/// length — the property Theorem 4 exploits to get `O(log n)` latency.
///
/// # Example
///
/// ```
/// use sinr_links::{BiTree, InTree, Link, Schedule};
///
/// let tree = InTree::from_parents(vec![None, Some(0), Some(1)])?;
/// // Chain 2 → 1 → 0: deepest link first.
/// let schedule = Schedule::from_pairs(vec![
///     (Link::new(2, 1), 0),
///     (Link::new(1, 0), 1),
/// ])?;
/// let bitree = BiTree::new(tree, schedule)?;
/// assert_eq!(bitree.num_slots(), 2);
/// # Ok::<(), sinr_links::LinkError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BiTree {
    tree: InTree,
    aggregation: Schedule,
}

impl BiTree {
    /// Creates a bi-tree from a converge-cast tree and an aggregation
    /// schedule, validating coverage, the ordering property — each
    /// link `(x, y)` is scheduled strictly after every link involving
    /// descendants of `x` — and that no two children of a node share a
    /// slot, so a node receives once per aggregation slot and sends
    /// once per dissemination slot.
    ///
    /// # Errors
    ///
    /// - [`LinkError::ScheduleMismatch`] if the schedule does not cover
    ///   exactly the tree's aggregation links;
    /// - [`LinkError::OrderingViolation`] if a link is scheduled no later
    ///   than a link in its sender's subtree;
    /// - [`LinkError::SiblingsShareSlot`] if two children of a node are
    ///   scheduled in the same slot.
    pub fn new(tree: InTree, aggregation: Schedule) -> Result<Self> {
        // One scan indexes the slots by sender while checking that each
        // scheduled link is its sender's uplink. The links are distinct
        // and a sender has one uplink, so one per non-root node covers
        // exactly the tree's aggregation links.
        let mut up = vec![0; tree.len()];
        let (mut uplinks, mut slots) = (0, 0);
        for (l, s) in aggregation.iter() {
            if l.sender >= tree.len() || tree.parent(l.sender) != Some(l.receiver) {
                break;
            }
            up[l.sender] = s;
            uplinks += 1;
            slots = slots.max(s + 1);
        }
        if uplinks != aggregation.len() || uplinks + 1 != tree.len() {
            // Name the missing or extra link.
            return Err(aggregation
                .validate_covers(&tree.aggregation_links())
                .expect_err("a schedule of exactly the tree's uplinks passes the scan"));
        }
        // Ordering: slot(u → parent(u)) > slot(c → u) for every child c
        // of a non-root u, in order of u, then c. Checking the
        // immediate-child relation suffices by transitivity. A node's
        // children come together, so the last parent heard in a slot
        // is `u` exactly when a sibling of `c` took the slot already.
        let mut heard = vec![usize::MAX; slots];
        for &c in tree.children_by_parent() {
            let u = tree.parent(c).expect("a child has a parent");
            if tree.parent(u).is_some() && up[c] >= up[u] {
                return Err(LinkError::OrderingViolation {
                    child: u,
                    descendant: c,
                });
            }
            if std::mem::replace(&mut heard[up[c]], u) == u {
                return Err(LinkError::SiblingsShareSlot {
                    parent: u,
                    slot: up[c],
                });
            }
        }
        Ok(BiTree { tree, aggregation })
    }

    /// The underlying converge-cast tree.
    #[inline]
    pub fn tree(&self) -> &InTree {
        &self.tree
    }

    /// The aggregation schedule (leaf-to-root ordered).
    #[inline]
    pub fn aggregation_schedule(&self) -> &Schedule {
        &self.aggregation
    }

    /// The dissemination schedule: dual links, slots reversed, so links
    /// nearer the root fire earlier (Definition 1).
    pub fn dissemination_schedule(&self) -> Schedule {
        // Every node's uplink slot, and the occupied range that
        // `Schedule::reversed` flips the slots within.
        let (mut lo, mut hi) = (usize::MAX, 0);
        let mut up = vec![0; self.tree.len()];
        for (l, s) in self.aggregation.iter() {
            up[l.sender] = s;
            (lo, hi) = (lo.min(s), hi.max(s));
        }
        // The duals `p → c` ascend as the children do, grouped by
        // parent: the schedule's own order.
        let tree = &self.tree;
        let duals = tree.children_by_parent().iter().map(|&c| {
            let p = tree.parent(c).expect("a child has a parent");
            (
                Link {
                    sender: p,
                    receiver: c,
                },
                lo + hi - up[c],
            )
        });
        Schedule::from_sorted(duals.collect())
    }

    /// Schedule length in slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.aggregation.num_slots()
    }

    /// Number of nodes spanned.
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the bi-tree is empty (never for a constructed one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Slots needed for a converge-cast from all nodes to the root when
    /// the schedule is repeated once: exactly the schedule length.
    ///
    /// The ordering property guarantees one pass suffices: by the time a
    /// link fires, its sender has heard from its whole subtree.
    pub fn convergecast_latency(&self) -> usize {
        self.num_slots()
    }

    /// Slots needed for a broadcast from the root to all nodes using the
    /// dissemination schedule once.
    pub fn broadcast_latency(&self) -> usize {
        self.num_slots()
    }

    /// Slots for a `u → v` message routed up to the LCA during an
    /// aggregation pass and down during the following dissemination pass.
    ///
    /// Returns the number of slots from the start of the aggregation
    /// pass to delivery: `num_slots() + slot of the last downward link
    /// + 1`, or less when `v` is an ancestor of `u` (no downward phase).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn pairwise_latency(&self, u: NodeId, v: NodeId) -> usize {
        if u == v {
            return 0;
        }
        let lca = self.tree.lca(u, v);
        // Upward: message from u reaches lca during the aggregation pass
        // (by ordering, no later than the last up-link on the path).
        let up_done = if u == lca {
            0
        } else {
            let mut last = 0;
            let mut cur = u;
            while cur != lca {
                let p = self.tree.parent(cur).expect("lca is an ancestor");
                let s = self
                    .aggregation
                    .slot_of(Link::new(cur, p))
                    .expect("tree links are scheduled");
                last = last.max(s + 1);
                cur = p;
            }
            last
        };
        if v == lca {
            return up_done;
        }
        // Downward: dissemination pass starts after the full aggregation
        // pass; the message reaches v at its last down-link slot.
        let dis = self.dissemination_schedule();
        let mut last_down = 0;
        let mut cur = v;
        while cur != lca {
            let p = self.tree.parent(cur).expect("lca is an ancestor");
            let s = dis
                .slot_of(Link::new(p, cur))
                .expect("dual links are scheduled");
            last_down = last_down.max(s + 1);
            cur = p;
        }
        self.num_slots() + last_down
    }

    /// Upper bound on any pairwise latency: two full passes.
    pub fn pairwise_latency_bound(&self) -> usize {
        2 * self.num_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 ← 1 ← {2, 3}; 0 ← 4; slots: leaves first.
    fn sample() -> BiTree {
        let tree = InTree::from_parents(vec![None, Some(0), Some(1), Some(1), Some(0)]).unwrap();
        let schedule = Schedule::from_pairs(vec![
            (Link::new(2, 1), 0),
            (Link::new(3, 1), 1),
            (Link::new(4, 0), 0),
            (Link::new(1, 0), 2),
        ])
        .unwrap();
        BiTree::new(tree, schedule).unwrap()
    }

    #[test]
    fn valid_bitree_constructs() {
        let bt = sample();
        assert_eq!(bt.num_slots(), 3);
        assert_eq!(bt.convergecast_latency(), 3);
        assert_eq!(bt.broadcast_latency(), 3);
    }

    #[test]
    fn rejects_incomplete_schedule() {
        let tree = InTree::from_parents(vec![None, Some(0)]).unwrap();
        let empty = Schedule::new();
        assert!(matches!(
            BiTree::new(tree, empty),
            Err(LinkError::ScheduleMismatch { .. })
        ));
    }

    /// A schedule that is not exactly the tree's uplinks is rejected
    /// with the link it gets wrong: one too many, one reversed, or one
    /// whose sender is not a node of the tree.
    #[test]
    fn rejects_links_outside_the_tree() {
        let tree = InTree::from_parents(vec![None, Some(0), Some(1)]).unwrap();
        let up = [(Link::new(2, 1), 0), (Link::new(1, 0), 1)];
        for (pairs, named) in [
            (vec![up[0], up[1], (Link::new(2, 0), 2)], "2→0"),
            (vec![(Link::new(1, 2), 0), up[1]], "2→1"),
            (vec![up[0], up[1], (Link::new(7, 0), 2)], "7→0"),
        ] {
            let schedule = Schedule::from_pairs(pairs).unwrap();
            match BiTree::new(tree.clone(), schedule) {
                Err(LinkError::ScheduleMismatch { detail }) => {
                    assert!(detail.contains(named), "{detail} should name {named}")
                }
                other => panic!("expected a schedule mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_ordering_violation() {
        let tree = InTree::from_parents(vec![None, Some(0), Some(1)]).unwrap();
        // Parent link fires before child link: invalid aggregation order.
        let schedule =
            Schedule::from_pairs(vec![(Link::new(2, 1), 1), (Link::new(1, 0), 0)]).unwrap();
        assert_eq!(
            BiTree::new(tree, schedule),
            Err(LinkError::OrderingViolation {
                child: 1,
                descendant: 2
            })
        );
    }

    /// Two leaves of a 3-node star in one slot would make their parent
    /// send twice in the dissemination slot; a third child elsewhere
    /// in the slot order does not hide the clash.
    #[test]
    fn rejects_siblings_sharing_a_slot() {
        let star = InTree::from_parents(vec![None, Some(0), Some(0)]).unwrap();
        let up = Schedule::from_pairs([(Link::new(1, 0), 0), (Link::new(2, 0), 0)]).unwrap();
        assert_eq!(
            BiTree::new(star, up),
            Err(LinkError::SiblingsShareSlot { parent: 0, slot: 0 })
        );
        // 0 ← {1, 2, 3}, 1 ← 4: children 1 and 3 of node 0 both in
        // slot 2, with 2 in slot 0 between them in child order.
        let tree = InTree::from_parents(vec![None, Some(0), Some(0), Some(0), Some(1)]).unwrap();
        let up = Schedule::from_pairs([
            (Link::new(4, 1), 1),
            (Link::new(1, 0), 2),
            (Link::new(2, 0), 0),
            (Link::new(3, 0), 2),
        ])
        .unwrap();
        assert_eq!(
            BiTree::new(tree.clone(), up),
            Err(LinkError::SiblingsShareSlot { parent: 0, slot: 2 })
        );
        // Cousins may share a slot: 4's parent is 1, 2's is 0.
        let up = Schedule::from_pairs([
            (Link::new(4, 1), 0),
            (Link::new(1, 0), 2),
            (Link::new(2, 0), 0),
            (Link::new(3, 0), 1),
        ])
        .unwrap();
        assert!(BiTree::new(tree, up).is_ok());
    }

    #[test]
    fn rejects_equal_slot_parent_child() {
        let tree = InTree::from_parents(vec![None, Some(0), Some(1)]).unwrap();
        let schedule =
            Schedule::from_pairs(vec![(Link::new(2, 1), 0), (Link::new(1, 0), 0)]).unwrap();
        assert!(BiTree::new(tree, schedule).is_err());
    }

    #[test]
    fn dissemination_is_reversed_dual() {
        let bt = sample();
        let dis = bt.dissemination_schedule();
        // Aggregation slot 2 for (1→0) ⇒ dissemination slot 0 for (0→1).
        assert_eq!(dis.slot_of(Link::new(0, 1)), Some(0));
        assert_eq!(dis.slot_of(Link::new(1, 2)), Some(2));
        // Root-adjacent link fires first in dissemination.
        let first_slot = dis.links_in_slot(0);
        assert!(first_slot.iter().all(|l| l.sender == 0));
        // Exactly the reversed schedule's duals, also when the occupied
        // range does not start at slot 0.
        let shifted =
            Schedule::from_pairs(bt.aggregation_schedule().iter().map(|(l, s)| (l, s + 3)));
        let shifted = BiTree::new(bt.tree().clone(), shifted.unwrap()).unwrap();
        for bt in [bt, shifted] {
            let expected = bt.aggregation_schedule().reversed().map_links(Link::dual);
            assert_eq!(bt.dissemination_schedule(), expected.unwrap());
        }
    }

    #[test]
    fn pairwise_latency_cases() {
        let bt = sample();
        // Same node: free.
        assert_eq!(bt.pairwise_latency(2, 2), 0);
        // To an ancestor: only the up phase. 2 → 1 fires at slot 0.
        assert_eq!(bt.pairwise_latency(2, 1), 1);
        assert_eq!(bt.pairwise_latency(2, 0), 3);
        // Root to a leaf: only the down phase, after a full up pass.
        let down = bt.pairwise_latency(0, 2);
        assert!(down > bt.num_slots());
        // Cross-subtree: both phases; bounded by two passes.
        let cross = bt.pairwise_latency(2, 4);
        assert!(cross <= bt.pairwise_latency_bound());
        assert!(cross > bt.num_slots());
    }

    #[test]
    fn single_node_bitree() {
        let tree = InTree::from_parents(vec![None]).unwrap();
        let bt = BiTree::new(tree, Schedule::new()).unwrap();
        assert_eq!(bt.num_slots(), 0);
        assert_eq!(bt.pairwise_latency(0, 0), 0);
    }
}
