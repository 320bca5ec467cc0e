//! Rooted spanning in-trees (converge-cast trees).

use sinr_geom::NodeId;

use crate::{Link, LinkError, LinkSet, Result};

/// A rooted spanning in-tree over nodes `0..n`: every node except the
/// root has exactly one outgoing link toward its parent.
///
/// This is the paper's *converge-cast tree* (§3): "a directed rooted
/// spanning tree where all links are oriented towards the root". The
/// same structure, traversed in the opposite direction, is the
/// *dissemination tree* (broadcast arborescence).
///
/// # Example
///
/// ```
/// use sinr_links::InTree;
///
/// // 0 ← 1 ← 2 and 0 ← 3
/// let tree = InTree::from_parents(vec![None, Some(0), Some(1), Some(0)])?;
/// assert_eq!(tree.root(), 0);
/// assert_eq!(tree.depth(2), 2);
/// assert_eq!(tree.children(0), &[1, 3]);
/// # Ok::<(), sinr_links::LinkError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
// Serde support lives in `crate::serde_impls` (feature `serde`), via
// the parent-array conversions below: deserialization re-validates
// rootedness and acyclicity.
pub struct InTree {
    parent: Vec<Option<NodeId>>,
    /// Children of every node, concatenated in node order: those of `u`
    /// are `kids[first[u]..first[u + 1]]`, in ascending id order.
    first: Vec<usize>,
    kids: Vec<NodeId>,
    depth: Vec<usize>,
    root: NodeId,
}

impl From<InTree> for Vec<Option<NodeId>> {
    /// Extracts the parent array (the tree's canonical representation).
    fn from(tree: InTree) -> Self {
        tree.parent
    }
}

impl TryFrom<Vec<Option<NodeId>>> for InTree {
    type Error = LinkError;

    /// Validating conversion (single root, acyclic), used by
    /// deserialization so tree invariants survive round trips.
    fn try_from(parents: Vec<Option<NodeId>>) -> Result<Self> {
        InTree::from_parents(parents)
    }
}

impl InTree {
    /// Builds and validates a tree from a parent array.
    ///
    /// `parent[u] = Some(v)` means `u`'s aggregation link is `u → v`;
    /// exactly one entry must be `None` (the root), and every node must
    /// reach the root.
    ///
    /// # Errors
    ///
    /// - [`LinkError::NoRoot`] / [`LinkError::MultipleRoots`] if the array
    ///   does not have exactly one `None`;
    /// - [`LinkError::NodeOutOfRange`] if a parent id is out of range;
    /// - [`LinkError::SelfLoop`] if a node is its own parent;
    /// - [`LinkError::CycleDetected`] if some node cannot reach the root.
    pub fn from_parents(parent: Vec<Option<NodeId>>) -> Result<Self> {
        let n = parent.len();
        // Counting sort of the nodes by parent, counted in the checking
        // pass: after the prefix sums, `first[v]` ends `v`'s block;
        // placing the nodes in descending order moves it back to the
        // block's start and leaves every block ascending.
        let mut first = vec![0; n + 1];
        let mut root = None;
        for (u, p) in parent.iter().enumerate() {
            match *p {
                None => match root {
                    None => root = Some(u),
                    Some(first) => return Err(LinkError::MultipleRoots { first, second: u }),
                },
                Some(v) => {
                    if v >= n {
                        return Err(LinkError::NodeOutOfRange { node: v, len: n });
                    }
                    if v == u {
                        return Err(LinkError::SelfLoop { node: u });
                    }
                    first[v] += 1;
                }
            }
        }
        let root = root.ok_or(LinkError::NoRoot)?;
        for u in 1..=n {
            first[u] += first[u - 1];
        }
        let mut kids = vec![0; first[n]];
        for (u, p) in parent.iter().enumerate().rev() {
            if let Some(v) = *p {
                first[v] -= 1;
                kids[first[v]] = u;
            }
        }

        // BFS from the root proves reachability, each node's children
        // appended as one slice; every node has one parent, so none is
        // queued twice. In BFS order a parent's depth is known before
        // its children's.
        let mut queue = Vec::with_capacity(n);
        queue.push(root);
        let mut next = 0;
        while let Some(&u) = queue.get(next) {
            next += 1;
            queue.extend_from_slice(&kids[first[u]..first[u + 1]]);
        }
        let mut depth = vec![usize::MAX; n];
        depth[root] = 0;
        for &c in &queue[1..] {
            if let Some(p) = parent[c] {
                depth[c] = depth[p] + 1;
            }
        }
        if let Some(u) = depth.iter().position(|&d| d == usize::MAX) {
            return Err(LinkError::CycleDetected { node: u });
        }

        Ok(InTree {
            parent,
            first,
            kids,
            depth,
            root,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never true for a constructed tree).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `u`, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.parent[u]
    }

    /// Children of `u` in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.kids[self.first[u]..self.first[u + 1]]
    }

    /// Every node's children, concatenated in node order: ascending by
    /// parent, then by id.
    pub(crate) fn children_by_parent(&self) -> &[NodeId] {
        &self.kids
    }

    /// Depth of `u` (root has depth 0).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn depth(&self, u: NodeId) -> usize {
        self.depth[u]
    }

    /// Height of the tree: maximum depth.
    pub fn height(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// The aggregation links `u → parent(u)`, for all non-root `u`,
    /// in ascending node order.
    pub fn aggregation_links(&self) -> LinkSet {
        // One link per sender: distinct by construction.
        LinkSet::from_distinct(
            self.parent
                .iter()
                .enumerate()
                .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
                .collect(),
        )
    }

    /// The dissemination links `parent(u) → u` (duals of the aggregation
    /// links).
    pub fn dissemination_links(&self) -> LinkSet {
        self.aggregation_links().dual()
    }

    /// Nodes of the subtree rooted at `u` (including `u`), preorder.
    pub fn subtree(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![u];
        while let Some(v) = stack.pop() {
            out.push(v);
            stack.extend(self.children(v).iter().copied());
        }
        out
    }

    /// Whether `ancestor` lies on the path from `u` to the root
    /// (inclusive of `u` itself).
    pub fn is_ancestor(&self, ancestor: NodeId, u: NodeId) -> bool {
        let mut cur = u;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.parent[cur] {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// The path from `u` up to the root, starting at `u`.
    pub fn path_to_root(&self, u: NodeId) -> Vec<NodeId> {
        let mut path = vec![u];
        let mut cur = u;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Lowest common ancestor of `u` and `v`.
    pub fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
        let (mut a, mut b) = (u, v);
        while self.depth[a] > self.depth[b] {
            a = self.parent[a].expect("deeper node has a parent");
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b].expect("deeper node has a parent");
        }
        while a != b {
            a = self.parent[a].expect("non-root nodes have parents");
            b = self.parent[b].expect("non-root nodes have parents");
        }
        a
    }

    /// Number of tree hops between `u` and `v` (through their LCA).
    pub fn hop_distance(&self, u: NodeId, v: NodeId) -> usize {
        let l = self.lca(u, v);
        (self.depth[u] - self.depth[l]) + (self.depth[v] - self.depth[l])
    }

    /// Nodes in leaf-to-root order: deepest first, ascending ids within
    /// one depth, so every node appears after all of its children.
    pub fn leaf_to_root_order(&self) -> Vec<NodeId> {
        // Counting sort into one bucket per depth, deepest first; the
        // nodes land in ascending id order within their bucket.
        let height = self.height();
        let mut start = vec![0; height + 2];
        for &d in &self.depth {
            start[height - d + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut order = vec![0; self.len()];
        for (u, &d) in self.depth.iter().enumerate() {
            order[start[height - d]] = u;
            start[height - d] += 1;
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> InTree {
        // n-1 ← ... ← 1 ← 0 reversed: parent[i] = i-1, root = 0.
        let parents = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        InTree::from_parents(parents).unwrap()
    }

    #[test]
    fn rejects_no_root() {
        // Two nodes pointing at each other have no None entry at all.
        let r = InTree::from_parents(vec![Some(1), Some(0)]);
        assert_eq!(r, Err(LinkError::NoRoot));
    }

    #[test]
    fn rejects_multiple_roots() {
        let r = InTree::from_parents(vec![None, None]);
        assert_eq!(
            r,
            Err(LinkError::MultipleRoots {
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn rejects_cycles() {
        // Root exists but 1 → 2 → 1 is a cycle off to the side.
        let r = InTree::from_parents(vec![None, Some(2), Some(1)]);
        assert!(matches!(r, Err(LinkError::CycleDetected { .. })));
    }

    #[test]
    fn rejects_out_of_range_and_self_loop() {
        assert_eq!(
            InTree::from_parents(vec![None, Some(5)]),
            Err(LinkError::NodeOutOfRange { node: 5, len: 2 })
        );
        assert_eq!(
            InTree::from_parents(vec![None, Some(1)]),
            Err(LinkError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn single_node_tree() {
        let t = InTree::from_parents(vec![None]).unwrap();
        assert_eq!(t.root(), 0);
        assert_eq!(t.height(), 0);
        assert!(t.aggregation_links().is_empty());
    }

    #[test]
    fn chain_depths_and_paths() {
        let t = chain(5);
        assert_eq!(t.root(), 0);
        assert_eq!(t.depth(4), 4);
        assert_eq!(t.height(), 4);
        assert_eq!(t.path_to_root(4), vec![4, 3, 2, 1, 0]);
        assert_eq!(t.hop_distance(4, 0), 4);
    }

    #[test]
    fn star_children_sorted() {
        let t = InTree::from_parents(vec![None, Some(0), Some(0), Some(0)]).unwrap();
        assert_eq!(t.children(0), &[1, 2, 3]);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn child_lists_partition_the_nodes_by_parent() {
        // Root 3; children of 3: {0, 5}, of 0: {1, 4, 6}, of 5: {2}.
        let parents = vec![Some(3), Some(0), Some(5), None, Some(0), Some(3), Some(0)];
        let t = InTree::from_parents(parents.clone()).unwrap();
        for v in 0..parents.len() {
            let expected: Vec<NodeId> = (0..parents.len())
                .filter(|&u| parents[u] == Some(v))
                .collect();
            assert_eq!(t.children(v), expected.as_slice(), "node {v}");
        }
        assert_eq!(t.depth(2), 2);
        assert_eq!(t.subtree(0), vec![0, 6, 4, 1]);
    }

    #[test]
    fn aggregation_and_dissemination_are_duals() {
        let t = InTree::from_parents(vec![None, Some(0), Some(1), Some(0)]).unwrap();
        let agg = t.aggregation_links();
        let dis = t.dissemination_links();
        assert_eq!(agg.len(), 3);
        assert_eq!(agg.dual(), dis);
        assert!(agg.contains(Link::new(2, 1)));
        assert!(dis.contains(Link::new(1, 2)));
    }

    #[test]
    fn subtree_and_ancestry() {
        // 0 ← 1 ← {2, 3}; 0 ← 4
        let t = InTree::from_parents(vec![None, Some(0), Some(1), Some(1), Some(0)]).unwrap();
        let mut sub = t.subtree(1);
        sub.sort_unstable();
        assert_eq!(sub, vec![1, 2, 3]);
        assert!(t.is_ancestor(0, 3));
        assert!(t.is_ancestor(1, 2));
        assert!(!t.is_ancestor(4, 2));
        assert!(t.is_ancestor(2, 2));
    }

    #[test]
    fn lca_and_hops() {
        // 0 ← 1 ← 2, 0 ← 3 ← 4
        let t = InTree::from_parents(vec![None, Some(0), Some(1), Some(0), Some(3)]).unwrap();
        assert_eq!(t.lca(2, 4), 0);
        assert_eq!(t.lca(2, 1), 1);
        assert_eq!(t.hop_distance(2, 4), 4);
        assert_eq!(t.hop_distance(2, 2), 0);
    }

    #[test]
    fn leaf_to_root_order_respects_children() {
        let t = InTree::from_parents(vec![None, Some(0), Some(1), Some(1)]).unwrap();
        let order = t.leaf_to_root_order();
        let pos = |u: NodeId| order.iter().position(|&x| x == u).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(3) < pos(1));
        assert!(pos(1) < pos(0));
    }
}
