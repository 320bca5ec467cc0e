//! Sets of links with the paper's derived structure.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use sinr_geom::{Instance, NodeId};

use crate::{Link, LinkError, Result};

/// An ordered set of distinct links.
///
/// `LinkSet` is the common currency between the algorithm crates: the
/// tree produced by `Init`, the feasible subsets chosen by the capacity
/// selectors and the per-slot sets of a schedule are all `LinkSet`s.
/// It maintains insertion order (deterministic iteration) while rejecting
/// duplicates.
///
/// # Example
///
/// ```
/// use sinr_links::{Link, LinkSet};
///
/// let mut set = LinkSet::new();
/// assert!(set.insert(Link::new(0, 1)));
/// assert!(!set.insert(Link::new(0, 1))); // duplicate
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Clone, Default)]
// Serde support lives in `crate::serde_impls` (feature `serde`), via
// the `Vec<Link>` conversions below.
pub struct LinkSet {
    links: Vec<Link>,
    /// The links as a lookup set, built on first use: a set that is
    /// only iterated (a schedule's slots, a tree's links) never pays
    /// for it.
    seen: OnceLock<BTreeSet<Link>>,
}

impl PartialEq for LinkSet {
    /// The same links in the same order; the lookup set follows.
    fn eq(&self, other: &Self) -> bool {
        self.links == other.links
    }
}

impl Eq for LinkSet {}

impl std::fmt::Debug for LinkSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkSet")
            .field("links", &self.links)
            .field("seen", self.seen())
            .finish()
    }
}

impl From<LinkSet> for Vec<Link> {
    /// Extracts the links in insertion order.
    fn from(set: LinkSet) -> Self {
        set.links
    }
}

impl TryFrom<Vec<Link>> for LinkSet {
    type Error = LinkError;

    /// Validating conversion (rejects duplicates and self-loops), used
    /// by deserialization so the duplicate-free invariant survives
    /// round trips.
    fn try_from(links: Vec<Link>) -> Result<Self> {
        LinkSet::from_links(links)
    }
}

impl LinkSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        LinkSet::default()
    }

    /// Builds a set from links, rejecting duplicates and self-loops.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::SelfLoop`] for a self-loop and
    /// [`LinkError::ScheduleMismatch`] describing any duplicate.
    pub fn from_links<I: IntoIterator<Item = Link>>(links: I) -> Result<Self> {
        let mut set = LinkSet::new();
        for l in links {
            if l.sender == l.receiver {
                return Err(LinkError::SelfLoop { node: l.sender });
            }
            if !set.insert(l) {
                return Err(LinkError::ScheduleMismatch {
                    detail: format!("duplicate link {l:?}"),
                });
            }
        }
        Ok(set)
    }

    /// A set of `links`, which the caller knows to be distinct, kept in
    /// their given order.
    pub(crate) fn from_distinct(links: Vec<Link>) -> Self {
        let set = LinkSet {
            links,
            seen: OnceLock::new(),
        };
        debug_assert_eq!(set.seen().len(), set.len(), "links are distinct");
        set
    }

    /// The lookup set, built in one sort on first use.
    fn seen(&self) -> &BTreeSet<Link> {
        self.seen
            .get_or_init(|| self.links.iter().copied().collect())
    }

    /// The links in ascending order.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = Link> + '_ {
        self.seen().iter().copied()
    }

    /// Inserts a link; returns `false` if it was already present.
    pub fn insert(&mut self, link: Link) -> bool {
        self.seen();
        let seen = self.seen.get_mut().expect("seen() built the lookup set");
        if seen.insert(link) {
            self.links.push(link);
            true
        } else {
            false
        }
    }

    /// Whether the set contains `link`.
    #[inline]
    pub fn contains(&self, link: Link) -> bool {
        self.seen().contains(&link)
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The links in insertion order.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Iterator over the links.
    pub fn iter(&self) -> impl Iterator<Item = Link> + '_ {
        self.links.iter().copied()
    }

    /// The dual set: every link reversed, same order (§3).
    pub fn dual(&self) -> LinkSet {
        // Reversal is one-to-one, so the duals are distinct too.
        LinkSet::from_distinct(self.links.iter().map(|l| l.dual()).collect())
    }

    /// Distinct sender nodes.
    pub fn senders(&self) -> BTreeSet<NodeId> {
        self.links.iter().map(|l| l.sender).collect()
    }

    /// Distinct receiver nodes.
    pub fn receivers(&self) -> BTreeSet<NodeId> {
        self.links.iter().map(|l| l.receiver).collect()
    }

    /// All nodes incident to at least one link.
    pub fn nodes(&self) -> BTreeSet<NodeId> {
        self.links.iter().flat_map(|l| l.endpoints()).collect()
    }

    /// The degree of `node`: its number of incident links (§3).
    pub fn degree_of(&self, node: NodeId) -> usize {
        self.links.iter().filter(|l| l.is_incident(node)).count()
    }

    /// Degrees of all incident nodes (absent nodes have degree 0).
    pub fn degrees(&self) -> BTreeMap<NodeId, usize> {
        let mut map = BTreeMap::new();
        for l in &self.links {
            *map.entry(l.sender).or_insert(0) += 1;
            *map.entry(l.receiver).or_insert(0) += 1;
        }
        map
    }

    /// Maximum node degree (0 for an empty set).
    pub fn max_degree(&self) -> usize {
        self.degrees().values().copied().max().unwrap_or(0)
    }

    /// Partitions the set into length classes keyed by the `Init` round
    /// `r` (lengths in `[2^{r-1}, 2^r)`); see §3 "length class".
    pub fn length_classes(&self, instance: &Instance) -> BTreeMap<u32, LinkSet> {
        let mut map: BTreeMap<u32, LinkSet> = BTreeMap::new();
        for &l in &self.links {
            map.entry(l.length_class(instance)).or_default().insert(l);
        }
        map
    }

    /// Links with length at least `min_len` (the set `L(d)` of Def. 8).
    pub fn links_at_least(&self, instance: &Instance, min_len: f64) -> LinkSet {
        let mut out = LinkSet::new();
        for &l in &self.links {
            if l.length(instance) >= min_len {
                out.insert(l);
            }
        }
        out
    }

    /// Links sorted by ascending length (ties broken by endpoint ids),
    /// the processing order of Kesselheim's capacity algorithm (Eqn 3).
    pub fn sorted_by_length(&self, instance: &Instance) -> Vec<Link> {
        let mut v = self.links.clone();
        v.sort_by(|a, b| {
            a.length(instance)
                .partial_cmp(&b.length(instance))
                .expect("link lengths are finite")
                .then_with(|| a.cmp(b))
        });
        v
    }

    /// Longest link length, or 0 for an empty set.
    pub fn max_length(&self, instance: &Instance) -> f64 {
        self.links
            .iter()
            .map(|l| l.length(instance))
            .fold(0.0, f64::max)
    }

    /// Shortest link length, or +∞ for an empty set.
    pub fn min_length(&self, instance: &Instance) -> f64 {
        self.links
            .iter()
            .map(|l| l.length(instance))
            .fold(f64::INFINITY, f64::min)
    }

    /// Validates that every endpoint is a node of `instance`.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::NodeOutOfRange`] for the first bad endpoint.
    pub fn validate_against(&self, instance: &Instance) -> Result<()> {
        for l in &self.links {
            for node in l.endpoints() {
                if node >= instance.len() {
                    return Err(LinkError::NodeOutOfRange {
                        node,
                        len: instance.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Retains only the links satisfying the predicate.
    pub fn retain<F: FnMut(Link) -> bool>(&mut self, mut pred: F) {
        let before = self.links.len();
        self.links.retain(|&l| pred(l));
        if self.links.len() < before {
            self.seen.take();
        }
    }
}

impl FromIterator<Link> for LinkSet {
    /// Collects links, silently dropping duplicates.
    fn from_iter<I: IntoIterator<Item = Link>>(iter: I) -> Self {
        let mut set = LinkSet::new();
        for l in iter {
            set.insert(l);
        }
        set
    }
}

impl Extend<Link> for LinkSet {
    fn extend<I: IntoIterator<Item = Link>>(&mut self, iter: I) {
        for l in iter {
            self.insert(l);
        }
    }
}

impl<'a> IntoIterator for &'a LinkSet {
    type Item = Link;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Link>>;
    fn into_iter(self) -> Self::IntoIter {
        self.links.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::Point;

    fn inst() -> Instance {
        Instance::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(10.0, 0.0),
        ])
        .unwrap()
    }

    #[test]
    fn insert_and_contains() {
        let mut s = LinkSet::new();
        assert!(s.insert(Link::new(0, 1)));
        assert!(s.contains(Link::new(0, 1)));
        assert!(!s.contains(Link::new(1, 0)));
        assert!(!s.insert(Link::new(0, 1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn from_links_rejects_duplicates() {
        let r = LinkSet::from_links(vec![Link::new(0, 1), Link::new(0, 1)]);
        assert!(matches!(r, Err(LinkError::ScheduleMismatch { .. })));
    }

    #[test]
    fn dual_set_preserves_order_and_size() {
        let s = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 3)]).unwrap();
        let d = s.dual();
        assert_eq!(d.links(), &[Link::new(1, 0), Link::new(3, 2)]);
        assert_eq!(d.dual(), s);
    }

    #[test]
    fn degrees_count_both_roles() {
        let s =
            LinkSet::from_links(vec![Link::new(0, 1), Link::new(1, 2), Link::new(3, 1)]).unwrap();
        assert_eq!(s.degree_of(1), 3);
        assert_eq!(s.degree_of(0), 1);
        assert_eq!(s.degree_of(9), 0);
        assert_eq!(s.max_degree(), 3);
    }

    #[test]
    fn length_classes_partition() {
        let i = inst();
        let s = LinkSet::from_links(vec![
            Link::new(0, 1), // length 1 → class 1
            Link::new(1, 2), // length 2 → class 2
            Link::new(0, 2), // length 3 → class 2
            Link::new(0, 3), // length 10 → class 4
        ])
        .unwrap();
        let classes = s.length_classes(&i);
        assert_eq!(classes[&1].len(), 1);
        assert_eq!(classes[&2].len(), 2);
        assert_eq!(classes[&4].len(), 1);
        let total: usize = classes.values().map(LinkSet::len).sum();
        assert_eq!(total, s.len());
    }

    #[test]
    fn sorted_by_length_ascending() {
        let i = inst();
        let s =
            LinkSet::from_links(vec![Link::new(0, 3), Link::new(0, 1), Link::new(1, 2)]).unwrap();
        let sorted = s.sorted_by_length(&i);
        let lens: Vec<f64> = sorted.iter().map(|l| l.length(&i)).collect();
        assert!(lens.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sorted[0], Link::new(0, 1));
    }

    #[test]
    fn links_at_least_filters() {
        let i = inst();
        let s = LinkSet::from_links(vec![Link::new(0, 1), Link::new(0, 3)]).unwrap();
        let long = s.links_at_least(&i, 5.0);
        assert_eq!(long.links(), &[Link::new(0, 3)]);
    }

    #[test]
    fn validate_against_range() {
        let i = inst();
        let ok = LinkSet::from_links(vec![Link::new(0, 3)]).unwrap();
        assert!(ok.validate_against(&i).is_ok());
        let bad = LinkSet::from_links(vec![Link::new(0, 7)]).unwrap();
        assert_eq!(
            bad.validate_against(&i),
            Err(LinkError::NodeOutOfRange { node: 7, len: 4 })
        );
    }

    #[test]
    fn retain_keeps_seen_consistent() {
        let mut s = LinkSet::from_links(vec![Link::new(0, 1), Link::new(1, 2)]).unwrap();
        s.retain(|l| l.sender == 0);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(Link::new(1, 2)));
        // Re-inserting a removed link must succeed.
        assert!(s.insert(Link::new(1, 2)));
    }

    #[test]
    fn extremes_on_empty() {
        let s = LinkSet::new();
        let i = inst();
        assert_eq!(s.max_length(&i), 0.0);
        assert_eq!(s.min_length(&i), f64::INFINITY);
        assert_eq!(s.max_degree(), 0);
    }

    #[test]
    fn from_iterator_dedups() {
        let s: LinkSet = vec![Link::new(0, 1), Link::new(0, 1), Link::new(1, 2)]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }
}
