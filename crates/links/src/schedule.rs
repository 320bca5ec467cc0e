//! Schedules: partitions of a link set into time slots.

use std::collections::BTreeSet;

use crate::{Link, LinkError, LinkSet, Result};

/// A schedule assigns every link of a set to a time slot; the links of
/// one slot are intended to transmit simultaneously.
///
/// The *length* of the schedule (its number of slots) is the paper's
/// measure of efficiency: Theorem 4 produces bi-trees schedulable in
/// `O(log n)` slots. Whether each slot is actually SINR-feasible is
/// checked by `sinr-phy` (`validate_schedule`), keeping this type purely
/// combinatorial.
///
/// # Example
///
/// ```
/// use sinr_links::{Link, Schedule};
///
/// let mut s = Schedule::new();
/// s.assign(Link::new(0, 1), 0);
/// s.assign(Link::new(2, 3), 0);
/// s.assign(Link::new(1, 4), 1);
/// assert_eq!(s.num_slots(), 2);
/// assert_eq!(s.slot_of(Link::new(1, 4)), Some(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
// Serde support lives in `crate::serde_impls` (feature `serde`), as a
// `(link, slot)` pair list through `from_pairs`.
pub struct Schedule {
    /// `(link, slot)` per link, in ascending link order, each link once;
    /// slots may be sparse until normalized.
    assignment: Vec<(Link, usize)>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Builds a schedule from explicit `(link, slot)` pairs, in any
    /// order: the way to build a large schedule.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::ScheduleMismatch`] if a link appears twice.
    pub fn from_pairs<I: IntoIterator<Item = (Link, usize)>>(pairs: I) -> Result<Self> {
        // Sorted, the pairs expose a repeat as two neighbors.
        let mut assignment: Vec<(Link, usize)> = pairs.into_iter().collect();
        assignment.sort_unstable_by_key(|&(l, _)| l);
        if let Some(w) = assignment.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(LinkError::ScheduleMismatch {
                detail: format!("link {:?} assigned twice", w[0].0),
            });
        }
        Ok(Schedule { assignment })
    }

    /// A schedule of `assignment`, which the caller knows to be in
    /// ascending link order with each link once.
    pub(crate) fn from_sorted(assignment: Vec<(Link, usize)>) -> Self {
        debug_assert!(
            assignment.windows(2).all(|w| w[0].0 < w[1].0),
            "ascending distinct links"
        );
        Schedule { assignment }
    }

    /// Where `link` is, or would be inserted, in the assignment.
    fn find(&self, link: Link) -> std::result::Result<usize, usize> {
        self.assignment.binary_search_by_key(&link, |&(l, _)| l)
    }

    /// Assigns (or reassigns) `link` to `slot`. A link that sorts
    /// before an assigned one moves the later entries up by one, so
    /// build a large schedule in any other order with
    /// [`from_pairs`](Self::from_pairs).
    pub fn assign(&mut self, link: Link, slot: usize) {
        match self.find(link) {
            Ok(i) => self.assignment[i].1 = slot,
            Err(i) => self.assignment.insert(i, (link, slot)),
        }
    }

    /// The slot of `link`, if scheduled.
    pub fn slot_of(&self, link: Link) -> Option<usize> {
        self.find(link).ok().map(|i| self.assignment[i].1)
    }

    /// Number of scheduled links.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether no links are scheduled.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of slots: one past the maximum slot index (0 if empty).
    ///
    /// Note that intermediate slots may be empty; use
    /// [`Schedule::compact`] to renumber.
    pub fn num_slots(&self) -> usize {
        self.assignment
            .iter()
            .map(|&(_, s)| s + 1)
            .max()
            .unwrap_or(0)
    }

    /// The links assigned to `slot`.
    pub fn links_in_slot(&self, slot: usize) -> LinkSet {
        LinkSet::from_distinct(
            self.assignment
                .iter()
                .filter(|&&(_, s)| s == slot)
                .map(|&(l, _)| l)
                .collect(),
        )
    }

    /// All scheduled links as a set.
    pub fn links(&self) -> LinkSet {
        LinkSet::from_distinct(self.assignment.iter().map(|&(l, _)| l).collect())
    }

    /// Slot contents in slot order, one `LinkSet` per slot (empty slots
    /// included so indices line up with slot numbers).
    pub fn slots(&self) -> Vec<LinkSet> {
        let mut sizes = vec![0; self.num_slots()];
        for &(_, s) in &self.assignment {
            sizes[s] += 1;
        }
        let mut out: Vec<Vec<Link>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for &(l, s) in &self.assignment {
            out[s].push(l);
        }
        out.into_iter().map(LinkSet::from_distinct).collect()
    }

    /// Renumbers slots to remove empty ones, preserving relative order.
    /// Returns the number of slots removed.
    pub fn compact(&mut self) -> usize {
        let n = self.num_slots();
        let mut used = vec![false; n];
        for &(_, s) in &self.assignment {
            used[s] = true;
        }
        let mut remap = vec![0usize; n];
        let mut next = 0;
        for (i, &u) in used.iter().enumerate() {
            remap[i] = next;
            if u {
                next += 1;
            }
        }
        for (_, slot) in &mut self.assignment {
            *slot = remap[*slot];
        }
        n - next
    }

    /// Reverses the slot order within the occupied range: slot `k`
    /// becomes `min + max − k`, where `min`/`max` are the smallest and
    /// largest occupied slots. Used to turn an aggregation schedule
    /// into the complementary dissemination schedule of a bi-tree
    /// (Definition 1). An involution for every schedule; for compacted
    /// schedules this is the familiar `S − 1 − k`.
    pub fn reversed(&self) -> Schedule {
        let slots = self.assignment.iter().map(|&(_, s)| s);
        let min = slots.clone().min().unwrap_or(0);
        let max = slots.max().unwrap_or(0);
        let assignment = self
            .assignment
            .iter()
            .map(|&(l, s)| (l, min + max - s))
            .collect();
        Schedule { assignment }
    }

    /// Maps every link through `f` (e.g. [`Link::dual`]), keeping slots.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::ScheduleMismatch`] if `f` maps two links to
    /// the same link.
    pub fn map_links<F: FnMut(Link) -> Link>(&self, mut f: F) -> Result<Schedule> {
        Schedule::from_pairs(self.assignment.iter().map(|&(l, s)| (f(l), s)))
    }

    /// Checks the schedule covers exactly `links`.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::ScheduleMismatch`] naming a missing or extra
    /// link.
    pub fn validate_covers(&self, links: &LinkSet) -> Result<()> {
        // Both sides iterate in ascending order, so one lockstep walk
        // settles the common case; the scans below name a mismatch.
        if self.assignment.iter().map(|&(l, _)| l).eq(links.sorted()) {
            return Ok(());
        }
        for l in links.iter() {
            if self.slot_of(l).is_none() {
                return Err(LinkError::ScheduleMismatch {
                    detail: format!("link {l:?} is not scheduled"),
                });
            }
        }
        if self.assignment.len() != links.len() {
            let extra = self
                .assignment
                .iter()
                .map(|&(l, _)| l)
                .find(|&l| !links.contains(l))
                .expect("length mismatch implies an extra link");
            return Err(LinkError::ScheduleMismatch {
                detail: format!("scheduled link {extra:?} is not in the link set"),
            });
        }
        Ok(())
    }

    /// Iterates over `(link, slot)` pairs in link order.
    pub fn iter(&self) -> impl Iterator<Item = (Link, usize)> + '_ {
        self.assignment.iter().copied()
    }

    /// The delta view of this schedule under a partial link remap: every
    /// link is passed through `f`, keeping its slot; links mapped to
    /// `None` are recorded as removed together with the slot they
    /// vacated. This is how the dynamic pipelines (`repair`, `join`)
    /// express "which slot groupings survived a churn batch" to the
    /// incremental re-packer — id-compaction and failed-link removal in
    /// one pass.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::ScheduleMismatch`] if `f` maps two surviving
    /// links to the same link.
    pub fn delta_map<F: FnMut(Link) -> Option<Link>>(&self, mut f: F) -> Result<ScheduleDelta> {
        let mut kept = Vec::with_capacity(self.assignment.len());
        let mut removed = Vec::new();
        for &(l, s) in &self.assignment {
            match f(l) {
                Some(mapped) => kept.push((mapped, s)),
                None => removed.push((l, s)),
            }
        }
        let kept = Schedule::from_pairs(kept.iter().copied()).map_err(|_| {
            // Name the first collision in this schedule's link order.
            let mut seen = BTreeSet::new();
            let mapped = kept
                .iter()
                .map(|&(m, _)| m)
                .find(|&m| !seen.insert(m))
                .expect("a repeat exists");
            LinkError::ScheduleMismatch {
                detail: format!("two surviving links map to {mapped:?}"),
            }
        })?;
        Ok(ScheduleDelta { kept, removed })
    }
}

/// How a schedule changed under a churn delta: the surviving links with
/// their (remapped) identities and original slots, plus the links that
/// vanished and the slots they vacated. Produced by
/// [`Schedule::delta_map`]; consumed by the incremental re-packer in
/// `sinr-connectivity` (slots in `kept` are **not** renumbered, so they
/// line up with `removed` and with the pre-churn schedule).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleDelta {
    /// Surviving links at their original slots (remapped ids).
    pub kept: Schedule,
    /// Removed links (original ids) and the slots they vacated.
    pub removed: Vec<(Link, usize)>,
}

impl ScheduleDelta {
    /// A delta in which nothing changed (the `join` seed: every existing
    /// link keeps its slot, newcomers are simply absent).
    pub fn unchanged(schedule: &Schedule) -> Self {
        ScheduleDelta {
            kept: schedule.clone(),
            removed: Vec::new(),
        }
    }

    /// Number of slots the pre-churn schedule occupied: one past the
    /// largest slot seen across kept and removed links.
    pub fn previous_slots(&self) -> usize {
        let kept = self.kept.num_slots();
        let removed = self.removed.iter().map(|&(_, s)| s + 1).max().unwrap_or(0);
        kept.max(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule::from_pairs(vec![
            (Link::new(0, 1), 0),
            (Link::new(2, 3), 0),
            (Link::new(1, 4), 2),
        ])
        .unwrap()
    }

    #[test]
    fn from_pairs_rejects_duplicate_links() {
        let r = Schedule::from_pairs(vec![(Link::new(0, 1), 0), (Link::new(0, 1), 1)]);
        assert!(matches!(r, Err(LinkError::ScheduleMismatch { .. })));
    }

    #[test]
    fn slots_and_lengths() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.num_slots(), 3); // slot 1 empty
        assert_eq!(s.links_in_slot(0).len(), 2);
        assert_eq!(s.links_in_slot(1).len(), 0);
        assert_eq!(s.slots().len(), 3);
    }

    #[test]
    fn compact_removes_empty_slots() {
        let mut s = sample();
        let removed = s.compact();
        assert_eq!(removed, 1);
        assert_eq!(s.num_slots(), 2);
        assert_eq!(s.slot_of(Link::new(1, 4)), Some(1));
        // Order preserved.
        assert_eq!(s.slot_of(Link::new(0, 1)), Some(0));
    }

    #[test]
    fn reversed_flips_order() {
        let s = sample();
        let r = s.reversed();
        assert_eq!(r.slot_of(Link::new(0, 1)), Some(2));
        assert_eq!(r.slot_of(Link::new(1, 4)), Some(0));
        assert_eq!(r.reversed(), s);
    }

    #[test]
    fn map_links_to_duals() {
        let s = sample();
        let d = s.map_links(Link::dual).unwrap();
        assert_eq!(d.slot_of(Link::new(1, 0)), Some(0));
        assert_eq!(d.len(), s.len());
    }

    #[test]
    fn validate_covers_detects_mismatch() {
        let s = sample();
        let exact: LinkSet = s.links();
        assert!(s.validate_covers(&exact).is_ok());

        let mut missing = exact.clone();
        missing.insert(Link::new(7, 8));
        assert!(s.validate_covers(&missing).is_err());

        let partial: LinkSet = vec![Link::new(0, 1)].into_iter().collect();
        assert!(s.validate_covers(&partial).is_err());
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert_eq!(s.num_slots(), 0);
        assert!(s.is_empty());
        assert!(s.validate_covers(&LinkSet::new()).is_ok());
    }

    #[test]
    fn delta_map_splits_kept_and_removed() {
        let s = sample();
        // Drop node 2 (kills link 2→3), compact ids above it by one.
        let remap = |u: usize| -> Option<usize> {
            match u.cmp(&2) {
                std::cmp::Ordering::Less => Some(u),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(u - 1),
            }
        };
        let delta = s
            .delta_map(|l| Some(Link::new(remap(l.sender)?, remap(l.receiver)?)))
            .unwrap();
        assert_eq!(delta.kept.len(), 2);
        assert_eq!(delta.kept.slot_of(Link::new(0, 1)), Some(0));
        assert_eq!(delta.kept.slot_of(Link::new(1, 3)), Some(2)); // 1→4 renamed
        assert_eq!(delta.removed, vec![(Link::new(2, 3), 0)]);
        assert_eq!(delta.previous_slots(), 3);
    }

    #[test]
    fn delta_map_rejects_colliding_remaps() {
        let s = sample();
        assert!(matches!(
            s.delta_map(|_| Some(Link::new(0, 1))),
            Err(LinkError::ScheduleMismatch { .. })
        ));
    }

    #[test]
    fn unchanged_delta_keeps_everything() {
        let s = sample();
        let delta = ScheduleDelta::unchanged(&s);
        assert_eq!(delta.kept, s);
        assert!(delta.removed.is_empty());
        assert_eq!(delta.previous_slots(), s.num_slots());
        assert_eq!(ScheduleDelta::default().previous_slots(), 0);
    }
}
