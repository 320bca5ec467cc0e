//! Greedy slot packing under a fixed power assignment.
//!
//! The shared engine behind the centralized schedulers (`sinr-baselines`)
//! and the repair pipeline (`sinr-connectivity::repair`): place links
//! into the earliest feasible slot, optionally respecting per-link slot
//! floors — which is how converge-cast trees get leaf-to-root-ordered
//! schedules (children strictly before parents).

use sinr_geom::Instance;
use sinr_links::{InTree, Link, Schedule};

use crate::feasibility::{AuditStats, Candidate, SlotAuditor};
use crate::{PowerAssignment, SinrParams};

/// Prepares links for the packers: each link direction's
/// [`Candidate`], kept only when it stands alone, that is, when
/// `check` passes the link by itself.
#[derive(Debug)]
pub struct Candidates<'a> {
    params: &'a SinrParams,
    instance: &'a Instance,
    power: &'a PowerAssignment,
    /// An empty slot: its probe is `check` on one link.
    alone: SlotAuditor<'a>,
}

impl<'a> Candidates<'a> {
    /// Prepares links sent under `power`.
    pub fn new(params: &'a SinrParams, instance: &'a Instance, power: &'a PowerAssignment) -> Self {
        Candidates {
            params,
            instance,
            power,
            alone: SlotAuditor::new(params),
        }
    }

    /// `link`'s candidate, or `None` when `link` cannot stand alone: it
    /// has no power entry or fails its SINR rules on an empty slot.
    pub fn one(&mut self, link: Link) -> Option<Candidate> {
        let power = self.power.power_of(link, self.instance, self.params).ok()?;
        let candidate = Candidate::new(self.params, self.instance, link, power);
        self.alone.probe(&candidate).then_some(candidate)
    }

    /// `link`'s forward and dual candidates, or `None` when either
    /// direction cannot stand alone.
    pub fn both(&mut self, link: Link) -> Option<[Candidate; 2]> {
        Some([self.one(link)?, self.one(link.dual())?])
    }

    /// How the lone probes were settled so far.
    pub fn stats(&self) -> AuditStats {
        self.alone.stats()
    }
}

/// Packs a converge-cast tree's aggregation links in leaf-to-root order
/// with per-node slot floors, producing a schedule that satisfies the
/// bi-tree ordering property (every link strictly after all links of
/// its sender's subtree) with every slot feasible **in both
/// directions**: the aggregation links as given, and their duals, which
/// share the slot grouping through `BiTree::dissemination_schedule`
/// (Definition 1). Checking only the forward direction here is exactly
/// the bug that made repaired/joined bi-trees fail their broadcast
/// audit on most seeds.
///
/// The returned schedule is compacted. Unschedulable links — infeasible
/// alone in either direction — are reported (always empty for margin
/// powers).
pub fn pack_tree_ordered(
    params: &SinrParams,
    instance: &Instance,
    tree: &InTree,
    power: &PowerAssignment,
) -> (Schedule, Vec<Link>) {
    let (schedule, unschedulable, _) = pack_tree_audited(params, instance, tree, power);
    (schedule, unschedulable)
}

/// [`pack_tree_ordered`], also reporting how its slot auditors settled
/// their decisions, summed over every slot, both directions and the
/// lone probes.
pub fn pack_tree_audited(
    params: &SinrParams,
    instance: &Instance,
    tree: &InTree,
    power: &PowerAssignment,
) -> (Schedule, Vec<Link>, AuditStats) {
    let mut floor = vec![0usize; tree.len()];
    let mut candidates = Candidates::new(params, instance, power);

    // Pack one link at a time so receiver floors update as we go. Each
    // slot keeps two incremental auditors — the aggregation direction
    // and its dual — probed in lockstep and committed together, which
    // reproduces `check` on both directions of the slot bit for bit.
    let mut slots: Vec<[SlotAuditor<'_>; 2]> = Vec::new();
    let mut placed = Vec::with_capacity(tree.len());
    let mut unschedulable = Vec::new();
    for u in tree.leaf_to_root_order() {
        let Some(p) = tree.parent(u) else { continue };
        let link = Link::new(u, p);
        let Some([fwd, dual]) = candidates.both(link) else {
            unschedulable.push(link);
            continue;
        };
        let mut s = floor[u];
        loop {
            while slots.len() <= s {
                slots.push([SlotAuditor::new(params), SlotAuditor::new(params)]);
            }
            let [f, d] = &mut slots[s];
            if f.probe(&fwd) && d.probe(&dual) {
                f.commit(&fwd);
                d.commit(&dual);
                placed.push((link, s));
                floor[p] = floor[p].max(s + 1);
                break;
            }
            s += 1;
        }
    }
    let mut schedule = Schedule::from_pairs(placed).expect("a tree has one uplink per node");
    schedule.compact();
    let mut stats = candidates.stats();
    for auditor in slots.iter().flatten() {
        stats += auditor.stats();
    }
    (schedule, unschedulable, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility;
    use sinr_geom::gen;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    #[test]
    fn tree_packing_is_ordered_and_feasible() {
        let p = params();
        let inst = gen::uniform_square(40, 1.5, 8).unwrap();
        let parents = sinr_geom::mst::mst_parent_array(&inst, 0);
        let tree = InTree::from_parents(parents).unwrap();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let (schedule, bad) = pack_tree_ordered(&p, &inst, &tree, &power);
        assert!(bad.is_empty());
        feasibility::validate_schedule(&p, &inst, &schedule, &power).unwrap();
        // BiTree::new enforces the ordering property.
        sinr_links::BiTree::new(tree, schedule).expect("ordering holds");
    }

    #[test]
    fn unschedulable_links_reported() {
        let p = params();
        let inst = gen::line(3).unwrap();
        let tree = InTree::from_parents(vec![None, Some(0), Some(1)]).unwrap();
        let weak = PowerAssignment::uniform(p.noise_floor_power(1.0) * 0.5);
        let (s, bad) = pack_tree_ordered(&p, &inst, &tree, &weak);
        assert_eq!(bad.len(), 2);
        assert!(s.is_empty());
    }
}
