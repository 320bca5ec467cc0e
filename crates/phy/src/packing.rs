//! Greedy slot packing under a fixed power assignment.
//!
//! The shared engine behind the centralized schedulers (`sinr-baselines`)
//! and the repair pipeline (`sinr-connectivity::repair`): place links
//! into the earliest feasible slot, optionally respecting per-link slot
//! floors — which is how converge-cast trees get leaf-to-root-ordered
//! schedules (children strictly before parents).

use sinr_geom::Instance;
use sinr_links::{InTree, Link, LinkSet, Schedule};

use crate::feasibility::{self, SlotAuditor};
use crate::{PowerAssignment, SinrParams};

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
    let mut floor = vec![0usize; tree.len()];
    let ordered: Vec<Link> = tree
        .leaf_to_root_order()
        .into_iter()
        .filter_map(|u| tree.parent(u).map(|p| Link::new(u, p)))
        .collect();

    let bidirectional_feasible = |set: &LinkSet| {
        feasibility::is_feasible(params, instance, set, power)
            && feasibility::is_feasible(params, instance, &set.dual(), power)
    };

    // Pack one link at a time so receiver floors update as we go. Each
    // slot keeps two incremental auditors — the aggregation direction
    // and its dual — probed in lockstep and committed together, which
    // reproduces the clone-and-recheck `bidirectional_feasible`
    // decision bit for bit.
    let mut slots: Vec<(SlotAuditor<'_>, SlotAuditor<'_>)> = Vec::new();
    let mut schedule = Schedule::new();
    let mut unschedulable = Vec::new();
    'links: for link in ordered {
        let alone: LinkSet = std::iter::once(link).collect();
        if !bidirectional_feasible(&alone) {
            unschedulable.push(link);
            continue;
        }
        let pw_fwd = power
            .power_of(link, instance, params)
            .expect("alone-feasible link has a power entry");
        let pw_dual = power
            .power_of(link.dual(), instance, params)
            .expect("alone-feasible dual has a power entry");
        let mut s = floor[link.sender];
        loop {
            while slots.len() <= s {
                slots.push((
                    SlotAuditor::new(params, instance),
                    SlotAuditor::new(params, instance),
                ));
            }
            let (fwd, dual) = &mut slots[s];
            if fwd.probe(link, pw_fwd) && dual.probe(link.dual(), pw_dual) {
                fwd.commit(link, pw_fwd);
                dual.commit(link.dual(), pw_dual);
                schedule.assign(link, s);
                floor[link.receiver] = floor[link.receiver].max(s + 1);
                continue 'links;
            }
            s += 1;
        }
    }
    schedule.compact();
    (schedule, unschedulable)
}

#[cfg(test)]
mod tests {
    use super::*;
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
