//! Greedy first-fit scheduling under a fixed power assignment.
//!
//! The centralized scheduling results the paper builds on (Theorem 9:
//! a ψ-sparse set schedules in `O(ψ·log n)` slots) are realized by
//! greedy packing: process links in a chosen order and put each into
//! the earliest slot that stays feasible. This module provides that
//! packer, with optional per-link lower bounds on the slot index so
//! tree schedules can respect aggregation ordering.

use sinr_geom::Instance;
use sinr_links::{Link, LinkSet, Schedule};
use sinr_phy::feasibility::SlotAuditor;
use sinr_phy::packing::Candidates;
use sinr_phy::{PowerAssignment, SinrParams};

/// The order in which first-fit processes links.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FirstFitOrder {
    /// Ascending link length (the order used by the capacity/scheduling
    /// literature; usually the best packer).
    #[default]
    AscendingLength,
    /// Descending link length.
    DescendingLength,
    /// The link set's own (insertion) order.
    AsGiven,
}

/// Schedules `links` greedily under `power`, returning a schedule in
/// which every slot is feasible.
///
/// `min_slot(link)` gives the earliest slot the link may use (return 0
/// for unconstrained packing); the packer never violates it, which is
/// how [`crate::mst`] enforces leaf-to-root ordering.
///
/// Links that cannot be scheduled even alone (below the noise floor or
/// missing a power entry) are returned in the error list rather than
/// looping forever.
///
/// # Example
///
/// ```
/// use sinr_geom::gen;
/// use sinr_links::{Link, LinkSet};
/// use sinr_phy::{PowerAssignment, SinrParams};
/// use sinr_baselines::first_fit::{first_fit_schedule, FirstFitOrder};
///
/// let params = SinrParams::default();
/// let inst = gen::line(4)?;
/// let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(3, 2)])?;
/// let power = PowerAssignment::uniform_with_margin(&params, inst.delta());
/// let (schedule, unschedulable) = first_fit_schedule(
///     &params, &inst, &links, &power, FirstFitOrder::AscendingLength, |_| 0);
/// assert!(unschedulable.is_empty());
/// assert!(schedule.num_slots() >= 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn first_fit_schedule(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
    power: &PowerAssignment,
    order: FirstFitOrder,
    mut min_slot: impl FnMut(Link) -> usize,
) -> (Schedule, Vec<Link>) {
    let ordered: Vec<Link> = match order {
        FirstFitOrder::AscendingLength => links.sorted_by_length(instance),
        FirstFitOrder::DescendingLength => {
            let mut v = links.sorted_by_length(instance);
            v.reverse();
            v
        }
        FirstFitOrder::AsGiven => links.links().to_vec(),
    };

    // Incremental per-slot auditors: a probe settles the placement by
    // certified intervals, bit-identical to rebuilding the slot set
    // through `feasibility::check` (the auditor's determinism contract).
    let mut candidates = Candidates::new(params, instance, power);
    let mut slots: Vec<SlotAuditor<'_>> = Vec::new();
    let mut placed = Vec::with_capacity(ordered.len());
    let mut unschedulable = Vec::new();

    for link in ordered {
        // A link that cannot stand alone can never be placed.
        let Some(candidate) = candidates.one(link) else {
            unschedulable.push(link);
            continue;
        };
        let mut s = min_slot(link);
        loop {
            while slots.len() <= s {
                slots.push(SlotAuditor::new(params));
            }
            if slots[s].probe(&candidate) {
                slots[s].commit(&candidate);
                placed.push((link, s));
                break;
            }
            s += 1;
        }
    }

    let schedule = Schedule::from_pairs(placed).expect("a set's links are placed once");
    (schedule, unschedulable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    fn mst_links(inst: &Instance) -> LinkSet {
        sinr_geom::mst::mst_parent_array(inst, 0)
            .iter()
            .enumerate()
            .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
            .collect()
    }

    #[test]
    fn empty_set_empty_schedule() {
        let p = params();
        let inst = gen::line(2).unwrap();
        let power = PowerAssignment::uniform(1.0);
        let (s, bad) = first_fit_schedule(
            &p,
            &inst,
            &LinkSet::new(),
            &power,
            FirstFitOrder::default(),
            |_| 0,
        );
        assert_eq!(s.num_slots(), 0);
        assert!(bad.is_empty());
    }

    #[test]
    fn packs_mst_feasibly_under_all_orders() {
        let p = params();
        let inst = gen::uniform_square(40, 1.5, 6).unwrap();
        let links = mst_links(&inst);
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        for order in [
            FirstFitOrder::AscendingLength,
            FirstFitOrder::DescendingLength,
            FirstFitOrder::AsGiven,
        ] {
            let (s, bad) = first_fit_schedule(&p, &inst, &links, &power, order, |_| 0);
            assert!(bad.is_empty(), "{order:?}");
            assert_eq!(s.links().len(), links.len(), "{order:?}");
            feasibility::validate_schedule(&p, &inst, &s, &power)
                .unwrap_or_else(|e| panic!("{order:?}: {e}"));
        }
    }

    #[test]
    fn min_slot_respected() {
        let p = params();
        let inst = gen::line(4).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(3, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let (s, bad) = first_fit_schedule(&p, &inst, &links, &power, FirstFitOrder::AsGiven, |l| {
            if l == Link::new(3, 2) {
                5
            } else {
                0
            }
        });
        assert!(bad.is_empty());
        assert_eq!(s.slot_of(Link::new(3, 2)), Some(5));
        assert_eq!(s.slot_of(Link::new(0, 1)), Some(0));
    }

    #[test]
    fn below_noise_floor_reported_not_looped() {
        let p = params();
        let inst = gen::line(3).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 2)]).unwrap(); // length 2
        let weak = PowerAssignment::uniform(p.noise_floor_power(2.0) * 0.5);
        let (s, bad) =
            first_fit_schedule(&p, &inst, &links, &weak, FirstFitOrder::default(), |_| 0);
        assert_eq!(bad, vec![Link::new(0, 2)]);
        assert_eq!(s.num_slots(), 0);
    }

    #[test]
    fn conflicting_links_get_different_slots() {
        let p = params();
        let inst = gen::line(3).unwrap();
        // Shared receiver: can never share a slot.
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 1)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let (s, bad) = first_fit_schedule(&p, &inst, &links, &power, FirstFitOrder::AsGiven, |_| 0);
        assert!(bad.is_empty());
        assert_eq!(s.num_slots(), 2);
    }
}
