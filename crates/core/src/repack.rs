//! Incremental, locality-aware re-packing for the dynamic pipelines.
//!
//! The repair/join pipelines used to re-pack the *entire* merged tree
//! with the centralized `pack_tree_ordered` after every churn batch —
//! a single failed leaf re-derived slot assignments for all `n − 1`
//! links. This module narrows that boundary: given the old feasible
//! schedule (as a [`ScheduleDelta`]) and the merged tree, it keeps
//! every surviving slot grouping in place and re-runs the packing
//! machinery only over the **dirty region**, so repair cost scales with
//! the damage, not with `n`.
//!
//! Two locality modes share this entry point. [`RepackMode::Incremental`]
//! assigns the dirty-region slots centrally with the pessimistic upward
//! closure described below. [`RepackMode::Distributed`] dispatches to
//! [`crate::dist_repack`], where each dirty link's endpoints claim a
//! slot through node-local probe/ack rounds and ancestors are escalated
//! only on observed interference — the dirty-region assignment itself
//! is no longer centralized (DESIGN.md §14).
//!
//! ## The dirty region
//!
//! A tree link is *fresh* if the previous schedule has no slot for it
//! (it was added by reattachment or join) or it lacks a power entry. A
//! link is *dirty* if it is fresh or any link in its sender's subtree
//! is dirty — the upward closure that keeps the bi-tree ordering
//! property (Definition 1) provable: every **clean** link therefore has
//! an all-clean subtree, and because clean links are kept links whose
//! parents are unchanged, that subtree was already a subtree of the
//! same link in the pre-churn tree. The old schedule ordered it
//! correctly, and it still does.
//!
//! ## Why kept slots need no re-audit
//!
//! Clean links keep their exact slots. A surviving slot is a *subset*
//! of a previously feasible slot (failed links only disappear), and
//! per-slot feasibility is monotone under subsets in both schedule
//! directions — interference only decreases, structural conflicts only
//! vanish — so the kept groupings stay feasible without touching them.
//! Slots that were neither shrunk nor grown are **untouched**: their
//! grouping is byte-identical to the old schedule (the property the
//! churn proptests pin).
//!
//! ## Packing the dirty region
//!
//! Dirty links are re-placed in leaf-to-root order by the same
//! machinery `pack_tree_ordered` runs — per-slot [`SlotAuditor`]
//! bidirectional probes with per-node slot floors — except the floors
//! are pre-seeded from the kept links' slots and each probed slot's
//! auditors are seeded with its surviving residents
//! ([`SlotAuditor::with_residents`]) the first time a link probes it.
//! Seeding is `O(k)`: a seeded auditor settles the probed link's own
//! receiver first and computes its residents' `O(k²)` bounds only if
//! that passes, so a slot whose residents drown the link costs `O(k)`.
//! Every placement is the full bidirectional audit, so the result is
//! per-slot feasible in both directions by the same bit-exact decisions
//! the full packer makes.

use std::collections::BTreeSet;
use std::time::Instant;

use sinr_geom::Instance;
use sinr_links::{InTree, Link, Schedule, ScheduleDelta};
use sinr_phy::feasibility::{Candidate, SlotAuditor};
use sinr_phy::packing::{self, Candidates};
use sinr_phy::{PowerAssignment, SinrParams};

/// Which re-packer the dynamic pipelines run after merging a churn
/// delta into the tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RepackMode {
    /// The centralized reference: re-pack every link of the merged tree
    /// with `pack_tree_ordered`, ignoring the old schedule.
    Full,
    /// Keep surviving slot groupings; re-pack only the dirty region.
    #[default]
    Incremental,
    /// Keep surviving slot groupings; fresh links claim slots through
    /// the node-local probe/ack protocol of [`crate::dist_repack`],
    /// escalating ancestors only on observed interference (the lazy
    /// cascade). The closure it re-places is a subset of
    /// `Incremental`'s pessimistic ancestor closure.
    Distributed,
}

impl RepackMode {
    /// Short label for tables and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            RepackMode::Full => "full",
            RepackMode::Incremental => "incremental",
            RepackMode::Distributed => "distributed",
        }
    }
}

impl std::fmt::Display for RepackMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for RepackMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(RepackMode::Full),
            "incremental" => Ok(RepackMode::Incremental),
            "distributed" => Ok(RepackMode::Distributed),
            other => Err(format!(
                "unknown repack mode `{other}` (expected full|incremental|distributed)"
            )),
        }
    }
}

/// Cost accounting of one re-pack: how much of the structure the packer
/// actually had to touch. This is the quantity experiment E13 sweeps —
/// the paper's §9 open problem asks for repair cost scaling with the
/// damage, and these counters are the measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepackStats {
    /// Which packer produced the schedule.
    pub mode: RepackMode,
    /// Links in the merged tree.
    pub total_links: usize,
    /// Clean links that kept their previous slot grouping untouched by
    /// the packer.
    pub kept_in_place: usize,
    /// Dirty links the packer re-placed (fresh links plus the ancestor
    /// closure), excluding unschedulable ones.
    pub repacked_links: usize,
    /// Links with no slot in the previous schedule (the raw delta).
    pub fresh_links: usize,
    /// Slots the previous schedule occupied.
    pub previous_slots: usize,
    /// Previous slots whose grouping survived byte-identically (no link
    /// removed, none relocated away, none inserted).
    pub untouched_slots: usize,
    /// Slots appended beyond the previous schedule's range.
    pub fresh_slots: usize,
    /// Distinct length classes among the re-placed links — the buckets
    /// the paper's packing machinery works in.
    pub dirty_length_classes: usize,
    /// Synchronous slots the distributed protocol's probe/ack rounds
    /// consumed ([`RepackMode::Distributed`] only; the centralized
    /// modes charge 0). Two slots per probed candidate (probe + ack)
    /// plus one per cascade eviction — charged to repair cost alongside
    /// the schedule slots themselves.
    pub protocol_slots: u64,
    /// Ancestor links the lazy cascade actually escalated
    /// ([`RepackMode::Distributed`] only). The centralized incremental
    /// mode pessimistically re-places *every* ancestor of a fresh link;
    /// this counts how many a probe actually observed interference for.
    pub cascade_escalations: usize,
    /// Wall-clock of the packing phase, in seconds (measurement only;
    /// never part of a determinism fingerprint).
    pub pack_seconds: f64,
}

impl RepackStats {
    /// Fraction of tree links the packer re-placed (1.0 for
    /// [`RepackMode::Full`]).
    pub fn repacked_fraction(&self) -> f64 {
        self.repacked_links as f64 / (self.total_links.max(1)) as f64
    }

    /// Fraction of previous slots whose grouping changed (1.0 for
    /// [`RepackMode::Full`]).
    pub fn dirty_slot_fraction(&self) -> f64 {
        (self.previous_slots - self.untouched_slots) as f64 / (self.previous_slots.max(1)) as f64
    }
}

/// Result of [`repack_tree`].
#[derive(Clone, Debug)]
pub struct RepackOutcome {
    /// The compacted, bi-tree-ordered, per-slot bidirectionally feasible
    /// schedule over the merged tree.
    pub schedule: Schedule,
    /// What the packer touched.
    pub stats: RepackStats,
    /// Links infeasible even alone in either direction (empty for the
    /// margin powers every pipeline in this workspace produces).
    pub unschedulable: Vec<Link>,
}

/// Re-packs the merged `tree` after a churn delta.
///
/// `delta.kept` carries the surviving links' previous slots (already
/// remapped to the merged tree's ids — see [`Schedule::delta_map`]);
/// `delta.removed` the slots vacated by failed links. `power` must
/// cover both directions of every tree link (kept links keep their old
/// powers in the pipelines, so kept groupings stay feasible by subset
/// monotonicity; a kept link whose power entry went missing is treated
/// as fresh).
///
/// The previous schedule must have been per-slot feasible in both
/// directions (true of every schedule this workspace produces); the
/// returned schedule is again ordered and bidirectionally feasible —
/// `Full` and `Incremental` differ only in which slots the links land
/// in, never in those invariants.
pub fn repack_tree(
    params: &SinrParams,
    instance: &Instance,
    tree: &InTree,
    power: &PowerAssignment,
    delta: &ScheduleDelta,
    mode: RepackMode,
) -> RepackOutcome {
    if mode == RepackMode::Distributed {
        return crate::dist_repack::repack_distributed(params, instance, tree, power, delta);
    }
    let start = Instant::now();
    let n = tree.len();
    let total_links = n.saturating_sub(1);
    let fresh_links = tree
        .aggregation_links()
        .iter()
        .filter(|&l| delta.kept.slot_of(l).is_none())
        .count();
    let previous_slots = delta.previous_slots();

    if mode == RepackMode::Full {
        let (schedule, unschedulable) = packing::pack_tree_ordered(params, instance, tree, power);
        let classes: BTreeSet<u32> = schedule
            .links()
            .iter()
            .map(|l| l.length_class(instance))
            .collect();
        let stats = RepackStats {
            mode,
            total_links,
            kept_in_place: 0,
            repacked_links: total_links - unschedulable.len(),
            fresh_links,
            previous_slots,
            untouched_slots: 0,
            fresh_slots: schedule.num_slots(),
            dirty_length_classes: classes.len(),
            protocol_slots: 0,
            cascade_escalations: 0,
            pack_seconds: start.elapsed().as_secs_f64(),
        };
        return RepackOutcome {
            schedule,
            stats,
            unschedulable,
        };
    }

    // ---- 1. classify: fresh links, then the upward dirty closure ----
    let order = tree.leaf_to_root_order();
    let mut dirty = vec![false; n];
    for &u in &order {
        let Some(p) = tree.parent(u) else { continue };
        let link = Link::new(u, p);
        let powered = power.power_of(link, instance, params).is_ok()
            && power.power_of(link.dual(), instance, params).is_ok();
        let fresh = delta.kept.slot_of(link).is_none() || !powered;
        dirty[u] = fresh || tree.children(u).iter().any(|&c| dirty[c]);
        #[cfg(feature = "trace")]
        sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::RepackClass {
            node: u,
            class: if fresh {
                sinr_sim::trace::RepackClass::Fresh
            } else if dirty[u] {
                sinr_sim::trace::RepackClass::Dirty
            } else {
                sinr_sim::trace::RepackClass::Clean
            },
        });
    }

    // ---- 2. keep clean links in place; seed floors & residents ------
    let mut placed = Vec::with_capacity(total_links);
    let mut floor = vec![0usize; n];
    let mut touched = vec![false; previous_slots];
    for &(_, s) in &delta.removed {
        if s < previous_slots {
            touched[s] = true;
        }
    }
    // (link, forward power, dual power) per previous slot, in the
    // schedule's canonical (ascending link) order — the auditor seeding order
    // below, hence deterministic.
    let mut residents: Vec<Vec<(Link, f64, f64)>> = vec![Vec::new(); previous_slots];
    let mut kept_in_place = 0usize;
    for (link, s) in delta.kept.iter() {
        let in_tree = link.sender < n && tree.parent(link.sender) == Some(link.receiver);
        if !in_tree || dirty[link.sender] {
            // The link left this grouping: failed remnant or relocating.
            if s < previous_slots {
                touched[s] = true;
            }
            continue;
        }
        let pw_fwd = power
            .power_of(link, instance, params)
            .expect("clean links are powered by classification");
        let pw_dual = power
            .power_of(link.dual(), instance, params)
            .expect("clean links are powered by classification");
        placed.push((link, s));
        residents[s].push((link, pw_fwd, pw_dual));
        floor[link.receiver] = floor[link.receiver].max(s + 1);
        kept_in_place += 1;
    }

    // ---- 3. re-pack the dirty region, leaf to root ------------------
    let mut slots: Vec<SlotState<'_>> = (0..previous_slots).map(|_| SlotState::default()).collect();
    let mut candidates = Candidates::new(params, instance, power);
    let mut unschedulable = Vec::new();
    let mut repacked = 0usize;
    let mut classes: BTreeSet<u32> = BTreeSet::new();
    'links: for &u in &order {
        let Some(p) = tree.parent(u) else { continue };
        if !dirty[u] {
            continue;
        }
        let link = Link::new(u, p);
        let Some(pair) = candidates.both(link) else {
            unschedulable.push(link);
            continue;
        };
        classes.insert(link.length_class(instance));
        let mut s = floor[u];
        loop {
            while slots.len() <= s {
                slots.push(SlotState::default());
            }
            let res: &[(Link, f64, f64)] = if s < residents.len() {
                &residents[s]
            } else {
                &[]
            };
            if slots[s].try_place(params, instance, res, &pair) {
                placed.push((link, s));
                if s < previous_slots {
                    touched[s] = true;
                }
                floor[p] = floor[p].max(s + 1);
                repacked += 1;
                continue 'links;
            }
            s += 1;
        }
    }

    // ---- 4. compact & account ---------------------------------------
    let mut schedule = Schedule::from_pairs(placed).expect("each tree link is placed once");
    let fresh_slots = schedule
        .iter()
        .filter(|&(_, s)| s >= previous_slots)
        .map(|(_, s)| s)
        .collect::<BTreeSet<usize>>()
        .len();
    schedule.compact();
    let untouched_slots = touched.iter().filter(|&&t| !t).count();
    let stats = RepackStats {
        mode,
        total_links,
        kept_in_place,
        repacked_links: repacked,
        fresh_links,
        previous_slots,
        untouched_slots,
        fresh_slots,
        dirty_length_classes: classes.len(),
        protocol_slots: 0,
        cascade_escalations: 0,
        pack_seconds: start.elapsed().as_secs_f64(),
    };
    RepackOutcome {
        schedule,
        stats,
        unschedulable,
    }
}

/// Probe state of one slot: the bidirectional auditors, seeded with
/// the slot's surviving residents on first use and grown in place as
/// dirty links land.
#[derive(Debug, Default)]
struct SlotState<'a> {
    auditors: Option<(SlotAuditor<'a>, SlotAuditor<'a>)>,
}

impl<'a> SlotState<'a> {
    /// Probes a link's forward and dual candidates into this slot; on
    /// success the link stays resident.
    fn try_place(
        &mut self,
        params: &'a SinrParams,
        instance: &'a Instance,
        residents: &[(Link, f64, f64)],
        [fwd_link, dual_link]: &[Candidate; 2],
    ) -> bool {
        let (fwd, dual) = self.auditors.get_or_insert_with(|| {
            (
                SlotAuditor::with_residents(
                    params,
                    instance,
                    residents.iter().map(|&(l, pf, _)| (l, pf)),
                ),
                SlotAuditor::with_residents(
                    params,
                    instance,
                    residents.iter().map(|&(l, _, pd)| (l.dual(), pd)),
                ),
            )
        });
        if !(fwd.probe(fwd_link) && dual.probe(dual_link)) {
            return false;
        }
        fwd.commit(fwd_link);
        dual.commit(dual_link);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::gen;
    use sinr_phy::feasibility;
    use std::collections::HashMap;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    /// An MST bi-tree structure with explicit powers for both
    /// directions of every link — the shape repair/join hand the packer.
    fn structure(n: usize, seed: u64) -> (Instance, InTree, PowerAssignment, Schedule) {
        let p = params();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let parents = sinr_geom::mst::mst_parent_array(&inst, 0);
        let tree = InTree::from_parents(parents).unwrap();
        let formula = PowerAssignment::mean_with_margin(&p, inst.delta());
        let mut map: HashMap<Link, f64> = HashMap::new();
        for l in tree.aggregation_links().iter() {
            for dir in [l, l.dual()] {
                map.insert(dir, formula.power_of(dir, &inst, &p).unwrap());
            }
        }
        let power = PowerAssignment::explicit(map).unwrap();
        let (schedule, bad) = packing::pack_tree_ordered(&p, &inst, &tree, &power);
        assert!(bad.is_empty());
        (inst, tree, power, schedule)
    }

    #[test]
    fn no_churn_is_a_no_op() {
        let p = params();
        let (inst, tree, power, schedule) = structure(40, 3);
        let delta = ScheduleDelta::unchanged(&schedule);
        let out = repack_tree(&p, &inst, &tree, &power, &delta, RepackMode::Incremental);
        assert_eq!(out.schedule, schedule);
        assert!(out.unschedulable.is_empty());
        assert_eq!(out.stats.repacked_links, 0);
        assert_eq!(out.stats.fresh_links, 0);
        assert_eq!(out.stats.kept_in_place, tree.len() - 1);
        assert_eq!(out.stats.untouched_slots, out.stats.previous_slots);
        assert_eq!(out.stats.fresh_slots, 0);
        assert_eq!(out.stats.repacked_fraction(), 0.0);
        assert_eq!(out.stats.dirty_slot_fraction(), 0.0);
    }

    #[test]
    fn full_mode_matches_pack_tree_ordered() {
        let p = params();
        let (inst, tree, power, schedule) = structure(36, 5);
        let delta = ScheduleDelta::unchanged(&schedule);
        let out = repack_tree(&p, &inst, &tree, &power, &delta, RepackMode::Full);
        assert_eq!(out.schedule, schedule);
        assert_eq!(out.stats.repacked_links, tree.len() - 1);
        assert_eq!(out.stats.kept_in_place, 0);
        assert_eq!(out.stats.repacked_fraction(), 1.0);
        assert_eq!(out.stats.dirty_slot_fraction(), 1.0);
    }

    /// Killing a leaf needs no re-packing at all: the survivors keep
    /// their groupings (subset monotonicity), only the vacated slot is
    /// touched, and the result is still ordered + feasible.
    #[test]
    fn leaf_kill_repacks_nothing() {
        let p = params();
        let (inst, tree, power, schedule) = structure(40, 7);
        let leaf = (0..tree.len())
            .filter(|&u| tree.children(u).is_empty() && tree.parent(u).is_some())
            .max_by_key(|&u| tree.depth(u))
            .unwrap();
        // Survivor remap: ids above the failed leaf shift down by one.
        let remap = |u: usize| -> Option<usize> {
            match u.cmp(&leaf) {
                std::cmp::Ordering::Less => Some(u),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(u - 1),
            }
        };
        let survivors: Vec<sinr_geom::Point> = (0..tree.len())
            .filter(|&u| u != leaf)
            .map(|u| inst.position(u))
            .collect();
        let new_inst = Instance::new(survivors).unwrap();
        let parents: Vec<Option<usize>> = (0..tree.len())
            .filter(|&u| u != leaf)
            .map(|u| {
                tree.parent(u)
                    .map(|v| remap(v).expect("leaf has no children"))
            })
            .collect();
        let new_tree = InTree::from_parents(parents).unwrap();
        let new_power = {
            let mut map: HashMap<Link, f64> = HashMap::new();
            for (l, pw) in power.as_explicit().unwrap() {
                if let (Some(s), Some(r)) = (remap(l.sender), remap(l.receiver)) {
                    map.insert(Link::new(s, r), *pw);
                }
            }
            PowerAssignment::explicit(map).unwrap()
        };
        let delta = schedule
            .delta_map(|l| Some(Link::new(remap(l.sender)?, remap(l.receiver)?)))
            .unwrap();
        assert_eq!(delta.removed.len(), 1);

        let out = repack_tree(
            &p,
            &new_inst,
            &new_tree,
            &new_power,
            &delta,
            RepackMode::Incremental,
        );
        assert!(out.unschedulable.is_empty());
        assert_eq!(out.stats.fresh_links, 0);
        assert_eq!(out.stats.repacked_links, 0);
        assert_eq!(out.stats.kept_in_place, new_tree.len() - 1);
        assert_eq!(
            out.stats.untouched_slots,
            out.stats.previous_slots - 1,
            "exactly the vacated slot is touched"
        );
        feasibility::validate_schedule(&p, &new_inst, &out.schedule, &new_power).unwrap();
        sinr_links::BiTree::new(new_tree, out.schedule).expect("ordering holds");
    }

    /// A genuinely fresh link (absent from the kept schedule) is
    /// classified fresh and exactly its ancestor chain re-packs with
    /// it — the join-shaped dirty region.
    #[test]
    fn fresh_link_dirties_its_ancestor_chain() {
        let p = params();
        let (inst, tree, power, schedule) = structure(30, 11);
        // Pick the deepest node; drop its uplink from the kept schedule.
        let deepest = (0..tree.len()).max_by_key(|&u| tree.depth(u)).unwrap();
        let link = Link::new(deepest, tree.parent(deepest).unwrap());
        let kept = Schedule::from_pairs(schedule.iter().filter(|&(l, _)| l != link)).unwrap();
        let delta = ScheduleDelta {
            kept,
            removed: Vec::new(),
        };
        let out = repack_tree(&p, &inst, &tree, &power, &delta, RepackMode::Incremental);
        assert_eq!(out.stats.fresh_links, 1);
        // The dirty closure is the path from the fresh link to the root.
        assert_eq!(out.stats.repacked_links, tree.depth(deepest));
        assert!(out.stats.repacked_links < tree.len() - 1, "sublinear");
        assert!(out.stats.dirty_length_classes >= 1);
        feasibility::validate_schedule(&p, &inst, &out.schedule, &power).unwrap();
        sinr_links::BiTree::new(tree.clone(), out.schedule.clone()).expect("ordering holds");
    }

    #[test]
    fn repack_mode_parses_and_prints() {
        assert_eq!("full".parse::<RepackMode>().unwrap(), RepackMode::Full);
        assert_eq!(
            "incremental".parse::<RepackMode>().unwrap(),
            RepackMode::Incremental
        );
        assert_eq!(
            "distributed".parse::<RepackMode>().unwrap(),
            RepackMode::Distributed
        );
        assert!("fast".parse::<RepackMode>().is_err());
        assert_eq!(RepackMode::default(), RepackMode::Incremental);
        assert_eq!(RepackMode::Full.to_string(), "full");
        assert_eq!(RepackMode::Distributed.to_string(), "distributed");
    }
}
