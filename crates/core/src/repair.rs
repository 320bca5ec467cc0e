//! Failure repair — the "dynamic situations" extension the paper's
//! conclusion names as future work (§9: "node and link failures").
//!
//! Given a previously built connectivity structure and a set of failed
//! nodes, the survivors repair as follows:
//!
//! 1. links with a failed endpoint disappear; the surviving links form
//!    a forest over the alive nodes;
//! 2. the forest roots (nodes whose parent failed, plus the old root if
//!    it survived) re-run the `TreeViaCapacity` selection loop —
//!    exactly the paper's machinery, restricted to the orphaned roots —
//!    until one root remains ([`tvc::extend_forest`](crate::tvc::extend_forest));
//! 3. the merged tree is re-packed by [`crate::repack`]: surviving slot
//!    groupings stay in place (kept links keep their slots and powers;
//!    subsets of feasible slots are feasible in both directions), and
//!    only the dirty region re-runs the bidirectional packing probes.
//!    [`TvcConfig::repack`] picks the mode: `Incremental` assigns the
//!    dirty-region slots centrally over the pessimistic ancestor
//!    closure; `Distributed` runs the node-local probe/ack protocol of
//!    [`crate::dist_repack`], escalating ancestors only on observed
//!    interference; `Full` keeps the centralized whole-tree re-pack as
//!    the reference.
//!
//! Step 2 is the paper-faithful distributed part. Step 3 used to be the
//! one fully centralized boundary (re-pack *everything*); the
//! incremental re-packer narrowed it to the damage neighborhood, and
//! the distributed re-packer removes it: with
//! [`RepackMode::Distributed`] even the dirty-region slot assignments
//! are derived by local message rounds — the paper's §9 repair problem
//! in its remaining form, closed. See DESIGN.md §10/§14.
//!
//! The repaired structure lives on a compacted sub-instance of the
//! survivors; [`RepairOutcome`] carries the id mappings and the
//! re-pack cost accounting ([`RepackStats`]).

use std::collections::HashMap;

use sinr_geom::{Instance, NodeId};
use sinr_links::{BiTree, InTree, Link, LinkSet, Schedule, ScheduleDelta};
use sinr_phy::{PowerAssignment, SinrParams};

use crate::repack::{repack_tree, RepackStats};
use crate::selector::SubsetSelector;
use crate::tvc::{extend_forest, TvcConfig};
use crate::{CoreError, Result};

/// A previously built structure, as the dynamic pipelines (`repair`,
/// [`crate::join`]) consume it: the parent array, the explicit per-link
/// powers (both directions), and the aggregation schedule whose slot
/// groupings the incremental re-packer tries to keep.
#[derive(Clone, Copy, Debug)]
pub struct PriorStructure<'a> {
    /// Parent array over the original instance (e.g. from
    /// `TvcOutcome::tree`).
    pub parents: &'a [Option<NodeId>],
    /// Explicit powers for both directions of every link.
    pub powers: &'a HashMap<Link, f64>,
    /// The aggregation schedule the structure was running.
    pub schedule: &'a Schedule,
}

/// The repaired structure and its bookkeeping.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The survivors as a compacted instance (`new` ids `0..alive`).
    pub instance: Instance,
    /// `old_to_new[old_id] = Some(new_id)` for survivors, `None` for
    /// failed nodes.
    pub old_to_new: Vec<Option<NodeId>>,
    /// `new_to_old[new_id] = old_id`.
    pub new_to_old: Vec<NodeId>,
    /// The repaired converge-cast tree (new ids).
    pub tree: InTree,
    /// The repaired bi-tree with an ordered, feasible schedule.
    pub bitree: BiTree,
    /// The aggregation schedule.
    pub schedule: Schedule,
    /// Powers for both directions of every link.
    pub power: PowerAssignment,
    /// Surviving links kept from the old structure.
    pub kept_links: usize,
    /// Links added during reattachment.
    pub new_links: usize,
    /// Forest roots that had to reattach.
    pub orphaned_roots: usize,
    /// Distributed runtime of the reattachment phase, in slots.
    pub runtime_slots: u64,
    /// What the re-packer touched (mode, re-packed fraction, untouched
    /// slots, wall-clock).
    pub repack: RepackStats,
}

/// Repairs a structure after node failures.
///
/// `prior` is the pre-failure structure (parents, explicit powers of
/// both directions, aggregation schedule), `failed` the failed node
/// ids. The re-packer is selected by `cfg.repack`.
///
/// # Errors
///
/// - [`CoreError::InvalidConfig`] if every node failed or `failed`
///   contains an out-of-range id;
/// - reattachment errors from the selection loop;
/// - packing/validation errors if the surviving powers cannot carry
///   their links alone (cannot happen for powers produced by this
///   crate's pipelines).
pub fn repair_after_failures(
    params: &SinrParams,
    original: &Instance,
    prior: &PriorStructure<'_>,
    failed: &[NodeId],
    cfg: &TvcConfig,
    selector: &mut dyn SubsetSelector,
    seed: u64,
) -> Result<RepairOutcome> {
    let n = original.len();
    if prior.parents.len() != n {
        return Err(CoreError::InvalidConfig {
            name: "prior.parents",
            reason: "parent array length must equal instance size",
        });
    }
    let mut alive = vec![true; n];
    for &f in failed {
        if f >= n {
            return Err(CoreError::InvalidConfig {
                name: "failed",
                reason: "failed id out of range",
            });
        }
        alive[f] = false;
    }
    let new_to_old: Vec<NodeId> = (0..n).filter(|&i| alive[i]).collect();
    if new_to_old.is_empty() {
        return Err(CoreError::InvalidConfig {
            name: "failed",
            reason: "at least one node must survive",
        });
    }
    let mut old_to_new = vec![None; n];
    for (new, &old) in new_to_old.iter().enumerate() {
        old_to_new[old] = Some(new);
    }

    // The survivors as a standalone instance (distances unchanged).
    let points: Vec<sinr_geom::Point> = new_to_old.iter().map(|&o| original.position(o)).collect();
    let instance = Instance::new(points).map_err(|_| CoreError::InvalidConfig {
        name: "failed",
        reason: "survivor set produced an invalid instance",
    })?;

    // Surviving forest: keep (u, p) when both endpoints survive.
    let mut seeded: Vec<Option<NodeId>> = vec![None; instance.len()];
    let mut kept = LinkSet::new();
    for (old_u, parent) in prior.parents.iter().enumerate() {
        let (Some(new_u), Some(old_p)) = (old_to_new[old_u], parent) else {
            continue;
        };
        if let Some(new_p) = old_to_new[*old_p] {
            seeded[new_u] = Some(new_p);
            kept.insert(Link::new(new_u, new_p));
        }
    }
    let orphaned_roots = seeded.iter().filter(|p| p.is_none()).count();

    // Kept-link powers, remapped to the new ids.
    let mut kept_powers: HashMap<Link, f64> = HashMap::new();
    for l in kept.iter() {
        let old_link = Link::new(new_to_old[l.sender], new_to_old[l.receiver]);
        for (dir, old_dir) in [(l, old_link), (l.dual(), old_link.dual())] {
            let p = prior.powers.get(&old_dir).copied().ok_or(CoreError::Phy(
                sinr_phy::PhyError::MissingPower { link: old_dir },
            ))?;
            kept_powers.insert(dir, p);
        }
    }

    // Schedule delta: surviving links keep their slots under the id
    // compaction; links with a failed endpoint are recorded with the
    // slots they vacate.
    let delta = prior.schedule.delta_map(|l| {
        let s = old_to_new.get(l.sender).copied().flatten()?;
        let r = old_to_new.get(l.receiver).copied().flatten()?;
        Some(Link::new(s, r))
    })?;

    #[cfg(feature = "trace")]
    sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::Batch {
        phase: "repair",
        index: 0,
        size: failed.len(),
    });
    let done = complete_and_pack(
        params,
        &instance,
        seeded,
        kept_powers,
        delta,
        cfg,
        selector,
        seed,
    )?;

    Ok(RepairOutcome {
        instance,
        old_to_new,
        new_to_old,
        tree: done.tree,
        bitree: done.bitree,
        schedule: done.schedule,
        power: done.power,
        kept_links: kept.len(),
        new_links: done.new_links,
        orphaned_roots,
        runtime_slots: done.runtime_slots,
        repack: done.repack,
    })
}

/// The shared tail of the dynamic pipelines (repair, join): complete the
/// seeded forest distributively, merge powers, re-pack an ordered
/// feasible schedule (incrementally or fully, per `cfg.repack`), and
/// assemble the bi-tree.
pub(crate) struct CompletedForest {
    pub(crate) tree: InTree,
    pub(crate) bitree: BiTree,
    pub(crate) schedule: Schedule,
    pub(crate) power: PowerAssignment,
    pub(crate) new_links: usize,
    pub(crate) runtime_slots: u64,
    pub(crate) repack: RepackStats,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn complete_and_pack(
    params: &SinrParams,
    instance: &Instance,
    seeded_parents: Vec<Option<NodeId>>,
    kept_powers: HashMap<Link, f64>,
    delta: ScheduleDelta,
    cfg: &TvcConfig,
    selector: &mut dyn SubsetSelector,
    seed: u64,
) -> Result<CompletedForest> {
    let ext = extend_forest(params, instance, cfg, selector, seed, seeded_parents)?;
    let mut powers = kept_powers;
    powers.extend(ext.new_powers.iter().map(|(&l, &p)| (l, p)));
    let power = PowerAssignment::explicit(powers)?;

    let tree = InTree::from_parents(ext.parents)?;
    let out = repack_tree(params, instance, &tree, &power, &delta, cfg.repack);
    if let Some(&l) = out.unschedulable.first() {
        return Err(CoreError::Phy(sinr_phy::PhyError::PowerBelowNoiseFloor {
            link: l,
            power: power.power_of(l, instance, params).unwrap_or(0.0),
            required: params.noise_floor_power(l.length(instance))
                / params
                    .channel()
                    .fade(instance.position(l.sender), instance.position(l.receiver)),
        }));
    }
    let bitree = BiTree::new(tree.clone(), out.schedule.clone())?;
    Ok(CompletedForest {
        tree,
        bitree,
        schedule: out.schedule,
        power,
        new_links: ext.new_links.len(),
        runtime_slots: ext.runtime_slots,
        repack: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repack::RepackMode;
    use crate::selector::MeanSamplingSelector;
    use crate::tvc::tree_via_capacity;
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    fn build(n: usize, seed: u64) -> (Instance, crate::tvc::TvcOutcome) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, seed).unwrap();
        (inst, out)
    }

    fn old_pieces(out: &crate::tvc::TvcOutcome) -> (Vec<Option<NodeId>>, HashMap<Link, f64>) {
        let parents: Vec<Option<NodeId>> =
            (0..out.tree.len()).map(|u| out.tree.parent(u)).collect();
        let powers = out.power.as_explicit().unwrap().clone();
        (parents, powers)
    }

    #[test]
    fn repair_after_scattered_failures() {
        let params = SinrParams::default();
        let (inst, out) = build(40, 3);
        let (parents, powers) = old_pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let failed = vec![3usize, 11, 17, 29];
        let mut sel = MeanSamplingSelector::default();
        let rep = repair_after_failures(
            &params,
            &inst,
            &prior,
            &failed,
            &TvcConfig::default(),
            &mut sel,
            99,
        )
        .unwrap();

        assert_eq!(rep.instance.len(), 36);
        assert_eq!(rep.tree.len(), 36);
        assert_eq!(rep.kept_links + rep.new_links, 35);
        assert!(rep.orphaned_roots >= 1);
        assert_eq!(rep.repack.mode, RepackMode::Incremental);
        assert_eq!(
            rep.repack.kept_in_place + rep.repack.repacked_links,
            rep.tree.len() - 1
        );
        feasibility::validate_schedule(&params, &rep.instance, &rep.schedule, &rep.power)
            .expect("repaired schedule feasible");
        // Id mappings are mutually inverse.
        for (new, &old) in rep.new_to_old.iter().enumerate() {
            assert_eq!(rep.old_to_new[old], Some(new));
        }
        for &f in &failed {
            assert_eq!(rep.old_to_new[f], None);
        }
    }

    #[test]
    fn repair_survives_root_failure() {
        let params = SinrParams::default();
        let (inst, out) = build(30, 7);
        let (parents, powers) = old_pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let failed = vec![out.tree.root()];
        let mut sel = MeanSamplingSelector::default();
        let rep = repair_after_failures(
            &params,
            &inst,
            &prior,
            &failed,
            &TvcConfig::default(),
            &mut sel,
            5,
        )
        .unwrap();
        assert_eq!(rep.tree.len(), 29);
        // Every old root-child became an orphan root.
        assert!(rep.orphaned_roots >= out.tree.children(out.tree.root()).len());
        let (up, down) =
            crate::latency::audit_bitree(&params, &rep.instance, &rep.bitree, &rep.power).unwrap();
        assert!(up.all_delivered && down.all_reached);
    }

    #[test]
    fn repair_with_no_failures_is_identity_shaped() {
        let params = SinrParams::default();
        let (inst, out) = build(20, 9);
        let (parents, powers) = old_pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let mut sel = MeanSamplingSelector::default();
        let rep = repair_after_failures(
            &params,
            &inst,
            &prior,
            &[],
            &TvcConfig::default(),
            &mut sel,
            1,
        )
        .unwrap();
        assert_eq!(rep.kept_links, 19);
        assert_eq!(rep.new_links, 0);
        assert_eq!(rep.orphaned_roots, 1); // the old root
        assert_eq!(rep.runtime_slots, 0);
        // Nothing to re-pack: the schedule survives verbatim.
        assert_eq!(rep.repack.repacked_links, 0);
        assert_eq!(rep.repack.untouched_slots, rep.repack.previous_slots);
        assert_eq!(rep.schedule, out.schedule);
    }

    /// `cfg.repack = Full` keeps the centralized reference reachable,
    /// and both modes deliver audited-feasible structures on the same
    /// reattachment.
    #[test]
    fn full_and_incremental_modes_both_audit_clean() {
        let params = SinrParams::default();
        let (inst, out) = build(36, 21);
        let (parents, powers) = old_pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let failed = vec![2usize, 9, 30];
        let mut outcomes = Vec::new();
        for mode in [RepackMode::Full, RepackMode::Incremental] {
            let cfg = TvcConfig {
                repack: mode,
                ..Default::default()
            };
            let mut sel = MeanSamplingSelector::default();
            let rep =
                repair_after_failures(&params, &inst, &prior, &failed, &cfg, &mut sel, 13).unwrap();
            assert_eq!(rep.repack.mode, mode);
            feasibility::validate_schedule(&params, &rep.instance, &rep.schedule, &rep.power)
                .unwrap();
            let (up, down) =
                crate::latency::audit_bitree(&params, &rep.instance, &rep.bitree, &rep.power)
                    .unwrap();
            assert!(up.all_delivered && down.all_reached, "{mode}");
            outcomes.push(rep);
        }
        // Same seed ⇒ same reattachment ⇒ identical trees; only the
        // packing differs.
        assert_eq!(outcomes[0].tree, outcomes[1].tree);
        assert_eq!(outcomes[0].repack.repacked_fraction(), 1.0);
        assert!(outcomes[1].repack.repacked_fraction() < 1.0);
    }

    #[test]
    fn repair_rejects_total_failure_and_bad_ids() {
        let params = SinrParams::default();
        let (inst, out) = build(5, 2);
        let (parents, powers) = old_pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let mut sel = MeanSamplingSelector::default();
        let all: Vec<NodeId> = (0..5).collect();
        assert!(matches!(
            repair_after_failures(
                &params,
                &inst,
                &prior,
                &all,
                &TvcConfig::default(),
                &mut sel,
                0,
            ),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            repair_after_failures(
                &params,
                &inst,
                &prior,
                &[9],
                &TvcConfig::default(),
                &mut sel,
                0,
            ),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn repeated_failures_compound() {
        // Two rounds of failures: repair the repaired structure.
        let params = SinrParams::default();
        let (inst, out) = build(36, 13);
        let (parents, powers) = old_pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let mut sel = MeanSamplingSelector::default();
        let rep1 = repair_after_failures(
            &params,
            &inst,
            &prior,
            &[1, 2, 3],
            &TvcConfig::default(),
            &mut sel,
            4,
        )
        .unwrap();

        let parents2: Vec<Option<NodeId>> =
            (0..rep1.tree.len()).map(|u| rep1.tree.parent(u)).collect();
        let powers2 = rep1.power.as_explicit().unwrap().clone();
        let prior2 = PriorStructure {
            parents: &parents2,
            powers: &powers2,
            schedule: &rep1.schedule,
        };
        let rep2 = repair_after_failures(
            &params,
            &rep1.instance,
            &prior2,
            &[0, 5],
            &TvcConfig::default(),
            &mut sel,
            6,
        )
        .unwrap();
        assert_eq!(rep2.tree.len(), 31);
        feasibility::validate_schedule(&params, &rep2.instance, &rep2.schedule, &rep2.power)
            .unwrap();
    }
}
