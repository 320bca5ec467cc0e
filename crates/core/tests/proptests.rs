//! Property-based tests for the dynamic pipelines: random interleavings
//! of kill/join churn deltas through `repair`/`join` with the
//! incremental re-packer, asserting after **every** batch that
//!
//! - the re-packed schedule is feasible in *both* directions
//!   (Definition 1: aggregation and dissemination share one slot
//!   grouping);
//! - the bi-tree ordering property holds (checked by `BiTree::new`
//!   inside the pipelines, re-checked here via the dissemination
//!   schedule);
//! - every **untouched** slot grouping is byte-identical to the old
//!   schedule, where "untouched" is recomputed independently from the
//!   delta (no removal, no member in the dirty closure, no insertion)
//!   and must agree with the packer's own accounting.
//!
//! A second family drives random **crash-fault schedules** through the
//! full robustness pipeline instead of handing the kill-set to the
//! repair directly: the timeout detector must name *exactly* the
//! injected victims (no misses, no false positives), and its suspect
//! set — fed verbatim to `repair_after_failures` — must leave a
//! bidirectionally feasible, fully-delivering bi-tree after every
//! batch.
//!
//! Two further families pin the **distributed re-packer**
//! (`RepackMode::Distributed`, DESIGN.md §14) against the incremental
//! one:
//!
//! - random kill/join interleavings through the real pipelines must
//!   stay bidirectionally feasible, pass both delivery audits, keep
//!   every clean link's slot byte-identical to the incremental
//!   schedule, and re-place a closure no larger than the pessimistic
//!   ancestor closure;
//! - random fresh-link deltas straight through `repack_tree` must be
//!   rerun-deterministic, honor the protocol-cost accounting
//!   (`protocol_slots`/`cascade_escalations`), and again keep the
//!   distributed closure a subset of the recomputed pessimistic one —
//!   with exact equality pinned by an adversarial dense instance where
//!   every probe observes interference
//!   (`adversarial_dense_cascade_equals_pessimistic_closure`).

use std::collections::HashMap;

use proptest::prelude::*;
use sinr_connectivity::join::join_nodes;
use sinr_connectivity::repack::repack_tree;
use sinr_connectivity::repair::{repair_after_failures, PriorStructure};
use sinr_connectivity::selector::MeanSamplingSelector;
use sinr_connectivity::tvc::{tree_via_capacity, TvcConfig};
use sinr_connectivity::{detect_failures, DetectConfig, RepackMode, RepackStats};
use sinr_geom::{Instance, NodeId, Point};
use sinr_links::{InTree, Link, LinkSet, Schedule, ScheduleDelta};
use sinr_phy::{feasibility, PowerAssignment, SinrParams};
use sinr_sim::{FaultEvent, FaultPlan};

/// One churn batch of the random interleaving.
#[derive(Clone, Debug)]
enum Churn {
    /// Kill the nodes at these (mod-reduced) indices.
    Kill(Vec<usize>),
    /// Join this many far-field newcomers.
    Join(usize),
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    (
        0u8..2,
        proptest::collection::vec(0usize..1_000, 1..3),
        1usize..3,
    )
        .prop_map(|(kind, kills, joins)| {
            if kind == 0 {
                Churn::Kill(kills)
            } else {
                Churn::Join(joins)
            }
        })
}

/// PR 5's pessimistic ancestor closure, recomputed from scratch: fresh
/// links (tree links absent from the kept schedule) plus all their
/// ancestors — the reference the distributed re-packer's lazy closure
/// is pinned against.
fn pessimistic_dirty(kept: &Schedule, tree: &InTree) -> Vec<bool> {
    let n = tree.len();
    let mut dirty = vec![false; n];
    for u in 0..n {
        let Some(p) = tree.parent(u) else { continue };
        if kept.slot_of(Link::new(u, p)).is_none() {
            let mut cur = u;
            while !dirty[cur] {
                dirty[cur] = true;
                match tree.parent(cur) {
                    Some(next) => cur = next,
                    None => break,
                }
            }
        }
    }
    dirty
}

/// The clean-link parity the distributed mode must keep: every link
/// outside the pessimistic closure (clean for *both* packers) holds a
/// byte-identical slot in the distributed and incremental schedules.
fn check_clean_slot_parity(
    kept: &Schedule,
    tree: &InTree,
    dist: &Schedule,
    incr: &Schedule,
) -> Result<(), TestCaseError> {
    let dirty = pessimistic_dirty(kept, tree);
    for (u, &u_dirty) in dirty.iter().enumerate() {
        let Some(p) = tree.parent(u) else { continue };
        if u_dirty {
            continue;
        }
        let link = Link::new(u, p);
        prop_assert_eq!(
            dist.slot_of(link),
            incr.slot_of(link),
            "clean link {}->{} diverged between distributed and incremental",
            u,
            p
        );
    }
    Ok(())
}

/// The distributed re-packer's closure and protocol-cost accounting:
/// a subset of the pessimistic closure, internally consistent
/// counters, and rounds charged for every claim.
fn check_distributed_accounting(
    dist: &RepackStats,
    pessimistic_closure: usize,
) -> Result<(), TestCaseError> {
    prop_assert!(
        dist.repacked_links <= pessimistic_closure,
        "distributed closure {} exceeds the pessimistic ancestor closure {}",
        dist.repacked_links,
        pessimistic_closure
    );
    prop_assert!(
        dist.repacked_links <= dist.fresh_links + dist.cascade_escalations,
        "moved links {} exceed fresh {} + escalations {}",
        dist.repacked_links,
        dist.fresh_links,
        dist.cascade_escalations
    );
    prop_assert!(
        dist.protocol_slots >= 2 * dist.repacked_links as u64,
        "every claim costs at least one probe/ack round"
    );
    prop_assert_eq!(
        dist.kept_in_place + dist.repacked_links,
        dist.total_links,
        "every link is either kept or re-placed"
    );
    Ok(())
}

/// Independently recompute which previous slots must have survived
/// byte-identically, and check the packer's accounting and the actual
/// groupings against it.
///
/// `kept` is the previous schedule already remapped to the new ids
/// (identity for joins); `removed_slots` the slots vacated by failed
/// links.
fn check_untouched_slots(
    kept: &Schedule,
    removed_slots: &[usize],
    tree: &InTree,
    new_schedule: &Schedule,
    stats: &RepackStats,
) -> Result<(), TestCaseError> {
    let n = tree.len();
    let dirty = pessimistic_dirty(kept, tree);

    let prev_slots = kept
        .num_slots()
        .max(removed_slots.iter().map(|&s| s + 1).max().unwrap_or(0));
    let kept_groups: Vec<LinkSet> = {
        let mut groups = vec![LinkSet::new(); prev_slots];
        for (l, s) in kept.iter() {
            groups[s].insert(l);
        }
        groups
    };
    let new_groups: Vec<LinkSet> = new_schedule.slots();

    let mut untouched_expected = 0usize;
    for (s, group) in kept_groups.iter().enumerate() {
        if removed_slots.contains(&s) {
            continue; // vacated: touched by definition
        }
        let clean = group
            .iter()
            .all(|l| l.sender < n && tree.parent(l.sender) == Some(l.receiver) && !dirty[l.sender]);
        if group.is_empty() || !clean {
            continue;
        }
        // Clean groupings must survive in one piece: every member in
        // the same (possibly renumbered) slot.
        let new_slot = new_schedule.slot_of(group.iter().next().unwrap());
        prop_assert!(new_slot.is_some(), "clean link lost its slot");
        let new_slot = new_slot.unwrap();
        for l in group.iter() {
            prop_assert_eq!(
                new_schedule.slot_of(l),
                Some(new_slot),
                "clean grouping of previous slot {} was split",
                s
            );
        }
        // Untouched ⇔ nothing was inserted: the grouping is
        // byte-identical to the old schedule's.
        if &new_groups[new_slot] == group {
            untouched_expected += 1;
        }
    }
    prop_assert_eq!(
        stats.untouched_slots,
        untouched_expected,
        "packer accounting disagrees with the recomputed untouched set"
    );
    Ok(())
}

/// Both schedule directions must be feasible under the outcome powers.
fn check_bidirectional(
    params: &SinrParams,
    instance: &Instance,
    schedule: &Schedule,
    power: &PowerAssignment,
) -> Result<(), TestCaseError> {
    prop_assert!(feasibility::validate_schedule(params, instance, schedule, power).is_ok());
    let dual = schedule.map_links(Link::dual).unwrap();
    prop_assert!(feasibility::validate_schedule(params, instance, &dual, power).is_ok());
    Ok(())
}

/// Far-field join points: placed past the bounding box at unit-safe
/// spacing, jittered by the op index so repeated joins stay distinct.
fn join_points(inst: &Instance, k: usize, salt: usize) -> Vec<Point> {
    let bb = inst.bounding_box();
    (0..k)
        .map(|i| {
            Point::new(
                bb.max().x + 3.0 + 2.0 * i as f64,
                bb.min().y + 1.5 * salt as f64,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random kill/join interleavings through the real pipelines with
    /// the incremental re-packer.
    #[test]
    fn churn_interleavings_stay_feasible_and_local(
        seed in 0u64..5_000,
        n in 16usize..28,
        ops in proptest::collection::vec(arb_churn(), 1..4),
    ) {
        let params = SinrParams::default();
        let mut sel = MeanSamplingSelector::default();
        let mut instance = sinr_geom::gen::uniform_square(n, 1.8, seed).unwrap();
        let built =
            tree_via_capacity(&params, &instance, &TvcConfig::default(), &mut sel, seed).unwrap();
        let mut parents: Vec<Option<NodeId>> =
            (0..built.tree.len()).map(|u| built.tree.parent(u)).collect();
        let mut powers: HashMap<Link, f64> = built.power.as_explicit().unwrap().clone();
        let mut schedule = built.schedule.clone();

        for (op_index, op) in ops.into_iter().enumerate() {
            let prior = PriorStructure {
                parents: &parents,
                powers: &powers,
                schedule: &schedule,
            };
            let op_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(op_index as u64);
            match op {
                Churn::Kill(raw) => {
                    let mut failed: Vec<usize> =
                        raw.iter().map(|&i| i % instance.len()).collect();
                    failed.sort_unstable();
                    failed.dedup();
                    if instance.len() - failed.len() < 4 {
                        continue; // keep the structure non-degenerate
                    }
                    let rep = repair_after_failures(
                        &params, &instance, &prior, &failed,
                        &TvcConfig::default(), &mut sel, op_seed,
                    ).unwrap();

                    check_bidirectional(&params, &rep.instance, &rep.schedule, &rep.power)?;
                    // Recompute the delta the pipeline derived and
                    // verify the untouched accounting.
                    let delta = schedule.delta_map(|l| {
                        let s = rep.old_to_new[l.sender]?;
                        let r = rep.old_to_new[l.receiver]?;
                        Some(Link::new(s, r))
                    }).unwrap();
                    let removed: Vec<usize> =
                        delta.removed.iter().map(|&(_, s)| s).collect();
                    check_untouched_slots(
                        &delta.kept, &removed, &rep.tree, &rep.schedule, &rep.repack,
                    )?;
                    // Locality: only fresh links and their ancestor
                    // closure re-pack.
                    prop_assert_eq!(
                        rep.repack.kept_in_place + rep.repack.repacked_links,
                        rep.tree.len() - 1
                    );

                    parents = (0..rep.tree.len()).map(|u| rep.tree.parent(u)).collect();
                    powers = rep.power.as_explicit().unwrap().clone();
                    schedule = rep.schedule.clone();
                    instance = rep.instance;
                }
                Churn::Join(k) => {
                    let points = join_points(&instance, k, op_index + 1);
                    let joined = join_nodes(
                        &params, &instance, &prior, &points,
                        &TvcConfig::default(), &mut sel, op_seed,
                    ).unwrap();

                    check_bidirectional(
                        &params, &joined.instance, &joined.schedule, &joined.power,
                    )?;
                    check_untouched_slots(
                        &schedule, &[], &joined.tree, &joined.schedule, &joined.repack,
                    )?;
                    prop_assert_eq!(joined.repack.fresh_links, k);
                    prop_assert_eq!(
                        joined.repack.kept_in_place + joined.repack.repacked_links,
                        joined.tree.len() - 1
                    );

                    parents = (0..joined.tree.len()).map(|u| joined.tree.parent(u)).collect();
                    powers = joined.power.as_explicit().unwrap().clone();
                    schedule = joined.schedule.clone();
                    instance = joined.instance;
                }
            }
        }
    }
}

proptest! {
    // The detector simulates up to 8 heartbeat cycles per batch, so
    // this family runs fewer, heavier cases than the churn one.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random fault schedules — crashes interleaved with deafness and
    /// reception-drop noise — through detect → repair. Every injected
    /// crash must be suspected; any *extra* suspect must be the noisy
    /// node's parent (the detector's documented false-positive mode,
    /// nothing else); and the repaired structure must pass the
    /// bidirectional feasibility and delivery audits after every
    /// batch, false positives included.
    #[test]
    fn fault_schedules_detect_exactly_and_repair_cleanly(
        seed in 0u64..5_000,
        n in 20usize..28,
        batches in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..1_000, 1..3),
                0u64..16,
                // Noise on one non-victim: 0 = none, 1 = deafness for
                // the whole run, 2 = reception drops.
                (0u8..3, 0usize..1_000),
            ),
            1..3,
        ),
    ) {
        let params = SinrParams::default();
        let mut sel = MeanSamplingSelector::default();
        let mut instance = sinr_geom::gen::uniform_square(n, 1.8, seed).unwrap();
        let built =
            tree_via_capacity(&params, &instance, &TvcConfig::default(), &mut sel, seed).unwrap();
        let mut parents: Vec<Option<NodeId>> =
            (0..built.tree.len()).map(|u| built.tree.parent(u)).collect();
        let mut powers: HashMap<Link, f64> = built.power.as_explicit().unwrap().clone();
        let mut schedule = built.schedule.clone();
        let mut tree = built.tree;

        for (batch_index, (raw, crash_at, (noise_kind, noise_raw))) in
            batches.into_iter().enumerate()
        {
            // Eligible victims: non-root with a surviving child to
            // declare them (a crashed leaf is the detector's documented
            // blind spot). Tree-independence within the batch keeps
            // every victim's children and parent alive, which is what
            // makes *exact* coverage assertable.
            let root = tree.root();
            let eligible: Vec<usize> = (0..tree.len())
                .filter(|&u| u != root && !tree.children(u).is_empty())
                .collect();
            if eligible.is_empty() {
                break;
            }
            let mut victims: Vec<usize> = Vec::new();
            for r in raw {
                let cand = eligible[r % eligible.len()];
                let independent = victims.iter().all(|&v| {
                    v != cand && tree.parent(cand) != Some(v) && tree.parent(v) != Some(cand)
                });
                if independent {
                    victims.push(cand);
                }
            }
            victims.sort_unstable();
            // Margin of 5: room for the noise node's parent to join the
            // kill-set as a false positive.
            if instance.len() - victims.len() < 5 {
                break; // keep the structure non-degenerate
            }

            let prior = PriorStructure {
                parents: &parents,
                powers: &powers,
                schedule: &schedule,
            };
            let op_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(batch_index as u64);
            let mut plan = FaultPlan::new(instance.len(), op_seed);
            for &v in &victims {
                plan.push(v, FaultEvent::CrashStop { at: crash_at });
            }
            // Noise: corrupt one live node's reception. A deaf or
            // droppy child can falsely declare its own (live) parent —
            // and nothing else.
            let noise_node = if noise_kind == 0 {
                None
            } else {
                let live: Vec<usize> =
                    (0..tree.len()).filter(|u| !victims.contains(u)).collect();
                let u = live[noise_raw % live.len()];
                plan.push(
                    u,
                    if noise_kind == 1 {
                        FaultEvent::TransientDeafness { from: 0, until: u64::MAX }
                    } else {
                        FaultEvent::ReceptionDrop {
                            prob: 0.2 + 0.05 * (noise_raw % 10) as f64,
                            from: 0,
                        }
                    },
                );
                Some(u)
            };
            let cfg = DetectConfig {
                miss_threshold: 2,
                max_backoff_exp: 1,
                max_rounds: 8,
                ..DetectConfig::default()
            };
            let report =
                detect_failures(&params, &instance, &prior, &plan, &cfg, op_seed).unwrap();
            for &v in &victims {
                prop_assert!(
                    report.suspects.contains(&v),
                    "crashed node {v} escaped detection: {:?}",
                    report.suspects
                );
            }
            let allowed_extra = noise_node.and_then(|u| tree.parent(u));
            for &s in &report.suspects {
                prop_assert!(
                    victims.contains(&s) || Some(s) == allowed_extra,
                    "suspect {s} is neither a victim {victims:?} nor the noisy \
                     node's parent {allowed_extra:?}"
                );
            }
            if noise_kind != 2 {
                // Crashes never clear; lifelong deafness never clears.
                // Only the drop noise can suspect-then-recover.
                prop_assert_eq!(report.cleared, 0, "a crash never clears");
            }

            let rep = repair_after_failures(
                &params, &instance, &prior, &report.suspects,
                &TvcConfig::default(), &mut sel, op_seed,
            ).unwrap();
            check_bidirectional(&params, &rep.instance, &rep.schedule, &rep.power)?;
            let (up, down) = sinr_connectivity::latency::audit_bitree(
                &params, &rep.instance, &rep.bitree, &rep.power,
            ).unwrap();
            prop_assert!(
                up.all_delivered && down.all_reached,
                "repaired bi-tree must deliver in both directions"
            );

            parents = (0..rep.tree.len()).map(|u| rep.tree.parent(u)).collect();
            powers = rep.power.as_explicit().unwrap().clone();
            schedule = rep.schedule.clone();
            tree = rep.tree;
            instance = rep.instance;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random kill/join interleavings through the real pipelines with
    /// the **distributed** re-packer, run side by side with the
    /// incremental one: both reattach the identical tree, the
    /// distributed schedule is bidirectionally feasible and passes both
    /// delivery audits, every clean link keeps a byte-identical slot,
    /// and the distributed closure never exceeds the pessimistic one.
    /// The interleaving *advances* on the distributed outcome, so later
    /// batches churn a structure the protocol itself produced.
    #[test]
    fn distributed_churn_matches_incremental_and_delivers(
        seed in 0u64..5_000,
        n in 16usize..28,
        ops in proptest::collection::vec(arb_churn(), 1..4),
    ) {
        let params = SinrParams::default();
        let mut sel = MeanSamplingSelector::default();
        let mut instance = sinr_geom::gen::uniform_square(n, 1.8, seed).unwrap();
        let built =
            tree_via_capacity(&params, &instance, &TvcConfig::default(), &mut sel, seed).unwrap();
        let mut parents: Vec<Option<NodeId>> =
            (0..built.tree.len()).map(|u| built.tree.parent(u)).collect();
        let mut powers: HashMap<Link, f64> = built.power.as_explicit().unwrap().clone();
        let mut schedule = built.schedule.clone();

        for (op_index, op) in ops.into_iter().enumerate() {
            let prior = PriorStructure {
                parents: &parents,
                powers: &powers,
                schedule: &schedule,
            };
            let op_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(op_index as u64);
            let cfg_of = |mode: RepackMode| TvcConfig { repack: mode, ..Default::default() };
            match op {
                Churn::Kill(raw) => {
                    let mut failed: Vec<usize> =
                        raw.iter().map(|&i| i % instance.len()).collect();
                    failed.sort_unstable();
                    failed.dedup();
                    if instance.len() - failed.len() < 4 {
                        continue;
                    }
                    let run = |mode: RepackMode| {
                        let mut sel = MeanSamplingSelector::default();
                        repair_after_failures(
                            &params, &instance, &prior, &failed,
                            &cfg_of(mode), &mut sel, op_seed,
                        ).unwrap()
                    };
                    let incr = run(RepackMode::Incremental);
                    let dist = run(RepackMode::Distributed);
                    prop_assert_eq!(&incr.tree, &dist.tree, "reattachment diverged");

                    check_bidirectional(&params, &dist.instance, &dist.schedule, &dist.power)?;
                    let (up, down) = sinr_connectivity::latency::audit_bitree(
                        &params, &dist.instance, &dist.bitree, &dist.power,
                    ).unwrap();
                    prop_assert!(up.all_delivered && down.all_reached);

                    let delta = schedule.delta_map(|l| {
                        let s = dist.old_to_new[l.sender]?;
                        let r = dist.old_to_new[l.receiver]?;
                        Some(Link::new(s, r))
                    }).unwrap();
                    check_clean_slot_parity(
                        &delta.kept, &dist.tree, &dist.schedule, &incr.schedule,
                    )?;
                    check_distributed_accounting(&dist.repack, incr.repack.repacked_links)?;

                    parents = (0..dist.tree.len()).map(|u| dist.tree.parent(u)).collect();
                    powers = dist.power.as_explicit().unwrap().clone();
                    schedule = dist.schedule.clone();
                    instance = dist.instance;
                }
                Churn::Join(k) => {
                    let points = join_points(&instance, k, op_index + 1);
                    let run = |mode: RepackMode| {
                        let mut sel = MeanSamplingSelector::default();
                        join_nodes(
                            &params, &instance, &prior, &points,
                            &cfg_of(mode), &mut sel, op_seed,
                        ).unwrap()
                    };
                    let incr = run(RepackMode::Incremental);
                    let dist = run(RepackMode::Distributed);
                    prop_assert_eq!(&incr.tree, &dist.tree, "attachment diverged");

                    check_bidirectional(&params, &dist.instance, &dist.schedule, &dist.power)?;
                    let (up, down) = sinr_connectivity::latency::audit_bitree(
                        &params, &dist.instance, &dist.bitree, &dist.power,
                    ).unwrap();
                    prop_assert!(up.all_delivered && down.all_reached);

                    prop_assert_eq!(dist.repack.fresh_links, k);
                    check_clean_slot_parity(
                        &schedule, &dist.tree, &dist.schedule, &incr.schedule,
                    )?;
                    check_distributed_accounting(&dist.repack, incr.repack.repacked_links)?;

                    parents = (0..dist.tree.len()).map(|u| dist.tree.parent(u)).collect();
                    powers = dist.power.as_explicit().unwrap().clone();
                    schedule = dist.schedule.clone();
                    instance = dist.instance;
                }
            }
        }
    }
}

/// An MST bi-tree with explicit two-direction powers and a packed base
/// schedule — the shape the direct `repack_tree` property churns.
fn mst_structure(n: usize, seed: u64) -> (Instance, InTree, PowerAssignment, Schedule) {
    let params = SinrParams::default();
    let inst = sinr_geom::gen::uniform_square(n, 1.5, seed).unwrap();
    let tree = InTree::from_parents(sinr_geom::mst::mst_parent_array(&inst, 0)).unwrap();
    let formula = PowerAssignment::mean_with_margin(&params, inst.delta());
    let mut map: HashMap<Link, f64> = HashMap::new();
    for l in tree.aggregation_links().iter() {
        for dir in [l, l.dual()] {
            map.insert(dir, formula.power_of(dir, &inst, &params).unwrap());
        }
    }
    let power = PowerAssignment::explicit(map).unwrap();
    let (schedule, bad) = sinr_phy::packing::pack_tree_ordered(&params, &inst, &tree, &power);
    assert!(bad.is_empty(), "margin powers pack cleanly");
    (inst, tree, power, schedule)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random fresh-link deltas straight through `repack_tree`: the
    /// distributed mode is rerun-deterministic (schedule and every
    /// counter byte-identical), its closure is a subset of the
    /// recomputed pessimistic ancestor closure, the protocol-cost
    /// accounting holds, clean links match the incremental schedule
    /// slot-for-slot, and the result is ordered and bidirectionally
    /// feasible.
    #[test]
    fn distributed_repack_is_deterministic_subset_and_accounted(
        seed in 0u64..5_000,
        n in 16usize..30,
        drops in proptest::collection::vec(0usize..1_000, 1..5),
    ) {
        let params = SinrParams::default();
        let (inst, tree, power, schedule) = mst_structure(n, seed);
        // Drop a distinct set of uplinks from the kept schedule: they
        // become fresh, exactly as reattachment/join would leave them.
        let mut fresh_senders: Vec<usize> = drops
            .iter()
            .map(|&i| {
                let mut u = i % tree.len();
                if tree.parent(u).is_none() {
                    u = (u + 1) % tree.len();
                }
                u
            })
            .collect();
        fresh_senders.sort_unstable();
        fresh_senders.dedup();
        let kept = Schedule::from_pairs(
            schedule.iter().filter(|(l, _)| !fresh_senders.contains(&l.sender)),
        ).unwrap();
        let delta = ScheduleDelta { kept: kept.clone(), removed: Vec::new() };

        let incr = repack_tree(&params, &inst, &tree, &power, &delta, RepackMode::Incremental);
        let d1 = repack_tree(&params, &inst, &tree, &power, &delta, RepackMode::Distributed);
        let d2 = repack_tree(&params, &inst, &tree, &power, &delta, RepackMode::Distributed);

        // Rerun determinism: schedule and counters, bit for bit.
        prop_assert_eq!(&d1.schedule, &d2.schedule);
        prop_assert_eq!(d1.stats.repacked_links, d2.stats.repacked_links);
        prop_assert_eq!(d1.stats.protocol_slots, d2.stats.protocol_slots);
        prop_assert_eq!(d1.stats.cascade_escalations, d2.stats.cascade_escalations);
        prop_assert_eq!(d1.stats.untouched_slots, d2.stats.untouched_slots);

        // Pessimistic closure, recomputed from scratch.
        let dirty = pessimistic_dirty(&kept, &tree);
        let closure = (0..tree.len())
            .filter(|&u| tree.parent(u).is_some() && dirty[u])
            .count();
        prop_assert_eq!(incr.stats.repacked_links, closure);
        prop_assert!(d1.unschedulable.is_empty());
        check_distributed_accounting(&d1.stats, closure)?;
        prop_assert_eq!(d1.stats.fresh_links, fresh_senders.len());

        check_clean_slot_parity(&kept, &tree, &d1.schedule, &incr.schedule)?;
        check_bidirectional(&params, &inst, &d1.schedule, &power)?;
        sinr_links::BiTree::new(tree.clone(), d1.schedule.clone()).expect("ordering holds");
    }
}

/// The lazy cascade's upper edge, pinned exactly: on a dense cluster
/// where **every** probe below the target observes interference (each
/// conflicting pair is channel-infeasible, asserted first), the
/// distributed closure *equals* the pessimistic ancestor closure — a
/// join at the bottom of the chain escalates every ancestor.
#[test]
fn adversarial_dense_cascade_equals_pessimistic_closure() {
    // β = 8 with α = 3 makes any interferer within distance 2 fatal, so
    // the unit-square cluster below is fully mutually conflicting.
    let params = SinrParams::new(3.0, 8.0, 1.0, 0.1).unwrap();
    let base = Instance::new(vec![
        Point::new(0.0, 0.0), // 0: root
        Point::new(1.0, 0.0), // 1
        Point::new(1.0, 1.0), // 2
        Point::new(0.0, 1.0), // 3
    ])
    .unwrap();
    let tree = InTree::from_parents(vec![None, Some(0), Some(1), Some(2)]).unwrap();
    let power = PowerAssignment::uniform_with_margin(&params, 1.0);
    let (schedule, bad) = sinr_phy::packing::pack_tree_ordered(&params, &base, &tree, &power);
    assert!(bad.is_empty());
    assert_eq!(
        schedule.num_slots(),
        3,
        "the dense chain must pack one link per slot"
    );

    // The joiner attaches under the deepest node; every chain link
    // conflicts with the fresh link and with each other.
    let joined = Instance::new(vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
        Point::new(-1.0, 1.0), // 4: fresh joiner, parent 3
    ])
    .unwrap();
    let jtree = InTree::from_parents(vec![None, Some(0), Some(1), Some(2), Some(3)]).unwrap();
    let links: Vec<Link> = (1..5)
        .map(|u| Link::new(u, jtree.parent(u).unwrap()))
        .collect();
    for (i, &a) in links.iter().enumerate() {
        for &b in &links[i + 1..] {
            let pair: LinkSet = [a, b].into_iter().collect();
            assert!(
                !feasibility::is_feasible(&params, &joined, &pair, &power),
                "{a:?} and {b:?} must conflict for the adversarial case"
            );
        }
    }

    let delta = ScheduleDelta {
        kept: schedule,
        removed: Vec::new(),
    };
    let incr = repack_tree(
        &params,
        &joined,
        &jtree,
        &power,
        &delta,
        RepackMode::Incremental,
    );
    let dist = repack_tree(
        &params,
        &joined,
        &jtree,
        &power,
        &delta,
        RepackMode::Distributed,
    );
    assert!(dist.unschedulable.is_empty());

    // Pessimistic closure = the fresh link plus its whole ancestor
    // chain; with every probe NACKed the lazy cascade matches it.
    assert_eq!(incr.stats.repacked_links, 4);
    assert_eq!(
        dist.stats.repacked_links, incr.stats.repacked_links,
        "under total interference the lazy closure equals the pessimistic one"
    );
    assert_eq!(
        dist.stats.cascade_escalations, 3,
        "every ancestor escalated"
    );
    assert!(dist.stats.protocol_slots >= 2 * 4);

    feasibility::validate_schedule(&params, &joined, &dist.schedule, &power).unwrap();
    let dual = dist.schedule.map_links(Link::dual).unwrap();
    feasibility::validate_schedule(&params, &joined, &dual, &power).unwrap();
    sinr_links::BiTree::new(jtree, dist.schedule.clone()).expect("ordering holds");
}

/// One channel end to end: under shadowing, a repair (which renumbers
/// the survivors) and then a join must both hand back structures whose
/// schedules are feasible in both directions and whose delivery audit
/// passes — judged on the same shadowed channel the pipelines ran on.
/// Kept groupings skip re-audit (DESIGN.md §10.2), which is only sound
/// because a link keeps its fade when its endpoints are renumbered.
#[test]
fn shadowed_repair_then_join_stays_feasible_and_delivers() {
    use sinr_connectivity::latency::audit_bitree;
    use sinr_connectivity::selector::DistrCapSelector;
    use sinr_phy::ChannelModel;

    let audit = |params: &SinrParams,
                 inst: &Instance,
                 schedule: &Schedule,
                 bitree: &sinr_links::BiTree,
                 power: &PowerAssignment,
                 what: &str| {
        feasibility::validate_schedule(params, inst, schedule, power)
            .unwrap_or_else(|e| panic!("{what}: aggregation infeasible: {e}"));
        let dual = schedule.map_links(Link::dual).unwrap();
        feasibility::validate_schedule(params, inst, &dual, power)
            .unwrap_or_else(|e| panic!("{what}: dissemination infeasible: {e}"));
        audit_bitree(params, inst, bitree, power)
            .unwrap_or_else(|e| panic!("{what}: delivery audit failed: {e}"));
    };
    for seed in 1..=3u64 {
        let params = SinrParams::default().with_channel(ChannelModel::shadowed(seed, 6.0).unwrap());
        let inst = sinr_geom::gen::uniform_square(64, 1.5, seed).unwrap();
        let cfg = TvcConfig::default();
        let built = tree_via_capacity(&params, &inst, &cfg, &mut DistrCapSelector::default(), seed)
            .unwrap();
        let parents: Vec<Option<NodeId>> = (0..built.tree.len())
            .map(|u| built.tree.parent(u))
            .collect();
        let prior = PriorStructure {
            parents: &parents,
            powers: built.power.as_explicit().unwrap(),
            schedule: &built.schedule,
        };
        let mut sel = MeanSamplingSelector::default();
        let failed: Vec<usize> = (0..4).map(|i| (seed as usize * 7 + i * 13) % 64).collect();
        let rep =
            repair_after_failures(&params, &inst, &prior, &failed, &cfg, &mut sel, seed).unwrap();
        let what = format!("seed {seed} repair");
        audit(
            &params,
            &rep.instance,
            &rep.schedule,
            &rep.bitree,
            &rep.power,
            &what,
        );

        let parents: Vec<Option<NodeId>> =
            (0..rep.tree.len()).map(|u| rep.tree.parent(u)).collect();
        let prior = PriorStructure {
            parents: &parents,
            powers: rep.power.as_explicit().unwrap(),
            schedule: &rep.schedule,
        };
        let points = join_points(&rep.instance, 2, 1);
        let joined = join_nodes(
            &params,
            &rep.instance,
            &prior,
            &points,
            &cfg,
            &mut sel,
            seed,
        )
        .unwrap();
        let what = format!("seed {seed} join");
        audit(
            &params,
            &joined.instance,
            &joined.schedule,
            &joined.bitree,
            &joined.power,
            &what,
        );
    }
}
