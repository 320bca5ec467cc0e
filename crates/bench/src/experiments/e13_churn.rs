//! E13 — dynamic workload: full vs incremental vs distributed
//! re-packing under churn (DESIGN.md §10, §14).
//!
//! The paper's §9 open problem asks for repair cost that scales with
//! the damage, not with `n`. This experiment drives the real dynamic
//! pipelines — `repair_after_failures` and `join_nodes` — over kill and
//! join batches of `k` nodes on uniform instances up to n = 8192, in
//! all three re-packer modes: the centralized full re-pack
//! ([`RepackMode::Full`], the old boundary), the incremental re-packer
//! ([`RepackMode::Incremental`], pessimistic ancestor closure), and the
//! message-passing distributed re-packer ([`RepackMode::Distributed`],
//! lazy cascade). It reports
//!
//! - the fraction of tree links the reported mode re-placed
//!   ([`ExpOptions::repack`] picks incremental or distributed;
//!   `--repack` on the runner),
//! - the fraction of previous slot groupings that changed,
//! - the packing-phase wall-clock of the reported and the full mode,
//! - the distributed mode's re-placed fraction (`dist frac`) and its
//!   protocol cost in probe/ack slots (`dist rounds`) — the
//!   rounds-vs-slots trade-off of the lazy cascade;
//!
//! the **parity** column is asserted per trial: all modes reattach the
//! identical tree (same seed ⇒ same distributed reattachment), every
//! schedule validates slot-by-slot in both directions, every bi-tree
//! passes the end-to-end convergecast/broadcast delivery audit
//! (Definition 1 replay), and the distributed closure is a subset of
//! the incremental mode's pessimistic one — strictly smaller on the
//! sparse-churn (`k = 1`) rows. For single-node churn the reported
//! local path must re-pack a strictly sublinear fraction — asserted at
//! ≤ 25%, measured around 0–2%.
//!
//! The base structure is the centralized MST bi-tree (explicit mean
//! powers) rather than a simulated pipeline, so the experiment's
//! wall-clock measures *re-packing*, not tree construction; the
//! reattachment itself still runs the paper's distributed selection
//! loop. Timing columns are per-trial wall-clock — run `--threads 1`
//! for contention-free numbers (the committed snapshot is).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sinr_baselines::mst::centroid_root;
use sinr_connectivity::join::join_nodes;
use sinr_connectivity::latency::audit_bitree;
use sinr_connectivity::repair::{repair_after_failures, PriorStructure};
use sinr_connectivity::selector::MeanSamplingSelector;
use sinr_connectivity::tvc::TvcConfig;
use sinr_connectivity::{RepackMode, RepackStats};
use sinr_geom::{Instance, NodeId, Point};
use sinr_links::{InTree, Link, Schedule};
use sinr_phy::{feasibility, packing, PowerAssignment, SinrParams};

use crate::ensemble::Ensemble;
use crate::stats::Stats;
use crate::table::{f2, Table};
use crate::workloads::Family;
use crate::ExpOptions;

/// Sizes swept (uniform family).
fn ladder(quick: bool) -> &'static [usize] {
    if quick {
        &[256, 512]
    } else {
        &[1024, 2048, 4096, 8192]
    }
}

/// Churn batch sizes: single-node (the acceptance case) and a batch.
fn batches(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 8]
    } else {
        &[1, 32]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Kill,
    Join,
}

impl Op {
    fn label(self) -> &'static str {
        match self {
            Op::Kill => "kill",
            Op::Join => "join",
        }
    }
}

/// The centralized base structure churn acts on: MST tree, explicit
/// mean powers for both directions, bidirectionally packed schedule.
/// Shared with the E15 service loop ([`crate::serve`]), which churns
/// the same base under sustained Poisson faults.
pub fn base_structure(
    params: &SinrParams,
    inst: &Instance,
) -> (Vec<Option<NodeId>>, HashMap<Link, f64>, Schedule) {
    let parents = sinr_geom::mst::mst_parent_array(inst, centroid_root(inst));
    let tree = InTree::from_parents(parents.clone()).expect("MST orientation is a valid in-tree");
    let formula = PowerAssignment::mean_with_margin(params, inst.delta());
    let mut map: HashMap<Link, f64> = HashMap::new();
    for l in tree.aggregation_links().iter() {
        for dir in [l, l.dual()] {
            map.insert(dir, formula.power_of(dir, inst, params).expect("oblivious"));
        }
    }
    let power = PowerAssignment::explicit(map.clone()).expect("positive powers");
    let (schedule, bad) = packing::pack_tree_ordered(params, inst, &tree, &power);
    assert!(bad.is_empty(), "mean-margin powers pack cleanly");
    (parents, map, schedule)
}

/// `k` join points inside the deployment area, rejection-sampled to
/// respect the unit minimum-distance normalization (against existing
/// nodes and each other). Shared with the E15 service loop.
pub fn sample_join_points(inst: &Instance, k: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9d0e_57ab);
    let bb = inst.bounding_box();
    let (lo, hi) = (bb.min(), bb.max());
    let mut accepted: Vec<Point> = Vec::with_capacity(k);
    let far_enough = |p: Point, accepted: &[Point], inst: &Instance| {
        accepted.iter().all(|q| p.distance(*q) >= 1.1)
            && (0..inst.len()).all(|u| p.distance(inst.position(u)) >= 1.1)
    };
    let mut attempts = 0usize;
    while accepted.len() < k {
        attempts += 1;
        assert!(attempts < 100_000, "join-point sampling starved");
        let p = Point::new(
            lo.x + rng.gen::<f64>() * (hi.x - lo.x).max(1.0),
            lo.y + rng.gen::<f64>() * (hi.y - lo.y).max(1.0),
        );
        if far_enough(p, &accepted, inst) {
            accepted.push(p);
        }
    }
    accepted
}

/// One trial's measurements: the two local modes' stats + full pack
/// seconds.
struct Trial {
    incremental: RepackStats,
    distributed: RepackStats,
    full_pack_seconds: f64,
    links: usize,
}

/// Runs one churn trial in both modes, asserts all parity conditions,
/// and returns the measurements.
fn run_trial(
    params: &SinrParams,
    n: usize,
    op: Op,
    k: usize,
    inst_seed: u64,
    algo_seed: u64,
) -> Trial {
    let inst = Family::UniformSquare.instance(n, inst_seed);
    let (parents, powers, schedule) = base_structure(params, &inst);
    let prior = PriorStructure {
        parents: &parents,
        powers: &powers,
        schedule: &schedule,
    };

    let cfg_of = |mode: RepackMode| TvcConfig {
        repack: mode,
        ..Default::default()
    };
    let audit = |inst: &Instance,
                 schedule: &Schedule,
                 bitree: &sinr_links::BiTree,
                 power: &PowerAssignment,
                 mode: RepackMode| {
        feasibility::validate_schedule(params, inst, schedule, power).unwrap_or_else(|e| {
            panic!(
                "E13 {mode} n={n} {}: aggregation infeasible: {e}",
                op.label()
            )
        });
        let dual = schedule
            .map_links(Link::dual)
            .expect("tree links have distinct duals");
        feasibility::validate_schedule(params, inst, &dual, power).unwrap_or_else(|e| {
            panic!(
                "E13 {mode} n={n} {}: dissemination infeasible: {e}",
                op.label()
            )
        });
        let (up, down) = audit_bitree(params, inst, bitree, power)
            .unwrap_or_else(|e| panic!("E13 {mode} n={n} {}: audit error: {e}", op.label()));
        assert!(
            up.all_delivered && down.all_reached,
            "E13 parity MISMATCH: {mode} delivery audit failed at n={n} op={} k={k}",
            op.label()
        );
    };

    // Common projection of `RepairOutcome` / `JoinOutcome`: the churned
    // structure plus the re-packer's accounting.
    struct ModeOutcome {
        instance: Instance,
        tree: InTree,
        bitree: sinr_links::BiTree,
        schedule: Schedule,
        power: PowerAssignment,
        repack: RepackStats,
    }
    let run = |mode: RepackMode| {
        let mut sel = MeanSamplingSelector::default();
        match op {
            Op::Kill => {
                let mut ids: Vec<NodeId> = (0..inst.len()).collect();
                ids.shuffle(&mut StdRng::seed_from_u64(algo_seed ^ 0x4b11));
                let failed: Vec<NodeId> = ids.into_iter().take(k).collect();
                let r = repair_after_failures(
                    params,
                    &inst,
                    &prior,
                    &failed,
                    &cfg_of(mode),
                    &mut sel,
                    algo_seed,
                )
                .unwrap_or_else(|e| panic!("E13 repair {mode} n={n}: {e}"));
                ModeOutcome {
                    instance: r.instance,
                    tree: r.tree,
                    bitree: r.bitree,
                    schedule: r.schedule,
                    power: r.power,
                    repack: r.repack,
                }
            }
            Op::Join => {
                let points = sample_join_points(&inst, k, algo_seed);
                let j = join_nodes(
                    params,
                    &inst,
                    &prior,
                    &points,
                    &cfg_of(mode),
                    &mut sel,
                    algo_seed,
                )
                .unwrap_or_else(|e| panic!("E13 join {mode} n={n}: {e}"));
                ModeOutcome {
                    instance: j.instance,
                    tree: j.tree,
                    bitree: j.bitree,
                    schedule: j.schedule,
                    power: j.power,
                    repack: j.repack,
                }
            }
        }
    };
    let full = run(RepackMode::Full);
    let incr = run(RepackMode::Incremental);
    let dist = run(RepackMode::Distributed);
    for out in [&incr, &dist] {
        assert_eq!(
            full.tree, out.tree,
            "E13 parity MISMATCH: {} reattachment diverged from full at n={n}",
            out.repack.mode
        );
    }
    for out in [&full, &incr, &dist] {
        audit(
            &out.instance,
            &out.schedule,
            &out.bitree,
            &out.power,
            out.repack.mode,
        );
    }
    // The lazy cascade's contract (DESIGN.md §14): its closure is a
    // subset of the incremental mode's pessimistic ancestor closure.
    assert!(
        dist.repack.repacked_links <= incr.repack.repacked_links,
        "E13 parity MISMATCH: distributed closure {} exceeds the pessimistic {} \
         at n={n} op={} k={k}",
        dist.repack.repacked_links,
        incr.repack.repacked_links,
        op.label()
    );
    Trial {
        incremental: incr.repack,
        distributed: dist.repack,
        full_pack_seconds: full.repack.pack_seconds,
        links: incr.tree.len().saturating_sub(1),
    }
}

/// Runs E13.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    let specs: Vec<(usize, Op, usize)> = ladder(opts.quick)
        .iter()
        .flat_map(|&n| {
            [Op::Kill, Op::Join]
                .into_iter()
                .flat_map(move |op| batches(opts.quick).iter().map(move |&k| (n, op, k)))
        })
        .collect();
    let results = driver.map_rows(
        opts.seed,
        specs.len(),
        seeds,
        |row, inst_seed, algo_seed| {
            let (n, op, k) = specs[row];
            run_trial(&params, n, op, k, inst_seed, algo_seed)
        },
    );

    // The locality columns report the mode the runner asked for
    // (`--repack`); the distributed columns always report the lazy
    // cascade so the committed snapshot records both local modes.
    fn pick(t: &Trial, mode: RepackMode) -> &RepackStats {
        match mode {
            RepackMode::Distributed => &t.distributed,
            _ => &t.incremental,
        }
    }

    let mut table = Table::new(
        "E13: dynamic churn, full vs incremental vs distributed re-packing \
         (uniform, MST base)",
        "repair cost scales with the damage: single-node churn re-packs ~0–2% of \
         links (vs 100% full) and leaves almost every slot grouping untouched; \
         the distributed re-packer's lazy cascade re-places a subset of the \
         pessimistic closure (`dist frac`) at `dist rounds` probe/ack protocol \
         slots per trial; parity asserts identical reattachment + bidirectional \
         feasibility + delivery audits in every mode (mean ±95% CI; ms columns \
         are per-trial wall-clock — snapshot taken at --threads 1)",
        &[
            "n",
            "op",
            "k",
            "seeds",
            "links",
            "repacked frac",
            "dirty-slot frac",
            "untouched slots",
            "pack ms",
            "full pack ms",
            "speedup",
            "dist frac",
            "dist rounds",
            "parity",
        ],
    );
    for ((n, op, k), trials) in specs.iter().zip(&results) {
        let frac = Stats::of(
            &trials
                .iter()
                .map(|t| pick(t, opts.repack).repacked_fraction())
                .collect::<Vec<_>>(),
        );
        let dirty = Stats::of(
            &trials
                .iter()
                .map(|t| pick(t, opts.repack).dirty_slot_fraction())
                .collect::<Vec<_>>(),
        );
        let untouched = Stats::of(
            &trials
                .iter()
                .map(|t| pick(t, opts.repack).untouched_slots as f64)
                .collect::<Vec<_>>(),
        );
        let pack_ms = Stats::of(
            &trials
                .iter()
                .map(|t| pick(t, opts.repack).pack_seconds * 1e3)
                .collect::<Vec<_>>(),
        );
        let full_ms = Stats::of(
            &trials
                .iter()
                .map(|t| t.full_pack_seconds * 1e3)
                .collect::<Vec<_>>(),
        );
        let dist_frac = Stats::of(
            &trials
                .iter()
                .map(|t| t.distributed.repacked_fraction())
                .collect::<Vec<_>>(),
        );
        let dist_rounds = Stats::of(
            &trials
                .iter()
                .map(|t| t.distributed.protocol_slots as f64)
                .collect::<Vec<_>>(),
        );
        let links = Stats::of(&trials.iter().map(|t| t.links as f64).collect::<Vec<_>>());
        // The acceptance claim: single-node churn re-packs a strictly
        // sublinear fraction. Measured ~0–2%; assert with slack so the
        // CI smoke fails loudly if locality ever regresses.
        if *k == 1 {
            assert!(
                frac.mean <= 0.25,
                "E13: single-node churn re-packed {:.1}% of links at n={n} op={}",
                100.0 * frac.mean,
                op.label()
            );
            // And the lazy cascade must actually *beat* the pessimistic
            // closure on sparse churn whenever that closure reaches past
            // the fresh links themselves.
            let incr_rep = Stats::of(
                &trials
                    .iter()
                    .map(|t| t.incremental.repacked_links as f64)
                    .collect::<Vec<_>>(),
            );
            let dist_rep = Stats::of(
                &trials
                    .iter()
                    .map(|t| t.distributed.repacked_links as f64)
                    .collect::<Vec<_>>(),
            );
            let fresh = Stats::of(
                &trials
                    .iter()
                    .map(|t| t.distributed.fresh_links as f64)
                    .collect::<Vec<_>>(),
            );
            if incr_rep.mean > fresh.mean {
                assert!(
                    dist_rep.mean < incr_rep.mean,
                    "E13: distributed closure ({:.2}) not strictly below the \
                     pessimistic one ({:.2}) at n={n} op={}",
                    dist_rep.mean,
                    incr_rep.mean,
                    op.label()
                );
            }
        }
        table.push_row(vec![
            n.to_string(),
            op.label().into(),
            k.to_string(),
            seeds.to_string(),
            f2(links.mean),
            frac.cell(),
            dirty.cell(),
            untouched.cell(),
            pack_ms.cell(),
            full_ms.cell(),
            format!("{:.1}x", full_ms.mean / pack_ms.mean.max(1e-9)),
            dist_frac.cell(),
            dist_rounds.cell(),
            "ok".into(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_parity_clean_and_sublinear() {
        let opts = ExpOptions {
            quick: true,
            seed: 13,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        // 2 sizes × 2 ops × 2 batch sizes.
        assert_eq!(tables[0].rows.len(), 8);
        for row in &tables[0].rows {
            assert_eq!(row[13], "ok", "parity cell: {row:?}");
            // Incremental always beats 100%: the repacked fraction's
            // mean is the cell's leading number.
            let frac: f64 = row[5].split_whitespace().next().unwrap().parse().unwrap();
            assert!(frac < 1.0, "no locality win in {row:?}");
            // The lazy cascade never exceeds the pessimistic closure.
            let dist: f64 = row[11].split_whitespace().next().unwrap().parse().unwrap();
            assert!(
                dist <= frac + 1e-9,
                "distributed closure exceeds in {row:?}"
            );
            // Claims are charged: fresh links exist in every trial, so
            // rounds are strictly positive.
            let rounds: f64 = row[12].split_whitespace().next().unwrap().parse().unwrap();
            assert!(rounds > 0.0, "no protocol rounds charged in {row:?}");
        }
    }

    #[test]
    fn quick_run_reports_distributed_mode_when_asked() {
        let opts = ExpOptions {
            quick: true,
            seed: 13,
            repack: RepackMode::Distributed,
            ..Default::default()
        };
        let tables = run(&opts);
        for row in &tables[0].rows {
            assert_eq!(row[13], "ok", "parity cell: {row:?}");
            // With --repack distributed the locality columns *are* the
            // distributed columns.
            let frac = row[5].split_whitespace().next().unwrap();
            let dist = row[11].split_whitespace().next().unwrap();
            assert_eq!(frac, dist, "reported mode is not distributed in {row:?}");
        }
    }

    #[test]
    fn join_points_respect_normalization() {
        let inst = Family::UniformSquare.instance(64, 5);
        let pts = sample_join_points(&inst, 6, 42);
        assert_eq!(pts.len(), 6);
        for (i, p) in pts.iter().enumerate() {
            for u in 0..inst.len() {
                assert!(p.distance(inst.position(u)) >= 1.0);
            }
            for q in pts.iter().skip(i + 1) {
                assert!(p.distance(*q) >= 1.0);
            }
        }
    }
}
