//! E10 — ablations of the design choices documented in DESIGN.md §5:
//!
//! - `p` (broadcast probability): the protocol's contention/progress
//!   trade-off — too low wastes slots idle, too high wastes them
//!   colliding;
//! - `accept_shorter`: the widened round window that keeps practical
//!   runs connectable (the paper's strict window relies on w.h.p.
//!   invariants that fail at practical constants);
//! - `class_repeats` (Distr-Cap): per-class probe repetitions that
//!   realize the paper's constant-fraction selection with practical
//!   sampling probabilities;
//! - `degree_cap` ρ: Theorem 13's trade-off between the capped
//!   subtree's sparsity and the fraction of links kept.
//!
//! All four ablation tables draw `--seeds K` ensembles through the
//! [`crate::ensemble`] driver — one dispatch for every `(row, trial)`
//! job of every table — and report `mean ±95% CI` (E10b reports
//! converged/failed counts over a doubled ensemble, since failures are
//! the observable there).

use sinr_connectivity::init::{run_init, InitConfig};
use sinr_connectivity::selector::{DistrCapConfig, DistrCapSelector};
use sinr_connectivity::tvc::{tree_via_capacity, TvcConfig};

use crate::ensemble::{trial_streams, Ensemble};
use crate::stats::Stats;
use crate::table::{f2, Table};
use crate::workloads::Family;
use crate::ExpOptions;

const P_VALUES: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];
const ACCEPT_VALUES: [bool; 2] = [true, false];
const REPEAT_VALUES: [u32; 4] = [1, 2, 4, 10];
const RHO_VALUES: [usize; 4] = [2, 4, 8, 64];

/// Runs E10 and returns one table per ablated knob.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let n = if opts.quick { 64 } else { 128 };
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    // Global row layout (hierarchical seed split keys off the row
    // index): t1 p-sweep, then t2 accept-sweep (doubled ensemble), then
    // t3 repeats, then t4 rho.
    let t2_base = P_VALUES.len() as u64;
    let t3_base = t2_base + ACCEPT_VALUES.len() as u64;
    let t4_base = t3_base + REPEAT_VALUES.len() as u64;
    let trials_of = |row: u64| -> u64 {
        if (t2_base..t3_base).contains(&row) {
            2 * seeds
        } else {
            seeds
        }
    };
    let jobs: Vec<(u64, u64)> = (0..t4_base + RHO_VALUES.len() as u64)
        .flat_map(|row| (0..trials_of(row)).map(move |k| (row, k)))
        .collect();

    // Every trial reports up to three numbers; unused components 0.
    let results: Vec<[f64; 3]> = driver.map(jobs.clone(), |(row, k)| {
        let (inst_seed, algo_seed) = trial_streams(opts.seed, row, k);
        if row < t2_base {
            let p = P_VALUES[row as usize];
            let inst = Family::UniformSquare.instance(n, inst_seed);
            let cfg = InitConfig {
                p,
                ..opts.init_config()
            };
            match run_init(&params, &inst, &cfg, algo_seed) {
                Ok(out) => [out.run.slots_used as f64, 0.0, 0.0],
                Err(_) => [f64::NAN, 1.0, 0.0],
            }
        } else if row < t3_base {
            let accept = ACCEPT_VALUES[(row - t2_base) as usize];
            let inst = Family::ExponentialChain.instance(24, inst_seed);
            let cfg = InitConfig {
                accept_shorter: accept,
                // Keep the budget modest so failures surface rather than
                // being papered over by extra rounds.
                extra_rounds_cap: 8,
                ..opts.init_config()
            };
            match run_init(&params, &inst, &cfg, algo_seed) {
                Ok(out) => [1.0, out.run.slots_used as f64, 0.0],
                Err(_) => [0.0, f64::NAN, 0.0],
            }
        } else if row < t4_base {
            let reps = REPEAT_VALUES[(row - t3_base) as usize];
            let inst = Family::UniformSquare.instance(n, inst_seed);
            let mut sel = DistrCapSelector::new(DistrCapConfig {
                class_repeats: reps,
                ..Default::default()
            });
            let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, algo_seed)
                .expect("tvc converges");
            let selection: u64 = out.trace.iter().map(|i| i.selection_slots).sum();
            [
                out.schedule_len() as f64,
                out.iterations as f64,
                selection as f64,
            ]
        } else {
            let rho = RHO_VALUES[(row - t4_base) as usize];
            let inst = Family::UniformSquare.instance(n, inst_seed);
            let mut sel = DistrCapSelector::default();
            let cfg = TvcConfig {
                degree_cap: rho,
                ..Default::default()
            };
            let out = tree_via_capacity(&params, &inst, &cfg, &mut sel, algo_seed)
                .expect("tvc converges");
            [out.schedule_len() as f64, out.iterations as f64, 0.0]
        }
    });
    // Cursor-based per-row slices (row trial counts differ).
    let mut cursor = 0usize;
    let mut chunk = |row: u64| -> &[[f64; 3]] {
        let len = trials_of(row) as usize;
        let slice = &results[cursor..cursor + len];
        cursor += len;
        slice
    };

    // ---- E10a: broadcast probability p -----------------------------
    let mut t1 = Table::new(
        "E10a: Init broadcast probability p",
        "slots fall steeply from p = 0.02 and plateau by p ≈ 0.2; the validated \
         domain caps p at 0.5 (broadcaster/listener split), before collisions bite \
         (mean ±95% CI over converged runs)",
        &["p", "seeds", "init slots", "failures"],
    );
    for (i, p) in P_VALUES.iter().enumerate() {
        let trials = chunk(i as u64);
        let ok: Vec<f64> = trials
            .iter()
            .map(|r| r[0])
            .filter(|x| x.is_finite())
            .collect();
        t1.push_row(vec![
            f2(*p),
            seeds.to_string(),
            Stats::of(&ok).cell(),
            f2(trials.iter().map(|r| r[1]).sum::<f64>()),
        ]);
    }

    // ---- E10b: the widened acceptance window ------------------------
    let mut t2 = Table::new(
        "E10b: accept_shorter window (DESIGN.md substitution 2)",
        "strict paper window at practical constants risks non-convergence; widened never fails",
        &[
            "accept_shorter",
            "converged",
            "failed",
            "mean slots (converged)",
        ],
    );
    for (i, accept) in ACCEPT_VALUES.iter().enumerate() {
        let trials = chunk(t2_base + i as u64);
        let converged = trials.iter().map(|r| r[0]).sum::<f64>();
        let ok: Vec<f64> = trials
            .iter()
            .map(|r| r[1])
            .filter(|x| x.is_finite())
            .collect();
        t2.push_row(vec![
            accept.to_string(),
            f2(converged),
            f2(trials.len() as f64 - converged),
            f2(crate::mean(&ok)),
        ]);
    }

    // ---- E10c: Distr-Cap class_repeats ------------------------------
    let mut t3 = Table::new(
        "E10c: Distr-Cap probe repetitions per length class",
        "more repetitions → fewer TVC iterations and shorter schedules, at more \
         protocol slots (mean ±95% CI)",
        &[
            "class_repeats",
            "seeds",
            "schedule slots",
            "iterations",
            "selection slots",
        ],
    );
    for (i, reps) in REPEAT_VALUES.iter().enumerate() {
        let trials = chunk(t3_base + i as u64);
        let col = |j: usize| Stats::of(&trials.iter().map(|r| r[j]).collect::<Vec<_>>()).cell();
        t3.push_row(vec![
            reps.to_string(),
            seeds.to_string(),
            col(0),
            col(1),
            col(2),
        ]);
    }

    // ---- E10d: degree cap ρ -----------------------------------------
    let mut t4 = Table::new(
        "E10d: degree cap rho (Theorem 13 trade-off)",
        "small ρ prunes more links (slower TVC) without helping the already-low \
         sparsity (mean ±95% CI)",
        &["rho", "seeds", "schedule slots", "iterations"],
    );
    for (i, rho) in RHO_VALUES.iter().enumerate() {
        let trials = chunk(t4_base + i as u64);
        let col = |j: usize| Stats::of(&trials.iter().map(|r| r[j]).collect::<Vec<_>>()).cell();
        t4.push_row(vec![rho.to_string(), seeds.to_string(), col(0), col(1)]);
    }

    vec![t1, t2, t3, t4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_four_tables() {
        let opts = ExpOptions {
            quick: true,
            seed: 10,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(!t.rows.is_empty());
        }
        // E10b rows aggregate a doubled ensemble.
        let t2 = &tables[1];
        let converged: f64 = t2.rows[0][1].parse().unwrap();
        let failed: f64 = t2.rows[0][2].parse().unwrap();
        assert_eq!(converged + failed, 2.0 * opts.trials() as f64);
    }
}
