//! E16 — instance-family sweep: schedule length on heterogeneous,
//! percolation and shadowed deployments.
//!
//! The paper's bounds are stated for *arbitrary* metric instances, but
//! E1–E10 measure them on the four classical families. E16 stresses the
//! same E1/E7-class schedule-length metrics on the deployment shapes
//! the [`ChannelModel`] redesign unlocked:
//!
//! - **E16a** sweeps `n` across the uniform baseline, the two-tier
//!   hub/member family (heterogeneous per-node power classes from its
//!   two length scales) and the Bernoulli percolation lattice; the
//!   normalized `slots/log n` column should stay roughly flat per
//!   family if Theorem 21's shape survives the geometry.
//! - **E16b** fixes the expected size and walks the percolation
//!   occupancy ladder through the 2D site-percolation threshold
//!   (≈ 0.5927) — the schedule length tracks the surviving density,
//!   not the lattice size.
//! - **E16c** reruns the uniform ladder under the shadowed channel
//!   (σ = 6 dB log-normal fades, per-trial fade seeds) next to the
//!   geometric baseline; the ratio column quantifies what shadowing
//!   costs the scheduler.
//!
//! All three tables are ensemble runs through one
//! [`crate::ensemble`] dispatch (`--seeds K`, `mean ±95% CI` cells),
//! byte-identical at any `--threads` count.

use sinr_connectivity::{connect_with, ChannelModel, Strategy};

use crate::ensemble::Ensemble;
use crate::stats::Stats;
use crate::table::{f2, Table};
use crate::workloads::{percolation_ladder, Family};
use crate::ExpOptions;

/// Shadowing depth of the E16c column, in dB (mid-range of the 3–8 dB
/// outdoor measurements the log-normal literature reports).
const SIGMA_DB: f64 = 6.0;

/// Runs E16 and returns tables E16a, E16b and E16c.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    // Row specs up front: E16a draws a fresh instance per trial; E16b
    // keeps the ladder geometry as the row's fixture (only the
    // protocol's coin flips vary, like E1b); E16c redraws the uniform
    // instance and its fades per trial.
    let a_specs: Vec<(Family, usize)> =
        [Family::UniformSquare, Family::TwoTier, Family::Percolation]
            .into_iter()
            .flat_map(|family| opts.sizes().iter().map(move |&n| (family, n)))
            .collect();
    let nb = if opts.quick { 32 } else { 64 };
    let b_specs = percolation_ladder(nb, opts.seed);
    let c_specs: Vec<usize> = opts.sizes().to_vec();

    let rows = a_specs.len() + b_specs.len() + c_specs.len();
    let results = driver.map_rows(opts.seed, rows, seeds, |row, inst_seed, algo_seed| {
        if row < a_specs.len() {
            let (family, n) = a_specs[row];
            let inst = family.instance(n, inst_seed);
            let out = connect_with(
                &params,
                &inst,
                Strategy::TvcArbitrary,
                algo_seed,
                opts.backend,
            )
            .expect("connect converges");
            let log_n = (inst.len() as f64).log2().max(1.0);
            (
                inst.delta().log2().max(1.0),
                out.tree_links.len() as f64,
                out.schedule_len as f64,
                out.schedule_len as f64 / log_n,
            )
        } else if row < a_specs.len() + b_specs.len() {
            let (_, inst) = &b_specs[row - a_specs.len()];
            let out = connect_with(
                &params,
                inst,
                Strategy::TvcArbitrary,
                algo_seed,
                opts.backend,
            )
            .expect("connect converges");
            let log_n = (inst.len() as f64).log2().max(1.0);
            (
                0.0,
                out.tree_links.len() as f64,
                out.schedule_len as f64,
                out.schedule_len as f64 / log_n,
            )
        } else {
            let n = c_specs[row - a_specs.len() - b_specs.len()];
            let inst = Family::UniformSquare.instance(n, inst_seed);
            let run = |channel| {
                let params = params.with_channel(channel);
                connect_with(
                    &params,
                    &inst,
                    Strategy::TvcArbitrary,
                    algo_seed,
                    opts.backend,
                )
            };
            let geo = run(ChannelModel::Geometric).expect("connect converges");
            // Fade streams derive from the trial's instance seed, so
            // the ensemble averages over shadowing realizations too.
            let shadowed = ChannelModel::shadowed(inst_seed, SIGMA_DB).expect("valid sigma");
            let shad = run(shadowed).expect("connect converges under fades");
            (
                geo.schedule_len as f64,
                shad.schedule_len as f64,
                shad.schedule_len as f64 / (geo.schedule_len as f64).max(1.0),
                0.0,
            )
        }
    });
    let mut per_row = results.iter();

    // ---- E16a: schedule slots vs n per family ----------------------
    let mut t1 = Table::new(
        "E16a: TVC schedule slots across instance families",
        "Thm 21's O(log n) shape should survive heterogeneous power \
         classes (two-tier) and percolation geometry: slots/log n \
         stays ~flat per family (mean ±95% CI)",
        &[
            "family",
            "n",
            "seeds",
            "logΔ",
            "links",
            "schedule slots",
            "slots/log n",
        ],
    );
    for &(family, n) in &a_specs {
        let trials = per_row.next().expect("one chunk per row");
        let logd = Stats::of(&trials.iter().map(|r| r.0).collect::<Vec<_>>());
        let links = Stats::of(&trials.iter().map(|r| r.1).collect::<Vec<_>>());
        let slots = Stats::of(&trials.iter().map(|r| r.2).collect::<Vec<_>>());
        let norm = Stats::of(&trials.iter().map(|r| r.3).collect::<Vec<_>>());
        t1.push_row(vec![
            family.label().into(),
            n.to_string(),
            seeds.to_string(),
            f2(logd.mean),
            links.cell(),
            slots.cell(),
            norm.cell(),
        ]);
    }

    // ---- E16b: the percolation density ladder ----------------------
    let mut t2 = Table::new(
        "E16b: percolation occupancy ladder through the threshold",
        "schedule length tracks the surviving density, not the lattice \
         size; the threshold (~0.5927) row sits mid-ladder (mean ±95% CI)",
        &[
            "occupancy",
            "nodes",
            "seeds",
            "links",
            "schedule slots",
            "slots/log n",
        ],
    );
    for (occ, inst) in &b_specs {
        let trials = per_row.next().expect("one chunk per row");
        let links = Stats::of(&trials.iter().map(|r| r.1).collect::<Vec<_>>());
        let slots = Stats::of(&trials.iter().map(|r| r.2).collect::<Vec<_>>());
        let norm = Stats::of(&trials.iter().map(|r| r.3).collect::<Vec<_>>());
        t2.push_row(vec![
            f2(*occ),
            inst.len().to_string(),
            seeds.to_string(),
            links.cell(),
            slots.cell(),
            norm.cell(),
        ]);
    }

    // ---- E16c: geometric vs shadowed channel -----------------------
    let mut t3 = Table::new(
        "E16c: geometric vs shadowed channel (uniform, sigma=6dB)",
        "per-link log-normal fades move the schedule length by a \
         bounded factor only (the clamp keeps the certified gain range \
         finite); ratio = shadowed/geometric slots (mean ±95% CI)",
        &["n", "seeds", "geometric slots", "shadowed slots", "ratio"],
    );
    for &n in &c_specs {
        let trials = per_row.next().expect("one chunk per row");
        let geo = Stats::of(&trials.iter().map(|r| r.0).collect::<Vec<_>>());
        let shad = Stats::of(&trials.iter().map(|r| r.1).collect::<Vec<_>>());
        let ratio = Stats::of(&trials.iter().map(|r| r.2).collect::<Vec<_>>());
        t3.push_row(vec![
            n.to_string(),
            seeds.to_string(),
            geo.cell(),
            shad.cell(),
            ratio.cell(),
        ]);
    }

    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_tables() {
        let opts = ExpOptions {
            quick: true,
            seed: 1,
            seeds: 2,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 3);
        // E16a: one row per (family, size).
        assert_eq!(tables[0].rows.len(), 3 * opts.sizes().len());
        // E16b: the five-rung occupancy ladder.
        assert_eq!(tables[1].rows.len(), 5);
        // E16c: the uniform ladder, ensemble cells in the slot columns.
        assert_eq!(tables[2].rows.len(), opts.sizes().len());
        for row in &tables[2].rows {
            assert!(row[2].contains(" ±"), "not an ensemble cell: {row:?}");
            assert!(row[3].contains(" ±"), "not an ensemble cell: {row:?}");
        }
    }

    /// Same ordered-merge contract as every other ensemble experiment:
    /// the rendered rows are byte-identical at any worker-thread count.
    #[test]
    fn thread_count_does_not_change_row_bytes() {
        let base = ExpOptions {
            quick: true,
            seed: 3,
            seeds: 2,
            threads: 1,
            ..Default::default()
        };
        let one = run(&base);
        let four = run(&ExpOptions { threads: 4, ..base });
        assert_eq!(one, four);
    }
}
