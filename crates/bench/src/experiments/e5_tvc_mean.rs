//! E5 — Theorem 16: `TreeViaCapacity` with the mean-power sampling
//! selector schedules a bi-tree in `O(Υ·log n)` slots, converging in
//! `O(Υ·log Δ·log² n)` distributed time.
//!
//! Rows aggregate a `--seeds K` ensemble through the
//! [`crate::ensemble`] driver (one dispatch for the whole ladder) and
//! report `mean ±95% CI`.

use sinr_connectivity::selector::MeanSamplingSelector;
use sinr_connectivity::tvc::{tree_via_capacity, TvcConfig};
use sinr_phy::upsilon;

use crate::ensemble::Ensemble;
use crate::stats::Stats;
use crate::table::Table;
use crate::workloads::Family;
use crate::ExpOptions;

/// Runs E5.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    let mut t = Table::new(
        "E5: TreeViaCapacity with mean power (Thm 16)",
        "schedule = O(Υ·log n) slots: normalized column ~flat; runtime = \
         O(Υ·logΔ·log² n) (mean ±95% CI)",
        &[
            "family",
            "n",
            "seeds",
            "Υ",
            "schedule slots",
            "slots/(Υ·log n)",
            "iterations",
            "runtime slots",
        ],
    );

    let specs: Vec<(Family, usize)> = [Family::UniformSquare, Family::Clustered]
        .into_iter()
        .flat_map(|family| opts.sizes().iter().map(move |&n| (family, n)))
        .collect();
    let results = driver.map_rows(
        opts.seed,
        specs.len(),
        seeds,
        |row, inst_seed, algo_seed| {
            let (family, n) = specs[row];
            let inst = family.instance(n, inst_seed);
            let mut sel = MeanSamplingSelector::default();
            let out = tree_via_capacity(
                &params,
                &inst,
                &TvcConfig {
                    init: opts.init_config(),
                    ..Default::default()
                },
                &mut sel,
                algo_seed,
            )
            .expect("tvc converges");
            let ups = upsilon(inst.len(), inst.delta());
            let log_n = (inst.len() as f64).log2();
            (
                ups,
                out.schedule_len() as f64,
                out.schedule_len() as f64 / (ups * log_n),
                out.iterations as f64,
                out.runtime_slots as f64,
            )
        },
    );

    for ((family, n), trials) in specs.iter().zip(&results) {
        let col = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| {
            Stats::of(&trials.iter().map(f).collect::<Vec<_>>()).cell()
        };
        t.push_row(vec![
            family.label().into(),
            n.to_string(),
            seeds.to_string(),
            col(|r| r.0),
            col(|r| r.1),
            col(|r| r.2),
            col(|r| r.3),
            col(|r| r.4),
        ]);
    }

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_table() {
        let opts = ExpOptions {
            quick: true,
            seed: 5,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2 * opts.sizes().len());
        for row in &tables[0].rows {
            assert_eq!(row[2], "2");
        }
    }
}
