//! E7 — §4 synthesis: the distributed pipelines match the shape of the
//! centralized state of the art. One table, head to head:
//!
//! - the four distributed strategies of the paper;
//! - the centralized MST bi-tree under uniform / mean / linear power;
//! - the length-class (uniform-power, \[21\]-style) baseline.
//!
//! The ensemble is **paired**: trial `k` of every method runs on the
//! *same* random instance (one shared instance stream, not one per
//! row), so the head-to-head ordering and the "centralized lower-
//! bounds distributed" claim are compared within instances — a
//! centralized row can never drift above a distributed one through
//! instance sampling noise alone. All `(method, k)` jobs fan out
//! through one [`crate::ensemble`] dispatch; rows report
//! `mean ±95% CI`.

use sinr_baselines::length_class::length_class_schedule;
use sinr_baselines::mst::{centroid_root, mst_bitree};
use sinr_connectivity::{connect_with, Strategy};
use sinr_phy::{PowerAssignment, SinrParams};

use crate::ensemble::{trial_streams, Ensemble};
use crate::stats::Stats;
use crate::table::Table;
use crate::workloads::Family;
use crate::ExpOptions;

type PowerCtor = fn(&SinrParams, f64) -> PowerAssignment;

/// One row of the head-to-head table.
enum Method {
    Distributed(Strategy),
    Mst(&'static str, PowerCtor),
    LengthClass,
}

/// Runs E7.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let n = if opts.quick { 64 } else { 192 };
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    let mut methods: Vec<Method> = Strategy::ALL.into_iter().map(Method::Distributed).collect();
    let powers: [(&str, PowerCtor); 3] = [
        ("uniform", |p, d| PowerAssignment::uniform_with_margin(p, d)),
        ("mean", |p, d| PowerAssignment::mean_with_margin(p, d)),
        ("linear", |p, _| PowerAssignment::linear_with_margin(p)),
    ];
    methods.extend(powers.map(|(name, ctor)| Method::Mst(name, ctor)));
    methods.push(Method::LengthClass);

    let jobs: Vec<(usize, u64)> = (0..methods.len())
        .flat_map(|m| (0..seeds).map(move |k| (m, k)))
        .collect();
    // Paired comparison: the trial streams come from row 0 for *every*
    // method, so trial k's instance (and algorithm stream) is shared
    // across rows — deliberately not the per-row split the other
    // ensemble experiments use.
    let results = driver.map(jobs, |(m, k)| {
        let (inst_seed, algo_seed) = trial_streams(opts.seed, 0, k);
        let inst = Family::UniformSquare.instance(n, inst_seed);
        match &methods[m] {
            Method::Distributed(strategy) => {
                let r = connect_with(&params, &inst, *strategy, algo_seed, opts.backend)
                    .expect("strategy converges");
                (r.schedule_len as f64, Some(r.runtime_slots as f64))
            }
            Method::Mst(_, make_power) => {
                let power = make_power(&params, inst.delta());
                let base = mst_bitree(&params, &inst, centroid_root(&inst), &power);
                (base.schedule.num_slots() as f64, None)
            }
            Method::LengthClass => {
                let links: sinr_links::LinkSet = sinr_geom::mst::mst_parent_array(&inst, 0)
                    .iter()
                    .enumerate()
                    .filter_map(|(u, p)| p.map(|v| sinr_links::Link::new(u, v)))
                    .collect();
                let out = length_class_schedule(&params, &inst, &links);
                (out.schedule.num_slots() as f64, None)
            }
        }
    });

    let mut t = Table::new(
        "E7: schedule length, distributed vs centralized",
        "within distributed: tvc-arbitrary < tvc-mean < reschedule < init-only; \
         centralized packings lower-bound their distributed counterparts \
         (mean ±95% CI; paired ensemble — every method sees the same instances)",
        &[
            "method",
            "kind",
            "power",
            "seeds",
            "schedule slots",
            "runtime slots",
        ],
    );
    for (method, trials) in methods.iter().zip(results.chunks(seeds as usize)) {
        let (label, kind, power_name) = match method {
            Method::Distributed(strategy) => {
                let power_name = match strategy {
                    Strategy::InitOnly => "uniform/round",
                    Strategy::MeanReschedule | Strategy::TvcMean => "mean",
                    Strategy::TvcArbitrary => "arbitrary",
                };
                (strategy.label(), "distributed", power_name)
            }
            Method::Mst(name, _) => ("mst-first-fit", "centralized", *name),
            Method::LengthClass => ("length-class", "centralized", "uniform/class"),
        };
        let sched = Stats::of(&trials.iter().map(|r| r.0).collect::<Vec<_>>());
        let runtime: Vec<f64> = trials.iter().filter_map(|r| r.1).collect();
        t.push_row(vec![
            label.into(),
            kind.into(),
            power_name.into(),
            seeds.to_string(),
            sched.cell(),
            if runtime.is_empty() {
                "-".into()
            } else {
                Stats::of(&runtime).cell()
            },
        ]);
    }

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_full_table() {
        let opts = ExpOptions {
            quick: true,
            seed: 7,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        // 4 distributed + 3 MST + 1 length-class rows.
        assert_eq!(tables[0].rows.len(), 8);
        for row in &tables[0].rows {
            assert!(
                row[4].contains(" ±"),
                "schedule cell not an ensemble: {row:?}"
            );
        }
        // Centralized rows have no runtime column.
        assert_eq!(tables[0].rows[7][5], "-");
    }

    /// `--seeds` actually widens the ensemble (and the seeds column).
    #[test]
    fn explicit_seeds_override_default_trials() {
        let opts = ExpOptions {
            quick: true,
            seed: 7,
            seeds: 3,
            ..Default::default()
        };
        let tables = run(&opts);
        for row in &tables[0].rows {
            assert_eq!(row[3], "3");
        }
    }
}
