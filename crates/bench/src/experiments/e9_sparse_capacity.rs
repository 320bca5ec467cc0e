//! E9 — the Theorem 9 / Appendix A+B machinery:
//!
//! - ψ-sparse sets contain feasible subsets of size `Ω(|L|/ψ)` and
//!   schedule in `O(ψ·log n)` slots (Theorem 9), measured via
//!   Kesselheim-greedy capacity and first-fit;
//! - feasible sets satisfy `f_ℓ(R) = O(1)` (Eqn 5 amenability);
//! - sparse sets partition into `O(1)` q-independent classes
//!   (Lemma 23).
//!
//! Rows aggregate a `--seeds K` ensemble through the
//! [`crate::ensemble`] driver (one dispatch for the whole ladder) and
//! report `mean ±95% CI`.

use sinr_baselines::capacity::greedy_capacity;
use sinr_baselines::first_fit::{first_fit_schedule, FirstFitOrder};
use sinr_connectivity::power_control::PowerControlConfig;
use sinr_links::{independence, sparsity, Link, LinkSet};
use sinr_phy::affectance::AffectanceCalc;
use sinr_phy::PowerAssignment;

use crate::ensemble::Ensemble;
use crate::stats::Stats;
use crate::table::Table;
use crate::workloads::Family;
use crate::ExpOptions;

fn mst_links(inst: &sinr_geom::Instance) -> LinkSet {
    sinr_geom::mst::mst_parent_array(inst, 0)
        .iter()
        .enumerate()
        .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
        .collect()
}

/// Runs E9.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    let mut t = Table::new(
        "E9: sparse-set capacity machinery (Thm 9, Eqn 5, Lemma 23)",
        "feasible fraction ≳ 1/ψ; schedule/(ψ·log n) ~flat; max f_ℓ(R) = O(1); \
         O(1) q-indep classes (mean ±95% CI)",
        &[
            "n",
            "seeds",
            "ψ (lower)",
            "feasible fraction",
            "ff slots",
            "slots/(ψ·log n)",
            "max f_ℓ(selected)",
            "q-indep classes (q=1)",
        ],
    );

    let sizes = opts.sizes();
    // The pipeline here is deterministic given the instance, so the
    // trial only consumes the instance stream.
    let results = driver.map_rows(
        opts.seed,
        sizes.len(),
        seeds,
        |row, inst_seed, _algo_seed| {
            let inst = Family::UniformSquare.instance(sizes[row], inst_seed);
            let links = mst_links(&inst);
            let psi = sparsity::sparsity_lower_bound(&inst, &links).max(1);

            // Feasible-subset size via Kesselheim greedy.
            let cap = greedy_capacity(&params, &inst, &links, 0.5, &PowerControlConfig::default());
            let frac = cap.selected.len() as f64 / links.len().max(1) as f64;

            // Schedule length via mean-power first-fit.
            let power = PowerAssignment::mean_with_margin(&params, inst.delta());
            let (ff, bad) = first_fit_schedule(
                &params,
                &inst,
                &links,
                &power,
                FirstFitOrder::AscendingLength,
                |_| 0,
            );
            assert!(bad.is_empty());
            let slots = ff.num_slots() as f64;
            let log_n = (inst.len() as f64).log2();

            // Amenability: max over ℓ of f_ℓ(selected) on the feasible set.
            let calc = AffectanceCalc::new(&params, &inst);
            let max_f = cap
                .selected
                .iter()
                .map(|l| calc.amenability_f_on_set(l, &cap.selected))
                .fold(0.0f64, f64::max);

            // q-independence partition of the MST links.
            let classes = independence::partition_q_independent(&inst, &links, 1.0).len();

            (
                psi as f64,
                frac,
                slots,
                slots / (psi as f64 * log_n),
                max_f,
                classes as f64,
            )
        },
    );

    type Pick = fn(&(f64, f64, f64, f64, f64, f64)) -> f64;
    for (&n, trials) in sizes.iter().zip(&results) {
        let col = |f: Pick| Stats::of(&trials.iter().map(f).collect::<Vec<_>>()).cell();
        t.push_row(vec![
            n.to_string(),
            seeds.to_string(),
            col(|r| r.0),
            col(|r| r.1),
            col(|r| r.2),
            col(|r| r.3),
            col(|r| r.4),
            col(|r| r.5),
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
            seed: 9,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        for row in &tables[0].rows {
            let frac: f64 = row[3].split_whitespace().next().unwrap().parse().unwrap();
            assert!(frac > 0.0, "greedy capacity selected nothing");
        }
    }
}
