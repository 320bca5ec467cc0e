//! E14 — kernel phase profile: where a grid-engine slot's time goes.
//!
//! E11 reports *that* the indexed engine wins; E14 reports *why*, by
//! timing the two kernels every slot is made of — the SoA
//! [`InterferenceField`] build and the certified best-SINR decode —
//! directly against one representative slot-soup transmitter set per
//! size, and splitting the decode into its phases:
//!
//! - **build** — CSR grid construction over the slot's senders;
//! - **near-field** — candidate scan, or a small field's flat pass;
//! - **far-cert** — Chebyshev-ring far-field certification;
//! - **fallback** — exact re-decodes where the certificate stayed
//!   undecided.
//!
//! Beside the soup ladder, one row per family cuts the n = 1024 soup to
//! its first 48 senders: a field below 64 senders, which builds no grid
//! and decides each query in one flat pass on the gain table's bounds,
//! as the small slots of `TreeViaCapacity` and the service loop do.
//!
//! Phase wall-clock comes from [`FieldScratch`]'s opt-in timers and
//! the decode-outcome counters from its always-on
//! [`QueryStats`](sinr_phy::field::QueryStats) — no
//! cargo feature required, so this experiment (and the committed
//! `BENCH_PROFILE.json` it regenerates) runs on a default build. The
//! counter columns (senders, certified/fallback shares, rings per
//! query) are deterministic per seed; only the millisecond columns are
//! measured. The engine-level view of the same phases is the E11c/E12b
//! capability breakdown under the `profile` feature.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sinr_geom::NodeId;
use sinr_phy::field::{FieldScratch, InterferenceField};
use sinr_phy::SinrParams;

use super::e11_scaling::mean_nn_distance;
use crate::table::{f2, Table};
use crate::workloads::Family;
use crate::ExpOptions;

/// Sizes profiled. The full ladder ends at the 65536 capability size;
/// the 131072 engine-level breakdown lives in E11c/E12b, where the
/// engine actually runs it.
fn ladder(quick: bool) -> &'static [usize] {
    if quick {
        &[512, 1024]
    } else {
        &[1024, 4096, 16384, 65536]
    }
}

/// One slot-soup transmitter set: every node transmits with
/// probability 0.1 at the E11 soup power, the rest listen.
fn soup_senders(
    params: &SinrParams,
    inst: &sinr_geom::Instance,
    seed: u64,
) -> (Vec<(NodeId, f64)>, Vec<NodeId>) {
    let power = params.min_power_for_length(1.5 * mean_nn_distance(inst)) * 4.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut senders = Vec::new();
    let mut listeners = Vec::new();
    for v in 0..inst.len() {
        if rng.gen_bool(0.1) {
            senders.push((v, power));
        } else {
            listeners.push(v);
        }
    }
    (senders, listeners)
}

/// Runs E14: per-kernel, per-phase cost of one representative slot.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();

    let mut t = Table::new(
        "E14: kernel phase profile (SoA field build + certified decode, one soup slot)",
        "certification settles nearly every query within about one ring, so \
         fallbacks stay rare and µs/query stays flat in n; the ring walk \
         (far-cert ms) is the largest phase — the engine-level E11c rows show the \
         same phases per slot; the 48-sender rows (the n = 1024 soup cut to its \
         first 48 senders) take flat passes, timed as near-field, with no ring \
         (counter columns are per-seed deterministic, ms columns measured)",
        &[
            "family",
            "n",
            "senders",
            "build ms",
            "near-field ms",
            "far-cert ms",
            "fallback ms",
            "queries",
            "certified",
            "fallbacks",
            "straddles",
            "rings/query",
            "µs/query",
        ],
    );

    for family in [Family::UniformSquare, Family::Clustered] {
        for &n in ladder(opts.quick) {
            let inst = family.instance(n, opts.seed.wrapping_add(n as u64));
            let (senders, listeners) =
                soup_senders(&params, &inst, opts.seed.wrapping_add(1400 + n as u64));
            t.push_row(profile_row(&params, family, n, &inst, &senders, &listeners));
            if n == 1024 {
                let small = &senders[..48];
                t.push_row(profile_row(&params, family, n, &inst, small, &listeners));
            }
        }
    }

    vec![t]
}

/// One row for the size-`n` instance `inst`: builds the field over
/// `senders`, then decodes every one of `listeners` with phase timing
/// on.
fn profile_row(
    params: &SinrParams,
    family: Family,
    n: usize,
    inst: &sinr_geom::Instance,
    senders: &[(NodeId, f64)],
    listeners: &[NodeId],
) -> Vec<String> {
    let t0 = Instant::now();
    let field = InterferenceField::build(params, inst, senders);
    let build_s = t0.elapsed().as_secs_f64();

    let mut scratch = FieldScratch::default();
    scratch.enable_timing(true);
    let t1 = Instant::now();
    for &v in listeners {
        field.decode_best_with(v, &mut scratch);
    }
    let decode_s = t1.elapsed().as_secs_f64();

    let stats = scratch.stats;
    assert_eq!(
        stats.queries,
        stats.small_exact + stats.certified + stats.fallbacks,
        "E14: decode-outcome counters must partition the queries"
    );
    vec![
        family.label().to_string(),
        n.to_string(),
        senders.len().to_string(),
        f2(build_s * 1e3),
        f2(scratch.times.near_field.as_secs_f64() * 1e3),
        f2(scratch.times.far_field_cert.as_secs_f64() * 1e3),
        f2(scratch.times.fallback.as_secs_f64() * 1e3),
        stats.queries.to_string(),
        stats.certified.to_string(),
        stats.fallbacks.to_string(),
        stats.straddles.to_string(),
        f2(stats.rings as f64 / stats.queries.max(1) as f64),
        f2(decode_s * 1e6 / stats.queries.max(1) as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_profiles_both_families() {
        let opts = ExpOptions {
            quick: true,
            seed: 14,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        // The ladder, plus each family's 48-sender row.
        assert_eq!(tables[0].rows.len(), 2 * (ladder(true).len() + 1));
        let small: Vec<_> = tables[0].rows.iter().filter(|r| r[2] == "48").collect();
        assert_eq!(small.len(), 2);
        for row in small {
            assert_eq!(row[1], "1024");
            assert_eq!(row[11], "0.00", "a flat pass walks no ring: {row:?}");
        }
        for row in &tables[0].rows {
            let queries: u64 = row[7].parse().unwrap();
            let certified: u64 = row[8].parse().unwrap();
            let fallbacks: u64 = row[9].parse().unwrap();
            assert!(queries > 0, "a soup slot always has listeners: {row:?}");
            assert!(
                certified + fallbacks <= queries,
                "outcome counters exceed queries: {row:?}"
            );
        }
    }

    /// The counter columns are a pure function of the seed — rerunning
    /// must reproduce them byte-for-byte (the ms columns may differ).
    #[test]
    fn counter_columns_are_deterministic() {
        let opts = ExpOptions {
            quick: true,
            seed: 77,
            ..Default::default()
        };
        let a = run(&opts);
        let b = run(&opts);
        for (ra, rb) in a[0].rows.iter().zip(b[0].rows.iter()) {
            for col in [0usize, 1, 2, 7, 8, 9, 10] {
                assert_eq!(ra[col], rb[col], "counter column {col} drifted");
            }
        }
    }
}
