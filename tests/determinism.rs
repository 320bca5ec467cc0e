//! Cross-crate determinism: the Ixa-style seeded-RNG discipline.
//!
//! Every random decision in the workspace must derive from an explicit
//! seed, so identical calls produce **byte-identical** artifacts. Two
//! layers enforce this:
//!
//! 1. *Compile time*: the offline `rand` shim exports no entropy source
//!    (no `from_entropy`, `thread_rng`, `OsRng`), so a code path that
//!    wants ambient randomness does not build.
//! 2. *Run time* (this file): every pipeline is run twice per seed and
//!    the results are compared through a canonical byte fingerprint
//!    (exact `f64` bit patterns included). This also catches the
//!    subtler hazard a type signature cannot: iterating a `HashMap`
//!    into an ordered artifact. `RandomState` differs between two maps
//!    in the same process, so leaked map order shows up here as a
//!    fingerprint mismatch between the two runs.

use std::fmt::Write as _;

use sinr_connect_suite::connectivity::{
    connect, connect_with, ChannelModel, ConnectivityResult, EngineBackend, Strategy,
};
use sinr_connect_suite::geom::{gen, Instance};
use sinr_connect_suite::links::{InTree, Link, Schedule};
use sinr_connect_suite::phy::{packing, PowerAssignment, SinrParams};

fn families(seed: u64) -> Vec<(&'static str, Instance)> {
    vec![
        ("uniform", gen::uniform_square(32, 1.5, seed).unwrap()),
        ("clustered", gen::clustered(4, 7, 1.5, 2.0, seed).unwrap()),
        ("lattice", gen::grid_lattice(5, 6, 0.25, seed).unwrap()),
        ("chain", gen::exponential_chain(14, 1.7, seed).unwrap()),
        ("line", gen::line(16).unwrap()),
        ("annulus", gen::annulus(28, 6.0, 14.0, seed).unwrap()),
    ]
}

/// Canonical byte rendering of everything a run produces. Floats are
/// rendered as exact bit patterns: "byte-identical", not "approximately
/// equal".
fn fingerprint(r: &ConnectivityResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "strategy={} schedule_len={} runtime_slots={}",
        r.strategy, r.schedule_len, r.runtime_slots
    );
    for l in r.tree_links.iter() {
        let _ = writeln!(out, "link {}->{}", l.sender, l.receiver);
    }
    // Schedule iteration is BTreeMap-ordered, hence canonical.
    for (l, s) in r.aggregation_schedule.iter() {
        let _ = writeln!(out, "agg {}->{} @{}", l.sender, l.receiver, s);
    }
    for (l, s) in r.dissemination_schedule.iter() {
        let _ = writeln!(out, "dis {}->{} @{}", l.sender, l.receiver, s);
    }
    // Explicit powers live in a HashMap: sort before rendering, and pin
    // the exact bits.
    if let Some(powers) = r.power.as_explicit() {
        let mut entries: Vec<_> = powers.iter().collect();
        entries.sort_by_key(|(l, _)| **l);
        for (l, p) in entries {
            let _ = writeln!(out, "pow {}->{} {:016x}", l.sender, l.receiver, p.to_bits());
        }
    }
    if let Some(bt) = &r.bitree {
        let _ = writeln!(out, "bitree_slots={}", bt.num_slots());
    }
    out
}

/// The tentpole check: run every strategy on every instance family
/// twice with the same seed; schedules, tree links and powers must be
/// byte-identical.
#[test]
fn connect_is_byte_identical_per_seed_on_every_family() {
    let params = SinrParams::default();
    for (family, inst) in families(23) {
        for strategy in Strategy::ALL {
            let a = connect(&params, &inst, strategy, 123)
                .unwrap_or_else(|e| panic!("{family}/{strategy} run A: {e}"));
            let b = connect(&params, &inst, strategy, 123)
                .unwrap_or_else(|e| panic!("{family}/{strategy} run B: {e}"));
            let (fa, fb) = (fingerprint(&a), fingerprint(&b));
            assert!(
                fa == fb,
                "{family}/{strategy}: two runs with the same seed diverged\n\
                 --- run A ---\n{fa}\n--- run B ---\n{fb}"
            );
        }
    }
}

/// The naive/grid engine parity gate: the spatially-indexed
/// interference engine (DESIGN.md §7) must be **byte-identical** to the
/// all-pairs reference on every strategy × family pair — exact `f64`
/// bits included, via the same canonical fingerprint as the
/// double-run check above. This is what makes the grid engine's
/// cutoff *exact* rather than approximate: any certified decision that
/// ever diverged from the naive path would change a decode, hence a
/// schedule, hence this fingerprint.
#[test]
fn grid_engine_is_byte_identical_to_naive_on_every_family() {
    let params = SinrParams::default();
    for (family, inst) in families(23) {
        for strategy in Strategy::ALL {
            let naive = connect_with(&params, &inst, strategy, 123, EngineBackend::Naive)
                .unwrap_or_else(|e| panic!("{family}/{strategy} naive: {e}"));
            let grid = connect_with(&params, &inst, strategy, 123, EngineBackend::Grid)
                .unwrap_or_else(|e| panic!("{family}/{strategy} grid: {e}"));
            let (fa, fb) = (fingerprint(&naive), fingerprint(&grid));
            assert!(
                fa == fb,
                "{family}/{strategy}: grid engine diverged from naive\n\
                 --- naive ---\n{fa}\n--- grid ---\n{fb}"
            );
        }
    }
}

/// The shadowed-channel determinism gate (DESIGN.md §15): per-link
/// log-normal fades are closed-form functions of the fade seed and the
/// pair's two positions, drawn from hierarchically split streams — so
/// every backend shares them **by construction**. Naive, grid and the pooled parallel
/// engine at 1/2/4 threads must be byte-identical under a shadowed
/// channel on every strategy × family pair, repeated runs included.
#[test]
fn shadowed_channel_is_backend_and_thread_invariant() {
    let params = SinrParams::default().with_channel(ChannelModel::shadowed(0x5AD, 6.0).unwrap());
    let backends = [
        EngineBackend::Naive,
        EngineBackend::Grid,
        EngineBackend::Parallel(1),
        EngineBackend::Parallel(2),
        EngineBackend::Parallel(4),
    ];
    for (family, inst) in families(23) {
        for strategy in Strategy::ALL {
            let mut want: Option<String> = None;
            for backend in backends {
                let run = connect_with(&params, &inst, strategy, 123, backend)
                    .unwrap_or_else(|e| panic!("{family}/{strategy}/{backend:?}: {e}"));
                let got = fingerprint(&run);
                match &want {
                    None => want = Some(got),
                    Some(w) => assert!(
                        *w == got,
                        "{family}/{strategy}: shadowed run under {backend:?} diverged\n\
                         --- reference ---\n{w}\n--- {backend:?} ---\n{got}"
                    ),
                }
            }
        }
    }
}

/// The fades are *observable* and *seed-sensitive*: a shadowed run
/// differs from the geometric baseline, and two fade seeds differ from
/// each other — the channel is not silently collapsing to the power
/// law, and the stream split actually feeds the outcome.
#[test]
fn shadowed_channel_is_seed_sensitive() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(32, 1.5, 23).unwrap();
    let run = |channel: ChannelModel| {
        let params = params.with_channel(channel);
        fingerprint(&connect(&params, &inst, Strategy::TvcArbitrary, 123).expect("connects"))
    };
    let geometric = run(ChannelModel::Geometric);
    let fade_a = run(ChannelModel::shadowed(1, 6.0).unwrap());
    let fade_b = run(ChannelModel::shadowed(2, 6.0).unwrap());
    assert_ne!(geometric, fade_a, "shadowing unobservable in the outcome");
    assert_ne!(fade_a, fade_b, "fade streams insensitive to their seed");
    // And each is reproducible: same channel, same bytes.
    assert_eq!(fade_a, run(ChannelModel::shadowed(1, 6.0).unwrap()));
}

/// FNV-1a over the canonical fingerprint text.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Pinned outputs of the geometric channel: every strategy on the
/// `connect` CLI's uniform and clustered instances (n = 64, instance
/// and algorithm seed 7). The values were recorded before the channel
/// moved into `SinrParams`, so the unit fade is held to the old bytes —
/// tree, both schedules and every power bit — not merely to itself.
#[test]
fn geometric_connect_fingerprints_are_pinned() {
    use sinr_bench::workloads::Family;
    let pinned = [
        (
            Family::UniformSquare,
            Strategy::InitOnly,
            0xac0a_135f_2f84_2b0d,
        ),
        (
            Family::UniformSquare,
            Strategy::MeanReschedule,
            0x935e_2911_2494_c1d5,
        ),
        (
            Family::UniformSquare,
            Strategy::TvcMean,
            0x8813_2b47_381b_e4ce,
        ),
        (
            Family::UniformSquare,
            Strategy::TvcArbitrary,
            0x7ebb_c03c_7adb_a01c,
        ),
        (Family::Clustered, Strategy::InitOnly, 0x7013_abd8_afdc_8b08),
        (
            Family::Clustered,
            Strategy::MeanReschedule,
            0xb4ac_f505_15d3_1ae1,
        ),
        (Family::Clustered, Strategy::TvcMean, 0xc67f_f6fe_1606_cc5b),
        (
            Family::Clustered,
            Strategy::TvcArbitrary,
            0x0b41_7c4a_2b19_b8cc,
        ),
    ];
    let params = SinrParams::default();
    for (family, strategy, want) in pinned {
        let inst = family.instance(64, 7);
        let run = connect(&params, &inst, strategy, 7)
            .unwrap_or_else(|e| panic!("{}/{strategy}: {e}", family.label()));
        let got = fnv(&fingerprint(&run));
        assert_eq!(
            got,
            want,
            "{}/{strategy}: fingerprint {got:#018x} moved from the pinned {want:#018x}",
            family.label()
        );
    }
}

/// Canonical byte rendering of a packer's output: every slot assignment
/// in schedule order, then the links it could not place.
fn pack_fingerprint(schedule: &Schedule, unschedulable: &[Link]) -> u64 {
    let mut out = String::new();
    for (l, s) in schedule.iter() {
        let _ = writeln!(out, "agg {}->{} @{}", l.sender, l.receiver, s);
    }
    for l in unschedulable {
        let _ = writeln!(out, "unschedulable {}->{}", l.sender, l.receiver);
    }
    fnv(&out)
}

/// The MST toward node 0 and its mean-with-margin powers: the
/// centralized bi-tree baseline's input, as the packer sees it.
fn mst_packing_input(params: &SinrParams, inst: &Instance) -> (InTree, PowerAssignment) {
    let tree = InTree::from_parents(sinr_connect_suite::geom::mst::mst_parent_array(inst, 0))
        .expect("MST orientation is a valid in-tree");
    (
        tree,
        PowerAssignment::mean_with_margin(params, inst.delta()),
    )
}

/// Pinned bytes of the ordered bidirectional packer on three families
/// and both channel kinds (n = 512, seed 7). The values were recorded
/// with the eager all-terms slot auditor, so every certified shortcut
/// the auditor takes is held to the schedule the exact sums produced.
/// The auditors' exact fallbacks are pinned too (as `(resident_exact,
/// link_exact)`), so a bound that loosens shows up here before it shows
/// up as speed.
#[test]
fn packer_tree_schedules_are_pinned() {
    use sinr_bench::workloads::Family;
    let shadowed = ChannelModel::shadowed(7, 6.0).unwrap();
    let pinned = [
        (
            Family::UniformSquare,
            ChannelModel::Geometric,
            0xa070_781e_5322_1806,
            (16, 0),
        ),
        (
            Family::UniformSquare,
            shadowed,
            0xd48b_2a03_16fc_e1b1,
            (2647, 487),
        ),
        (
            Family::Clustered,
            ChannelModel::Geometric,
            0xbddf_a19e_b731_71bf,
            (7, 2),
        ),
        (
            Family::Clustered,
            shadowed,
            0xf453_7db8_32ab_4bad,
            (891, 198),
        ),
        (
            Family::TwoTier,
            ChannelModel::Geometric,
            0xcfbf_9800_928e_e8af,
            (1, 0),
        ),
        (Family::TwoTier, shadowed, 0x778b_b7eb_5c98_dcaa, (423, 148)),
    ];
    for (family, channel, want, exact) in pinned {
        let params = SinrParams::default().with_channel(channel);
        let inst = family.instance(512, 7);
        let (tree, power) = mst_packing_input(&params, &inst);
        let (schedule, unschedulable, stats) =
            packing::pack_tree_audited(&params, &inst, &tree, &power);
        let got = pack_fingerprint(&schedule, &unschedulable);
        assert_eq!(
            got,
            want,
            "{}/{}: packer fingerprint {got:#018x} moved from the pinned {want:#018x}",
            family.label(),
            channel.label()
        );
        assert_eq!(
            (stats.resident_exact, stats.link_exact),
            exact,
            "{}/{}: exact fallbacks moved",
            family.label(),
            channel.label()
        );
        assert_eq!(
            (schedule, unschedulable),
            packing::pack_tree_ordered(&params, &inst, &tree, &power)
        );
    }
}

/// Pinned bytes of the greedy first-fit packer (ascending length, no
/// slot floors) over the same uniform MST links.
#[test]
fn packer_first_fit_schedule_is_pinned() {
    use sinr_bench::workloads::Family;
    use sinr_connect_suite::baselines::first_fit::{first_fit_schedule, FirstFitOrder};
    let params = SinrParams::default();
    let inst = Family::UniformSquare.instance(512, 7);
    let (tree, power) = mst_packing_input(&params, &inst);
    let (schedule, unschedulable) = first_fit_schedule(
        &params,
        &inst,
        &tree.aggregation_links(),
        &power,
        FirstFitOrder::AscendingLength,
        |_| 0,
    );
    let got = pack_fingerprint(&schedule, &unschedulable);
    assert_eq!(
        got, 0x1e78_2104_8e14_ae55,
        "first-fit fingerprint {got:#018x} moved"
    );
}

/// The default-backed `connect` is the grid engine — and therefore also
/// byte-identical to the naive reference. The explicit default
/// assertion is what keeps the `O(n²)` path from silently coming back
/// as the default.
#[test]
fn default_connect_uses_grid_and_matches_naive() {
    assert_eq!(EngineBackend::default(), EngineBackend::Grid);
    let params = SinrParams::default();
    let inst = gen::uniform_square(32, 1.5, 31).unwrap();
    let default_run = connect(&params, &inst, Strategy::InitOnly, 9).unwrap();
    let naive = connect_with(&params, &inst, Strategy::InitOnly, 9, EngineBackend::Naive).unwrap();
    assert_eq!(fingerprint(&default_run), fingerprint(&naive));
}

/// The parallel engine is the same machine as the serial grid engine,
/// merely sharded: at every thread count the full connect fingerprint
/// (schedules, tree links, exact power bits) must be byte-identical.
/// The 96-node instance sits above the engine's serial-fallback
/// threshold, so the worker pool genuinely runs.
#[test]
fn parallel_engine_is_byte_identical_at_every_thread_count() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(96, 1.5, 29).unwrap();
    for strategy in Strategy::ALL {
        let serial = connect_with(&params, &inst, strategy, 123, EngineBackend::Grid)
            .unwrap_or_else(|e| panic!("{strategy} grid: {e}"));
        let fs = fingerprint(&serial);
        for threads in [1usize, 2, 4] {
            let par = connect_with(
                &params,
                &inst,
                strategy,
                123,
                EngineBackend::Parallel(threads),
            )
            .unwrap_or_else(|e| panic!("{strategy} parallel({threads}): {e}"));
            let fp = fingerprint(&par);
            assert!(
                fs == fp,
                "{strategy}: parallel({threads}) diverged from serial grid\n\
                 --- grid ---\n{fs}\n--- parallel ---\n{fp}"
            );
        }
    }
}

/// The grid-pruned lazy-Prim MST must reproduce the O(n²) Prim
/// reference exactly — same edges, same emission order, on every
/// generator family (including the tie-heavy integer line).
#[test]
fn grid_mst_matches_prim_edge_for_edge_on_every_family() {
    use sinr_connect_suite::geom::mst::{euclidean_mst_grid, euclidean_mst_prim};
    for (family, inst) in families(23) {
        assert_eq!(
            euclidean_mst_grid(&inst),
            euclidean_mst_prim(&inst),
            "{family}: MST edge sequences diverged"
        );
    }
    // Above the dispatch cutoff, with enough nodes for real pruning.
    for seed in [3u64, 17] {
        for inst in [
            gen::uniform_square(600, 1.5, seed).unwrap(),
            gen::clustered(24, 25, 1.5, 2.0, seed).unwrap(),
        ] {
            assert_eq!(
                euclidean_mst_grid(&inst),
                euclidean_mst_prim(&inst),
                "seed {seed}: MST edge sequences diverged at scale"
            );
        }
    }
}

/// The grid/hull `extreme_distances` must return the exact bits of the
/// O(n²) reference scan — min, max (Δ) and the reported closest pair —
/// on every generator family.
#[test]
fn grid_extremes_match_naive_scan_on_every_family() {
    use sinr_connect_suite::geom::extremes::{extreme_distances_grid, extreme_distances_naive};
    for (family, inst) in families(31) {
        let naive = extreme_distances_naive(inst.points()).unwrap();
        let grid = extreme_distances_grid(inst.points()).unwrap();
        assert_eq!(
            naive.min.to_bits(),
            grid.min.to_bits(),
            "{family}: min bits diverged"
        );
        assert_eq!(
            naive.max.to_bits(),
            grid.max.to_bits(),
            "{family}: max (Δ) bits diverged"
        );
        assert_eq!(naive.min_pair, grid.min_pair, "{family}: min pair diverged");
    }
}

/// Instance generators are part of the same contract: identical seeds,
/// identical coordinates, to the bit.
#[test]
fn generators_are_byte_identical_per_seed() {
    for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
        for (a, b) in [
            (
                gen::uniform_square(40, 1.5, seed),
                gen::uniform_square(40, 1.5, seed),
            ),
            (
                gen::clustered(4, 6, 1.0, 2.0, seed),
                gen::clustered(4, 6, 1.0, 2.0, seed),
            ),
            (
                gen::uniform_disk(30, 1.5, seed),
                gen::uniform_disk(30, 1.5, seed),
            ),
            (
                gen::annulus(30, 5.0, 11.0, seed),
                gen::annulus(30, 5.0, 11.0, seed),
            ),
            (
                gen::grid_lattice(4, 5, 0.3, seed),
                gen::grid_lattice(4, 5, 0.3, seed),
            ),
        ] {
            let (a, b) = (a.unwrap(), b.unwrap());
            for (u, p) in a.iter() {
                let q = b.position(u);
                assert_eq!(p.x.to_bits(), q.x.to_bits(), "seed {seed} node {u} x");
                assert_eq!(p.y.to_bits(), q.y.to_bits(), "seed {seed} node {u} y");
            }
        }
    }
}

/// Golden pin: the generator stream itself is frozen. If this fails,
/// the RNG algorithm or the generator's draw order changed — that is a
/// breaking change to every seeded artifact in the workspace (saved
/// experiment tables, documented bench numbers), so it must be loud
/// and deliberate, with this constant updated in the same commit.
#[test]
fn generator_stream_is_pinned() {
    let inst = gen::uniform_square(8, 1.5, 42).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a over coordinate bits.
    for (_, p) in inst.iter() {
        for bits in [p.x.to_bits(), p.y.to_bits()] {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    assert_eq!(
        h, 0xd3af_5516_17c6_8bdb,
        "uniform_square(8, 1.5, 42) stream changed: got fingerprint {h:#018x}"
    );
}

/// Canonical byte rendering of an ensemble experiment's output: the
/// aligned text tables *and* their JSON forms, concatenated — the
/// bytes that end up on terminals and in committed `BENCH_*.json`
/// snapshots.
fn ensemble_fingerprint(tables: &[sinr_bench::table::Table]) -> String {
    let mut out = String::new();
    for t in tables {
        let _ = writeln!(out, "{}", t.render());
        let _ = writeln!(out, "{}", t.to_json());
    }
    out
}

/// The ensemble-driver determinism gate (DESIGN.md §9): the full
/// ensemble tables of every rerouted experiment (E1/E7/E8) must be
/// **byte-identical** at 1, 2 and 4 worker threads and across two
/// repeated runs. Three properties compose to make this hold — pure
/// per-trial seed splitting, the driver's ordered merge, and the
/// statistics layer's canonical summation order — and a regression in
/// any of them (a scheduling-dependent seed, an out-of-order merge, an
/// input-order float sum) lands here as a fingerprint mismatch.
#[test]
fn ensemble_tables_are_byte_identical_at_every_thread_count() {
    use sinr_bench::experiments::{e1_init, e7_comparison, e8_latency};
    use sinr_bench::ExpOptions;

    type Runner = fn(&ExpOptions) -> Vec<sinr_bench::table::Table>;
    let experiments: [(&str, Runner); 3] = [
        ("e1", e1_init::run),
        ("e7", e7_comparison::run),
        ("e8", e8_latency::run),
    ];
    for (id, run) in experiments {
        let base = ExpOptions {
            quick: true,
            seed: 17,
            seeds: 3,
            threads: 1,
            ..Default::default()
        };
        let reference = ensemble_fingerprint(&run(&base));
        let repeat = ensemble_fingerprint(&run(&base));
        assert!(
            reference == repeat,
            "{id}: two identical ensemble runs diverged\n--- A ---\n{reference}\n--- B ---\n{repeat}"
        );
        for threads in [2usize, 4] {
            let forked = ensemble_fingerprint(&run(&ExpOptions { threads, ..base }));
            assert!(
                reference == forked,
                "{id}: ensemble tables at {threads} threads diverged from 1 thread\n\
                 --- 1 thread ---\n{reference}\n--- {threads} threads ---\n{forked}"
            );
        }
    }
}

/// Thread-count byte-parity of the experiments rerouted onto the
/// ensemble driver in the E13 pass (E2–E6, E9, E10): the full table
/// bytes — text and JSON — must be identical at 1 and 4 worker
/// threads. (E1/E7/E8 get the stronger repeated-run gate above; the
/// driver and statistics layer are shared, so the marginal risk here
/// is a scheduling-dependent seed or summation leaking into a rerouted
/// experiment's own code.)
#[test]
fn ensemble_rerouted_experiments_are_thread_invariant() {
    use sinr_bench::experiments::{
        e10_ablations, e2_degree, e3_sparsity, e4_reschedule, e5_tvc_mean, e6_tvc_arbitrary,
        e9_sparse_capacity,
    };
    use sinr_bench::ExpOptions;

    type Runner = fn(&ExpOptions) -> Vec<sinr_bench::table::Table>;
    let experiments: [(&str, Runner); 7] = [
        ("e2", e2_degree::run),
        ("e3", e3_sparsity::run),
        ("e4", e4_reschedule::run),
        ("e5", e5_tvc_mean::run),
        ("e6", e6_tvc_arbitrary::run),
        ("e9", e9_sparse_capacity::run),
        ("e10", e10_ablations::run),
    ];
    for (id, run) in experiments {
        let base = ExpOptions {
            quick: true,
            seed: 19,
            seeds: 2,
            threads: 1,
            ..Default::default()
        };
        let one = ensemble_fingerprint(&run(&base));
        let four = ensemble_fingerprint(&run(&ExpOptions { threads: 4, ..base }));
        assert!(
            one == four,
            "{id}: tables at 4 threads diverged from 1 thread\n\
             --- 1 thread ---\n{one}\n--- 4 threads ---\n{four}"
        );
    }
}

/// The incremental re-packer's determinism and parity gate (DESIGN.md
/// §10): on every instance family, repairing the same structure with
/// the same seed twice is byte-identical; `Full` and `Incremental`
/// reattach the identical tree and both validate bidirectionally; and
/// every slot grouping the incremental packer reports untouched is
/// byte-identical to the pre-churn schedule.
#[test]
fn incremental_repack_is_deterministic_and_audited() {
    use sinr_connect_suite::connectivity::repair::{
        repair_after_failures, PriorStructure, RepairOutcome,
    };
    use sinr_connect_suite::connectivity::selector::MeanSamplingSelector;
    use sinr_connect_suite::connectivity::tvc::{tree_via_capacity, TvcConfig};
    use sinr_connect_suite::connectivity::RepackMode;
    use sinr_connect_suite::links::Link;
    use sinr_connect_suite::phy::feasibility;

    fn repair_fingerprint(r: &RepairOutcome) -> String {
        let mut out = String::new();
        for (l, s) in r.schedule.iter() {
            let _ = writeln!(out, "agg {}->{} @{}", l.sender, l.receiver, s);
        }
        let mut entries: Vec<_> = r.power.as_explicit().unwrap().iter().collect();
        entries.sort_by_key(|(l, _)| **l);
        for (l, p) in entries {
            let _ = writeln!(out, "pow {}->{} {:016x}", l.sender, l.receiver, p.to_bits());
        }
        out
    }

    let params = SinrParams::default();
    for (family, inst) in families(37) {
        if inst.len() < 8 {
            continue;
        }
        let mut sel = MeanSamplingSelector::default();
        let built = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, 11).unwrap();
        let parents: Vec<Option<usize>> = (0..built.tree.len())
            .map(|u| built.tree.parent(u))
            .collect();
        let powers = built.power.as_explicit().unwrap().clone();
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &built.schedule,
        };
        let failed = [1usize, inst.len() / 2];

        let run = |mode: RepackMode| {
            let cfg = TvcConfig {
                repack: mode,
                ..Default::default()
            };
            let mut sel = MeanSamplingSelector::default();
            repair_after_failures(&params, &inst, &prior, &failed, &cfg, &mut sel, 29)
                .unwrap_or_else(|e| panic!("{family}: repair ({mode}) failed: {e}"))
        };
        let a = run(RepackMode::Incremental);
        let b = run(RepackMode::Incremental);
        assert!(
            repair_fingerprint(&a) == repair_fingerprint(&b),
            "{family}: two incremental repairs with the same seed diverged"
        );
        let full = run(RepackMode::Full);
        assert_eq!(full.tree, a.tree, "{family}: modes reattached differently");
        for (label, rep) in [("incremental", &a), ("full", &full)] {
            feasibility::validate_schedule(&params, &rep.instance, &rep.schedule, &rep.power)
                .unwrap_or_else(|e| panic!("{family}/{label}: aggregation infeasible: {e}"));
            let dual = rep.schedule.map_links(Link::dual).unwrap();
            feasibility::validate_schedule(&params, &rep.instance, &dual, &rep.power)
                .unwrap_or_else(|e| panic!("{family}/{label}: dissemination infeasible: {e}"));
        }
        // Untouched accounting: at least the untouched count of previous
        // slot groupings must reappear byte-identically.
        let delta = built
            .schedule
            .delta_map(|l| {
                let s = a.old_to_new[l.sender]?;
                let r = a.old_to_new[l.receiver]?;
                Some(Link::new(s, r))
            })
            .unwrap();
        let mut kept_groups =
            vec![sinr_connect_suite::links::LinkSet::new(); delta.previous_slots()];
        for (l, s) in delta.kept.iter() {
            kept_groups[s].insert(l);
        }
        let new_groups = a.schedule.slots();
        let survived = kept_groups
            .iter()
            .filter(|g| !g.is_empty() && new_groups.contains(g))
            .count();
        assert!(
            survived >= a.repack.untouched_slots,
            "{family}: only {survived} groupings survived byte-identically, \
             packer claims {}",
            a.repack.untouched_slots
        );
    }
}

/// The wake calendar's largest user: repair and join rerun `Init`
/// masked to a few orphaned roots or newcomers, so almost every node
/// of those runs is retired from the first slot. Whether that `Init`
/// steps every node (naive, the reference) or only the awake list
/// (grid, and the pool at 1/2/4 threads), the repaired and grown
/// trees, schedules, power bits and runtime slots must be identical.
/// 80-node instances sit above `PARALLEL_MIN_NODES`, so the pooled
/// loop runs, and its quiet slots fall back to the driving thread.
#[test]
fn repair_and_join_init_is_backend_and_thread_invariant() {
    use sinr_connect_suite::connectivity::init::InitConfig;
    use sinr_connect_suite::connectivity::join::join_nodes;
    use sinr_connect_suite::connectivity::repair::{repair_after_failures, PriorStructure};
    use sinr_connect_suite::connectivity::selector::MeanSamplingSelector;
    use sinr_connect_suite::connectivity::tvc::{tree_via_capacity, TvcConfig};
    use sinr_connect_suite::geom::Point;

    fn render(
        out: &mut String,
        tree: &InTree,
        schedule: &Schedule,
        power: &PowerAssignment,
        slots: u64,
    ) {
        let _ = writeln!(out, "runtime_slots={slots}");
        for u in 0..tree.len() {
            let _ = writeln!(out, "parent {u} {:?}", tree.parent(u));
        }
        for (l, s) in schedule.iter() {
            let _ = writeln!(out, "agg {}->{} @{}", l.sender, l.receiver, s);
        }
        let mut entries: Vec<_> = power.as_explicit().unwrap().iter().collect();
        entries.sort_by_key(|(l, _)| **l);
        for (l, p) in entries {
            let _ = writeln!(out, "pow {}->{} {:016x}", l.sender, l.receiver, p.to_bits());
        }
    }

    let params = SinrParams::default();
    for (family, inst) in [
        ("uniform", gen::uniform_square(80, 1.5, 41).unwrap()),
        ("clustered", gen::clustered(5, 16, 1.5, 2.0, 41).unwrap()),
    ] {
        let mut sel = MeanSamplingSelector::default();
        let built = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, 17).unwrap();
        let parents: Vec<Option<usize>> = (0..built.tree.len())
            .map(|u| built.tree.parent(u))
            .collect();
        let powers = built.power.as_explicit().unwrap().clone();
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &built.schedule,
        };
        // Internal nodes orphan whole subtrees; the newcomers sit just
        // outside the bounding box, at least distance 1 from everyone.
        let failed: Vec<usize> = (0..inst.len())
            .filter(|&u| u != built.tree.root() && !built.tree.children(u).is_empty())
            .take(3)
            .collect();
        let bbox = inst.bounding_box();
        let newcomers = [
            Point::new(bbox.max().x + 1.5, bbox.max().y + 1.5),
            Point::new(bbox.min().x - 1.5, bbox.min().y - 1.5),
        ];

        let run = |backend: EngineBackend| {
            let cfg = TvcConfig {
                init: InitConfig {
                    backend,
                    ..InitConfig::default()
                },
                ..TvcConfig::default()
            };
            let mut sel = MeanSamplingSelector::default();
            let rep = repair_after_failures(&params, &inst, &prior, &failed, &cfg, &mut sel, 29)
                .unwrap_or_else(|e| panic!("{family}/{backend:?}: repair failed: {e}"));
            let mut out = String::new();
            render(
                &mut out,
                &rep.tree,
                &rep.schedule,
                &rep.power,
                rep.runtime_slots,
            );
            let rep_parents: Vec<Option<usize>> =
                (0..rep.tree.len()).map(|u| rep.tree.parent(u)).collect();
            let rep_powers = rep.power.as_explicit().unwrap().clone();
            let rep_prior = PriorStructure {
                parents: &rep_parents,
                powers: &rep_powers,
                schedule: &rep.schedule,
            };
            let joined = join_nodes(
                &params,
                &rep.instance,
                &rep_prior,
                &newcomers,
                &cfg,
                &mut sel,
                31,
            )
            .unwrap_or_else(|e| panic!("{family}/{backend:?}: join failed: {e}"));
            render(
                &mut out,
                &joined.tree,
                &joined.schedule,
                &joined.power,
                joined.runtime_slots,
            );
            out
        };
        let naive = run(EngineBackend::Naive);
        assert!(
            naive.contains("runtime_slots="),
            "{family}: the runs simulate"
        );
        for backend in [
            EngineBackend::Grid,
            EngineBackend::Parallel(1),
            EngineBackend::Parallel(2),
            EngineBackend::Parallel(4),
        ] {
            let other = run(backend);
            assert!(
                naive == other,
                "{family}: repair/join under {backend:?} diverged from naive\n\
                 --- naive ---\n{naive}\n--- {backend:?} ---\n{other}"
            );
        }
    }
}

/// The fault-injection parity gate: the heartbeat detector's full
/// report — suspects, per-declaration slots, cleared count, relayed
/// root reports — must be **identical** under every engine backend and
/// thread count with the same armed `FaultPlan`. The engine applies
/// faults on the driving thread only, so parity holds by construction;
/// this gate is what keeps it that way.
#[test]
fn fault_detection_is_backend_and_thread_invariant() {
    use sinr_connect_suite::connectivity::selector::MeanSamplingSelector;
    use sinr_connect_suite::connectivity::tvc::{tree_via_capacity, TvcConfig};
    use sinr_connect_suite::connectivity::{detect_failures, DetectConfig, PriorStructure};
    use sinr_connect_suite::sim::{FaultEvent, FaultPlan};

    let params = SinrParams::default();
    let inst = gen::uniform_square(40, 1.5, 41).unwrap();
    let mut sel = MeanSamplingSelector::default();
    let built = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, 41).unwrap();
    let parents: Vec<Option<usize>> = (0..built.tree.len())
        .map(|u| built.tree.parent(u))
        .collect();
    let powers = built.power.as_explicit().unwrap().clone();
    let prior = PriorStructure {
        parents: &parents,
        powers: &powers,
        schedule: &built.schedule,
    };
    // A victim with children (observable crash) plus a noisy listener:
    // the reception-drop rolls exercise the hashed per-(node, slot)
    // fault stream, the part most tempting to implement per-thread.
    let victim = (0..built.tree.len())
        .find(|&u| u != built.tree.root() && !built.tree.children(u).is_empty())
        .expect("tree has an internal non-root node");
    let mut plan = FaultPlan::new(inst.len(), 0xFA);
    plan.push(victim, FaultEvent::CrashStop { at: 5 });
    plan.push(
        (victim + 1) % inst.len(),
        FaultEvent::ReceptionDrop { prob: 0.6, from: 0 },
    );

    let run = |backend: EngineBackend| {
        let cfg = DetectConfig {
            backend,
            ..DetectConfig::default()
        };
        detect_failures(&params, &inst, &prior, &plan, &cfg, 23)
            .unwrap_or_else(|e| panic!("detect ({backend:?}): {e}"))
    };
    let reference = run(EngineBackend::Naive);
    assert_eq!(
        reference.suspects,
        vec![victim],
        "the crashed parent must be the lone suspect"
    );
    for backend in [
        EngineBackend::Grid,
        EngineBackend::Parallel(1),
        EngineBackend::Parallel(2),
        EngineBackend::Parallel(4),
    ] {
        assert_eq!(
            run(backend),
            reference,
            "{backend:?}: detection report diverged from naive"
        );
    }
}

/// The self-healing service loop composes every seeded subsystem —
/// Poisson trace, detector, repair, join, incremental re-pack — so its
/// deterministic fingerprint (everything but wall-clock) is the
/// broadest single parity surface in the workspace: byte-identical
/// across repeated runs and every detector backend, and actually
/// seed-sensitive.
#[test]
fn fault_serve_loop_is_byte_identical_across_backends() {
    use sinr_bench::serve::{serve, ServeConfig};
    use sinr_connect_suite::connectivity::DetectConfig;

    let params = SinrParams::default();
    let inst = gen::uniform_square(96, 1.5, 43).unwrap();
    let run = |backend: EngineBackend, seed: u64| {
        let cfg = ServeConfig {
            events: 6,
            detect: DetectConfig {
                backend,
                ..ServeConfig::default().detect
            },
            ..ServeConfig::default()
        };
        serve(&params, &inst, &cfg, seed)
            .unwrap_or_else(|e| panic!("serve ({backend:?}): {e}"))
            .fingerprint()
    };
    let reference = run(EngineBackend::Grid, 77);
    assert_eq!(
        reference,
        run(EngineBackend::Grid, 77),
        "two serve runs with the same seed diverged"
    );
    for backend in [EngineBackend::Naive, EngineBackend::Parallel(2)] {
        assert_eq!(
            reference,
            run(backend, 77),
            "{backend:?}: serve fingerprint diverged from grid"
        );
    }
    assert_ne!(
        reference,
        run(EngineBackend::Grid, 78),
        "different seeds must change the served trace"
    );
}

/// The distributed re-packer (DESIGN.md §14) behind the same service
/// loop: its probe/ack claim rounds and lazy cascade are simulated
/// protocol, not wall-clock, so the served fingerprint must stay
/// byte-identical across repeated runs and every detector backend and
/// thread count — and still actually respond to the seed.
#[test]
fn distributed_repack_serve_loop_is_byte_identical_across_backends() {
    use sinr_bench::serve::{serve, ServeConfig};
    use sinr_connect_suite::connectivity::{DetectConfig, RepackMode};

    let params = SinrParams::default();
    let inst = gen::uniform_square(96, 1.5, 43).unwrap();
    let run = |backend: EngineBackend, seed: u64| {
        let cfg = ServeConfig {
            events: 6,
            repack: RepackMode::Distributed,
            detect: DetectConfig {
                backend,
                ..ServeConfig::default().detect
            },
            ..ServeConfig::default()
        };
        serve(&params, &inst, &cfg, seed)
            .unwrap_or_else(|e| panic!("serve ({backend:?}): {e}"))
            .fingerprint()
    };
    let reference = run(EngineBackend::Grid, 77);
    assert_eq!(
        reference,
        run(EngineBackend::Grid, 77),
        "two distributed-repack serve runs with the same seed diverged"
    );
    for backend in [
        EngineBackend::Naive,
        EngineBackend::Parallel(1),
        EngineBackend::Parallel(2),
        EngineBackend::Parallel(4),
    ] {
        assert_eq!(
            reference,
            run(backend, 77),
            "{backend:?}: distributed-repack serve fingerprint diverged from grid"
        );
    }
    assert_ne!(
        reference,
        run(EngineBackend::Grid, 78),
        "different seeds must change the distributed-repack trace"
    );
}

/// Different seeds must actually change the outcome (the discipline is
/// "seeded", not "constant").
#[test]
fn different_seeds_differ() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(32, 1.5, 7).unwrap();
    let a = connect(&params, &inst, Strategy::InitOnly, 1).unwrap();
    let b = connect(&params, &inst, Strategy::InitOnly, 2).unwrap();
    assert_ne!(fingerprint(&a), fingerprint(&b));
}
