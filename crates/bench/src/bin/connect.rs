//! `connect` — a small CLI around the library: generate an instance,
//! run a strategy, print the structure, optionally export link/schedule
//! CSVs.
//!
//! ```text
//! cargo run --release -p sinr-bench --bin connect -- \
//!     --family uniform --n 128 --strategy tvc-arbitrary --seed 7 \
//!     [--engine naive|grid|parallel[:N]] [--fade <sigma_db>] \
//!     [--seeds K] [--threads T] \
//!     [--churn-kill K] [--repack full|incremental|distributed] \
//!     [--export target/connect]
//! ```
//!
//! With `--seeds K` (K > 1) the run becomes an ensemble: K independent
//! instances fan out over the multi-seed driver's worker pool
//! (`--threads T`, 0 = auto) and the summary reports `mean ±95% CI`
//! per metric instead of one seed's anecdote. Output bytes are
//! independent of `T` (DESIGN.md §9).
//!
//! With `--churn-kill K` (single-instance runs) the demo additionally
//! fails K random nodes after the build and repairs the structure,
//! printing the re-pack cost accounting — `--repack` selects the
//! incremental re-packer (default), the message-passing distributed
//! one (lazy cascade; the demo then also prints its probe/ack round
//! count and escalations), or the centralized full reference
//! (DESIGN.md §10, §14).
//!
//! With `--serve` the CLI instead runs the self-healing service loop
//! (DESIGN.md §13): a sustained Poisson fault/join trace
//! (`--fault-rate` / `--join-rate` arrivals per 1000 slots,
//! `--serve-events` total) flows through timeout detection → repair →
//! re-pack with an end-to-end delivery audit after every recovery, and
//! the run reports throughput, detection/recovery latency percentiles
//! and the backpressure counters.
//!
//! Built with `--features profile`, `--profile` records the engine's
//! per-phase breakdown of a single run (build / grid / resolve / merge
//! wall laps, the field's decode phases, and the query counters —
//! DESIGN.md §12) and prints it after the run.
//!
//! Built with `--features trace`, four observability modes appear
//! (DESIGN.md §11):
//!
//! - `--trace <path>` records the structured event log of a single run
//!   as JSON;
//! - `--snapshot <path> --snapshot-at <slot>` captures the `Init`
//!   engine state at a slot (strategy `init-only`) into a replayable
//!   snapshot file, which records the SINR parameters and the channel
//!   (`--fade`) with the instance recipe;
//! - `--replay-from <path>` resumes a snapshot file under `--engine`
//!   and verifies the tail fingerprint bit-for-bit against the
//!   original run's; the instance, parameters and channel all come
//!   from the file;
//! - `--diff-engine <backend>` runs `--engine` and the named backend
//!   with tracing on and reports the first divergence (slot, node,
//!   event kind, field, both values) — or certifies there is none.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sinr_bench::ensemble::Ensemble;
use sinr_bench::stats::Stats;
use sinr_bench::table::{f2, Table};
use sinr_bench::workloads::Family;
use sinr_connectivity::repair::{repair_after_failures, PriorStructure};
use sinr_connectivity::selector::MeanSamplingSelector;
use sinr_connectivity::tvc::TvcConfig;
use sinr_connectivity::{connect_with, ChannelModel, EngineBackend, RepackMode, Strategy};
use sinr_phy::{feasibility, SinrParams};

struct Args {
    family: Family,
    n: usize,
    strategy: Strategy,
    seed: u64,
    engine: EngineBackend,
    channel: ChannelModel,
    seeds: u64,
    threads: usize,
    churn_kill: usize,
    repack: RepackMode,
    serve: bool,
    fault_rate: f64,
    join_rate: f64,
    serve_events: usize,
    export: Option<PathBuf>,
    profile: bool,
    trace: Option<PathBuf>,
    snapshot: Option<PathBuf>,
    snapshot_at: Option<u64>,
    replay_from: Option<PathBuf>,
    diff_engine: Option<EngineBackend>,
}

fn parse_args() -> Result<Args, String> {
    let mut family = Family::UniformSquare;
    let mut n = 64usize;
    let mut strategy = Strategy::TvcArbitrary;
    let mut seed = 0u64;
    let mut engine = EngineBackend::default();
    let mut fade: Option<f64> = None;
    let mut seeds = 1u64;
    let mut threads = 0usize;
    let mut churn_kill = 0usize;
    let mut repack = RepackMode::default();
    let mut serve = false;
    let mut fault_rate: Option<f64> = None;
    let mut join_rate: Option<f64> = None;
    let mut serve_events: Option<usize> = None;
    let mut export = None;
    let mut profile = false;
    let mut trace = None;
    let mut snapshot = None;
    let mut snapshot_at = None;
    let mut replay_from = None;
    let mut diff_engine = None;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        let val = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("missing value for {key}"))
        };
        match key {
            "--family" => {
                let v = val(i)?;
                family = Family::from_label(v).ok_or_else(|| {
                    format!(
                        "unknown family `{v}` (try uniform|clustered|lattice|\
                         exp-chain|two-tier|percolation)"
                    )
                })?;
                i += 2;
            }
            "--n" => {
                n = val(i)?.parse().map_err(|e| format!("--n: {e}"))?;
                i += 2;
            }
            "--strategy" => {
                strategy = match val(i)?.as_str() {
                    "init-only" => Strategy::InitOnly,
                    "mean-reschedule" => Strategy::MeanReschedule,
                    "tvc-mean" => Strategy::TvcMean,
                    "tvc-arbitrary" => Strategy::TvcArbitrary,
                    other => return Err(format!("unknown strategy `{other}`")),
                };
                i += 2;
            }
            "--seed" => {
                seed = val(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--engine" => {
                engine = val(i)?.parse()?;
                i += 2;
            }
            "--fade" => {
                let s: f64 = val(i)?.parse().map_err(|e| format!("--fade: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!(
                        "--fade must be a positive shadowing σ in dB, got {s}"
                    ));
                }
                fade = Some(s);
                i += 2;
            }
            "--seeds" => {
                seeds = val(i)?.parse().map_err(|e| format!("--seeds: {e}"))?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
                i += 2;
            }
            "--threads" => {
                threads = val(i)?.parse().map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err(
                        "--threads must be at least 1 (omit the flag to auto-size the pool)".into(),
                    );
                }
                i += 2;
            }
            "--churn-kill" => {
                churn_kill = val(i)?.parse().map_err(|e| format!("--churn-kill: {e}"))?;
                i += 2;
            }
            "--repack" => {
                repack = val(i)?.parse()?;
                i += 2;
            }
            "--serve" => {
                serve = true;
                i += 1;
            }
            "--fault-rate" => {
                let r: f64 = val(i)?.parse().map_err(|e| format!("--fault-rate: {e}"))?;
                if !(r.is_finite() && r >= 0.0) {
                    return Err(format!(
                        "--fault-rate must be finite and non-negative, got {r}"
                    ));
                }
                fault_rate = Some(r);
                i += 2;
            }
            "--join-rate" => {
                let r: f64 = val(i)?.parse().map_err(|e| format!("--join-rate: {e}"))?;
                if !(r.is_finite() && r >= 0.0) {
                    return Err(format!(
                        "--join-rate must be finite and non-negative, got {r}"
                    ));
                }
                join_rate = Some(r);
                i += 2;
            }
            "--serve-events" => {
                let e: usize = val(i)?
                    .parse()
                    .map_err(|e| format!("--serve-events: {e}"))?;
                if e == 0 {
                    return Err("--serve-events must be at least 1".into());
                }
                serve_events = Some(e);
                i += 2;
            }
            "--export" => {
                export = Some(PathBuf::from(val(i)?));
                i += 2;
            }
            "--profile" => {
                profile = true;
                i += 1;
            }
            "--trace" => {
                trace = Some(PathBuf::from(val(i)?));
                i += 2;
            }
            "--snapshot" => {
                snapshot = Some(PathBuf::from(val(i)?));
                i += 2;
            }
            "--snapshot-at" => {
                snapshot_at = Some(val(i)?.parse().map_err(|e| format!("--snapshot-at: {e}"))?);
                i += 2;
            }
            "--replay-from" => {
                replay_from = Some(PathBuf::from(val(i)?));
                i += 2;
            }
            "--diff-engine" => {
                diff_engine = Some(val(i)?.parse()?);
                i += 2;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: connect --family uniform|clustered|lattice|exp-chain|\
                            two-tier|percolation \
                            --n <count> --strategy init-only|mean-reschedule|tvc-mean|\
                            tvc-arbitrary --seed <u64> [--engine naive|grid|parallel[:N]] \
                            [--fade <sigma_db>] \
                            [--seeds <K>] [--threads <T>] [--churn-kill <K>] \
                            [--repack full|incremental|distributed] \
                            [--serve [--fault-rate <R>] [--join-rate <R>] \
                            [--serve-events <E>]] [--export <dir>] \
                            [--profile] (needs a build with --features profile) \
                            [--trace <path>] [--snapshot <path> --snapshot-at <slot>] \
                            [--replay-from <path>] [--diff-engine naive|grid|parallel[:N]] \
                            (the last four need a build with --features trace)"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if snapshot.is_some() != snapshot_at.is_some() {
        return Err("--snapshot and --snapshot-at go together: both or neither".into());
    }
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    if churn_kill > 0 && churn_kill >= n {
        return Err(format!(
            "--churn-kill must leave at least one survivor (asked to kill \
             {churn_kill} of {n} nodes)"
        ));
    }
    if !serve && (fault_rate.is_some() || join_rate.is_some() || serve_events.is_some()) {
        return Err(
            "--fault-rate/--join-rate/--serve-events configure the service loop; \
             add --serve to run it"
                .into(),
        );
    }
    if serve {
        if churn_kill > 0 {
            return Err(
                "--serve runs sustained churn through the detector; it conflicts with \
                 the one-shot --churn-kill demo — pick one"
                    .into(),
            );
        }
        if fault_rate.unwrap_or(5.0) + join_rate.unwrap_or(1.0) <= 0.0 {
            return Err("--serve needs a positive --fault-rate or --join-rate".into());
        }
    }
    let channel = match fade {
        // The fade streams derive from the run seed, so two seeds see
        // independent shadowing realizations (the determinism gate's
        // seed-sensitivity check relies on this).
        Some(sigma) => ChannelModel::shadowed(seed, sigma).map_err(|e| format!("--fade: {e}"))?,
        None => ChannelModel::Geometric,
    };
    Ok(Args {
        family,
        n,
        strategy,
        seed,
        engine,
        channel,
        seeds,
        threads,
        churn_kill,
        repack,
        serve,
        fault_rate: fault_rate.unwrap_or(5.0),
        join_rate: join_rate.unwrap_or(1.0),
        serve_events: serve_events.unwrap_or(16),
        export,
        profile,
        trace,
        snapshot,
        snapshot_at,
        replay_from,
        diff_engine,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let params = SinrParams::default().with_channel(args.channel);

    #[cfg(not(feature = "profile"))]
    if args.profile {
        eprintln!(
            "this `connect` was built without the `profile` feature; \
             rebuild with `--features profile` to use --profile"
        );
        std::process::exit(2);
    }

    #[cfg(not(feature = "trace"))]
    if args.trace.is_some()
        || args.snapshot.is_some()
        || args.snapshot_at.is_some()
        || args.replay_from.is_some()
        || args.diff_engine.is_some()
    {
        eprintln!(
            "this `connect` was built without the `trace` feature; \
             rebuild with `--features trace` to use the observability flags"
        );
        std::process::exit(2);
    }

    #[cfg(feature = "trace")]
    {
        let modes = [
            args.replay_from.is_some(),
            args.diff_engine.is_some(),
            args.snapshot.is_some(),
        ];
        if modes.iter().filter(|&&m| m).count() > 1 {
            eprintln!("--replay-from, --diff-engine and --snapshot are separate modes; pick one");
            std::process::exit(2);
        }
        if modes.iter().any(|&m| m)
            && (args.seeds > 1
                || args.churn_kill > 0
                || args.serve
                || args.export.is_some()
                || args.profile)
        {
            eprintln!(
                "the observability modes run on a single instance; \
                 drop --seeds/--churn-kill/--serve/--export/--profile"
            );
            std::process::exit(2);
        }
        if let Some(path) = &args.replay_from {
            run_replay(&args, path);
            return;
        }
        if let Some(other) = args.diff_engine {
            run_diff(&args, &params, other);
            return;
        }
        if let (Some(path), Some(at)) = (&args.snapshot, args.snapshot_at) {
            run_snapshot(&args, &params, path, at);
            return;
        }
    }

    if args.serve {
        if args.seeds > 1 {
            eprintln!("--serve drives a single instance; drop --seeds to serve");
            std::process::exit(2);
        }
        if args.export.is_some() || args.profile || args.trace.is_some() {
            eprintln!("--serve is a standalone mode; drop --export/--profile/--trace");
            std::process::exit(2);
        }
        run_serve(&args, &params);
        return;
    }

    if args.seeds > 1 {
        if args.export.is_some() {
            eprintln!("--export works on a single instance; drop --seeds to export");
            std::process::exit(2);
        }
        if args.churn_kill > 0 {
            eprintln!(
                "--churn-kill works on a single instance; drop --seeds to run the churn demo"
            );
            std::process::exit(2);
        }
        if args.trace.is_some() {
            eprintln!("--trace records a single instance; drop --seeds to trace");
            std::process::exit(2);
        }
        if args.profile {
            eprintln!("--profile records a single instance; drop --seeds to profile");
            std::process::exit(2);
        }
        run_ensemble(&args, &params);
        return;
    }

    let instance = args.family.instance(args.n, args.seed);
    println!(
        "instance: family={} n={} Δ={:.2} classes={} engine={}",
        args.family.label(),
        instance.len(),
        instance.delta(),
        instance.num_length_classes(),
        args.engine.label()
    );
    if !args.channel.is_geometric() {
        println!("channel:  {}", args.channel.label());
    }

    #[cfg(feature = "trace")]
    if args.trace.is_some() {
        sinr_sim::trace::start(sinr_sim::trace::DEFAULT_CAPACITY);
    }
    #[cfg(feature = "profile")]
    if args.profile {
        sinr_sim::profile::start();
    }

    let result = match connect_with(&params, &instance, args.strategy, args.seed, args.engine) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("connectivity failed: {e}");
            std::process::exit(1);
        }
    };

    #[cfg(feature = "profile")]
    if args.profile {
        use sinr_bench::experiments::e11_scaling::{profile_table, push_profile_rows};
        let report = sinr_sim::profile::stop();
        let mut t = profile_table("profile: per-phase engine breakdown");
        push_profile_rows(&mut t, args.family.label(), args.n, &report);
        print!("{}", t.render());
    }

    #[cfg(feature = "trace")]
    if let Some(path) = &args.trace {
        let log = sinr_sim::trace::stop();
        if let Err(e) = std::fs::write(path, sinr_bench::replay::trace_log_to_json(&log)) {
            eprintln!("trace write failed: {e}");
            std::process::exit(1);
        }
        println!(
            "trace:    {} event(s) ({} dropped) -> {}",
            log.events.len(),
            log.dropped,
            path.display()
        );
    }

    println!("strategy: {}", result.strategy);
    println!("links:    {}", result.tree_links.len());
    println!("schedule: {} slots", result.schedule_len);
    println!("runtime:  {} slots", result.runtime_slots);

    match feasibility::validate_schedule(
        &params,
        &instance,
        &result.aggregation_schedule,
        &result.power,
    ) {
        Ok(()) => println!("validated: every slot SINR-feasible"),
        Err(e) => {
            eprintln!("validation failed: {e}");
            std::process::exit(1);
        }
    }

    if args.churn_kill > 0 {
        run_churn_demo(&args, &params, &instance, &result);
    }

    if let Some(dir) = args.export {
        if let Err(e) = export_csvs(&dir, &instance, &result) {
            eprintln!("export failed: {e}");
            std::process::exit(1);
        }
        let svg = sinr_links::svg::render(
            &instance,
            Some(&result.tree_links),
            Some(&result.aggregation_schedule),
            &sinr_links::svg::SvgOptions::default(),
        );
        if let Err(e) = std::fs::write(dir.join("network.svg"), svg) {
            eprintln!("svg export failed: {e}");
            std::process::exit(1);
        }
        println!(
            "exported: {}/{{nodes,links}}.csv + network.svg",
            dir.display()
        );
    }
}

/// The `--serve` mode: run the self-healing service loop — a Poisson
/// fault/join trace through detect → repair → re-pack with per-recovery
/// audits (DESIGN.md §13) — and print throughput, the latency
/// distribution and the backpressure counters.
fn run_serve(args: &Args, params: &SinrParams) {
    use sinr_bench::serve::{serve, ServeConfig};
    use sinr_bench::stats::Stats;

    let instance = args.family.instance(args.n, args.seed);
    let cfg = ServeConfig {
        fault_rate: args.fault_rate,
        join_rate: args.join_rate,
        events: args.serve_events,
        detect: sinr_connectivity::DetectConfig {
            backend: args.engine,
            ..ServeConfig::default().detect
        },
        repack: args.repack,
        ..ServeConfig::default()
    };
    println!(
        "serve:    family={} n={} engine={} events={} fault-rate={}/1000 \
         join-rate={}/1000 (seed {})",
        args.family.label(),
        args.n,
        args.engine.label(),
        cfg.events,
        cfg.fault_rate,
        cfg.join_rate,
        args.seed,
    );
    let rep = match serve(params, &instance, &cfg, args.seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    };
    let det = Stats::of(&rep.detection_slots);
    let rec = Stats::of(&rep.recovery_slots);
    println!(
        "served:   {} event(s) ({} fault(s), {} join(s)) in {} batch(es) over \
         {:.0} slot(s); {:.1} events/s wall",
        rep.events,
        rep.faults,
        rep.joins,
        rep.batches,
        rep.horizon,
        rep.events_per_sec(),
    );
    println!(
        "detect:   latency p50={} p99={} max={} slot(s) across {} declaration(s)",
        f2(det.p50),
        f2(det.p99),
        f2(det.max),
        rep.detection_slots.len(),
    );
    println!(
        "recover:  latency p50={} p99={} max={} slot(s); queue peak {}, \
         {} early close(s)",
        f2(rec.p50),
        f2(rec.p99),
        f2(rec.max),
        rep.queue_peak,
        rep.cancelled_closes,
    );
    println!(
        "audited:  {} recovery audit(s) clean (bidirectional feasibility + \
         delivery replay); final n = {}",
        rep.audits, rep.final_n,
    );
}

/// The `--churn-kill K` demo: fail K random nodes after the build,
/// repair with the selected re-packer, and print the re-pack cost
/// accounting (the DESIGN.md §10 boundary made visible from the CLI).
fn run_churn_demo(
    args: &Args,
    params: &SinrParams,
    instance: &sinr_geom::Instance,
    result: &sinr_connectivity::ConnectivityResult,
) {
    let Some(powers) = result.power.as_explicit() else {
        eprintln!(
            "--churn-kill needs explicit per-link powers; use a tvc-* strategy \
             (strategy {} assigns powers by formula)",
            result.strategy
        );
        std::process::exit(2);
    };
    if args.churn_kill >= instance.len() {
        eprintln!("--churn-kill must leave at least one survivor");
        std::process::exit(2);
    }
    // Parent array from the aggregation links (sender → parent).
    let mut parents: Vec<Option<usize>> = vec![None; instance.len()];
    for l in result.tree_links.iter() {
        parents[l.sender] = Some(l.receiver);
    }
    let mut ids: Vec<usize> = (0..instance.len()).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(args.seed ^ 0xC4C4_C4C4));
    let failed: Vec<usize> = ids.into_iter().take(args.churn_kill).collect();

    let prior = PriorStructure {
        parents: &parents,
        powers,
        schedule: &result.aggregation_schedule,
    };
    let cfg = TvcConfig {
        repack: args.repack,
        init: sinr_connectivity::init::InitConfig {
            backend: args.engine,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sel = MeanSamplingSelector::default();
    let rep = match repair_after_failures(
        params,
        instance,
        &prior,
        &failed,
        &cfg,
        &mut sel,
        args.seed.wrapping_add(0x5e1f),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("churn repair failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "churn:    killed {} node(s); kept {} links, re-attached {} for {} orphan(s)",
        failed.len(),
        rep.kept_links,
        rep.new_links,
        rep.orphaned_roots
    );
    println!(
        "repack:   mode={} re-placed {}/{} links ({:.1}%), {}/{} slot groupings untouched, \
         {} fresh slot(s), {:.2} ms",
        rep.repack.mode,
        rep.repack.repacked_links,
        rep.repack.total_links,
        100.0 * rep.repack.repacked_fraction(),
        rep.repack.untouched_slots,
        rep.repack.previous_slots,
        rep.repack.fresh_slots,
        rep.repack.pack_seconds * 1e3,
    );
    if rep.repack.mode == RepackMode::Distributed {
        println!(
            "protocol: {} probe/ack slot(s), {} cascade escalation(s)",
            rep.repack.protocol_slots, rep.repack.cascade_escalations,
        );
    }
    match feasibility::validate_schedule(params, &rep.instance, &rep.schedule, &rep.power) {
        Ok(()) => println!(
            "repaired: every slot SINR-feasible ({} slots)",
            rep.schedule.num_slots()
        ),
        Err(e) => {
            eprintln!("repaired schedule validation failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The `--seeds K` path: K independent trials through the ensemble
/// driver, every schedule validated, metrics reported as `mean ±95% CI`
/// with the ensemble extremes.
fn run_ensemble(args: &Args, params: &SinrParams) {
    println!(
        "ensemble: family={} n={} strategy={} engine={} seeds={} (base seed {})",
        args.family.label(),
        args.n,
        args.strategy.label(),
        args.engine.label(),
        args.seeds,
        args.seed,
    );

    let driver = Ensemble::new(args.threads);
    let results = driver.run_trials(args.seed, 0, args.seeds, |inst_seed, algo_seed| {
        let instance = args.family.instance(args.n, inst_seed);
        let result = connect_with(params, &instance, args.strategy, algo_seed, args.engine)
            .unwrap_or_else(|e| panic!("instance seed {inst_seed:#x}: connectivity failed: {e}"));
        feasibility::validate_schedule(
            params,
            &instance,
            &result.aggregation_schedule,
            &result.power,
        )
        .unwrap_or_else(|e| panic!("instance seed {inst_seed:#x}: validation failed: {e}"));
        (
            result.tree_links.len() as f64,
            result.schedule_len as f64,
            result.runtime_slots as f64,
        )
    });

    let mut t = Table::new(
        format!(
            "connect: {} on {} n={}, {}-seed ensemble",
            args.strategy.label(),
            args.family.label(),
            args.n,
            args.seeds
        ),
        "",
        &["metric", "mean ±95% CI", "min", "max"],
    );
    type Pick = fn(&(f64, f64, f64)) -> f64;
    let metrics: [(&str, Pick); 3] = [
        ("links", |r| r.0),
        ("schedule slots", |r| r.1),
        ("runtime slots", |r| r.2),
    ];
    for (name, pick) in metrics {
        let s = Stats::of(&results.iter().map(pick).collect::<Vec<_>>());
        t.push_row(vec![name.into(), s.cell(), f2(s.min), f2(s.max)]);
    }
    print!("{}", t.render());
    println!(
        "validated: every slot SINR-feasible on all {} seeds",
        args.seeds
    );
}

/// The `--snapshot <path> --snapshot-at <slot>` mode: run `Init`
/// (strategy `init-only`), capture the engine state at the requested
/// slot, and write a replayable snapshot file carrying the final-state
/// fingerprint a later `--replay-from` must reproduce.
#[cfg(feature = "trace")]
fn run_snapshot(args: &Args, params: &SinrParams, path: &std::path::Path, at: u64) {
    use sinr_bench::replay::SnapshotFile;
    use sinr_connectivity::init::{run_init_with_snapshot, InitConfig};

    if args.strategy != Strategy::InitOnly {
        eprintln!("--snapshot captures the `Init` engine; use --strategy init-only");
        std::process::exit(2);
    }
    let instance = args.family.instance(args.n, args.seed);
    let cfg = InitConfig {
        backend: args.engine,
        ..Default::default()
    };
    let replay = match run_init_with_snapshot(params, &instance, &cfg, args.seed, at) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("init failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "init:     family={} n={} seed={} engine={}: {} slots, tail fingerprint {:016x}",
        args.family.label(),
        args.n,
        args.seed,
        args.engine.label(),
        replay.outcome.run.slots_used,
        replay.tail_fnv,
    );
    let Some(state) = replay.snapshot else {
        eprintln!(
            "no snapshot: the run was already over at slot {at} \
             (it used {} slots); pick an earlier --snapshot-at",
            replay.outcome.run.slots_used
        );
        std::process::exit(1);
    };
    let file = SnapshotFile {
        family: args.family.label().into(),
        n: args.n,
        seed: args.seed,
        engine: args.engine.label().into(),
        snapshot_slot: at,
        tail_fnv: replay.tail_fnv,
        params: serde::Serialize::to_value(params),
        state,
    };
    if let Err(e) = std::fs::write(path, file.to_json()) {
        eprintln!("snapshot write failed: {e}");
        std::process::exit(1);
    }
    println!("snapshot: slot-{at} engine state -> {}", path.display());
}

/// The `--replay-from <path>` mode: regenerate the instance from the
/// snapshot file's recipe, resume the captured engine state under
/// `--engine`, and verify the resumed run's tail fingerprint
/// bit-for-bit against the original's.
#[cfg(feature = "trace")]
fn run_replay(args: &Args, path: &std::path::Path) {
    use sinr_bench::replay::SnapshotFile;
    use sinr_connectivity::init::{resume_init, InitConfig};

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let file = match SnapshotFile::parse(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let Some(family) = Family::from_label(&file.family) else {
        eprintln!("snapshot names unknown family `{}`", file.family);
        std::process::exit(1);
    };
    let params: SinrParams = match serde::Deserialize::from_value(&file.params) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("snapshot carries bad SINR parameters: {e}");
            std::process::exit(1);
        }
    };
    let instance = family.instance(file.n, file.seed);
    let cfg = InitConfig {
        backend: args.engine,
        ..Default::default()
    };
    println!(
        "replay:   family={} n={} seed={} from slot {} (captured under {}, resuming under {})",
        file.family,
        file.n,
        file.seed,
        file.snapshot_slot,
        file.engine,
        args.engine.label(),
    );
    let (outcome, tail_fnv) = match resume_init(&params, &instance, &cfg, &file.state) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("resume failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "resumed:  {} slots total, tail fingerprint {tail_fnv:016x}",
        outcome.run.slots_used
    );
    if tail_fnv == file.tail_fnv {
        println!("verdict:  tail fingerprint matches the original run bit-for-bit");
    } else {
        eprintln!(
            "verdict:  DIVERGED — original tail {:016x}, replay tail {tail_fnv:016x}",
            file.tail_fnv
        );
        std::process::exit(1);
    }
}

/// The `--diff-engine <backend>` mode: run the same strategy twice with
/// tracing on — once under `--engine`, once under the named backend —
/// and report the first event-stream divergence (slot, node, event
/// kind, field, both values), or certify there is none.
#[cfg(feature = "trace")]
fn run_diff(args: &Args, params: &SinrParams, other: EngineBackend) {
    use sinr_sim::trace;

    let instance = args.family.instance(args.n, args.seed);
    let traced_run = |backend: EngineBackend| -> trace::TraceLog {
        trace::start(trace::DEFAULT_CAPACITY);
        let result = connect_with(params, &instance, args.strategy, args.seed, backend);
        let log = trace::stop();
        if let Err(e) = result {
            eprintln!("connectivity failed under {}: {e}", backend.label());
            std::process::exit(1);
        }
        log
    };
    let left = traced_run(args.engine);
    let right = traced_run(other);
    println!(
        "diff:     {} vs {} ({} on {} n={} seed={}): {} vs {} event(s)",
        args.engine.label(),
        other.label(),
        args.strategy.label(),
        args.family.label(),
        args.n,
        args.seed,
        left.events.len(),
        right.events.len(),
    );
    if let Some(path) = &args.trace {
        if let Err(e) = std::fs::write(path, sinr_bench::replay::trace_log_to_json(&left)) {
            eprintln!("trace write failed: {e}");
            std::process::exit(1);
        }
        println!(
            "trace:    {} engine's log -> {}",
            args.engine.label(),
            path.display()
        );
    }
    match trace::first_divergence(&left, &right) {
        None => println!("verdict:  no divergence — the event streams are identical"),
        Some(d) => {
            eprintln!("verdict:  {d}");
            std::process::exit(1);
        }
    }
}

fn export_csvs(
    dir: &std::path::Path,
    instance: &sinr_geom::Instance,
    result: &sinr_connectivity::ConnectivityResult,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    std::fs::create_dir_all(dir)?;

    let mut nodes = String::from("node,x,y\n");
    for (id, p) in instance.iter() {
        let _ = writeln!(nodes, "{id},{},{}", p.x, p.y);
    }
    std::fs::write(dir.join("nodes.csv"), nodes)?;

    let mut links = String::from("sender,receiver,length,slot\n");
    for l in result.tree_links.iter() {
        let _ = writeln!(
            links,
            "{},{},{},{}",
            l.sender,
            l.receiver,
            l.length(instance),
            result
                .aggregation_schedule
                .slot_of(l)
                .map(|s| s.to_string())
                .unwrap_or_default()
        );
    }
    std::fs::write(dir.join("links.csv"), links)?;
    Ok(())
}
