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

use std::path::Path;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sinr_bench::cli::{self, ConnectArgs, Mode};
use sinr_bench::ensemble::Ensemble;
use sinr_bench::serve::{serve, ServeConfig};
use sinr_bench::stats::Stats;
use sinr_bench::table::{f2, Table};
use sinr_connectivity::repair::{repair_after_failures, PriorStructure};
use sinr_connectivity::selector::MeanSamplingSelector;
use sinr_connectivity::tvc::TvcConfig;
use sinr_connectivity::{connect_with, RepackMode};
use sinr_phy::{feasibility, SinrParams};

fn main() {
    let args = match cli::connect(std::env::args_os().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let params = SinrParams::default().with_channel(args.channel);
    let outcome = match &args.mode {
        Mode::Single {
            churn_kill,
            export,
            profile,
            trace,
        } => run_single(
            &args,
            &params,
            *churn_kill,
            export.as_deref(),
            *profile,
            trace.as_deref(),
        ),
        Mode::Ensemble { seeds, threads } => run_ensemble(&args, &params, *seeds, *threads),
        Mode::Serve(cfg) => run_serve(&args, &params, cfg),
        #[cfg(feature = "trace")]
        Mode::Snapshot { path, at } => run_snapshot(&args, &params, path, *at),
        #[cfg(feature = "trace")]
        Mode::Replay { path } => run_replay(&args, path),
        #[cfg(feature = "trace")]
        Mode::Diff { other, trace } => run_diff(&args, &params, *other, trace.as_deref()),
        #[cfg(not(feature = "trace"))]
        Mode::Snapshot { .. } | Mode::Replay { .. } | Mode::Diff { .. } => {
            unreachable!("the parser rejects the observability modes without `trace`")
        }
    };
    if let Err(msg) = outcome {
        eprintln!("{msg}");
        std::process::exit(1);
    }
}

/// The plain run: build one instance, validate its schedule, then run
/// the optional churn demo, export, profile and event log.
fn run_single(
    args: &ConnectArgs,
    params: &SinrParams,
    churn_kill: usize,
    export: Option<&Path>,
    profile: bool,
    trace: Option<&Path>,
) -> Result<(), String> {
    let _ = (profile, trace); // read only where their feature is built in
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
    if trace.is_some() {
        sinr_sim::trace::start(sinr_sim::trace::DEFAULT_CAPACITY);
    }
    #[cfg(feature = "profile")]
    if profile {
        sinr_sim::profile::start();
    }

    let result = connect_with(params, &instance, args.strategy, args.seed, args.engine)
        .map_err(|e| format!("connectivity failed: {e}"))?;

    #[cfg(feature = "profile")]
    if profile {
        use sinr_bench::experiments::e11_scaling::{profile_table, push_profile_rows};
        let report = sinr_sim::profile::stop();
        let mut t = profile_table("profile: per-phase engine breakdown");
        push_profile_rows(&mut t, args.family.label(), args.n, &report);
        print!("{}", t.render());
    }

    #[cfg(feature = "trace")]
    if let Some(path) = trace {
        let log = sinr_sim::trace::stop();
        std::fs::write(path, sinr_bench::replay::trace_log_to_json(&log))
            .map_err(|e| format!("trace write failed: {e}"))?;
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

    feasibility::validate_schedule(
        params,
        &instance,
        &result.aggregation_schedule,
        &result.power,
    )
    .map_err(|e| format!("validation failed: {e}"))?;
    println!("validated: every slot SINR-feasible");

    if churn_kill > 0 {
        run_churn_demo(args, params, churn_kill, &instance, &result)?;
    }

    if let Some(dir) = export {
        export_csvs(dir, &instance, &result).map_err(|e| format!("export failed: {e}"))?;
        let svg = sinr_links::svg::render(
            &instance,
            Some(&result.tree_links),
            Some(&result.aggregation_schedule),
            &sinr_links::svg::SvgOptions::default(),
        );
        std::fs::write(dir.join("network.svg"), svg)
            .map_err(|e| format!("svg export failed: {e}"))?;
        println!(
            "exported: {}/{{nodes,links}}.csv + network.svg",
            dir.display()
        );
    }
    Ok(())
}

/// The `--serve` mode: run the self-healing service loop — a Poisson
/// fault/join trace through detect → repair → re-pack with per-recovery
/// audits (DESIGN.md §13) — and print throughput, the latency
/// distribution and the backpressure counters.
fn run_serve(args: &ConnectArgs, params: &SinrParams, cfg: &ServeConfig) -> Result<(), String> {
    let instance = args.family.instance(args.n, args.seed);
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
    let rep = serve(params, &instance, cfg, args.seed).map_err(|e| format!("serve failed: {e}"))?;
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
    Ok(())
}

/// The `--churn-kill K` demo: fail K random nodes after the build,
/// repair with the selected re-packer, and print the re-pack cost
/// accounting (the DESIGN.md §10 boundary made visible from the CLI).
/// Its two checks depend on the built result, so they exit 2 here.
fn run_churn_demo(
    args: &ConnectArgs,
    params: &SinrParams,
    churn_kill: usize,
    instance: &sinr_geom::Instance,
    result: &sinr_connectivity::ConnectivityResult,
) -> Result<(), String> {
    let Some(powers) = result.power.as_explicit() else {
        eprintln!(
            "--churn-kill needs explicit per-link powers; use a tvc-* strategy \
             (strategy {} assigns powers by formula)",
            result.strategy
        );
        std::process::exit(2);
    };
    if churn_kill >= instance.len() {
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
    let failed: Vec<usize> = ids.into_iter().take(churn_kill).collect();

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
    let rep = repair_after_failures(
        params,
        instance,
        &prior,
        &failed,
        &cfg,
        &mut sel,
        args.seed.wrapping_add(0x5e1f),
    )
    .map_err(|e| format!("churn repair failed: {e}"))?;
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
    feasibility::validate_schedule(params, &rep.instance, &rep.schedule, &rep.power)
        .map_err(|e| format!("repaired schedule validation failed: {e}"))?;
    println!(
        "repaired: every slot SINR-feasible ({} slots)",
        rep.schedule.num_slots()
    );
    Ok(())
}

/// The `--seeds K` path: K independent trials through the ensemble
/// driver, every schedule validated, metrics reported as `mean ±95% CI`
/// with the ensemble extremes.
fn run_ensemble(
    args: &ConnectArgs,
    params: &SinrParams,
    seeds: u64,
    threads: usize,
) -> Result<(), String> {
    println!(
        "ensemble: family={} n={} strategy={} engine={} seeds={} (base seed {})",
        args.family.label(),
        args.n,
        args.strategy.label(),
        args.engine.label(),
        seeds,
        args.seed,
    );

    let driver = Ensemble::new(threads);
    let results = driver.run_trials(args.seed, 0, seeds, |inst_seed, algo_seed| {
        let instance = args.family.instance(args.n, inst_seed);
        let result = connect_with(params, &instance, args.strategy, algo_seed, args.engine)
            .map_err(|e| format!("instance seed {inst_seed:#x}: connectivity failed: {e}"))?;
        feasibility::validate_schedule(
            params,
            &instance,
            &result.aggregation_schedule,
            &result.power,
        )
        .map_err(|e| format!("instance seed {inst_seed:#x}: validation failed: {e}"))?;
        Ok((
            result.tree_links.len() as f64,
            result.schedule_len as f64,
            result.runtime_slots as f64,
        ))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, String>>()?;

    let mut t = Table::new(
        format!(
            "connect: {} on {} n={}, {}-seed ensemble",
            args.strategy.label(),
            args.family.label(),
            args.n,
            seeds
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
    println!("validated: every slot SINR-feasible on all {seeds} seeds");
    Ok(())
}

/// The `--snapshot <path> --snapshot-at <slot>` mode: run `Init`
/// (strategy `init-only`), capture the engine state at the requested
/// slot, and write a replayable snapshot file carrying the final-state
/// fingerprint a later `--replay-from` must reproduce.
#[cfg(feature = "trace")]
fn run_snapshot(
    args: &ConnectArgs,
    params: &SinrParams,
    path: &Path,
    at: u64,
) -> Result<(), String> {
    use sinr_bench::replay::SnapshotFile;
    use sinr_connectivity::init::{run_init_with_snapshot, InitConfig};

    let instance = args.family.instance(args.n, args.seed);
    let cfg = InitConfig {
        backend: args.engine,
        ..Default::default()
    };
    let replay = run_init_with_snapshot(params, &instance, &cfg, args.seed, at)
        .map_err(|e| format!("init failed: {e}"))?;
    println!(
        "init:     family={} n={} seed={} engine={}: {} slots, tail fingerprint {:016x}",
        args.family.label(),
        args.n,
        args.seed,
        args.engine.label(),
        replay.outcome.run.slots_used,
        replay.tail_fnv,
    );
    let state = replay.snapshot.ok_or_else(|| {
        format!(
            "no snapshot: the run was already over at slot {at} \
             (it used {} slots); pick an earlier --snapshot-at",
            replay.outcome.run.slots_used
        )
    })?;
    let file = SnapshotFile {
        family: args.family,
        n: args.n,
        seed: args.seed,
        engine: args.engine.label().into(),
        snapshot_slot: at,
        tail_fnv: replay.tail_fnv,
        params: serde::Serialize::to_value(params),
        state,
    };
    std::fs::write(path, file.to_json()).map_err(|e| format!("snapshot write failed: {e}"))?;
    println!("snapshot: slot-{at} engine state -> {}", path.display());
    Ok(())
}

/// The `--replay-from <path>` mode: regenerate the instance from the
/// snapshot file's recipe, resume the captured engine state under
/// `--engine`, and verify the resumed run's tail fingerprint
/// bit-for-bit against the original's.
#[cfg(feature = "trace")]
fn run_replay(args: &ConnectArgs, path: &Path) -> Result<(), String> {
    use sinr_bench::replay::SnapshotFile;
    use sinr_connectivity::init::{resume_init, InitConfig};

    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let file = SnapshotFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let params: SinrParams = serde::Deserialize::from_value(&file.params)
        .map_err(|e| format!("snapshot carries bad SINR parameters: {e}"))?;
    let instance = file.family.instance(file.n, file.seed);
    let cfg = InitConfig {
        backend: args.engine,
        ..Default::default()
    };
    println!(
        "replay:   family={} n={} seed={} from slot {} (captured under {}, resuming under {})",
        file.family.label(),
        file.n,
        file.seed,
        file.snapshot_slot,
        file.engine,
        args.engine.label(),
    );
    let (outcome, tail_fnv) = resume_init(&params, &instance, &cfg, &file.state)
        .map_err(|e| format!("resume failed: {e}"))?;
    println!(
        "resumed:  {} slots total, tail fingerprint {tail_fnv:016x}",
        outcome.run.slots_used
    );
    if tail_fnv != file.tail_fnv {
        return Err(format!(
            "verdict:  DIVERGED — original tail {:016x}, replay tail {tail_fnv:016x}",
            file.tail_fnv
        ));
    }
    println!("verdict:  tail fingerprint matches the original run bit-for-bit");
    Ok(())
}

/// The `--diff-engine <backend>` mode: run the same strategy twice with
/// tracing on — once under `--engine`, once under the named backend —
/// and report the first event-stream divergence (slot, node, event
/// kind, field, both values), or certify there is none.
#[cfg(feature = "trace")]
fn run_diff(
    args: &ConnectArgs,
    params: &SinrParams,
    other: sinr_connectivity::EngineBackend,
    trace_path: Option<&Path>,
) -> Result<(), String> {
    use sinr_connectivity::EngineBackend;
    use sinr_sim::trace;

    let instance = args.family.instance(args.n, args.seed);
    let traced_run = |backend: EngineBackend| -> Result<trace::TraceLog, String> {
        trace::start(trace::DEFAULT_CAPACITY);
        let result = connect_with(params, &instance, args.strategy, args.seed, backend);
        let log = trace::stop();
        result.map_err(|e| format!("connectivity failed under {}: {e}", backend.label()))?;
        Ok(log)
    };
    let left = traced_run(args.engine)?;
    let right = traced_run(other)?;
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
    if let Some(path) = trace_path {
        std::fs::write(path, sinr_bench::replay::trace_log_to_json(&left))
            .map_err(|e| format!("trace write failed: {e}"))?;
        println!(
            "trace:    {} engine's log -> {}",
            args.engine.label(),
            path.display()
        );
    }
    match trace::first_divergence(&left, &right) {
        None => println!("verdict:  no divergence — the event streams are identical"),
        Some(d) => return Err(format!("verdict:  {d}")),
    }
    Ok(())
}

fn export_csvs(
    dir: &Path,
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
