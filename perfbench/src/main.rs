//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <init-8k|tvc-128|pack-4k|churn-256>
//!           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One invocation runs one workload as a closed loop: one caller, the
//! next operation starting when the previous one returns, until
//! `--seconds` have passed (at least two operations, so repetitions on
//! the same inputs can be compared). Inputs come from `--seed` alone.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs one
//! untraced and one traced operation and reports the per-layer metrics.
//! `--smoke` runs the same code paths at small n. Every metric is
//! printed by name with its unit; the last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero if any correctness check failed.

mod reference;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use reference::Reference;
use trace::Tracer;
use workloads::{Pass, PassOutcome, Shape, Workload};

/// Set-ups per invocation, at least, and the time they repeat for;
/// `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
/// Passes per invocation, at least.
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 15;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload `{name}` (expected {})",
                    Workload::ALL.map(Workload::name).join("|")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The median of `xs` (NaN when empty: every pass failed).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 0 {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Tallies of operations and their failures across one invocation.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    first: Option<PassOutcome>,
    /// Per instance, its pipeline's wall-clock in every pass.
    seconds: Vec<Vec<f64>>,
    /// Every reference kernel time taken during the run.
    reference_seconds: Vec<f64>,
}

impl Tally {
    /// Counts one operation's result; a failure or a fingerprint that
    /// disagrees with the first repetition is a failed operation.
    fn record(&mut self, pass: &Pass, result: Result<PassOutcome, String>) {
        self.attempted += pass.attempts();
        match result {
            Err(e) => {
                println!("FAILED: {e}");
                self.failed += 1;
            }
            Ok(out) => {
                self.seconds.resize(out.outcomes.len(), Vec::new());
                for (times, o) in self.seconds.iter_mut().zip(&out.outcomes) {
                    times.push(o.seconds);
                }
                self.reference_seconds.extend(&out.reference_seconds);
                match &self.first {
                    None => self.first = Some(out),
                    Some(first) if first.fingerprint != out.fingerprint => {
                        println!(
                            "FAILED: repetition fingerprint {:016x} != first {:016x}",
                            out.fingerprint, first.fingerprint
                        );
                        self.failed += 1;
                    }
                    Some(_) => {}
                }
            }
        }
    }

    /// One pass's wall-clock: the sum over instances of each instance's
    /// median time, so a pass slowed by a burst of contention on one
    /// instance does not move it.
    fn run_s(&self) -> f64 {
        self.seconds.iter().map(|times| median(times)).sum()
    }

    /// [`run_s`](Self::run_s) in units of the reference kernel's median
    /// time during the same run.
    fn run_ref(&self) -> f64 {
        self.run_s() / median(&self.reference_seconds)
    }

    /// Runs the oracle on the first result (the others match its
    /// fingerprint).
    fn check(&mut self, pass: &Pass, t: &Tracer) {
        let Some(first) = &self.first else {
            return;
        };
        if let Err(e) = pass.check(first, t) {
            println!("FAILED: oracle: {e}");
            self.failed += 1;
        }
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Prints `metrics`, then the JSON result line.
fn print_result(tally: &Tally, metrics: &[Metric]) {
    print_metrics(metrics);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// JSON has no NaN or infinity; an unmeasurable value prints as null.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The end-to-end run: set up several times, then time operations in a
/// closed loop for `seconds`.
fn end_to_end(args: &Args, shape: &Shape) -> Tally {
    let off = Tracer::new(false);
    let mut setup_times: Vec<f64> = Vec::new();
    let pass = loop {
        let t0 = Instant::now();
        let pass = workloads::setup(args.workload, shape, args.seed, &off);
        setup_times.push(t0.elapsed().as_secs_f64());
        if setup_times.len() >= MIN_SETUPS && setup_times.iter().sum::<f64>() >= SETUP_SECONDS {
            break pass;
        }
    };

    let mut tally = Tally::default();
    let mut reference = Reference::new();
    let mut passes = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let loop_start = Instant::now();
    while passes.len() < MIN_PASSES || loop_start.elapsed() < budget {
        let t0 = Instant::now();
        let result = pass.run(&off, Some(&mut reference));
        passes.push(format!("{:.4}", t0.elapsed().as_secs_f64()));
        tally.record(&pass, result);
    }
    tally.check(&pass, &off);
    println!(
        "passes: {} (seconds each: {})",
        passes.len(),
        passes.join(" ")
    );

    let first = tally.first.as_ref();
    println!("fingerprint: {:016x}", first.map_or(0, |f| f.fingerprint));
    // The JSON line carries the metrics every workload shares, with the
    // pass time in reference units, which the host's speed drift does
    // not move; the others are printed where they apply.
    let metrics = [
        metric("setup_s", median(&setup_times), "s"),
        metric("run_ref", tally.run_ref(), "ref"),
        metric(
            "schedule_slots",
            first.map_or(f64::NAN, |f| f.schedule_slots),
            "slots",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut extra = vec![metric("run_s", tally.run_s(), "s")];
    if let Some(rt) = first.and_then(|f| f.runtime_slots) {
        extra.push(metric("runtime_slots", rt, "slots"));
    }
    if let Some(f) = first.filter(|f| !f.recovery_slots.is_empty()) {
        extra.push(metric(
            "recovery_slots_p50",
            median(&f.recovery_slots),
            "slots",
        ));
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    extra.push(metric("failed_frac", failed_frac, "ratio"));
    print_metrics(&extra);
    print_result(&tally, &metrics);
    tally
}

/// The traced run: one untraced and one traced operation on the same
/// inputs, reported per layer.
fn traced(args: &Args, shape: &Shape) -> Tally {
    let t = Tracer::new(true);
    let pass = workloads::setup(args.workload, shape, args.seed, &t);
    let mut tally = Tally::default();

    let t0 = Instant::now();
    let result = pass.run(&Tracer::new(false), None);
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.record(&pass, result);

    let result = t.span("run", || pass.run(&t, None));
    tally.record(&pass, result);
    tally.check(&pass, &t);

    let run_ms = t.busy_ms("run");
    let init_ms = t.busy_ms("core.init");
    let init_slots = t.counter("core.init.slots");
    let offered = t.counter("core.tvc.offered");
    let metrics = vec![
        metric("run.ms", run_ms, "ms"),
        metric("geom.gen.ms", t.busy_ms("geom.gen"), "ms"),
        metric("geom.mst.ms", t.busy_ms("geom.mst"), "ms"),
        metric("phy.packing.ms", t.busy_ms("phy.packing"), "ms"),
        metric("phy.packing.calls", t.calls("phy.packing") as f64, "count"),
        metric(
            "phy.packing.max_slot_links",
            t.counter("phy.packing.max_slot_links"),
            "count",
        ),
        metric(
            "phy.packing.sum_k2",
            t.counter("phy.packing.sum_k2"),
            "count",
        ),
        metric("phy.validate.ms", t.busy_ms("phy.validate"), "ms"),
        metric(
            "phy.validate.calls",
            t.calls("phy.validate") as f64,
            "count",
        ),
        metric("core.init.ms", init_ms, "ms"),
        metric("core.init.slots", init_slots, "slots"),
        metric(
            "core.init.us_per_slot",
            if init_slots > 0.0 {
                init_ms * 1e3 / init_slots
            } else {
                0.0
            },
            "us",
        ),
        metric("core.tvc.ms", t.busy_ms("core.tvc"), "ms"),
        metric("core.tvc.select.ms", t.busy_ms("core.tvc.select"), "ms"),
        metric(
            "core.tvc.iterations",
            t.counter("core.tvc.iterations"),
            "count",
        ),
        metric(
            "core.tvc.init_slots",
            t.counter("core.tvc.init_slots"),
            "slots",
        ),
        metric(
            "core.tvc.selection_slots",
            t.counter("core.tvc.selection_slots"),
            "slots",
        ),
        metric(
            "core.tvc.selected_per_offered",
            if offered > 0.0 {
                t.counter("core.tvc.selected") / offered
            } else {
                0.0
            },
            "ratio",
        ),
        metric("core.detect.ms", t.busy_ms("core.detect"), "ms"),
        metric("core.detect.calls", t.calls("core.detect") as f64, "count"),
        metric("core.detect.slots", t.counter("core.detect.slots"), "slots"),
        metric("core.repair.ms", t.busy_ms("core.repair"), "ms"),
        metric("core.repair.slots", t.counter("core.repair.slots"), "slots"),
        metric("core.join.ms", t.busy_ms("core.join"), "ms"),
        metric("core.join.slots", t.counter("core.join.slots"), "slots"),
        metric(
            "core.repack.repacked_links",
            t.counter("core.repack.repacked_links"),
            "count",
        ),
        metric(
            "core.repack.kept_links",
            t.counter("core.repack.kept_links"),
            "count",
        ),
        metric("core.repack.ms", t.counter("core.repack.ms"), "ms"),
        metric(
            "core.latency.audit.ms",
            t.busy_ms("core.latency.audit"),
            "ms",
        ),
        metric("unattributed.ms", t.self_ms("run"), "ms"),
        metric("trace_overhead.ms", run_ms - untraced_ms, "ms"),
    ];

    println!("spans (name, calls, busy ms):");
    let mut names: Vec<&'static str> = t.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        println!(
            "  {name:<24} {:>6} {:>12.3}",
            t.calls(name),
            t.busy_ms(name)
        );
    }
    print_result(&tally, &metrics);
    tally
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let shape = if args.smoke {
        Shape::smoke(args.workload)
    } else {
        Shape::full(args.workload)
    };
    // Every workload runs on one thread: the parallel engine's wall-clock
    // on a shared 2-vCPU host swung 15–20% from pass to pass.
    println!(
        "workload: {}  n: {}  instances: {}  seed: {}  threads: 1 of {} available  mode: {}{}",
        args.workload.name(),
        shape.nodes,
        shape.instances,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if args.trace { "traced" } else { "end-to-end" },
        if args.smoke { " (smoke)" } else { "" },
    );
    let tally = if args.trace {
        traced(&args, &shape)
    } else {
        end_to_end(&args, &shape)
    };
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
