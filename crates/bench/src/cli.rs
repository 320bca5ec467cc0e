//! Command-line parsing for the `connect` and `experiments` binaries.
//!
//! Each binary hands its arguments to one pure function, [`connect`] or
//! [`experiments`], which validates every flag once and returns a
//! checked value or an [`ArgError`] naming the offending flag. The
//! parser does no I/O, reads no environment variable and never exits:
//! the binary prints the error and exits 2. The six flags both binaries
//! take (`--seed`, `--engine`, `--fade`, `--seeds`, `--threads`,
//! `--repack`) share one parse-and-validate.
//!
//! [`ConnectArgs`] carries exactly one [`Mode`], so `connect` rejects a
//! contradictory command line here and its `main` only dispatches. The
//! rules, checked in this order:
//!
//! 1. every value parses and lies in its range (`--n` is at least 1,
//!    and counts that size an instance, a thread pool, one job per seed
//!    or one plan per arrival are capped);
//! 2. `--snapshot` and `--snapshot-at` come together;
//! 3. `--churn-kill` is below `--n`;
//! 4. `--fault-rate`, `--join-rate` and `--serve-events` need
//!    `--serve`, and `--serve` needs a positive total rate;
//! 5. `--profile` needs a build with the `profile` feature, and
//!    `--trace`, `--snapshot`, `--replay-from` and `--diff-engine` one
//!    with the `trace` feature;
//! 6. at most one mode out of `--snapshot`, `--replay-from`,
//!    `--diff-engine`, `--serve` and `--seeds K` with `K > 1`;
//! 7. `--churn-kill`, `--export` and `--profile` run only without a
//!    mode; `--trace` runs without a mode or with `--diff-engine`, whose
//!    log it names, and the snapshot and replay modes ignore it;
//! 8. `--snapshot` needs `--strategy init-only`.

use std::ffi::OsString;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use sinr_connectivity::{DetectConfig, Strategy};

use crate::serve::ServeConfig;
use crate::workloads::Family;
use crate::{ChannelModel, EngineBackend, ExpOptions, RepackMode};

/// Most worker threads one flag may ask for (`--threads T`,
/// `--engine parallel:N`, `--diff-engine parallel:N`).
const MAX_THREADS: usize = 1024;

/// Most seeds one ensemble may run (`--seeds K`): the ensemble driver
/// allocates one job per seed up front.
const MAX_SEEDS: u64 = 1 << 20;

/// Most nodes one instance may have (`--n N`): eight times E12's
/// largest instance (n = 131072). The generators collect every point
/// up front.
const MAX_NODES: usize = 1 << 20;

/// Most arrivals one service loop may serve (`--serve-events E`): the
/// loop queues one plan per arrival up front.
const MAX_SERVE_EVENTS: usize = 1 << 20;

const CONNECT_USAGE: &str = "usage: connect --family uniform|clustered|lattice|exp-chain|\
    two-tier|percolation --n <count> --strategy init-only|mean-reschedule|tvc-mean|\
    tvc-arbitrary --seed <u64> [--engine naive|grid|parallel[:N]] [--fade <sigma_db>] \
    [--seeds <K>] [--threads <T>] [--churn-kill <K>] [--repack full|incremental|distributed] \
    [--serve [--fault-rate <R>] [--join-rate <R>] [--serve-events <E>]] [--export <dir>] \
    [--profile] (needs a build with --features profile) \
    [--trace <path>] [--snapshot <path> --snapshot-at <slot>] \
    [--replay-from <path>] [--diff-engine naive|grid|parallel[:N]] \
    (the last four need a build with --features trace)";

const EXPERIMENTS_USAGE: &str = "usage: experiments [<id>...] [--quick] [--capability] \
    [--seed <u64>] [--engine naive|grid|parallel[:N]] [--fade <sigma_db>] [--seeds <K>] \
    [--threads <T>] [--repack full|incremental|distributed] [--json <path>]";

/// A rejected command line. The message names the offending flag or
/// flags; `--help` comes back as the usage text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

fn fail<T>(msg: impl Into<String>) -> Result<T, ArgError> {
    Err(ArgError(msg.into()))
}

/// The arguments after the program name, each as UTF-8.
fn tokens<T: Into<OsString>>(args: impl IntoIterator<Item = T>) -> Result<Vec<String>, ArgError> {
    args.into_iter()
        .map(|a| Into::<OsString>::into(a).into_string())
        .map(|a| a.map_err(|a| ArgError(format!("argument {a:?} is not valid UTF-8"))))
        .collect()
}

/// The token after `flag`, whatever it is.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, ArgError> {
    it.next()
        .ok_or_else(|| ArgError(format!("missing value for {flag}")))
}

fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, ArgError>
where
    T::Err: fmt::Display,
{
    v.parse().map_err(|e| ArgError(format!("{flag}: {e}")))
}

/// A count in `1..=max`.
fn count<T>(flag: &str, v: &str, max: T) -> Result<T, ArgError>
where
    T: FromStr + PartialOrd + From<u8> + fmt::Display,
    T::Err: fmt::Display,
{
    let k: T = number(flag, v)?;
    if k < T::from(1) || k > max {
        return fail(format!("{flag} must be in 1..={max}, got {k}"));
    }
    Ok(k)
}

/// The member of `all` whose label is `v`.
fn pick<T: Copy>(flag: &str, v: &str, all: &[T], label: fn(&T) -> &str) -> Result<T, ArgError> {
    all.iter().copied().find(|x| label(x) == v).ok_or_else(|| {
        let known: Vec<&str> = all.iter().map(label).collect();
        ArgError(format!(
            "{flag}: unknown value `{v}` (try {})",
            known.join("|")
        ))
    })
}

/// A finite, non-negative event rate.
fn rate(flag: &str, v: &str) -> Result<f64, ArgError> {
    let r: f64 = number(flag, v)?;
    if !(r.is_finite() && r >= 0.0) {
        return fail(format!("{flag} must be finite and non-negative, got {r}"));
    }
    Ok(r)
}

/// An engine backend whose pool stays within [`MAX_THREADS`].
fn backend(flag: &str, v: &str) -> Result<EngineBackend, ArgError> {
    match v.parse().map_err(|e| ArgError(format!("{flag}: {e}")))? {
        EngineBackend::Parallel(t) if t > MAX_THREADS => fail(format!(
            "{flag}: at most {MAX_THREADS} worker threads, got `{v}`"
        )),
        b => Ok(b),
    }
}

/// The six flags both binaries take, each validated once. Defaults that
/// differ between the binaries stay `None` for the caller to fill.
#[derive(Default)]
struct Common {
    seed: Option<u64>,
    engine: EngineBackend,
    fade: Option<f64>,
    seeds: Option<u64>,
    threads: usize,
    repack: RepackMode,
}

impl Common {
    /// Consumes `flag` and its value if it is a shared flag; `Ok(false)`
    /// leaves it to the caller.
    fn parse(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, ArgError> {
        match flag {
            "--seed" => self.seed = Some(number(flag, &value(it, flag)?)?),
            "--engine" => self.engine = backend(flag, &value(it, flag)?)?,
            "--fade" => {
                let s: f64 = number(flag, &value(it, flag)?)?;
                if !(s.is_finite() && s > 0.0) {
                    return fail(format!(
                        "--fade must be a positive shadowing σ in dB, got {s}"
                    ));
                }
                self.fade = Some(s);
            }
            "--seeds" => self.seeds = Some(count(flag, &value(it, flag)?, MAX_SEEDS)?),
            "--threads" => self.threads = count(flag, &value(it, flag)?, MAX_THREADS)?,
            "--repack" => self.repack = number(flag, &value(it, flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The channel `--fade` selects; its fade streams derive from the
    /// run seed, so two seeds see independent shadowing realizations.
    fn channel(&self, seed: u64) -> Result<ChannelModel, ArgError> {
        match self.fade {
            Some(sigma) => {
                ChannelModel::shadowed(seed, sigma).map_err(|e| ArgError(format!("--fade: {e}")))
            }
            None => Ok(ChannelModel::Geometric),
        }
    }
}

/// A checked `connect` command line.
#[derive(Clone, Debug)]
pub struct ConnectArgs {
    /// Instance family (`--family`).
    pub family: Family,
    /// Requested node count (`--n`, at least 1).
    pub n: usize,
    /// The algorithm to run (`--strategy`).
    pub strategy: Strategy,
    /// Instance and algorithm seed (`--seed`).
    pub seed: u64,
    /// Simulation backend (`--engine`).
    pub engine: EngineBackend,
    /// The channel (`--fade`).
    pub channel: ChannelModel,
    /// Re-packer of the churn demo and the service loop (`--repack`).
    pub repack: RepackMode,
    /// What the run does.
    pub mode: Mode,
}

/// The one thing a `connect` run does.
#[derive(Clone, Debug, PartialEq)]
pub enum Mode {
    /// Build, validate and report one instance.
    Single {
        /// Nodes to fail and repair after the build (`--churn-kill`,
        /// 0 = no churn demo; below `n`).
        churn_kill: usize,
        /// Directory for the CSV and SVG export (`--export`).
        export: Option<PathBuf>,
        /// Print the per-phase engine profile (`--profile`).
        profile: bool,
        /// Event-log destination (`--trace`).
        trace: Option<PathBuf>,
    },
    /// Independent trials summarized as `mean ±95% CI` (`--seeds K`,
    /// `K > 1`).
    Ensemble {
        /// Ensemble size.
        seeds: u64,
        /// Worker threads (`--threads`, 0 = one per core).
        threads: usize,
    },
    /// The self-healing service loop (`--serve`), configured by
    /// `--fault-rate`, `--join-rate`, `--serve-events`, `--engine` and
    /// `--repack`.
    Serve(ServeConfig),
    /// Capture the `Init` engine state at a slot (`--snapshot
    /// --snapshot-at`).
    Snapshot {
        /// Snapshot file to write.
        path: PathBuf,
        /// Slot to capture.
        at: u64,
    },
    /// Resume a snapshot file and verify its tail (`--replay-from`).
    Replay {
        /// Snapshot file to read.
        path: PathBuf,
    },
    /// Run under `--engine` and `other` and report the first divergence
    /// (`--diff-engine`).
    Diff {
        /// The backend compared against `--engine`.
        other: EngineBackend,
        /// Where to write the `--engine` run's event log (`--trace`).
        trace: Option<PathBuf>,
    },
}

/// Parses `connect`'s arguments (program name excluded).
///
/// # Errors
///
/// Returns an [`ArgError`] naming the flag that breaks one of the
/// module-level rules, or the usage text for `--help` / `-h`.
pub fn connect<T: Into<OsString>>(
    args: impl IntoIterator<Item = T>,
) -> Result<ConnectArgs, ArgError> {
    let (mut family, mut n, mut strategy) =
        (Family::UniformSquare, 64usize, Strategy::TvcArbitrary);
    let mut common = Common::default();
    let (mut churn_kill, mut serve, mut profile) = (0usize, false, false);
    let (mut fault_rate, mut join_rate, mut serve_events) = (None, None, None);
    let (mut export, mut trace, mut snapshot, mut snapshot_at) = (None, None, None, None);
    let (mut replay, mut diff) = (None, None);

    let mut it = tokens(args)?.into_iter();
    while let Some(flag) = it.next() {
        if common.parse(&flag, &mut it)? {
            continue;
        }
        let flag = flag.as_str();
        match flag {
            "--family" => family = pick(flag, &value(&mut it, flag)?, &Family::ALL, Family::label)?,
            "--n" => n = count(flag, &value(&mut it, flag)?, MAX_NODES)?,
            "--strategy" => {
                strategy = pick(
                    flag,
                    &value(&mut it, flag)?,
                    &Strategy::ALL,
                    Strategy::label,
                )?;
            }
            "--churn-kill" => churn_kill = number(flag, &value(&mut it, flag)?)?,
            "--serve" => serve = true,
            "--fault-rate" => fault_rate = Some(rate(flag, &value(&mut it, flag)?)?),
            "--join-rate" => join_rate = Some(rate(flag, &value(&mut it, flag)?)?),
            "--serve-events" => {
                serve_events = Some(count(flag, &value(&mut it, flag)?, MAX_SERVE_EVENTS)?);
            }
            "--export" => export = Some(PathBuf::from(value(&mut it, flag)?)),
            "--profile" => profile = true,
            "--trace" => trace = Some(PathBuf::from(value(&mut it, flag)?)),
            "--snapshot" => snapshot = Some(PathBuf::from(value(&mut it, flag)?)),
            "--snapshot-at" => snapshot_at = Some(number(flag, &value(&mut it, flag)?)?),
            "--replay-from" => replay = Some(PathBuf::from(value(&mut it, flag)?)),
            "--diff-engine" => diff = Some(backend(flag, &value(&mut it, flag)?)?),
            "--help" | "-h" => return fail(CONNECT_USAGE),
            other => return fail(format!("unknown flag `{other}` (try --help)")),
        }
    }
    let seed = common.seed.unwrap_or(0);
    let channel = common.channel(seed)?;

    if snapshot.is_some() != snapshot_at.is_some() {
        return fail("--snapshot and --snapshot-at go together: both or neither");
    }
    if churn_kill >= n {
        return fail(format!(
            "--churn-kill must leave at least one survivor (asked to kill \
             {churn_kill} of {n} nodes)"
        ));
    }
    if !serve && (fault_rate.is_some() || join_rate.is_some() || serve_events.is_some()) {
        return fail(
            "--fault-rate/--join-rate/--serve-events configure the service loop; \
             add --serve to run it",
        );
    }
    let defaults = ServeConfig::default();
    let fault_rate = fault_rate.unwrap_or(defaults.fault_rate);
    let join_rate = join_rate.unwrap_or(defaults.join_rate);
    if serve && fault_rate + join_rate <= 0.0 {
        return fail("--serve needs a positive --fault-rate or --join-rate");
    }

    if profile && !cfg!(feature = "profile") {
        return fail("--profile needs a build with `--features profile`");
    }
    let observability = [
        ("--trace", trace.is_some()),
        ("--snapshot", snapshot.is_some()),
        ("--replay-from", replay.is_some()),
        ("--diff-engine", diff.is_some()),
    ];
    if let Some((flag, _)) = observability
        .iter()
        .find(|(_, on)| *on && !cfg!(feature = "trace"))
    {
        return fail(format!("{flag} needs a build with `--features trace`"));
    }

    let seeds = common.seeds.unwrap_or(1);
    let modes: Vec<&str> = [
        ("--snapshot", snapshot.is_some()),
        ("--replay-from", replay.is_some()),
        ("--diff-engine", diff.is_some()),
        ("--serve", serve),
        ("--seeds", seeds > 1),
    ]
    .into_iter()
    .filter_map(|(flag, on)| on.then_some(flag))
    .collect();
    if modes.len() > 1 {
        return fail(format!(
            "{} are separate modes; pick one",
            modes.join(" and ")
        ));
    }
    if let Some(mode) = modes.first() {
        let single_only = [
            ("--churn-kill", churn_kill > 0),
            ("--export", export.is_some()),
            ("--profile", profile),
            (
                "--trace",
                trace.is_some() && matches!(*mode, "--serve" | "--seeds"),
            ),
        ];
        if let Some((flag, _)) = single_only.iter().find(|(_, on)| *on) {
            return fail(format!(
                "{flag} runs only on a single instance without a mode; drop it or {mode}"
            ));
        }
    }
    if snapshot.is_some() && strategy != Strategy::InitOnly {
        return fail("--snapshot captures the `Init` engine; use --strategy init-only");
    }

    let mode = if let (Some(path), Some(at)) = (snapshot, snapshot_at) {
        Mode::Snapshot { path, at }
    } else if let Some(path) = replay {
        Mode::Replay { path }
    } else if let Some(other) = diff {
        Mode::Diff { other, trace }
    } else if serve {
        Mode::Serve(ServeConfig {
            fault_rate,
            join_rate,
            events: serve_events.unwrap_or(defaults.events),
            detect: DetectConfig {
                backend: common.engine,
                ..defaults.detect
            },
            repack: common.repack,
            ..defaults
        })
    } else if seeds > 1 {
        Mode::Ensemble {
            seeds,
            threads: common.threads,
        }
    } else {
        Mode::Single {
            churn_kill,
            export,
            profile,
            trace,
        }
    };
    Ok(ConnectArgs {
        family,
        n,
        strategy,
        seed,
        engine: common.engine,
        channel,
        repack: common.repack,
        mode,
    })
}

/// A checked `experiments` command line.
#[derive(Clone, Debug)]
pub struct ExperimentArgs {
    /// The options every experiment runs under.
    pub opts: ExpOptions,
    /// Experiment ids to run, in command-line order (empty = all).
    pub ids: Vec<String>,
    /// Where to write the `--json` document.
    pub json: Option<PathBuf>,
}

/// Parses `experiments`' arguments (program name excluded). A token
/// that is not a flag names an experiment.
///
/// # Errors
///
/// Returns an [`ArgError`] naming the flag whose value is missing or
/// invalid, or the usage text for `--help` / `-h`.
pub fn experiments<T: Into<OsString>>(
    args: impl IntoIterator<Item = T>,
) -> Result<ExperimentArgs, ArgError> {
    let mut opts = ExpOptions::default();
    let mut common = Common::default();
    let (mut ids, mut json) = (Vec::new(), None);
    let mut it = tokens(args)?.into_iter();
    while let Some(flag) = it.next() {
        if common.parse(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--capability" => opts.capability = true,
            "--json" => json = Some(PathBuf::from(value(&mut it, "--json")?)),
            "--help" | "-h" => return fail(EXPERIMENTS_USAGE),
            other if other.starts_with("--") => return fail(format!("unknown flag `{other}`")),
            _ => ids.push(flag),
        }
    }
    opts.seed = common.seed.unwrap_or(opts.seed);
    opts.backend = common.engine;
    opts.seeds = common.seeds.unwrap_or(0);
    opts.threads = common.threads;
    opts.repack = common.repack;
    opts.channel = common.channel(opts.seed)?;
    Ok(ExperimentArgs { opts, ids, json })
}
