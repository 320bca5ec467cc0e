//! The `connect` and `experiments` command-line parser, driven without
//! a process: every rejection names its flag, every `connect` command
//! line of the CI workflow parses to its mode, and arbitrary token
//! sequences end in `Ok` or `Err`, never a panic.

use proptest::collection::vec;
use proptest::prelude::*;
use sinr_bench::cli::{self, ConnectArgs, Mode};
use sinr_bench::serve::ServeConfig;
use sinr_bench::EngineBackend;

fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

fn connect(line: &str) -> Result<ConnectArgs, cli::ArgError> {
    cli::connect(words(line))
}

/// `line` is rejected, and the message names every one of `flags`.
fn rejects(line: &str, flags: &[&str]) {
    match connect(line) {
        Ok(args) => panic!("`{line}` parsed to {args:?}"),
        Err(e) => {
            for flag in flags {
                assert!(e.0.contains(flag), "`{line}` → `{e}` does not name {flag}");
            }
        }
    }
}

/// One rejection per rule of the parser that every build reaches.
const REJECTED: &[(&str, &[&str])] = &[
    // Values.
    ("--family torus", &["--family"]),
    ("--n ten", &["--n"]),
    ("--n -1", &["--n"]),
    ("--strategy greedy", &["--strategy"]),
    ("--seed -1", &["--seed"]),
    ("--seed 18446744073709551616", &["--seed"]),
    ("--engine warp", &["--engine"]),
    ("--engine parallel:x", &["--engine"]),
    ("--fade 0", &["--fade"]),
    ("--fade -3", &["--fade"]),
    ("--fade NaN", &["--fade"]),
    ("--fade inf", &["--fade"]),
    ("--fade 1e308", &["--fade"]),
    ("--seeds 0", &["--seeds"]),
    ("--threads 0", &["--threads"]),
    ("--churn-kill many", &["--churn-kill"]),
    ("--repack lazy", &["--repack"]),
    ("--serve --fault-rate -1", &["--fault-rate"]),
    ("--serve --join-rate inf", &["--join-rate"]),
    ("--serve --serve-events 0", &["--serve-events"]),
    ("--snapshot-at soon", &["--snapshot-at"]),
    ("--diff-engine warp", &["--diff-engine"]),
    ("--n", &["--n"]),
    ("--family uniform --export", &["--export"]),
    ("--bogus", &["--bogus"]),
    ("--help", &["usage: connect"]),
    ("-h", &["usage: connect"]),
    // Ceilings on counts that size an instance, a thread pool, one job
    // per seed or one plan per arrival.
    (
        "--n 8 --seeds 18446744073709551615 --strategy init-only",
        &["--seeds"],
    ),
    ("--seeds 1048577", &["--seeds"]),
    ("--n 1048577", &["--n"]),
    ("--n 18446744073709551615", &["--n"]),
    ("--serve --serve-events 1048577", &["--serve-events"]),
    (
        "--serve --serve-events 18446744073709551615",
        &["--serve-events"],
    ),
    ("--threads 1025", &["--threads"]),
    ("--engine parallel:1025", &["--engine"]),
    ("--engine parallel:18446744073709551615", &["--engine"]),
    ("--diff-engine parallel:5000", &["--diff-engine"]),
    // Pairs, sizes and the service loop's flags.
    ("--snapshot s.json", &["--snapshot-at"]),
    ("--snapshot-at 40", &["--snapshot"]),
    ("--n 0", &["--n"]),
    ("--n 8 --churn-kill 8", &["--churn-kill"]),
    ("--fault-rate 2", &["--fault-rate", "--serve"]),
    ("--join-rate 2", &["--join-rate", "--serve"]),
    ("--serve-events 4", &["--serve-events", "--serve"]),
    ("--serve --fault-rate 0 --join-rate 0", &["--serve"]),
    // Modes.
    ("--serve --seeds 3", &["--serve", "--seeds"]),
    ("--serve --churn-kill 2", &["--churn-kill", "--serve"]),
    ("--serve --export out", &["--export", "--serve"]),
    ("--seeds 3 --export out", &["--export", "--seeds"]),
    ("--seeds 3 --churn-kill 2", &["--churn-kill", "--seeds"]),
];

/// Rejections that depend on the build's features: without the feature
/// the flag itself is the error, with it the mode rules apply.
const REJECTED_PROFILE: &[(&str, &[&str])] = &[
    ("--profile --seeds 3", &["--profile"]),
    ("--profile --serve", &["--profile"]),
];

const REJECTED_TRACE: &[(&str, &[&str])] = &[
    ("--trace t.json --seeds 3", &["--trace"]),
    ("--trace t.json --serve", &["--trace"]),
    (
        "--replay-from s.json --diff-engine grid",
        &["--replay-from", "--diff-engine"],
    ),
    (
        "--snapshot s.json --snapshot-at 4 --strategy init-only --replay-from s.json",
        &["--snapshot", "--replay-from"],
    ),
    (
        "--snapshot s.json --snapshot-at 4 --strategy init-only --diff-engine grid",
        &["--snapshot", "--diff-engine"],
    ),
    (
        "--replay-from s.json --seeds 3",
        &["--replay-from", "--seeds"],
    ),
    (
        "--replay-from s.json --serve",
        &["--replay-from", "--serve"],
    ),
    (
        "--diff-engine grid --churn-kill 2",
        &["--churn-kill", "--diff-engine"],
    ),
    (
        "--diff-engine grid --export out",
        &["--export", "--diff-engine"],
    ),
    (
        "--snapshot s.json --snapshot-at 4 --strategy tvc-mean",
        &["--strategy"],
    ),
    ("--snapshot s.json --snapshot-at 4", &["--strategy"]),
];

#[test]
fn every_rejection_names_its_flag() {
    for (line, flags) in REJECTED {
        rejects(line, flags);
    }
    for (rows, on, feature) in [
        (REJECTED_PROFILE, cfg!(feature = "profile"), "profile"),
        (REJECTED_TRACE, cfg!(feature = "trace"), "trace"),
    ] {
        for (line, flags) in rows {
            if on {
                rejects(line, flags);
            } else {
                rejects(line, &[format!("--features {feature}").as_str()]);
            }
        }
    }
    if !cfg!(feature = "profile") {
        rejects("--profile", &["--profile", "--features profile"]);
    }
    if !cfg!(feature = "trace") {
        for flag in ["--trace t", "--replay-from s", "--diff-engine grid"] {
            rejects(flag, &[words(flag)[0], "--features trace"]);
        }
    }
}

#[test]
fn experiments_rejections_name_their_flag() {
    for (line, flag) in [
        ("e1 --seed x", "--seed"),
        ("--engine warp", "--engine"),
        ("--fade 0", "--fade"),
        ("--seeds 0", "--seeds"),
        ("--seeds 18446744073709551615", "--seeds"),
        ("--threads 0", "--threads"),
        ("--threads 1025", "--threads"),
        ("--engine parallel:1025", "--engine"),
        ("--repack lazy", "--repack"),
        ("e1 --json", "--json"),
        ("--bogus", "--bogus"),
        ("--help", "usage: experiments"),
    ] {
        let e = cli::experiments(words(line)).expect_err(line);
        assert!(e.0.contains(flag), "`{line}` → `{e}` does not name {flag}");
    }
}

#[test]
fn experiments_defaults_and_ids() {
    let a = cli::experiments(words(
        "e13 --quick --seeds 4 --threads 2 --repack distributed --json x.json e1",
    ))
    .unwrap();
    assert_eq!(a.ids, ["e13", "e1"]);
    assert!(a.opts.quick && !a.opts.capability);
    assert_eq!(
        (a.opts.seed, a.opts.seeds, a.opts.threads),
        (0xC0FFEE, 4, 2)
    );
    assert_eq!(a.opts.repack, sinr_bench::RepackMode::Distributed);
    assert_eq!(a.json.as_deref(), Some(std::path::Path::new("x.json")));
    let a = cli::experiments(Vec::<String>::new()).unwrap();
    assert!(a.ids.is_empty() && a.json.is_none());
    assert_eq!((a.opts.seeds, a.opts.threads), (0, 0));
    assert!(a.opts.channel.is_geometric());
}

/// Every `connect` command line of the CI workflow, with its mode.
#[test]
fn ci_command_lines_parse_to_their_mode() {
    let single = |churn_kill| Mode::Single {
        churn_kill,
        export: None,
        profile: false,
        trace: None,
    };
    let serve = |events| {
        Mode::Serve(ServeConfig {
            events,
            ..ServeConfig::default()
        })
    };
    for (line, mode) in [
        ("--family uniform --n 64 --strategy init-only --seed 7", single(0)),
        ("--family uniform --n 2048 --strategy init-only --seed 7", single(0)),
        ("--family uniform --n 96 --strategy tvc-arbitrary --seed 7 --churn-kill 4 --repack incremental", single(4)),
        ("--family uniform --n 96 --strategy tvc-arbitrary --seed 7 --churn-kill 4 --repack distributed", single(4)),
        ("--family uniform --n 96 --strategy tvc-arbitrary --seed 7 --churn-kill 4 --repack full", single(4)),
        ("--family uniform --n 96 --strategy tvc-arbitrary --seed 7 --serve --serve-events 6", serve(6)),
        ("--family lattice --n 9 --serve --serve-events 3 --seed 0", serve(3)),
        ("--family uniform --n 128 --strategy tvc-arbitrary --seed 1 --churn-kill 4 --fade 6", single(4)),
        ("--family uniform --n 96 --strategy tvc-arbitrary --seed 7 --serve --serve-events 6 --fade 6", serve(6)),
    ] {
        let args = connect(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert_eq!(args.mode, mode, "`{line}`");
        assert_eq!(args.channel.is_geometric(), !line.contains("--fade"), "`{line}`");
    }
    let args = connect(
        "--family uniform --n 96 --strategy tvc-arbitrary --seed 7 --churn-kill 4 --repack full",
    )
    .unwrap();
    assert_eq!(
        (args.n, args.seed, args.repack),
        (96, 7, sinr_bench::RepackMode::Full)
    );

    let observability = [
        (
            "--family uniform --n 48 --strategy init-only --seed 7 --engine grid --snapshot target/init_slot40.snapshot.json --snapshot-at 40",
            Mode::Snapshot { path: "target/init_slot40.snapshot.json".into(), at: 40 },
        ),
        (
            "--family uniform --n 48 --strategy init-only --seed 7 --engine naive --replay-from target/init_slot40.snapshot.json",
            Mode::Replay { path: "target/init_slot40.snapshot.json".into() },
        ),
        (
            "--family uniform --n 48 --strategy init-only --seed 7 --engine naive --diff-engine grid",
            Mode::Diff { other: EngineBackend::Grid, trace: None },
        ),
        (
            "--family uniform --n 48 --strategy init-only --seed 7 --fade 6 --snapshot target/init_fade_slot40.snapshot.json --snapshot-at 40",
            Mode::Snapshot { path: "target/init_fade_slot40.snapshot.json".into(), at: 40 },
        ),
        (
            "--family uniform --n 48 --strategy init-only --seed 7 --replay-from target/init_fade_slot40.snapshot.json --engine parallel:2",
            Mode::Replay { path: "target/init_fade_slot40.snapshot.json".into() },
        ),
    ];
    for (line, mode) in observability {
        let got = connect(line).map(|args| args.mode);
        if cfg!(feature = "trace") {
            assert_eq!(got, Ok(mode), "`{line}`");
        } else {
            assert!(
                got.is_err_and(|e| e.0.contains("--features trace")),
                "`{line}`"
            );
        }
    }
}

#[test]
fn defaults_and_tolerated_flags() {
    let args = connect("").unwrap();
    assert_eq!(
        (args.n, args.seed, args.strategy.label()),
        (64, 0, "tvc-arbitrary")
    );
    assert_eq!(args.engine, EngineBackend::default());
    // The ceilings admit E12's largest instance and their own values;
    // these parse only, nothing runs at that size.
    for n in [131_072, 1 << 20] {
        assert_eq!(connect(&format!("--n {n}")).unwrap().n, n);
    }
    let Mode::Serve(cfg) = connect("--serve --serve-events 1048576").unwrap().mode else {
        panic!("--serve parses to the service loop")
    };
    assert_eq!(cfg.events, 1 << 20);
    // `--seeds 1` is a single run, and `--threads` only sizes an ensemble.
    assert_eq!(
        connect("--seeds 1 --threads 4 --churn-kill 3")
            .unwrap()
            .mode,
        Mode::Single {
            churn_kill: 3,
            export: None,
            profile: false,
            trace: None,
        }
    );
    assert_eq!(
        connect("--seeds 4 --threads 2").unwrap().mode,
        Mode::Ensemble {
            seeds: 4,
            threads: 2
        }
    );
    let Mode::Serve(cfg) = connect("--serve --fault-rate 0 --engine naive")
        .unwrap()
        .mode
    else {
        panic!("--serve parses to the service loop")
    };
    assert_eq!((cfg.fault_rate, cfg.join_rate, cfg.events), (0.0, 1.0, 16));
    assert_eq!(cfg.detect.backend, EngineBackend::Naive);
    if cfg!(feature = "trace") {
        // The snapshot and replay modes ignore `--trace`; the diff mode
        // writes its log there.
        assert!(connect("--snapshot s --snapshot-at 4 --strategy init-only --trace t").is_ok());
        assert!(connect("--replay-from s --trace t --fade 6 --threads 2").is_ok());
        assert_eq!(
            connect("--diff-engine parallel:2 --trace t").unwrap().mode,
            Mode::Diff {
                other: EngineBackend::Parallel(2),
                trace: Some("t".into()),
            }
        );
    }
}

/// Flags of both binaries, boundary values and junk.
const VOCABULARY: &[&str] = &[
    "--family",
    "--n",
    "--strategy",
    "--seed",
    "--engine",
    "--fade",
    "--seeds",
    "--threads",
    "--churn-kill",
    "--repack",
    "--serve",
    "--fault-rate",
    "--join-rate",
    "--serve-events",
    "--export",
    "--profile",
    "--trace",
    "--snapshot",
    "--snapshot-at",
    "--replay-from",
    "--diff-engine",
    "--quick",
    "--capability",
    "--json",
    "--help",
    "-h",
    "0",
    "1",
    "2",
    "8",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "1048576",
    "1048577",
    "1024",
    "1025",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "0.5",
    "parallel",
    "parallel:0",
    "parallel:2",
    "parallel:1024",
    "parallel:1025",
    "parallel:18446744073709551615",
    "naive",
    "grid",
    "uniform",
    "lattice",
    "init-only",
    "tvc-mean",
    "full",
    "distributed",
    "",
    " ",
    "e1",
    "--",
    "-",
    "--bogus",
    "bogus",
    "é",
];

fn token_lines() -> impl Strategy<Value = Vec<&'static str>> {
    vec(0..VOCABULARY.len(), 0..14)
        .prop_map(|idxs| idxs.into_iter().map(|i| VOCABULARY[i]).collect())
}

fn bounded(engine: EngineBackend) -> bool {
    !matches!(engine, EngineBackend::Parallel(t) if t > 1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary token sequences never panic, and whatever parses keeps
    /// the invariants the binaries rely on.
    #[test]
    fn token_soup_never_panics(line in token_lines()) {
        if let Ok(a) = cli::connect(line.iter().copied()) {
            prop_assert!((1..=1 << 20).contains(&a.n), "{line:?}");
            prop_assert!(bounded(a.engine), "{line:?}");
            match a.mode {
                Mode::Single { churn_kill, .. } => prop_assert!(churn_kill < a.n, "{line:?}"),
                Mode::Ensemble { seeds, threads } => {
                    prop_assert!((2..=1 << 20).contains(&seeds), "{line:?}");
                    prop_assert!(threads <= 1024, "{line:?}");
                }
                Mode::Serve(cfg) => {
                    prop_assert!(cfg.fault_rate + cfg.join_rate > 0.0);
                    prop_assert!((1..=1 << 20).contains(&cfg.events), "{line:?}");
                    prop_assert!(bounded(cfg.detect.backend), "{line:?}");
                }
                Mode::Diff { other, .. } => prop_assert!(bounded(other), "{line:?}"),
                Mode::Snapshot { .. } => prop_assert!(a.strategy.label() == "init-only"),
                Mode::Replay { .. } => {}
            }
        }
        if let Ok(a) = cli::experiments(line.iter().copied()) {
            prop_assert!(a.opts.seeds <= 1 << 20 && a.opts.threads <= 1024, "{line:?}");
            prop_assert!(bounded(a.opts.backend), "{line:?}");
        }
    }
}
