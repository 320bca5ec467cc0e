//! Experiment runner: regenerates every quantitative claim of the
//! paper as a set of tables, and writes CSVs next to the text output.
//!
//! ```text
//! cargo run --release -p sinr-bench --bin experiments            # all
//! cargo run --release -p sinr-bench --bin experiments -- e1 e5   # subset
//! cargo run --release -p sinr-bench --bin experiments -- --quick # CI-sized
//! cargo run --release -p sinr-bench --bin experiments -- --engine naive e11
//! cargo run --release -p sinr-bench --bin experiments -- e12 --json BENCH_E12.json
//! cargo run --release -p sinr-bench --bin experiments -- e1 e7 e8 --seeds 16 --threads 4
//! cargo run --release -p sinr-bench --bin experiments -- e13 --quick --seeds 4 --json target/e13.json
//! cargo run --release -p sinr-bench --bin experiments -- e15 --threads 1 --json BENCH_E15.json
//! ```
//!
//! `--seeds K` sets the ensemble size of the multi-seed experiments
//! (E1–E10 report `mean ±95% CI` over K independent instances; E13
//! runs K churn trials per row, E15 K sustained-churn service traces);
//! `--threads T` sizes the ensemble driver's worker pool, which by the
//! determinism contract (DESIGN.md §9) changes wall-clock only — never
//! an output byte. `--capability` appends the n = 65536 single-slot
//! capability rung to the `--quick` ladders of the scale-out
//! experiments (the CI smoke configuration; full runs always sweep
//! the capability sizes). `--repack full|incremental|distributed`
//! picks the re-packer whose locality columns the dynamic experiments
//! report (E13 runs and parity-checks every mode regardless; the flag
//! selects the reported one). `--fade <sigma_db>` puts every
//! experiment's `SinrParams` on the shadowed channel (fade streams
//! seeded from `--seed`); the default geometric channel reproduces the
//! committed snapshots bit for bit. `--json <path>` additionally writes every executed
//! experiment's tables as one machine-readable JSON document — the
//! format behind the committed `BENCH_*.json` trajectory snapshots.

use std::path::PathBuf;

use sinr_bench::experiments::ALL;
use sinr_bench::table::{experiment_entry_json, experiments_doc_json};

fn main() {
    let args = match sinr_bench::cli::experiments(std::env::args_os().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let opts = args.opts;
    let out_dir = PathBuf::from("target/experiments");

    let mut ran = 0;
    let mut json_entries: Vec<String> = Vec::new();
    for exp in ALL {
        if !args.ids.is_empty() && !args.ids.iter().any(|w| w == exp.id) {
            continue;
        }
        ran += 1;
        println!(
            "\n######## {} — {} ########",
            exp.id.to_uppercase(),
            exp.what
        );
        let start = std::time::Instant::now();
        let tables = (exp.run)(&opts);
        for table in &tables {
            print!("\n{}", table.render());
            match table.save_csv(&out_dir) {
                Ok(path) => println!("  [csv] {}", path.display()),
                Err(e) => eprintln!("  [csv] write failed: {e}"),
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        println!("  [time] {seconds:.1}s");
        if args.json.is_some() {
            json_entries.push(experiment_entry_json(exp.id, exp.what, seconds, &tables));
        }
    }

    if ran == 0 {
        // Bail before the JSON write: a typo'd experiment id must not
        // clobber a committed BENCH_*.json snapshot with an empty run.
        eprintln!("no experiment matched; known ids:");
        for exp in ALL {
            eprintln!("  {} — {}", exp.id, exp.what);
        }
        std::process::exit(2);
    }

    if let Some(path) = &args.json {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = experiments_doc_json(
            opts.seed,
            opts.quick,
            opts.backend.label(),
            opts.ensemble_seeds(),
            cores,
            &json_entries,
        );
        match std::fs::write(path, doc) {
            Ok(()) => println!("\n[json] {}", path.display()),
            Err(e) => {
                eprintln!("[json] write failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
