//! The multi-seed ensemble experiment driver.
//!
//! PRs 2–3 made a *single* instance fast; this module parallelizes the
//! embarrassingly parallel axis the ROADMAP called out: independent
//! `(family, n, seed)` trials of one experiment. It fans jobs out over
//! the persistent scoped worker pool extracted from the simulation
//! engine ([`sinr_sim::pool::with_pool`]) with dynamic self-scheduling
//! — each worker pulls the next job the moment it finishes one, so a
//! slow trial (a large `n`, an unlucky seed) does not serialize the
//! ladder — and merges results back **in job order**, so aggregate
//! output is byte-identical regardless of thread count or scheduling.
//!
//! Two ingredients make that determinism hold end to end (DESIGN.md §9):
//!
//! 1. **Pure seed splitting.** Per-trial RNG streams are derived from
//!    the experiment seed by [`stream_seed`] — a closed-form SplitMix64
//!    mix of `(seed, stream index)`, never a draw from a shared
//!    generator — so a trial's randomness depends only on *which* trial
//!    it is, not on when or where it ran.
//! 2. **Order-canonical aggregation.** The statistics layer
//!    ([`crate::stats::Stats`]) sorts each sample before summing, so
//!    even the non-commutativity of float addition cannot leak
//!    scheduling into reported bits.

use sinr_sim::pool::with_pool;

use crate::ExpOptions;

/// The `i`-th output of a SplitMix64 sequence seeded with `seed` — the
/// workspace's deterministic seed-splitting primitive. A pure function
/// of `(seed, stream)`: no shared state, no draw order, hence no way
/// for thread scheduling to perturb which randomness a trial sees.
///
/// This is the same generator `StdRng::seed_from_u64` uses for seed
/// expansion, reused here for stream derivation (DESIGN.md §9).
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two RNG streams of one ensemble trial: `(instance_seed,
/// algorithm_seed)` for trial `k` of row `row` under `experiment_seed`.
///
/// The split is hierarchical — experiment seed → row stream → trial
/// streams — so adding rows (or seeds) to an experiment never shifts
/// the randomness of existing ones.
pub fn trial_streams(experiment_seed: u64, row: u64, k: u64) -> (u64, u64) {
    let row_seed = stream_seed(experiment_seed, row);
    (
        stream_seed(row_seed, 2 * k),
        stream_seed(row_seed, 2 * k + 1),
    )
}

/// The ensemble driver: a worker-thread count plus the fan-out/merge
/// loop. Build one per experiment run (from
/// [`ExpOptions`] via [`Ensemble::from_opts`]) and push every trial of
/// every table row through [`Ensemble::map`].
#[derive(Clone, Copy, Debug)]
pub struct Ensemble {
    threads: usize,
}

impl Ensemble {
    /// A driver with an explicit worker count (`0` = one per available
    /// core).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        Ensemble { threads }
    }

    /// The driver configured by `--threads` (via [`ExpOptions`]).
    pub fn from_opts(opts: &ExpOptions) -> Self {
        Ensemble::new(opts.threads)
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job through the persistent worker pool and returns
    /// the results **in input order** — the ordered merge that makes
    /// downstream output independent of scheduling. Jobs are
    /// self-scheduled: each worker receives its next job as soon as it
    /// reports a result, so heterogeneous job costs balance across the
    /// pool. A panicking job propagates out with its original payload
    /// after the pool unwinds.
    pub fn map<J, R, F>(&self, jobs: Vec<J>, f: F) -> Vec<R>
    where
        J: Send,
        R: Send,
        F: Fn(J) -> R + Sync,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = self.threads.min(n);
        if threads <= 1 {
            // One worker degenerates to a plain in-order loop; skip the
            // pool so `--threads 1` has zero dispatch overhead.
            return jobs.into_iter().map(f).collect();
        }
        with_pool(
            threads,
            |_| (),
            |_, (), (i, job): (usize, J)| (i, f(job)),
            |pool| {
                let mut results: Vec<Option<R>> = Vec::with_capacity(n);
                results.resize_with(n, || None);
                let mut queue = jobs.into_iter().enumerate();
                let mut in_flight = 0usize;
                for w in 0..threads {
                    // Initial fill: one job per worker (threads ≤ n).
                    let job = queue.next().expect("threads clamped to job count");
                    pool.send(w, job);
                    in_flight += 1;
                }
                while in_flight > 0 {
                    let (w, (i, r)) = pool.recv();
                    results[i] = Some(r);
                    in_flight -= 1;
                    if let Some(job) = queue.next() {
                        pool.send(w, job);
                        in_flight += 1;
                    }
                }
                results
                    .into_iter()
                    .map(|r| r.expect("every job completed"))
                    .collect()
            },
        )
    }

    /// The per-row ensemble scaffolding every ladder experiment shares:
    /// enumerate the `(row, trial)` jobs of `rows` consecutive table
    /// rows, derive each trial's `(instance_seed, algorithm_seed)`
    /// hierarchically via [`trial_streams`], fan everything out in
    /// **one** [`map`](Self::map) dispatch (so the pool persists across
    /// the whole ladder and rows are not barriers), and hand back one
    /// `Vec` of trial results per row, in row and trial order.
    ///
    /// Experiments with a non-standard split keep using [`map`](Self::map)
    /// directly: E7's *paired* ensemble draws every row's streams from
    /// row 0, and E10 doubles the ensemble of one row block.
    pub fn map_rows<R, F>(
        &self,
        experiment_seed: u64,
        rows: usize,
        seeds: u64,
        trial: F,
    ) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, u64, u64) -> R + Sync,
    {
        let jobs: Vec<(u64, u64)> = (0..rows as u64)
            .flat_map(|row| (0..seeds).map(move |k| (row, k)))
            .collect();
        let flat = self.map(jobs, |(row, k)| {
            let (inst_seed, algo_seed) = trial_streams(experiment_seed, row, k);
            trial(row as usize, inst_seed, algo_seed)
        });
        let mut flat = flat.into_iter();
        (0..rows)
            .map(|_| {
                (0..seeds)
                    .map(|_| flat.next().expect("one result per enumerated job"))
                    .collect()
            })
            .collect()
    }

    /// Ensemble sweep of one table row: runs `trial(instance_seed,
    /// algorithm_seed)` for `k = 0..seeds` with the streams of
    /// [`trial_streams`], in parallel, results in trial order.
    ///
    /// Convenience for single-row consumers (the `connect --seeds`
    /// CLI). The experiments instead enumerate `(row, k)` jobs for
    /// *all* their rows and make **one** [`map`](Self::map) call, so
    /// the whole ladder shares the pool — a slow trial in one row
    /// never idles workers at a row boundary.
    pub fn run_trials<R, F>(&self, experiment_seed: u64, row: u64, seeds: u64, trial: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64, u64) -> R + Sync,
    {
        let jobs: Vec<(u64, u64)> = (0..seeds)
            .map(|k| trial_streams(experiment_seed, row, k))
            .collect();
        self.map(jobs, |(inst_seed, algo_seed)| trial(inst_seed, algo_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seed_is_pure_and_spreads() {
        // Pure: same inputs, same output.
        assert_eq!(stream_seed(42, 7), stream_seed(42, 7));
        // Golden pin: the split scheme is part of the determinism
        // contract — changing it re-rolls every committed ensemble
        // number, so it must be loud and deliberate (DESIGN.md §9).
        assert_eq!(stream_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        // Distinct streams and seeds decorrelate.
        let mut outs: Vec<u64> = (0..64).map(|s| stream_seed(0xC0FFEE, s)).collect();
        outs.extend((0..64).map(|s| stream_seed(0xC0FFEF, s)));
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 128, "stream collision");
    }

    #[test]
    fn trial_streams_are_stable_under_growth() {
        // Adding seeds or rows never changes existing streams.
        let a = trial_streams(1, 3, 0);
        assert_eq!(a, trial_streams(1, 3, 0));
        assert_ne!(a, trial_streams(1, 3, 1));
        assert_ne!(a, trial_streams(1, 4, 0));
        assert_ne!(a.0, a.1, "instance and algorithm streams must differ");
    }

    #[test]
    fn map_preserves_input_order_at_every_thread_count() {
        let expect: Vec<u64> = (0..97).map(|x| x * 3 + 1).collect();
        for threads in [1usize, 2, 3, 8] {
            let jobs: Vec<u64> = (0..97).collect();
            let got = Ensemble::new(threads).map(jobs, |x| x * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_fewer_jobs_than_threads() {
        let e = Ensemble::new(8);
        assert_eq!(e.map(Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(e.map(vec![5u64, 6], |x| x + 1), vec![6, 7]);
    }

    #[test]
    fn auto_threads_resolves_to_at_least_one() {
        assert!(Ensemble::new(0).threads() >= 1);
        assert_eq!(Ensemble::new(3).threads(), 3);
    }

    #[test]
    #[should_panic(expected = "trial 2 failed")]
    fn job_panic_propagates() {
        Ensemble::new(2).map((0..8u64).collect(), |x| {
            if x == 2 {
                panic!("trial 2 failed");
            }
            x
        });
    }

    #[test]
    fn run_trials_matches_manual_streams() {
        let e = Ensemble::new(2);
        let got = e.run_trials(99, 5, 4, |a, b| (a, b));
        let expect: Vec<(u64, u64)> = (0..4).map(|k| trial_streams(99, 5, k)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn map_rows_chunks_in_row_and_trial_order() {
        let e = Ensemble::new(3);
        let got = e.map_rows(7, 3, 2, |row, a, b| (row, a, b));
        assert_eq!(got.len(), 3);
        for (row, trials) in got.iter().enumerate() {
            assert_eq!(trials.len(), 2);
            for (k, &(r, a, b)) in trials.iter().enumerate() {
                assert_eq!(r, row);
                assert_eq!((a, b), trial_streams(7, row as u64, k as u64));
            }
        }
        // Degenerate shapes stay well-formed.
        assert_eq!(e.map_rows(7, 0, 4, |_, _, _| ()).len(), 0);
        assert_eq!(e.map_rows(7, 2, 0, |_, _, _| ()), vec![vec![], vec![]]);
    }
}
