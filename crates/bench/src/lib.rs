//! Experiment harness regenerating every quantitative claim of the
//! PODC 2012 connectivity paper.
//!
//! The paper is pure theory — its "evaluation" is a set of theorem
//! bounds. Each experiment module measures one of them and prints a
//! table whose *shape* (growth rate, who wins, by what factor) can be
//! compared against the claim; `EXPERIMENTS.md` records the outcomes.
//!
//! | Module | Claim |
//! |--------|-------|
//! | [`experiments::e1_init`] | Thm 2: `Init` uses `O(log Δ · log n)` slots |
//! | [`experiments::e2_degree`] | Thm 7: exponential degree tail, max `O(log n)` |
//! | [`experiments::e3_sparsity`] | Thm 11/13: `O(log n)`- and `O(1)`-sparsity |
//! | [`experiments::e4_reschedule`] | Thm 3: mean-power rescheduling |
//! | [`experiments::e5_tvc_mean`] | Thm 16: `O(Υ·log n)`-slot bi-trees |
//! | [`experiments::e6_tvc_arbitrary`] | Thm 21: `O(log n)`-slot bi-trees |
//! | [`experiments::e7_comparison`] | §4: distributed matches centralized |
//! | [`experiments::e8_latency`] | Def 1: converge-cast/broadcast/pairwise latency |
//! | [`experiments::e9_sparse_capacity`] | Thm 9 / Eqn 5 machinery |
//! | [`experiments::e10_ablations`] | DESIGN.md §5 knob ablations |
//! | [`experiments::e11_scaling`] | DESIGN.md §7: naive vs grid engine scaling |
//! | [`experiments::e12_connect_scaling`] | DESIGN.md §8: end-to-end connect scaling |
//! | [`experiments::e13_churn`] | DESIGN.md §10: incremental vs full re-packing under churn |
//! | [`experiments::e14_kernel_profile`] | DESIGN.md §12: per-phase kernel cost of a grid slot |
//! | [`experiments::e15_serve`] | DESIGN.md §13: self-healing service loop under sustained churn |
//! | [`experiments::e16_families`] | DESIGN.md §15: heterogeneous / percolation / shadowed families |
//!
//! Run everything with `cargo run -p sinr-bench --bin experiments`
//! (add `--quick` for CI-sized sweeps). Both binaries, `experiments`
//! and `connect`, parse their command lines through [`cli`].
//!
//! The theorems hold w.h.p. over the random instance, so every
//! statistical experiment (E1–E10) runs as a multi-seed **ensemble**
//! (`--seeds K --threads T`) through the [`ensemble`] driver and
//! reports `mean ±95% CI` per row via [`stats`] — byte-identically at
//! any thread count (DESIGN.md §9). The engineering experiments
//! (E11–E15) assert parity/partition invariants instead; their
//! wall-clock cells are measured, not derived ([`serve`] is E15's
//! discrete-event driver).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod ensemble;
pub mod experiments;
pub mod json;
#[cfg(feature = "trace")]
pub mod replay;
pub mod serve;
pub mod stats;
pub mod table;
pub mod workloads;

use sinr_connectivity::init::InitConfig;
pub use sinr_connectivity::{ChannelModel, EngineBackend, RepackMode, Shadowing};
use sinr_phy::SinrParams;

/// Shared experiment options.
#[derive(Clone, Copy, Debug)]
pub struct ExpOptions {
    /// Smaller sweeps for CI / smoke runs.
    pub quick: bool,
    /// Base RNG seed; sweeps derive per-run seeds from it.
    pub seed: u64,
    /// Simulation-engine backend for every simulated pipeline
    /// (`--engine naive|grid|parallel[:N]` on the runners; the
    /// backends are bit-identical, so this only changes wall-clock).
    pub backend: EngineBackend,
    /// Ensemble size: independent seeds per table row (`--seeds K`;
    /// `0` = the experiment's default [`trials`](Self::trials) count).
    pub seeds: u64,
    /// Worker threads of the ensemble driver (`--threads T`; `0` = one
    /// per available core). The driver's ordered merge and canonical
    /// statistics make every output byte independent of this value.
    pub threads: usize,
    /// Append the capability rung (n = 65536, single slot) to the
    /// `--quick` ladders of the scale-out experiments (`--capability`).
    /// The CI experiment-smoke job sets this so every merge proves the
    /// engine still *completes* a 65536-node slot, without paying the
    /// full ladder; full (non-quick) runs always include the capability
    /// sizes and ignore the flag.
    pub capability: bool,
    /// Re-packer mode feeding the dynamic experiments' locality
    /// columns and the service loop (`--repack
    /// full|incremental|distributed`). E13 always runs all modes for
    /// its parity asserts; this picks which one the `repacked frac` /
    /// `pack ms` columns report.
    pub repack: RepackMode,
    /// Channel of every experiment's [`SinrParams`] (`--fade
    /// <sigma_db>` on the runners selects a shadowed channel; the
    /// default Geometric channel reproduces the historical outputs bit
    /// for bit).
    pub channel: ChannelModel,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: false,
            seed: 0xC0FFEE,
            backend: EngineBackend::default(),
            seeds: 0,
            threads: 0,
            capability: false,
            repack: RepackMode::Incremental,
            channel: ChannelModel::Geometric,
        }
    }
}

impl ExpOptions {
    /// The instance sizes to sweep. The historical ladder topped out at
    /// 256 when the simulator's per-slot cost was `O(n²)`; with the
    /// grid-indexed engine (experiment E11) larger sweeps are viable,
    /// but the experiment suite keeps the recorded ladder so tables
    /// stay comparable — E11 itself sweeps to 2048.
    pub fn sizes(&self) -> &'static [usize] {
        if self.quick {
            &[32, 64, 128]
        } else {
            &[32, 64, 128, 256]
        }
    }

    /// Number of seeds per configuration.
    pub fn trials(&self) -> u64 {
        if self.quick {
            2
        } else {
            3
        }
    }

    /// Ensemble size of the multi-seed experiments (every statistical
    /// experiment, plus E13's churn trials): the `--seeds` flag,
    /// defaulting to [`trials`](Self::trials).
    pub fn ensemble_seeds(&self) -> u64 {
        if self.seeds == 0 {
            self.trials()
        } else {
            self.seeds
        }
    }

    /// The workspace-default model constants on the selected channel.
    pub fn params(&self) -> SinrParams {
        SinrParams::default().with_channel(self.channel)
    }

    /// An [`InitConfig`] honoring the selected engine backend.
    pub fn init_config(&self) -> InitConfig {
        InitConfig {
            backend: self.backend,
            ..Default::default()
        }
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn options_sizes() {
        assert!(
            ExpOptions {
                quick: true,
                seed: 0,
                ..Default::default()
            }
            .sizes()
            .len()
                < ExpOptions::default().sizes().len()
        );
    }
}
