//! The distributed SINR connectivity algorithms of Halldórsson & Mitra,
//! *Distributed Connectivity of Wireless Networks* (PODC 2012).
//!
//! This crate is the paper's primary contribution, built on the
//! workspace substrates (`sinr-geom`, `sinr-links`, `sinr-phy`,
//! `sinr-sim`):
//!
//! | Paper | Module | Result |
//! |-------|--------|--------|
//! | §6 `Init` | [`init`] | bi-tree in `O(log Δ · log n)` slots (Thm 2) |
//! | §7 rescheduling | [`reschedule`], [`contention`] | mean-power schedule, `O(Υ·log³ n)` (Thm 3) |
//! | §8 `TreeViaCapacity` | [`tvc`] | interleaved build-and-select (Thm 12) |
//! | §8.1 mean-power selection | [`selector::MeanSamplingSelector`] | `O(Υ·log n)` slots (Thm 16) |
//! | §8.2 `Distr-Cap` | [`selector::DistrCapSelector`] | `O(log n)` slots (Thm 20/21) |
//! | §8.2.3 power assignment | [`power_control`] | Foschini–Miljanic iteration |
//! | Def. 1 latency | [`latency`] | converge-cast / broadcast / pairwise checks |
//!
//! The one-call entry point is [`connect`] with a [`Strategy`]:
//!
//! ```
//! use sinr_connectivity::{connect, Strategy};
//! use sinr_geom::gen;
//! use sinr_phy::SinrParams;
//!
//! let params = SinrParams::default();
//! let inst = gen::uniform_square(48, 1.5, 7)?;
//! let result = connect(&params, &inst, Strategy::InitOnly, 42)?;
//! assert!(result.schedule_len > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
pub mod cleanup;
pub mod contention;
pub mod detect;
pub mod dist_repack;
mod error;
pub mod init;
pub mod join;
pub mod latency;
pub mod power_control;
pub mod repack;
pub mod repair;
pub mod reschedule;
pub mod selector;
pub mod tvc;

pub use api::{connect, connect_with, ConnectivityResult, Strategy};
pub use detect::{detect_failures, DetectConfig, Detection, DetectionReport};
pub use error::CoreError;
pub use repack::{RepackMode, RepackStats};
pub use repair::PriorStructure;
pub use sinr_phy::{ChannelModel, Shadowing};
pub use sinr_sim::EngineBackend;

/// Convenience result alias for fallible connectivity operations.
pub type Result<T> = std::result::Result<T, CoreError>;
