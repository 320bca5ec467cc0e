//! A deterministic slotted-time single-channel radio simulator with
//! SINR-accurate message delivery.
//!
//! The PODC 2012 model (§3): nodes have synchronized clocks and run in
//! slotted time; the only means of communication is the shared wireless
//! channel; a message from `u` is decoded at a non-transmitting `v` iff
//! the SINR constraint (Eqn 1) holds. This crate turns that model into
//! an executable substrate:
//!
//! - [`Protocol`] — per-node state machines choosing an [`Action`] each
//!   slot (transmit with a chosen power, listen, or sleep);
//! - [`Engine`] — advances slots, resolves deliveries via `sinr-phy`,
//!   hands each listener at most one decoded [`Reception`] (guaranteed
//!   unique for `β ≥ 1`): the sender, the payload and the distance;
//! - deterministic per-node RNG streams derived from one seed.
//!
//! # Example
//!
//! ```
//! use sinr_geom::{gen, NodeId};
//! use sinr_phy::SinrParams;
//! use sinr_sim::{Action, Engine, Protocol, SlotOutcome};
//! use rand::rngs::StdRng;
//!
//! // Node 0 shouts once; everyone else listens.
//! struct Shout;
//! impl Protocol for Shout {
//!     type Msg = &'static str;
//!     fn begin_slot(&mut self, node: NodeId, slot: u64, _rng: &mut StdRng)
//!         -> Action<Self::Msg> {
//!         if node == 0 && slot == 0 {
//!             Action::Transmit { power: 1000.0, msg: "hello" }
//!         } else {
//!             Action::Listen
//!         }
//!     }
//!     fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<Self::Msg>,
//!                 _: &mut StdRng) {}
//! }
//!
//! let params = SinrParams::default();
//! let inst = gen::line(3)?;
//! let mut engine = Engine::new(&params, &inst, |_| Shout, 7);
//! let report = engine.step();
//! assert_eq!(report.transmissions, 1);
//! assert!(report.receptions >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
pub mod faults;
pub mod pool;
#[cfg(feature = "profile")]
pub mod profile;
mod protocol;
#[cfg(feature = "serde")]
pub mod snapshot;
#[cfg(feature = "trace")]
pub mod trace;

pub use engine::{Engine, EngineBackend, EngineStats, SlotReport, PARALLEL_MIN_NODES};
pub use faults::{FaultEvent, FaultMix, FaultPlan};
pub use protocol::{Action, Protocol, Reception, SlotOutcome};
