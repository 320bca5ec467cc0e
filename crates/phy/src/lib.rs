//! The SINR (physical) interference model.
//!
//! Implements §3 and §5 of Halldórsson & Mitra (PODC 2012):
//!
//! - [`SinrParams`] — the model constants `α` (path loss), `β` (SINR
//!   threshold), `N` (ambient noise) and `ε` (affectance clip);
//! - [`PowerAssignment`] — uniform / mean / linear / general-oblivious /
//!   arbitrary (explicit) power, the assignments of §3;
//! - [`affectance`] — the thresholded affectance `a_w(ℓ)` of §5,
//!   including the noise factor `c(u, v)`, with the exact equivalence
//!   `a_S(ℓ) ≤ 1 ⟺ SINR ≥ β` (tested property);
//! - [`feasibility`] — per-slot feasibility of link sets, including the
//!   half-duplex rule, whole-schedule validation, and the incremental
//!   [`feasibility::SlotAuditor`] used by the packers;
//! - [`channel`] — the [`ChannelModel`] that [`SinrParams`] carries and
//!   every gain multiplies in: the paper's geometric power law (every
//!   fade exactly 1), plus deterministic log-normal [`Shadowing`] whose
//!   truncated per-link fades give the certified field a finite gain
//!   range (DESIGN.md §15);
//! - [`field`] — the spatially-indexed interference field: certified
//!   thresholded queries over a grid-bucketed transmitter set,
//!   bit-identical to the naive all-pairs path (DESIGN.md §7), with
//!   far-field bounds widened by the channel's largest fade;
//! - [`upsilon`] — the oblivious-power cost ratio
//!   `Υ = O(log log Δ + log n)`.
//!
//! # Example
//!
//! ```
//! use sinr_geom::{Instance, Point};
//! use sinr_links::{Link, LinkSet};
//! use sinr_phy::{feasibility, PowerAssignment, SinrParams};
//!
//! let params = SinrParams::default();
//! let inst = Instance::new(vec![
//!     Point::new(0.0, 0.0), Point::new(1.0, 0.0),
//!     Point::new(60.0, 0.0), Point::new(61.0, 0.0),
//! ])?;
//! let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 3)])?;
//! let power = PowerAssignment::uniform(params.min_power_for_length(1.0) * 2.0);
//! let report = feasibility::check(&params, &inst, &links, &power);
//! assert!(report.is_feasible());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affectance;
pub mod channel;
mod error;
pub mod feasibility;
pub mod field;
mod gain;
pub mod packing;
mod params;
mod power;
#[cfg(feature = "serde")]
mod serde_impls;

pub use channel::{ChannelModel, Shadowing};
pub use error::PhyError;
pub use params::SinrParams;
pub use power::PowerAssignment;

/// Convenience result alias for fallible physical-layer operations.
pub type Result<T> = std::result::Result<T, PhyError>;

/// The oblivious-power cost ratio `Υ = log₂ log₂ Δ + log₂ n` (§3):
/// the known bound on the gap between arbitrary power and mean power
/// for feasible-subset sizes.
///
/// Both terms are clamped below at 1 so the ratio is always ≥ 2, which
/// keeps sampling probabilities `1/Θ(Υ)` well-defined for tiny
/// instances.
pub fn upsilon(n: usize, delta: f64) -> f64 {
    let loglog_delta = if delta > 2.0 {
        delta.log2().log2().max(1.0)
    } else {
        1.0
    };
    let log_n = if n > 2 { (n as f64).log2() } else { 1.0 };
    loglog_delta + log_n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsilon_grows_in_both_arguments() {
        assert!(upsilon(1024, 16.0) > upsilon(16, 16.0));
        assert!(upsilon(16, 1e9) > upsilon(16, 16.0));
        assert!(upsilon(1, 1.0) >= 2.0);
    }
}
