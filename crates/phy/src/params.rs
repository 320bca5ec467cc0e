//! SINR model parameters.

use crate::{ChannelModel, PhyError, Result};

/// The constants of the SINR model (Eqn 1 of the paper), plus the
/// channel that scales each link's gain.
///
/// A transmission from `u` to `v` succeeds iff
///
/// ```text
/// (P_u / d(u,v)^α) / (N + Σ_w P_w / d(w,v)^α) ≥ β
/// ```
///
/// - `alpha` — path-loss exponent, `α > 2` (the analysis needs the
///   Riemann-zeta style sums to converge);
/// - `beta` — required SINR threshold; we require `β ≥ 1` so at most one
///   message is decodable per receiver per slot (the paper implicitly
///   assumes this for its acknowledgment protocol);
/// - `noise` — ambient noise `N ≥ 0`;
/// - `epsilon` — the clip constant of thresholded affectance (§5),
///   "some arbitrary fixed constant (say 0.1)";
/// - `channel` — the [`ChannelModel`] whose per-pair fade multiplies
///   the power law `d^{-α}`. The default, [`ChannelModel::Geometric`],
///   is the paper's clean model: every fade is exactly `1.0`.
///
/// # Example
///
/// ```
/// use sinr_phy::SinrParams;
///
/// let params = SinrParams::new(3.0, 2.0, 1.0, 0.1)?;
/// assert_eq!(params.alpha(), 3.0);
/// # Ok::<(), sinr_phy::PhyError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
// Serde support lives in `crate::serde_impls` (feature `serde`):
// deserialization re-validates the parameter domains and the channel.
pub struct SinrParams {
    alpha: f64,
    beta: f64,
    noise: f64,
    epsilon: f64,
    channel: ChannelModel,
}

impl SinrParams {
    /// Creates and validates a parameter set on the geometric channel.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] unless `α > 2`, `β ≥ 1`,
    /// `N ≥ 0` and `ε > 0`, all finite.
    pub fn new(alpha: f64, beta: f64, noise: f64, epsilon: f64) -> Result<Self> {
        if !(alpha.is_finite() && alpha > 2.0) {
            return Err(PhyError::InvalidParameter {
                name: "alpha",
                reason: "path-loss exponent must be finite and exceed 2",
            });
        }
        if !(beta.is_finite() && beta >= 1.0) {
            return Err(PhyError::InvalidParameter {
                name: "beta",
                reason: "SINR threshold must be finite and at least 1",
            });
        }
        if !(noise.is_finite() && noise >= 0.0) {
            return Err(PhyError::InvalidParameter {
                name: "noise",
                reason: "ambient noise must be finite and non-negative",
            });
        }
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(PhyError::InvalidParameter {
                name: "epsilon",
                reason: "affectance clip must be finite and positive",
            });
        }
        Ok(SinrParams {
            alpha,
            beta,
            noise,
            epsilon,
            channel: ChannelModel::Geometric,
        })
    }

    /// The same parameters on `channel`.
    #[must_use]
    pub fn with_channel(self, channel: ChannelModel) -> Self {
        SinrParams { channel, ..self }
    }

    /// The channel every gain of this model goes through.
    #[inline]
    pub fn channel(&self) -> ChannelModel {
        self.channel
    }

    /// Path-loss exponent `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// SINR threshold `β`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The SINR a link must reach when a slot is checked, audited or
    /// replayed: `β·(1 − 10⁻¹²)`, so the last rounding fails no link.
    #[inline]
    pub fn delivery_threshold(&self) -> f64 {
        self.beta * (1.0 - 1e-12)
    }

    /// Ambient noise `N`.
    #[inline]
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Affectance clip constant `ε`.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Signal attenuation over distance `d`: `d^{-α}` (∞ at `d = 0`).
    /// A link's gain is this times its [`fade`](ChannelModel::fade).
    #[inline]
    pub fn path_gain(&self, d: f64) -> f64 {
        d.powf(-self.alpha)
    }

    /// The minimum power that keeps the noise factor within the paper's
    /// requirement `c(u, v) ≤ 2β` for a link of length `len`:
    /// `P = 2βN·len^α` (§5/§6: "Setting the power to 2βN·2^{rα}
    /// suffices").
    ///
    /// With zero noise any positive power works; we return `len^α` so
    /// the value stays usable as a uniform-power default.
    ///
    /// The power is divided by the channel's deepest fade, so the
    /// requirement holds for every pair; the geometric channel divides
    /// by exactly `1.0`.
    pub fn min_power_for_length(&self, len: f64) -> f64 {
        let base = len.powf(self.alpha);
        let power = if self.noise == 0.0 {
            base
        } else {
            2.0 * self.beta * self.noise * base
        };
        power / self.channel.fade_bounds().0
    }

    /// The hard noise floor below which a link of length `len` cannot
    /// succeed even alone: `βN·len^α` (exclusive bound) at unit fade. A
    /// faded link's floor is this divided by its fade.
    pub fn noise_floor_power(&self, len: f64) -> f64 {
        self.beta * self.noise * len.powf(self.alpha)
    }
}

impl Default for SinrParams {
    /// The workspace defaults: `α = 3`, `β = 2`, `N = 1`, `ε = 0.1`.
    fn default() -> Self {
        SinrParams {
            alpha: 3.0,
            beta: 2.0,
            noise: 1.0,
            epsilon: 0.1,
            channel: ChannelModel::Geometric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let d = SinrParams::default();
        assert!(SinrParams::new(d.alpha(), d.beta(), d.noise(), d.epsilon()).is_ok());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SinrParams::new(2.0, 2.0, 1.0, 0.1).is_err()); // α ≤ 2
        assert!(SinrParams::new(3.0, 0.5, 1.0, 0.1).is_err()); // β < 1
        assert!(SinrParams::new(3.0, 2.0, -1.0, 0.1).is_err()); // N < 0
        assert!(SinrParams::new(3.0, 2.0, 1.0, 0.0).is_err()); // ε ≤ 0
        assert!(SinrParams::new(f64::NAN, 2.0, 1.0, 0.1).is_err());
    }

    #[test]
    fn min_power_dominates_noise_floor() {
        let p = SinrParams::default();
        for len in [1.0, 2.0, 16.0, 100.0] {
            assert!(p.min_power_for_length(len) > p.noise_floor_power(len));
        }
    }

    #[test]
    fn zero_noise_min_power_positive() {
        let p = SinrParams::new(3.0, 2.0, 0.0, 0.1).unwrap();
        assert!(p.min_power_for_length(4.0) > 0.0);
        assert_eq!(p.noise_floor_power(4.0), 0.0);
    }

    #[test]
    fn channel_defaults_to_geometric_and_swaps_alone() {
        let p = SinrParams::default();
        assert!(p.channel().is_geometric());
        let channel = ChannelModel::shadowed(3, 6.0).unwrap();
        let q = p.with_channel(channel);
        assert_eq!(q.channel(), channel);
        assert_eq!(
            (q.alpha(), q.beta(), q.noise(), q.epsilon()),
            (p.alpha(), p.beta(), p.noise(), p.epsilon())
        );
        assert_eq!(q.with_channel(ChannelModel::Geometric), p);
        assert!(q.min_power_for_length(4.0) > p.min_power_for_length(4.0));
    }

    #[test]
    fn path_gain_decreases() {
        let p = SinrParams::default();
        assert!(p.path_gain(1.0) > p.path_gain(2.0));
        assert_eq!(p.path_gain(1.0), 1.0);
    }
}
