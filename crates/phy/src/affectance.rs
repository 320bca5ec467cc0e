//! Thresholded affectance (§5 of the paper).
//!
//! The affectance of a sender `w` on a link `ℓ = (u, v)` under power
//! assignment `P` is
//!
//! ```text
//! a_w(ℓ) = min{ 1 + ε,  c(u,v) · (P_w / P_u) · (d(u,v) / d(w,v))^α }
//! c(u,v) = β / (1 − βN·d(u,v)^α / P_u)
//! ```
//!
//! and a link succeeds exactly when the total affectance of the other
//! transmitters is at most 1: `a_S(ℓ) ≤ 1 ⟺ SINR(ℓ) ≥ β` (when no
//! individual term is clipped). The affectance of a link's own sender on
//! the link is 0 by convention.
//!
//! Every gain is `path_gain(d) · fade` under the channel the parameters
//! carry; with unit fades the expressions below reduce bit for bit to
//! the paper's geometric forms.
//!
//! [`AffectanceCalc`] bundles the parameters and instance so call sites
//! stay readable; the *noiseless* variants replace `c(u,v)` by `β`,
//! which is the distance-only form used by the amenability function
//! `f_ℓ(ℓ')` of \[11\]/\[14\] (Appendix B).

use sinr_geom::{Instance, NodeId};
use sinr_links::{Link, LinkSet};

use crate::{PhyError, Result, SinrParams};

/// Affectance and SINR computations over one instance.
///
/// # Example
///
/// ```
/// use sinr_geom::{Instance, Point};
/// use sinr_links::Link;
/// use sinr_phy::{affectance::AffectanceCalc, SinrParams};
///
/// let params = SinrParams::default();
/// let inst = Instance::new(vec![
///     Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(10.0, 0.0),
/// ])?;
/// let calc = AffectanceCalc::new(&params, &inst);
/// let link = Link::new(0, 1);
/// let p = params.min_power_for_length(1.0);
/// // A far-away interferer with the same power barely affects the link.
/// let a = calc.of_sender(2, p, link, p)?;
/// assert!(a < 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AffectanceCalc<'a> {
    params: &'a SinrParams,
    instance: &'a Instance,
}

impl<'a> AffectanceCalc<'a> {
    /// Creates a calculator for `instance` under `params` (and the
    /// channel they carry).
    pub fn new(params: &'a SinrParams, instance: &'a Instance) -> Self {
        AffectanceCalc { params, instance }
    }

    /// The channel fade between nodes `u` and `v`.
    #[inline]
    fn fade(&self, u: NodeId, v: NodeId) -> f64 {
        self.params
            .channel()
            .fade(self.instance.position(u), self.instance.position(v))
    }

    /// The noise factor `c(u, v) = β / (1 − βN / (P_u·g(u,v)))`, which
    /// under the geometric channel is the paper's
    /// `β / (1 − βN·d^α / P_u)`.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::PowerBelowNoiseFloor`] if `P_u·g ≤ βN`
    /// (the link cannot succeed even without interference).
    pub fn noise_factor(&self, link: Link, link_power: f64) -> Result<f64> {
        let d = link.length(self.instance);
        let floor = self.params.noise_floor_power(d) / self.fade(link.sender, link.receiver);
        if link_power <= floor {
            return Err(PhyError::PowerBelowNoiseFloor {
                link,
                power: link_power,
                required: floor,
            });
        }
        Ok(self.params.beta() / (1.0 - floor / link_power))
    }

    /// Thresholded affectance of sender `w` (transmitting with power
    /// `w_power`) on `link` (whose sender uses `link_power`).
    ///
    /// Zero if `w` is the link's own sender; clipped at `1 + ε`.
    ///
    /// # Errors
    ///
    /// Propagates [`PhyError::PowerBelowNoiseFloor`] from the noise
    /// factor.
    pub fn of_sender(&self, w: NodeId, w_power: f64, link: Link, link_power: f64) -> Result<f64> {
        if w == link.sender {
            return Ok(0.0);
        }
        let c = self.noise_factor(link, link_power)?;
        Ok(self.thresholded_term(c, w, w_power, link, link_power))
    }

    /// Noiseless affectance (`c` replaced by `β`): the distance-only
    /// form used in the amenability function of Appendix B.
    pub fn of_sender_noiseless(&self, w: NodeId, w_power: f64, link: Link, link_power: f64) -> f64 {
        if w == link.sender {
            return 0.0;
        }
        self.thresholded_term(self.params.beta(), w, w_power, link, link_power)
    }

    pub(crate) fn thresholded_term(
        &self,
        c: f64,
        w: NodeId,
        w_power: f64,
        link: Link,
        link_power: f64,
    ) -> f64 {
        let d_uv = link.length(self.instance);
        let d_wv = self.instance.distance(w, link.receiver);
        let clip = 1.0 + self.params.epsilon();
        if d_wv == 0.0 {
            // Interferer co-located with the receiver: unbounded term.
            return clip;
        }
        // The distance ratio picks up the fade ratio `f(w,v) / f(u,v)`
        // of the interfering and signal paths.
        let raw = c
            * ((w_power * self.fade(w, link.receiver))
                / (link_power * self.fade(link.sender, link.receiver)))
            * (d_uv / d_wv).powf(self.params.alpha());
        raw.min(clip)
    }

    /// Total affectance `a_S(ℓ)` of a set of transmitting senders on a
    /// link. `senders` carries `(node, power)` pairs; the link's own
    /// sender contributes 0.
    ///
    /// # Errors
    ///
    /// Propagates [`PhyError::PowerBelowNoiseFloor`].
    pub fn sum_on(&self, senders: &[(NodeId, f64)], link: Link, link_power: f64) -> Result<f64> {
        let c = self.noise_factor(link, link_power)?;
        // Loop-invariant form of `thresholded_term`: `d_uv`, the clip
        // bound and `α` depend only on the link, and each term below is
        // the identical FP operation sequence on the identical values —
        // so the sum is bit-for-bit the per-term-recompute one.
        let d_uv = link.length(self.instance);
        let clip = 1.0 + self.params.epsilon();
        let alpha = self.params.alpha();
        let denom = link_power * self.fade(link.sender, link.receiver);
        let mut total = 0.0;
        for &(w, pw) in senders {
            if w == link.sender {
                continue;
            }
            let d_wv = self.instance.distance(w, link.receiver);
            total += if d_wv == 0.0 {
                // Interferer co-located with the receiver: unbounded.
                clip
            } else {
                (c * ((pw * self.fade(w, link.receiver)) / denom) * (d_uv / d_wv).powf(alpha))
                    .min(clip)
            };
        }
        Ok(total)
    }

    /// The power `P·g(d)·fade` that `link`'s receiver picks up from its
    /// sender transmitting with `power`.
    ///
    /// One expression serves both roles of a received power: it is a
    /// link's SINR numerator, and the same sender's interference term at
    /// that receiver when another link is decoded there.
    /// [`sinr`](Self::sinr) builds both from it, so a cached signal can
    /// stand in for either, bit for bit.
    #[inline]
    pub fn signal(&self, link: Link, power: f64) -> f64 {
        power
            * self.params.path_gain(link.length(self.instance))
            * self.fade(link.sender, link.receiver)
    }

    /// Raw SINR of `link` when its sender transmits with `link_power`
    /// and `interferers` (excluding the sender) transmit simultaneously.
    ///
    /// Does not know about half-duplex: callers (the simulator and the
    /// feasibility checker) must handle a transmitting receiver.
    pub fn sinr(&self, link: Link, link_power: f64, interferers: &[(NodeId, f64)]) -> f64 {
        let signal = self.signal(link, link_power);
        let mut interference = 0.0;
        for &(w, pw) in interferers {
            if w == link.sender {
                continue;
            }
            if self.instance.distance(w, link.receiver) == 0.0 {
                return 0.0;
            }
            interference += self.signal(Link::new(w, link.receiver), pw);
        }
        signal / (self.params.noise() + interference)
    }

    /// The amenability term of Appendix B / \[14\]:
    ///
    /// ```text
    /// f_ℓ(ℓ') = a^U_{ℓ'}(ℓ) + a^L_ℓ(ℓ')   if len(ℓ) ≤ len(ℓ'), else 0
    /// ```
    ///
    /// computed with noiseless affectance under unit-scale uniform (`U`)
    /// and linear (`L`) power. Feasible sets satisfy `f_ℓ(R) = O(1)`
    /// (Eqn 5), which experiment E9 measures.
    pub fn amenability_f(&self, ell: Link, ell_prime: Link) -> f64 {
        let len = ell.length(self.instance);
        let len_p = ell_prime.length(self.instance);
        if len > len_p || ell == ell_prime {
            return 0.0;
        }
        let alpha = self.params.alpha();
        // a^U_{ℓ'}(ℓ): uniform power (both 1).
        let term_u = self.of_sender_noiseless(ell_prime.sender, 1.0, ell, 1.0);
        // a^L_ℓ(ℓ'): linear power (P = len^α).
        let term_l =
            self.of_sender_noiseless(ell.sender, len.powf(alpha), ell_prime, len_p.powf(alpha));
        term_u + term_l
    }

    /// Sum `f_ℓ(X)` over a set.
    pub fn amenability_f_on_set(&self, ell: Link, set: &LinkSet) -> f64 {
        set.iter().map(|m| self.amenability_f(ell, m)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::Point;

    fn setup() -> (SinrParams, Instance) {
        let params = SinrParams::default();
        let inst = Instance::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(11.0, 0.0),
        ])
        .unwrap();
        (params, inst)
    }

    #[test]
    fn noise_factor_bounds() {
        let (params, inst) = setup();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        // Minimum-margin power gives exactly c = 2β.
        let p = params.min_power_for_length(1.0);
        let c = calc.noise_factor(link, p).unwrap();
        assert!((c - 2.0 * params.beta()).abs() < 1e-9);
        // Huge power sends c toward β.
        let c_big = calc.noise_factor(link, 1e12).unwrap();
        assert!((c_big - params.beta()).abs() < 1e-6);
        // At or below the floor: error.
        let floor = params.noise_floor_power(1.0);
        assert!(calc.noise_factor(link, floor).is_err());
    }

    #[test]
    fn own_sender_has_zero_affectance() {
        let (params, inst) = setup();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        let p = params.min_power_for_length(1.0);
        assert_eq!(calc.of_sender(0, p, link, p).unwrap(), 0.0);
    }

    #[test]
    fn affectance_clips_at_one_plus_epsilon() {
        let (params, inst) = setup();
        let calc = AffectanceCalc::new(&params, &inst);
        // Node 2 → 3 disturbed by co-located-ish node at distance 1 with
        // massive power: clipped.
        let link = Link::new(2, 3);
        let p = params.min_power_for_length(1.0);
        let a = calc.of_sender(0, 1e15, link, p).unwrap();
        assert_eq!(a, 1.0 + params.epsilon());
    }

    #[test]
    fn affectance_decays_with_distance() {
        let (params, inst) = setup();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        let p = params.min_power_for_length(1.0);
        let near = calc.of_sender(2, p, link, p).unwrap();
        let far = calc.of_sender(3, p, link, p).unwrap();
        assert!(far < near, "farther interferer must affect less");
    }

    /// The exact equivalence a_S(ℓ) ≤ 1 ⟺ SINR ≥ β on unclipped sums.
    #[test]
    fn affectance_sinr_equivalence() {
        let (params, inst) = setup();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        let p_u = params.min_power_for_length(1.0) * 4.0;
        for p_w in [0.1, 1.0, 10.0, 100.0, 1000.0] {
            let senders = [(2, p_w), (3, p_w * 0.5)];
            let aff = calc.sum_on(&senders, link, p_u).unwrap();
            let sinr = calc.sinr(link, p_u, &senders);
            let clipped = senders.iter().any(|&(w, pw)| {
                calc.of_sender(w, pw, link, p_u).unwrap() >= 1.0 + params.epsilon() - 1e-12
            });
            if !clipped {
                assert_eq!(
                    aff <= 1.0,
                    sinr >= params.beta() * (1.0 - 1e-12),
                    "aff={aff} sinr={sinr} p_w={p_w}"
                );
            }
        }
    }

    #[test]
    fn sinr_zero_when_interferer_at_receiver() {
        let (params, inst) = setup();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        // Node 1 (the receiver) also "transmitting".
        let sinr = calc.sinr(link, 100.0, &[(1, 1.0)]);
        assert_eq!(sinr, 0.0);
    }

    #[test]
    fn amenability_zero_for_longer_on_shorter() {
        let (params, inst) = setup();
        let calc = AffectanceCalc::new(&params, &inst);
        let short = Link::new(0, 1); // length 1
        let long = Link::new(2, 3); // length 1, but use a truly longer one:
        let longer = Link::new(1, 3); // length 10
                                      // f is zero when the first argument is the longer link…
        assert_eq!(calc.amenability_f(longer, short), 0.0);
        // …and positive (cross-affectance) when ordered short → longer.
        assert!(calc.amenability_f(short, longer) > 0.0);
        assert!(calc.amenability_f(short, long) > 0.0);
        // Never counts a link against itself.
        assert_eq!(calc.amenability_f(short, short), 0.0);
    }

    #[test]
    fn amenability_symmetric_scale_invariance() {
        // f uses unit scales; doubling all coordinates should leave the
        // noiseless distance-ratio terms unchanged.
        let params = SinrParams::default();
        let pts1 = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(8.0, 0.0),
        ];
        let pts2: Vec<Point> = pts1.iter().map(|p| p.scale(2.0)).collect();
        let i1 = Instance::new(pts1).unwrap();
        let i2 = Instance::new(pts2).unwrap();
        let c1 = AffectanceCalc::new(&params, &i1);
        let c2 = AffectanceCalc::new(&params, &i2);
        let a = Link::new(0, 1);
        let b = Link::new(2, 3);
        assert!((c1.amenability_f(a, b) - c2.amenability_f(a, b)).abs() < 1e-12);
    }
}
