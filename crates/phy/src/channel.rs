//! The channel model: who attenuates a transmission, and by how much.
//!
//! Every gain the physical layer computes is `path_gain(d) · fade`,
//! with the fade read from the [`ChannelModel`] that
//! [`SinrParams::channel`](crate::SinrParams::channel) carries. The
//! paper's clean geometric SINR model is [`ChannelModel::Geometric`],
//! whose every fade is exactly `1.0`. [`ChannelModel::Shadowed`] draws a
//! deterministic per-link log-normal fade (truncated at `±clamp_db`),
//! the "log-normal shadowing" extension of Mao–Anderson.
//!
//! # One expression per quantity
//!
//! The physical layer computes each quantity with one expression that
//! multiplies or divides by the fade. IEEE-754 `x · 1.0` and `x / 1.0`
//! return `x` bit for bit for every non-NaN `x`, and Rust never fuses a
//! multiply into an FMA, so under `Geometric` each expression returns
//! the bits of the plain power-law expression (DESIGN.md §15).
//!
//! # Determinism
//!
//! The fade of a link is a **closed-form function** of the fade seed
//! and the link's two end **positions**, ordered by their coordinate
//! bits: four rounds of the same SplitMix64 finalizer-based stream
//! splitting the ensemble driver and the fault planner use
//! (`sinr_bench::ensemble::stream_seed`, pinned against the same golden
//! value below), feeding one Box–Muller normal draw. No sequential RNG
//! state exists, so
//!
//! - adding or removing links never shifts any other link's fade,
//! - every engine backend and thread count computes the identical fade
//!   bit-for-bit, and
//! - the fade is symmetric (`fade(p, q) = fade(q, p)`): a link and its
//!   dual see the same shadowing, as common obstacles would cause.
//!
//! Shadowing is a property of the terrain between two places, so the
//! fade is keyed by where the nodes are, not by what they are called.
//! Node ids are labels: repair renumbers the survivors, and a join
//! appends new ids. A position-keyed link keeps its fade through both,
//! which is what lets the re-packer keep a surviving slot grouping
//! without re-auditing it (DESIGN.md §10.2).
//!
//! # Certification
//!
//! Truncating the fade at `±clamp_db` gives the **global fade range**
//! `[fade_lo, fade_hi]` that [`fade_bounds`](ChannelModel::fade_bounds)
//! exposes; the interference field's far-field certificates multiply
//! their distance-only bounds by `fade_hi`, widening only the
//! certificate — never an exact fallback value (DESIGN.md §15).

use sinr_geom::Point;

use crate::{PhyError, Result};

/// SplitMix64 finalizer-based stream splitting — the exact mixer
/// `sinr_bench::ensemble::stream_seed` and `sinr_sim::faults` use,
/// duplicated here (phy sits below both in the dependency order) and
/// pinned against the same golden value so the three can never drift.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a mixed 64-bit word to a uniform f64 in `[0, 1)` (top 53 bits).
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Domain-separation tag: the per-pair fade stream can never collide
/// with the fault planner's or the ensemble driver's streams.
const TAG_FADE: u64 = 0x5AD0_0001;

/// Truncated log-normal shadowing: per-link fades drawn from
/// hierarchically split SplitMix64 streams.
///
/// `fade(p, q) = 10^{clamp(σ·z(p,q), ±clamp_db) / 10}` where `z(p, q)`
/// is a standard normal computed in closed form from the seed and the
/// two positions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shadowing {
    /// Root of the per-pair fade streams.
    pub seed: u64,
    /// Shadowing standard deviation in dB (typically 3–8 dB).
    pub sigma_db: f64,
    /// Truncation of the fade magnitude in dB. Finite truncation is
    /// what gives the certified field a finite per-link gain range.
    pub clamp_db: f64,
}

impl Shadowing {
    /// A validated shadowing model with the conventional `±3σ`
    /// truncation (covers 99.7% of the untruncated mass).
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] unless `σ > 0` (finite).
    pub fn new(seed: u64, sigma_db: f64) -> Result<Self> {
        Self::with_clamp(seed, sigma_db, 3.0 * sigma_db)
    }

    /// A validated shadowing model with an explicit truncation depth.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] unless `σ > 0` and
    /// `clamp_db ≥ σ`, all finite.
    pub fn with_clamp(seed: u64, sigma_db: f64, clamp_db: f64) -> Result<Self> {
        if !(sigma_db.is_finite() && sigma_db > 0.0) {
            return Err(PhyError::InvalidParameter {
                name: "sigma_db",
                reason: "shadowing deviation must be finite and positive",
            });
        }
        if !(clamp_db.is_finite() && clamp_db >= sigma_db) {
            return Err(PhyError::InvalidParameter {
                name: "clamp_db",
                reason: "fade truncation must be finite and at least sigma_db",
            });
        }
        Ok(Shadowing {
            seed,
            sigma_db,
            clamp_db,
        })
    }

    /// The fade multiplier of the unordered pair of positions `{p, q}`.
    ///
    /// Never inlined: the gain loops call the channel's fade once per
    /// term, and keeping this body out of them leaves the geometric
    /// channel's unit-fade path a short branch.
    #[inline(never)]
    pub fn fade(&self, p: Point, q: Point) -> f64 {
        let key = |p: Point| [p.x.to_bits(), p.y.to_bits()];
        let (a, b) = if key(p) <= key(q) {
            (key(p), key(q))
        } else {
            (key(q), key(p))
        };
        let pair = [a[0], a[1], b[0], b[1]]
            .into_iter()
            .fold(self.seed ^ TAG_FADE, stream_seed);
        // Box–Muller from two split words; `max` keeps `ln` finite so
        // the product below can never be `inf · 0 = NaN`.
        let u1 = unit_f64(stream_seed(pair, 0)).max(f64::MIN_POSITIVE);
        let u2 = unit_f64(stream_seed(pair, 1));
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let fade_db = (self.sigma_db * z).clamp(-self.clamp_db, self.clamp_db);
        10f64.powf(fade_db / 10.0)
    }

    /// The global fade range `[10^{-clamp/10}, 10^{clamp/10}]` every
    /// per-pair fade lies in (the truncation made it finite).
    pub fn fade_bounds(&self) -> (f64, f64) {
        (
            10f64.powf(-self.clamp_db / 10.0),
            10f64.powf(self.clamp_db / 10.0),
        )
    }
}

/// The channel model every gain computation routes through.
///
/// An enum, not a trait object: the determinism contract (DESIGN.md §9)
/// forbids dynamic dispatch whose vtable order could vary.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ChannelModel {
    /// The paper's clean model: gain is the pure distance power law
    /// `d^{-α}` ([`SinrParams::path_gain`](crate::SinrParams::path_gain)),
    /// every fade exactly `1.0`.
    #[default]
    Geometric,
    /// Power law times a deterministic per-link log-normal fade.
    Shadowed(Shadowing),
}

impl ChannelModel {
    /// A shadowed model with the `±3σ` default truncation.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] for a non-positive `σ`.
    pub fn shadowed(seed: u64, sigma_db: f64) -> Result<Self> {
        Ok(ChannelModel::Shadowed(Shadowing::new(seed, sigma_db)?))
    }

    /// Whether this is the clean geometric model.
    #[inline]
    pub fn is_geometric(&self) -> bool {
        matches!(self, ChannelModel::Geometric)
    }

    /// The fade multiplier of the unordered pair of positions `{p, q}`
    /// (exactly 1 under [`Geometric`](ChannelModel::Geometric)).
    #[inline]
    pub fn fade(&self, p: Point, q: Point) -> f64 {
        match self {
            ChannelModel::Geometric => 1.0,
            ChannelModel::Shadowed(s) => s.fade(p, q),
        }
    }

    /// The global fade range `[lo, hi]` containing every per-pair fade.
    #[inline]
    pub fn fade_bounds(&self) -> (f64, f64) {
        match self {
            ChannelModel::Geometric => (1.0, 1.0),
            ChannelModel::Shadowed(s) => s.fade_bounds(),
        }
    }

    /// Short label for tables and CLI reports.
    pub fn label(&self) -> String {
        match self {
            ChannelModel::Geometric => "geometric".into(),
            ChannelModel::Shadowed(s) => format!("shadowed σ={}dB", s.sigma_db),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden pin shared with `sinr_bench::ensemble::stream_seed`
    /// and `sinr_sim::faults::stream_seed`.
    #[test]
    fn stream_seed_matches_the_ensemble_golden_value() {
        assert_eq!(stream_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_ne!(stream_seed(0, 1), stream_seed(0, 2));
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
    }

    /// `n` distinct points on a jittered lattice.
    fn points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 7) as f64 * 1.5 + 0.25 * i as f64, (i / 7) as f64 * 2.0))
            .collect()
    }

    #[test]
    fn fade_is_pure_symmetric_and_bounded() {
        let s = Shadowing::new(7, 6.0).unwrap();
        let (lo, hi) = s.fade_bounds();
        assert!(lo < 1.0 && hi > 1.0);
        let pts = points(40);
        for (i, &p) in pts.iter().enumerate() {
            for &q in &pts[i + 1..] {
                let f = s.fade(p, q);
                assert_eq!(f.to_bits(), s.fade(p, q).to_bits(), "pure");
                assert_eq!(f.to_bits(), s.fade(q, p).to_bits(), "symmetric");
                assert!(f >= lo && f <= hi, "fade {f} outside [{lo}, {hi}]");
            }
        }
    }

    /// Closed-form draws: the fade of a pair is independent of every
    /// other pair, so growing the link set can never shift a draw.
    #[test]
    fn fades_vary_across_pairs_and_seeds() {
        let a = Shadowing::new(1, 6.0).unwrap();
        let b = Shadowing::new(2, 6.0).unwrap();
        let pts = points(30);
        assert_ne!(
            a.fade(pts[0], pts[1]).to_bits(),
            b.fade(pts[0], pts[1]).to_bits()
        );
        let fades: Vec<u64> = pts[1..]
            .iter()
            .map(|&q| a.fade(pts[0], q).to_bits())
            .collect();
        let mut uniq = fades.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 25, "fades should almost never collide");
    }

    /// Fades are keyed by position: relabeling an instance's nodes (as
    /// repair's renumbering does) leaves every pair's fade bit-identical.
    #[test]
    fn relabeling_nodes_keeps_every_fade() {
        let channel = ChannelModel::shadowed(11, 6.0).unwrap();
        let original = sinr_geom::Instance::new(points(24)).unwrap();
        // A permutation of the ids: node `u` becomes `perm[u]`.
        let perm: Vec<usize> = (0..24).map(|u| (u * 7 + 5) % 24).collect();
        let mut relabeled_points = vec![Point::new(0.0, 0.0); 24];
        for (u, &to) in perm.iter().enumerate() {
            relabeled_points[to] = original.position(u);
        }
        let relabeled = sinr_geom::Instance::new(relabeled_points).unwrap();
        let fade = |inst: &sinr_geom::Instance, u: usize, v: usize| {
            channel.fade(inst.position(u), inst.position(v)).to_bits()
        };
        for u in 0..24 {
            for v in 0..24 {
                if u != v {
                    assert_eq!(fade(&original, u, v), fade(&relabeled, perm[u], perm[v]));
                }
            }
        }
    }

    #[test]
    fn geometric_fades_are_exactly_one() {
        let m = ChannelModel::Geometric;
        let (p, q) = (Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        assert_eq!(m.fade(p, q).to_bits(), 1f64.to_bits());
        assert_eq!(m.fade_bounds(), (1.0, 1.0));
        assert!(m.is_geometric());
        assert!(!ChannelModel::shadowed(0, 3.0).unwrap().is_geometric());
    }

    #[test]
    fn shadowed_min_power_clears_the_deepest_fade() {
        let geometric = crate::SinrParams::default();
        let m = ChannelModel::shadowed(9, 6.0).unwrap();
        let p = geometric.with_channel(m);
        let pts = points(12);
        for len in [1.0, 4.0, 32.0] {
            let power = p.min_power_for_length(len);
            assert!(power > geometric.min_power_for_length(len));
            // Even at the deepest fade the noise factor stays ≤ 2β:
            // P · g ≥ 2βN for every pair.
            for w in pts.windows(2) {
                let gain = p.path_gain(len) * m.fade(w[0], w[1]);
                assert!(power * gain >= 2.0 * p.beta() * p.noise() * 0.999_999);
            }
        }
    }

    #[test]
    fn validation_rejects_bad_shadowing() {
        assert!(Shadowing::new(0, 0.0).is_err());
        assert!(Shadowing::new(0, -1.0).is_err());
        assert!(Shadowing::new(0, f64::NAN).is_err());
        assert!(Shadowing::with_clamp(0, 6.0, 3.0).is_err());
        assert!(ChannelModel::shadowed(0, 3.0).is_ok());
    }

    #[test]
    fn labels() {
        assert_eq!(ChannelModel::Geometric.label(), "geometric");
        assert!(ChannelModel::shadowed(0, 3.0)
            .unwrap()
            .label()
            .contains("3"));
        assert_eq!(ChannelModel::default(), ChannelModel::Geometric);
    }
}
