//! Certified bounds on the path gain, one table per exponent `α`.
//!
//! Both certified consumers of the channel read interference through
//! this table before they evaluate any exact term: the interference
//! field's ring walk folds a lower and an upper bound per visited
//! sender (DESIGN.md §7.2), and the slot auditor settles its receivers
//! by the same intervals (§7.4). A bound costs a squared distance and
//! one bucket lookup, where the exact term costs a `sqrt` and a `powf`.

use std::sync::{Arc, Mutex, PoisonError};

use crate::field::GUARD;

/// Bits of `d²`'s mantissa that select a bucket within one doubling of
/// the squared distance: 16 buckets per doubling.
const BUCKET_BITS: u32 = 4;

/// The gain-bound table covers `d² ∈ [2⁻⁶⁴, 2⁶⁴)`, 128 doublings.
const BUCKETS: u64 = 128 << BUCKET_BITS;

/// `d².to_bits() >> KEY_SHIFT` keeps the sign, the exponent and the top
/// [`BUCKET_BITS`] mantissa bits: a bucket key, monotone in `d²`.
const KEY_SHIFT: u32 = 52 - BUCKET_BITS;

/// The key of the first bucket, `d² = 2⁻⁶⁴` (biased exponent 1023 − 64).
const FIRST_KEY: u64 = (1023 - 64) << BUCKET_BITS;

/// How many exponents' tables the process keeps at once.
const CACHED_TABLES: usize = 8;

/// How many ring gains `j^{-α}` a [`GainBounds`] keeps: `j < RING_GAINS`.
const RING_GAINS: usize = 128;

/// Up to this `α` a bucket also carries lines that bound the gain to
/// within 0.1% (for `α = 3`; see [`GainBounds::lines`]); a bucket's
/// gain range is then at most `2^{α/32} ≤ √2`, which keeps their
/// evaluation well-conditioned. Above it the lines are the bucket's
/// constant bounds.
const LINES_MAX_ALPHA: f64 = 16.0;

/// Certified bounds on the path gain `d^{-α}` by squared distance, for
/// one exponent `α`.
///
/// Bucket `b` holds `[lower, upper]` with `lower ≤ d^{-α} ≤ upper` for
/// every `d²` in the bucket, each end widened by [`GUARD`] so that it
/// also bounds the rounded `powf` of the exact path. A `d²` outside the
/// covered range (or an entry that leaves the normal float range) gets
/// `[0, ∞]`, which no certificate can use, so the decision falls to the
/// exact path.
///
/// Each bucket also holds two lines in `d²` (see
/// [`lines`](GainBounds::lines)), a tighter interval for the
/// interference field's ring walk, and the table carries the ring
/// gains `j^{-α}` its summed-area far bound multiplies by one
/// `cell^{-α}` per field (DESIGN.md §7.2).
pub(crate) struct GainBounds {
    alpha: f64,
    buckets: Box<[[f64; 2]]>,
    /// Per bucket `[c_lo, s_lo, c_hi, s_hi]`: the lines
    /// `c + s·(d² − e₀)` below and above the gain, `e₀` the bucket's
    /// lower edge.
    lines: Box<[[f64; 4]]>,
    rings: Box<[f64]>,
}

impl GainBounds {
    fn new(alpha: f64) -> Self {
        let edge = |b: u64| f64::from_bits((FIRST_KEY + b) << KEY_SHIFT);
        // The guard must also dominate the `α·ε` a rounded `sqrt`
        // contributes to `d^{-α}`; beyond that, certify nothing.
        let trusted = 64.0 * alpha * f64::EPSILON < GUARD;
        let buckets: Box<[[f64; 2]]> = (0..BUCKETS)
            .map(|b| {
                let lower = edge(b + 1).powf(-alpha / 2.0) * (1.0 - GUARD);
                let upper = edge(b).powf(-alpha / 2.0) * (1.0 + GUARD);
                if trusted && lower.is_normal() && upper.is_normal() {
                    [lower, upper]
                } else {
                    [0.0, f64::INFINITY]
                }
            })
            .collect();
        // `(j·cell)^{-α} = j^{-α}·cell^{-α}`; an entry below the normal
        // range is raised to it, which only loosens the bound.
        let rings = (0..RING_GAINS)
            .map(|j| (j as f64).powf(-alpha).max(f64::MIN_POSITIVE))
            .collect();
        let lines = (0..BUCKETS)
            .zip(buckets.iter())
            .map(|(b, &[lower, upper])| Self::lines_of(alpha, edge(b), edge(b + 1), [lower, upper]))
            .collect();
        GainBounds {
            alpha,
            buckets,
            lines,
            rings,
        }
    }

    /// The lines of the bucket `[e0, e1)` with constant bounds
    /// `[lower, upper]`, guards folded into both coefficients.
    ///
    /// `g(x) = x^{-α/2}` is convex, so its chord over the bucket lies
    /// above it and its tangent at the midpoint `m` below it. With
    /// `h = e1 − e0` a power of two, `g1 − g0` exact (the two within a
    /// factor `√2`) and `h/2` exact, the coefficients carry a few
    /// roundings of `g0` each, as does evaluating `c + s·δ` at an exact
    /// `δ = d² − e0`; the guard `G` dwarfs them and the `(α + 2)·u` of
    /// the exact term. Where the constant bounds certify nothing, or `α`
    /// exceeds [`LINES_MAX_ALPHA`], the lines are those bounds.
    fn lines_of(alpha: f64, e0: f64, e1: f64, [lower, upper]: [f64; 2]) -> [f64; 4] {
        let g = |x: f64| x.powf(-alpha / 2.0);
        let (h, m) = (e1 - e0, e0 + (e1 - e0) / 2.0);
        let (g0, g1, gm) = (g(e0), g(e1), g(m));
        let chord = (g1 - g0) / h;
        let tangent = -(alpha / 2.0) * gm / m;
        let line = [
            (gm - tangent * (h / 2.0)) * (1.0 - GUARD),
            tangent * (1.0 - GUARD),
            g0 * (1.0 + GUARD),
            chord * (1.0 + GUARD),
        ];
        let usable =
            upper.is_finite() && alpha <= LINES_MAX_ALPHA && line.iter().all(|c| c.is_normal());
        if usable {
            line
        } else {
            [lower, 0.0, upper, 0.0]
        }
    }

    /// The exponent `α` the table bounds.
    #[inline]
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `j^{-α}` for `j ≥ 1`, from the first [`RING_GAINS`] entries; a
    /// larger `j` gets the last entry, an upper bound since the gain
    /// only falls with distance.
    #[inline]
    pub(crate) fn ring(&self, j: i64) -> f64 {
        debug_assert!(j >= 1, "ring gains start at j = 1");
        self.rings[(j as usize).min(RING_GAINS - 1)]
    }

    /// `[lower, upper]` bounds on the gain at squared distance `d2`.
    #[inline]
    pub(crate) fn get(&self, d2: f64) -> [f64; 2] {
        let key = (d2.to_bits() >> KEY_SHIFT).wrapping_sub(FIRST_KEY);
        if key < BUCKETS {
            self.buckets[key as usize]
        } else {
            [0.0, f64::INFINITY]
        }
    }

    /// `[lower, upper]` bounds on the gain at squared distance `d2`
    /// from the bucket's lines: within 0.1% of the gain for `α = 3`,
    /// where [`get`](Self::get)'s constant bounds span up to 6.7%.
    #[inline]
    pub(crate) fn lines(&self, d2: f64) -> [f64; 2] {
        let key = (d2.to_bits() >> KEY_SHIFT).wrapping_sub(FIRST_KEY);
        if key < BUCKETS {
            let [c_lo, s_lo, c_hi, s_hi] = self.lines[key as usize];
            // The bucket's lower edge: `d2` with the bits below the
            // key cleared. `e0 ≤ d2 < 2·e0`, so the difference is exact.
            let delta = d2 - f64::from_bits(d2.to_bits() >> KEY_SHIFT << KEY_SHIFT);
            [c_lo + s_lo * delta, c_hi + s_hi * delta]
        } else {
            [0.0, f64::INFINITY]
        }
    }

    /// The shared table for `alpha`, built on first use.
    pub(crate) fn shared(alpha: f64) -> Arc<GainBounds> {
        static TABLES: Mutex<Vec<Arc<GainBounds>>> = Mutex::new(Vec::new());
        // Every update below leaves the list valid (a panic while
        // building a table happens before it is touched), so a
        // poisoned lock still guards a usable cache.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tables
            .iter()
            .find(|t| t.alpha().to_bits() == alpha.to_bits())
        {
            return Arc::clone(t);
        }
        if tables.len() == CACHED_TABLES {
            tables.remove(0);
        }
        let table = Arc::new(GainBounds::new(alpha));
        tables.push(Arc::clone(&table));
        table
    }
}

impl std::fmt::Debug for GainBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GainBounds")
            .field("alpha", &self.alpha)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's bounds bracket the exact gain on the bucket edges,
    /// inside buckets, and outside the covered range.
    #[test]
    fn gain_bounds_bracket_the_exact_gain() {
        for alpha in [2.1, 3.0, 4.5] {
            let table = GainBounds::new(alpha);
            for d2 in [1e-12f64, 0.3, 1.0, 2.0, 9.0, 9.49, 123.456, 1e9, 1e30] {
                let gain = d2.sqrt().powf(-alpha);
                let [lo, hi] = table.get(d2);
                assert!(
                    lo <= gain && gain <= hi,
                    "α {alpha} d² {d2}: {lo} {gain} {hi}"
                );
            }
            assert_eq!(table.get(0.0), [0.0, f64::INFINITY]);
            assert_eq!(table.get(1e-30), [0.0, f64::INFINITY]);
            assert_eq!(table.get(1e40), [0.0, f64::INFINITY]);
            assert_eq!(table.lines(0.0), [0.0, f64::INFINITY]);
            assert_eq!(table.lines(1e40), [0.0, f64::INFINITY]);
        }
        let shared = GainBounds::shared(3.0);
        assert!(Arc::ptr_eq(&shared, &GainBounds::shared(3.0)));
    }

    /// The lines bracket the computed gain `√d²^{-α}` across whole
    /// buckets (their edges, one ulp inside them, and a sweep between)
    /// and are tight: within 0.2% at `α = 3`. Above `LINES_MAX_ALPHA`
    /// they are the constant bounds.
    #[test]
    fn gain_lines_bracket_the_exact_gain() {
        for alpha in [2.0, 3.0, 4.5, 6.0, 16.0, 40.0] {
            let table = GainBounds::new(alpha);
            let mut widest = 0.0f64;
            for b in (0..BUCKETS).step_by(7) {
                let edge = |b: u64| f64::from_bits((FIRST_KEY + b) << KEY_SHIFT);
                let (e0, e1) = (edge(b), edge(b + 1));
                let inside = f64::from_bits(e1.to_bits() - 1);
                let steps = (0..=64).map(|i| e0 + (e1 - e0) * f64::from(i) / 64.0);
                for d2 in steps.chain([e0, f64::from_bits(e0.to_bits() + 1), inside]) {
                    if d2 >= e1 {
                        continue;
                    }
                    let gain = d2.sqrt().powf(-alpha);
                    let [lo, hi] = table.lines(d2);
                    assert!(
                        lo <= gain && gain <= hi,
                        "α {alpha} d² {d2}: {lo} {gain} {hi}"
                    );
                    if hi.is_finite() {
                        widest = widest.max(hi / lo - 1.0);
                    }
                }
            }
            if alpha == 3.0 {
                assert!(widest < 2e-3, "α 3: lines {widest} wide");
            }
            if alpha > LINES_MAX_ALPHA {
                let d2 = 123.456;
                assert_eq!(table.lines(d2), table.get(d2));
            }
        }
    }
}
