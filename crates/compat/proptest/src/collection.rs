//! Collection strategies (`vec`).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::Rng;

use crate::strategy::Strategy;

/// A length range for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_exclusive: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi_exclusive: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi_exclusive: *r.end() + 1,
        }
    }
}

/// Generates a `Vec` whose length is drawn from `size` and whose
/// elements are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Clone, Copy, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Debug,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vec_respects_length_and_element_domains() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = vec(0usize..30, 1..20);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((1..20).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 30));
        }
        let fixed = vec(0u64..5, 3usize);
        assert_eq!(fixed.generate(&mut rng).len(), 3);
    }
}
