//! Collection strategies (`proptest::collection`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// Lengths a [`vec()`] strategy may draw.
pub trait SizeRange {
    /// Draw one length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty size range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SizeRange for std::ops::RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start() <= self.end(), "empty size range");
        self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
