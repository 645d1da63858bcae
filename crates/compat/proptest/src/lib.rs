//! Offline stand-in for `proptest`.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the slice of the proptest API the workspace's property tests use:
//!
//! * the [`proptest!`] macro with `#![proptest_config(...)]`, `arg in
//!   strategy` bindings, `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`
//!   and `prop_assume!`;
//! * [`strategy::Strategy`] with `prop_map`, implemented for numeric
//!   ranges, tuples (up to arity 8) and [`strategy::Just`];
//! * [`collection::vec`] with `Range`/`RangeInclusive`/fixed sizes;
//! * [`option::of`] generating `Some`/`None` with equal probability.
//!
//! Cases are generated from a seed derived deterministically from the test
//! path, so failures reproduce across runs. There is **no shrinking**: a
//! failing case reports its case index and seed instead of a minimised
//! input — sufficient for CI signal, much smaller than real proptest.

#![forbid(unsafe_code)]

pub mod strategy;

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Size specification for [`vec()`]: a fixed size or a range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty size range");
            SizeRange {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Optional-value strategies (`prop::option::of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy producing `Option`s of values drawn from an inner
    /// strategy.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Generates `Some(value)` and `None` with equal probability (real
    /// proptest's default weighting).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            rng.gen_bool(0.5).then(|| self.inner.generate(rng))
        }
    }
}

/// Test-runner plumbing used by the [`proptest!`] expansion.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The RNG handed to strategies.
    pub type TestRng = StdRng;

    /// Per-test configuration (subset of proptest's).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the test fails.
        Fail(String),
        /// A `prop_assume!` rejected the inputs; the case is skipped.
        Reject(String),
    }

    impl TestCaseError {
        /// Creates a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Creates a rejection.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Result type the generated test bodies return.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic 64-bit seed from a test path (FNV-1a).
    pub fn seed_for(test_path: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// RNG for one case: the test seed perturbed by the case index.
    pub fn rng_for(seed: u64, case: u32) -> TestRng {
        TestRng::seed_from_u64(seed ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Namespace mirror of proptest's `prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Asserts a condition inside a property, failing the case (not panicking)
/// so the runner can report the case index and seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Asserts two values differ inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond).to_owned(),
            ));
        }
    };
}

/// Declares property tests: see the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let seed =
                $crate::test_runner::seed_for(concat!(module_path!(), "::", stringify!($name)));
            let mut executed: u32 = 0;
            let mut rejected: u32 = 0;
            let mut case: u32 = 0;
            while executed < config.cases {
                assert!(
                    rejected < config.cases.saturating_mul(64).max(1024),
                    "proptest {}: too many rejected cases ({rejected})",
                    stringify!($name),
                );
                let mut rng = $crate::test_runner::rng_for(seed, case);
                case += 1;
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)*
                let result: $crate::test_runner::TestCaseResult =
                    (move || { $body ::core::result::Result::Ok(()) })();
                match result {
                    ::core::result::Result::Ok(()) => executed += 1,
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject(_),
                    ) => rejected += 1,
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(msg),
                    ) => panic!(
                        "proptest {} failed at case {} (seed {:#x}): {}",
                        stringify!($name),
                        case - 1,
                        seed,
                        msg
                    ),
                }
            }
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 1u32..10, y in 0.25f64..0.75) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((0.25..0.75).contains(&y));
        }

        #[test]
        fn tuples_and_maps_compose(
            pair in (1u32..5, 10u64..20),
            doubled in (1usize..50).prop_map(|n| n * 2),
        ) {
            prop_assert!(pair.0 < 5 && pair.1 >= 10);
            prop_assert_eq!(doubled % 2, 0);
        }

        #[test]
        fn vectors_have_requested_sizes(v in prop::collection::vec(0u32..100, 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
            for item in v {
                prop_assert!(item < 100);
            }
        }

        #[test]
        fn assume_skips_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn seeds_are_stable() {
        let a = crate::test_runner::seed_for("mod::test");
        let b = crate::test_runner::seed_for("mod::test");
        assert_eq!(a, b);
        assert_ne!(a, crate::test_runner::seed_for("mod::other"));
    }
}
