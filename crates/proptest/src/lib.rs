//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors the
//! subset of proptest's API its property tests use: the [`proptest!`] macro,
//! range and [`collection::vec`] strategies, `prop_assert!`/`prop_assert_eq!`,
//! and [`test_runner::ProptestConfig`].
//!
//! Semantics: each test body runs `cases` times against inputs sampled from
//! the strategies with a deterministic per-test [`TestRng`] (seeded from the
//! test name, so failures reproduce). There is **no shrinking** — a failing
//! case reports the sampled inputs as-is via the panic message.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// The input generator: a SplitMix64 stream.
pub struct TestRng(u64);

impl TestRng {
    /// A stream started at `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]` (widening multiply; the bias is below 2⁻⁶⁴ per
    /// value, immaterial for test inputs).
    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty strategy range");
        let span = (hi - lo).wrapping_add(1);
        if span == 0 {
            return self.next_u64();
        }
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

/// A source of random test inputs (a drastically reduced `proptest`
/// strategy: sampling only, no shrinking).
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                rng.in_range(self.start as u64, (self.end - 1) as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.in_range(*self.start() as u64, *self.end() as u64) as $t
            }
        }
    )+};
}
int_range_strategy!(u64, u32, u16, usize, u8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        // Uniform over [lo, hi]: include the endpoint occasionally by
        // sampling the closed unit interval on 53-bit grid resolution.
        let u = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        self.start() + (self.end() - self.start()) * u
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}
tuple_strategy!((A / 0, B / 1), (A / 0, B / 1, C / 2), (A / 0, B / 1, C / 2, D / 3));

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S: Strategy> {
        element: S,
        len: Range<usize>,
    }

    /// `Vec` strategy: elements from `element`, length uniform in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.in_range(self.len.start as u64, (self.len.end - 1) as u64) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Test-runner configuration and failure plumbing.
pub mod test_runner {
    /// How many random cases each property runs.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of sampled cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real proptest default is 256; keep CI fast but meaningful.
            ProptestConfig { cases: 64 }
        }
    }

    /// A failed property case (carries the formatted assertion message).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Builds a failure from a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// Deterministic per-test RNG seed: FNV-1a over the test path so each
/// property gets a distinct but reproducible stream.
pub fn seed_for(test_name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property, failing the case (with the
/// sampled inputs reported) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)+);
    }};
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
}

/// Defines property tests: each `fn name(arg in strategy, ...)` item becomes
/// a `#[test]` running the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`] items.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            use $crate::Strategy as _;
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::new($crate::seed_for(concat!(
                module_path!(),
                "::",
                stringify!($name)
            )));
            for case in 0..cfg.cases {
                $(let $arg = ($strat).sample(&mut rng);)+
                let dump = format!(
                    concat!($(stringify!($arg), " = {:?}, ",)+ ""),
                    $(&$arg),+
                );
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "property '{}' failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name), case + 1, cfg.cases, e, dump,
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in -2.0f64..2.0, n in 1usize..5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!((1..5).contains(&n));
        }

        #[test]
        fn vec_strategy_respects_length(v in collection::vec(0u64..100, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn tuple_strategies_sample_componentwise(
            pair in (0u8..4, 10u64..20),
            v in collection::vec((0u32..3, -1.0f64..1.0), 1..5),
        ) {
            prop_assert!(pair.0 < 4 && (10..20).contains(&pair.1));
            prop_assert!(v.iter().all(|&(k, x)| k < 3 && (-1.0..1.0).contains(&x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_is_honored(x in 0u64..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        proptest! {
            fn always_fails(x in 0u64..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        let result = std::panic::catch_unwind(always_fails);
        let err = result.expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("inputs:"), "message carries inputs: {msg}");
    }

    #[test]
    fn seeds_differ_per_test_name() {
        assert_ne!(crate::seed_for("a::b"), crate::seed_for("a::c"));
    }
}
