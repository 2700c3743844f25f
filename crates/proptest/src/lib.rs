//! Offline drop-in subset of the `proptest` API.
//!
//! The workspace must build without network access, so the external
//! `proptest` crate is replaced by this path dependency implementing
//! exactly the surface the test suites use: the [`proptest!`] macro over
//! `arg in strategy` bindings, integer-range and tuple strategies,
//! [`collection::vec`], [`Strategy::prop_map`], `prop_assert!`,
//! `prop_assert_eq!`, `prop_assume!` and [`ProptestConfig`]'s `cases`.
//!
//! Differences from upstream, deliberately accepted for a hermetic
//! build: cases are sampled from a deterministic per-test RNG (seeded
//! from the test name), there is no shrinking, and `prop_assume!`
//! skips the case rather than resampling. `.proptest-regressions`
//! files are ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Run-time configuration; only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Accepted for source compatibility; unused (no shrinking here).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// Why a test case did not complete normally.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed: skip the case.
    Reject,
    /// `prop_assert!`/`prop_assert_eq!` failed: the property is false.
    Fail(String),
}

/// The deterministic case-generation RNG.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds the generator from a test name (FNV-1a) so every property
    /// sees a stable, distinct case stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128).wrapping_sub(lo as u128) + 1;
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.sample(rng),
            self.1.sample(rng),
            self.2.sample(rng),
            self.3.sample(rng),
        )
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A vector of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The [`vec()`] strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = Strategy::sample(&self.size, rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The common import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that samples `cases` argument tuples and runs the
/// body on each.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (
        $(#[$meta:meta])*
        fn $($rest:tt)*
    ) => {
        $crate::proptest!(@expand ($crate::ProptestConfig::default()) $(#[$meta])* fn $($rest)*);
    };
    (@expand ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body Ok(()) })();
                    match result {
                        Ok(()) => {}
                        Err($crate::TestCaseError::Reject) => continue,
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("property {} failed at case {case}: {msg}", stringify!($name));
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Skips the current case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_sample_in_bounds(x in 3usize..9, y in 0u64..2) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 2);
        }

        #[test]
        fn assume_skips(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_works(v in crate::collection::vec(0u32..5, 1..4)) {
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn prop_map_and_tuples() {
        let strat =
            (2usize..5, crate::collection::vec(0u32..7, 0..6)).prop_map(|(n, v)| (n, v.len()));
        let mut rng = crate::TestRng::deterministic("map");
        for _ in 0..50 {
            let (n, len) = strat.sample(&mut rng);
            assert!((2..5).contains(&n));
            assert!(len < 6);
        }
    }
}
