//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case reports its inputs (captured via
//!   `Debug` before the body runs) and panics immediately.
//! - **Deterministic.** Each `proptest!` function derives its RNG seed from
//!   its own module path + name, so runs are reproducible without a
//!   `proptest-regressions` directory. (Any such directories on disk are
//!   simply ignored.)
//! - Strategies are generate-only: a [`Strategy`](strategy::Strategy) maps an RNG to a value.
//!
//! Supported surface: range strategies over ints/floats, [`Just`](strategy::Just),
//! `prop_map`, `prop_oneof!` (weighted and unweighted), `collection::vec`,
//! `proptest!` with optional `#![proptest_config(...)]`, `prop_assert!`,
//! `prop_assert_eq!`, and `prop_assert_ne!`.

use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{Rng, SampleRange};

/// Test-runner configuration (`ProptestConfig` in the real crate).
pub mod test_runner {
    /// How many cases each property runs.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// A failed property case: carries the assertion message.
    #[derive(Debug)]
    pub struct TestCaseError {
        msg: String,
    }

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError { msg: msg.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.msg)
        }
    }

    /// Stable per-test seed derived from the test's full path (FNV-1a).
    pub fn seed_for(test_path: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

pub use test_runner::Config as ProptestConfig;

/// Strategy combinators.
pub mod strategy {
    use super::*;

    /// A generator of values for property tests.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut SmallRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erases the strategy type (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: std::rc::Rc::new(self),
            }
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _: &mut SmallRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut SmallRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Type-erased strategy handle.
    pub struct BoxedStrategy<T> {
        inner: std::rc::Rc<dyn Strategy<Value = T>>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            self.inner.generate(rng)
        }
    }

    /// Weighted choice between boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u32,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T> Union<T> {
        /// Builds a union from `(weight, strategy)` arms.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            let total = arms.iter().map(|(w, _)| *w).sum();
            assert!(total > 0, "prop_oneof! requires a positive total weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            let mut pick = rng.gen_range(0..self.total);
            for (weight, arm) in &self.arms {
                if pick < *weight {
                    return arm.generate(rng);
                }
                pick -= weight;
            }
            unreachable!("weighted pick within total")
        }
    }

    macro_rules! range_strategies {
        ($($t:ty),+ $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    self.clone().sample_from(rng)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    self.clone().sample_from(rng)
                }
            }
        )+};
    }

    range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategies {
        ($(($($s:ident . $idx:tt),+))+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }

    tuple_strategies! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::*;

    /// Element-count bound accepted by [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n + 1 }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Clone> Clone for VecStrategy<S> {
        fn clone(&self) -> Self {
            VecStrategy {
                element: self.element.clone(),
                size: self.size,
            }
        }
    }

    /// Generates vectors of values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The glob-imported prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::TestCaseError;
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a `proptest!` body, returning a
/// `TestCaseError` (rather than panicking) so the harness can report the
/// generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `assert_eq!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}", l, r, format!($($fmt)+)
        );
    }};
}

/// `assert_ne!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)+)
        );
    }};
}

/// Weighted or unweighted choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
}

/// Declares property tests. Each function runs `cases` times with inputs
/// drawn from its strategies; failures report the generated inputs.
#[macro_export]
macro_rules! proptest {
    (@funcs ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let __seed = $crate::test_runner::seed_for(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut __rng = <$crate::__rng::SmallRng as $crate::__rng::SeedableRng>::seed_from_u64(__seed);
            for __case in 0..__config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut __rng);)+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, "),+),
                    $(&$arg),+
                );
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(__err) = __outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\n  inputs: {}",
                        __case + 1,
                        __config.cases,
                        __err,
                        __inputs
                    );
                }
            }
        }
        $crate::proptest!(@funcs ($config) $($rest)*);
    };
    (@funcs ($config:expr)) => {};
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@funcs ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// RNG re-exports used by the `proptest!` expansion.
#[doc(hidden)]
pub mod __rng {
    pub use rand::rngs::SmallRng;
    pub use rand::SeedableRng;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn oneof_weights_are_respected() {
        use crate::strategy::Strategy;
        let lane = prop_oneof![
            3 => Just(0.0f32),
            1 => Just(-1.0f32),
        ];
        let mut rng = <crate::__rng::SmallRng as crate::__rng::SeedableRng>::seed_from_u64(1);
        let zeros = (0..4000).filter(|_| lane.generate(&mut rng) == 0.0).count();
        let frac = zeros as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(0u8..4, 16..512);
        let mut rng = <crate::__rng::SmallRng as crate::__rng::SeedableRng>::seed_from_u64(2);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((16..512).contains(&v.len()));
            assert!(v.iter().all(|&b| b < 4));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_expands_and_runs(x in 0u32..100, y in 0.0f64..1.0) {
            prop_assert!(x < 100);
            prop_assert!((0.0..1.0).contains(&y));
            prop_assert_eq!(x, x);
            prop_assert_ne!(y - 2.0, y);
        }
    }

    proptest! {
        #[test]
        fn mapped_strategies_compose(v in crate::collection::vec(0u64..16, 1..32).prop_map(|mut v| { v.push(99); v })) {
            prop_assert_eq!(*v.last().expect("non-empty"), 99);
        }
    }
}
