//! Offline shim for [`proptest`]: deterministic randomized property
//! testing with the API subset this repo uses.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking** — a failing case panics with the generated inputs'
//!   `Debug` rendering instead of a minimized counterexample.
//! * **Deterministic seeds** — each `proptest!` test derives its seed from
//!   the test's name (overridable via `PROPTEST_SEED`), so failures
//!   reproduce exactly on re-run.
//! * Strategies are plain samplers: [`Strategy::sample_value`] draws a
//!   value; `prop_map` / `prop_flat_map` compose; ranges, tuples, `bool`,
//!   `vec` and `btree_set` collections are provided.
//!
//! Everything the repo's test suites import (`proptest::prelude::*`,
//! `proptest::collection::{vec, btree_set}`, `proptest::bool::ANY`,
//! `ProptestConfig::with_cases`, `prop_assert!`/`prop_assert_eq!`) is
//! supported with upstream-compatible spellings.

use rand::rngs::SmallRng;
pub use rand::{Rng, SeedableRng};

/// Runner configuration (shim of `proptest::test_runner`).
pub mod test_runner {
    /// How many cases each property runs.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; keep the suite quick but thorough.
            ProptestConfig { cases: 256 }
        }
    }
}

/// The RNG handed to strategies.
pub type TestRng = SmallRng;

/// A generator of test values (shim of `proptest::strategy::Strategy`).
///
/// Unlike upstream there is no value tree: sampling is direct and no
/// shrinking happens on failure.
pub trait Strategy {
    /// The type of values this strategy generates.
    type Value;

    /// Draw one value.
    fn sample_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from a strategy built from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample_value(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample_value(rng)).sample_value(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample_value(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
}

/// Boolean strategies (shim of `proptest::bool`).
pub mod bool {
    use super::{Rng, Strategy, TestRng};

    /// Uniform `bool` strategy type.
    #[derive(Clone, Copy, Debug)]
    pub struct BoolAny;

    /// Uniform `true`/`false`.
    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn sample_value(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

/// Collection strategies (shim of `proptest::collection`).
pub mod collection {
    use super::{Rng, Strategy, TestRng};

    /// A target size or size range for generated collections.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }
    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }
    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi)
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample_value(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>`: draws a target count and inserts
    /// that many samples (duplicates collapse, matching upstream's "up to
    /// size" semantics loosely).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample_value(rng)).collect()
        }
    }
}

/// Derive a per-test deterministic seed: FNV-1a of the test path, unless
/// `PROPTEST_SEED` overrides it.
pub fn seed_for(test_path: &str) -> u64 {
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(v) = s.parse::<u64>() {
            return v;
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The common imports (shim of `proptest::prelude`).
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, Strategy};
}

/// Assert inside a property; failure panics with the message (no
/// shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Define property tests (shim of `proptest::proptest!`).
///
/// Supports the forms this repo uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     /// docs
///     #[test]
///     fn my_property(x in 0usize..10, v in proptest::collection::vec(0u32..5, 0..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $($(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::Strategy as _;
                let config = $cfg;
                let mut rng: $crate::TestRng = $crate::SeedableRng::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                for case in 0..config.cases {
                    // Bind strategies once, sample per case.
                    $(let $arg = ($strat).sample_value(&mut rng);)+
                    let run = || -> () { $body };
                    if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                        eprintln!(
                            "proptest case {}/{} failed in {} (seed derived from test name; set PROPTEST_SEED to override)",
                            case + 1, config.cases, stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -4i8..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn collections_respect_size(
            v in crate::collection::vec((0u32..5, crate::bool::ANY), 2..6),
            s in crate::collection::btree_set(0usize..100, 0..10),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(s.len() < 10);
            prop_assert!(v.iter().all(|&(n, _)| n < 5));
        }
    }

    #[test]
    fn flat_map_and_map_compose() {
        let strat = (2usize..6)
            .prop_flat_map(|n| crate::collection::vec(0usize..n, n..=n).prop_map(move |v| (n, v)));
        let mut rng: crate::TestRng = crate::SeedableRng::seed_from_u64(5);
        for _ in 0..100 {
            let (n, v) = strat.sample_value(&mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn seeds_differ_by_test_name() {
        assert_ne!(crate::seed_for("a::b"), crate::seed_for("a::c"));
        assert_eq!(crate::seed_for("a::b"), crate::seed_for("a::b"));
    }
}
