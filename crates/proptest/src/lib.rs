//! Dependency-free stand-in for the `proptest` crate.
//!
//! The workspace builds in an offline environment with no crates.io
//! access, so this crate vendors the subset of the proptest API the
//! workspace's property tests actually use:
//!
//! - [`Strategy`] over integer/float ranges, tuples, [`Just`], `any::<T>()`,
//!   `prop_map`, [`prop_oneof!`] unions and [`collection::vec`].
//! - The [`proptest!`] macro (including `#![proptest_config(..)]`) and the
//!   `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` macros.
//!
//! Differences from real proptest: failing inputs are not shrunk (the
//! failing case's seed is printed instead so it can be replayed with
//! `PROPTEST_SEED`), and the default case count is 64 (override with the
//! `PROPTEST_CASES` environment variable).

use std::marker::PhantomData;
use std::ops::Range;

/// Deterministic splitmix64 generator driving all value generation.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How many cases each property runs.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Cases per property (default 64).
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// Case count after applying the `PROPTEST_CASES` env override.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

/// Per-test root seed: `PROPTEST_SEED` (default) mixed with the test name.
pub fn test_seed(name: &str) -> u64 {
    let base: u64 = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5EED_CAFE);
    // FNV-1a over the test name so sibling tests draw distinct streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    base ^ h
}

/// Prints the failing case's coordinates if the test body panics.
pub struct CaseGuard {
    name: &'static str,
    case: u32,
    seed: u64,
}

impl CaseGuard {
    /// Arm the guard for one case.
    pub fn new(name: &'static str, case: u32, seed: u64) -> Self {
        CaseGuard { name, case, seed }
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest shim: {} failed at case {} (case seed {:#x}); \
                 rerun with PROPTEST_SEED to reproduce the run",
                self.name, self.case, self.seed
            );
        }
    }
}

/// A generator of values for one property parameter.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
    )*};
}

signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() as f32 * (self.end - self.start)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Whole-domain generation for primitives (the `any::<T>()` strategy).
pub trait Arbitrary {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.next_f64()
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        rng.next_f64() as f32
    }
}

/// Strategy form of [`Arbitrary`]; see [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Any value of a primitive type.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! tuple_strategy {
    ($(($($s:ident/$idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0, B/1);
    (A/0, B/1, C/2);
    (A/0, B/1, C/2, D/3);
    (A/0, B/1, C/2, D/3, E/4);
}

/// Uniform choice between boxed arms (the [`prop_oneof!`] strategy).
pub struct Union<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Union over `arms`; must be non-empty.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// `Vec`s of `element` values with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Define property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = ($crate::ProptestConfig::default()); $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __seed = $crate::test_seed(stringify!($name));
            let mut __rng = $crate::TestRng::new(__seed);
            for __case in 0..__config.effective_cases() {
                let __case_seed = __rng.next_u64();
                let __guard =
                    $crate::CaseGuard::new(stringify!($name), __case, __case_seed);
                let mut __case_rng = $crate::TestRng::new(__case_seed);
                $(let $pat =
                    $crate::Strategy::generate(&($strat), &mut __case_rng);)*
                { $body }
                ::std::mem::drop(__guard);
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Assert within a property (no shrinking; fails the case immediately).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assert within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assert within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(::std::boxed::Box::new($arm)
                as ::std::boxed::Box<dyn $crate::Strategy<Value = _>>),+
        ])
    };
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u64..9), &mut rng);
            assert!((3..9).contains(&v));
            let f = Strategy::generate(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::new(2);
        for _ in 0..200 {
            let v = Strategy::generate(
                &crate::collection::vec((0u64..10, 1u64..5), 1..40),
                &mut rng,
            );
            assert!((1..40).contains(&v.len()));
            for (a, b) in v {
                assert!(a < 10 && (1..5).contains(&b));
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        let s = crate::collection::vec(0u64..100, 5..6);
        assert_eq!(
            Strategy::generate(&s, &mut a),
            Strategy::generate(&s, &mut b)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The macro itself compiles with config, map, oneof and tuples.
        #[test]
        fn macro_smoke(xs in crate::collection::vec(0u32..50, 1..20), flag in any::<bool>()) {
            prop_assert!(xs.len() < 20);
            prop_assert_eq!(flag, flag);
            prop_assert_ne!(xs.len(), 20);
        }
    }
}
