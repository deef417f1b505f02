//! Offline shim for `proptest`: the macro + strategy surface this
//! workspace's property tests use, with deterministic generation and **no
//! shrinking**. A failing case — a `prop_assert*!` or a plain panic in
//! the body — fails the test with `proptest case N failed (replay:
//! KNOR_PROPTEST_SEED=N): …`; running the test again with that variable
//! set runs case N alone.
//!
//! Implemented: `proptest! { #![proptest_config(..)] #[test] fn f(x in s) { .. } }`,
//! `Strategy` with `prop_map`/`prop_flat_map`, strategies for numeric
//! ranges and 2-/3-tuples, `collection::vec`, `Just`, and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`/`prop_assume!`
//! macros.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run-configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// A `prop_assert*!` failed; the test fails.
    Fail(String),
}

/// Deterministic per-case random source (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed a case's generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        // Widening multiply; the bias is irrelevant at test scales.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The environment variable that replays one case: with
/// `KNOR_PROPTEST_SEED=N` set, every `proptest!` test runs case `N` alone.
const SEED_ENV: &str = "KNOR_PROPTEST_SEED";

/// The generator of case `n`; case `n` of every test draws from it.
fn case_rng(n: u64) -> TestRng {
    TestRng::new(0x6b6e_6f72_0000_0000u64 ^ (n << 16) ^ n)
}

/// Run a `proptest!` body over `config.cases` cases, or over the one case
/// `KNOR_PROPTEST_SEED` names. Not part of the public API.
#[doc(hidden)]
pub fn __run(config: &ProptestConfig, case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
    let only = std::env::var(SEED_ENV).ok().map(|v| {
        v.trim().parse().unwrap_or_else(|_| panic!("{SEED_ENV}={v:?} is not a case number"))
    });
    run_cases(config.cases, only, case);
}

/// Run cases `0..cases` (or only `only`), failing on the first case whose
/// body fails or panics with a message that names the case to replay.
fn run_cases(
    cases: u32,
    only: Option<u64>,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let range = match only {
        Some(n) => n..n + 1,
        None => 0..u64::from(cases),
    };
    for n in range {
        let mut rng = case_rng(n);
        let msg = match catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            Ok(Ok(())) | Ok(Err(TestCaseError::Reject)) => continue,
            Ok(Err(TestCaseError::Fail(msg))) => msg,
            // A plain `assert!` in the body: re-raise its message, with the case.
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "the body panicked".into()),
        };
        panic!("proptest case {n} failed (replay: {SEED_ENV}={n}): {msg}");
    }
}

/// A value generator. Unlike real proptest there is no shrinking tree; a
/// strategy just produces values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from a strategy derived from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Keep only values satisfying `f` (rejection sampling, bounded).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f, whence }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter({}) rejected 1000 candidates in a row", self.whence)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + rng.unit_f64() * (hi - lo)
    }
}

impl<A: Strategy> Strategy for (A,) {
    type Value = (A::Value,);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng),)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Size specification for [`vec`]: a fixed length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end);
            Self { lo: r.start, hi: r.end - 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with `size` elements.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `prop_assume!(cond)`: skip the case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg", ..)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert_eq!(a, b)`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            )));
        }
    }};
}

/// `prop_assert_ne!(a, b)`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
}

/// The `proptest!` block: wraps `#[test] fn f(pat in strategy, ..) { .. }`
/// items into case-looping tests.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let __strategies = ( $( $strat, )+ );
                $crate::__run(&__config, |__rng| {
                    let ( $( $arg, )+ ) = $crate::Strategy::generate(&__strategies, __rng);
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn flat_map_links_values(v in (1usize..5).prop_flat_map(|n| {
            collection::vec(0.0f64..1.0, n * 2).prop_map(move |xs| (n, xs))
        })) {
            let (n, xs) = v;
            prop_assert_eq!(xs.len(), n * 2);
        }

        #[test]
        fn assume_skips(a in 0u64..10) {
            prop_assume!(a % 2 == 0);
            prop_assert!(a % 2 == 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = (0u64..1000, 0.0f64..1.0);
        let a = Strategy::generate(&s, &mut TestRng::new(9));
        let b = Strategy::generate(&s, &mut TestRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "proptest case 3 failed (replay: KNOR_PROPTEST_SEED=3): \
                               assertion failed: n != 3")]
    fn a_failed_prop_assert_names_the_case_to_replay() {
        let mut n = 0;
        crate::run_cases(10, None, |_| {
            prop_assert!(n != 3);
            n += 1;
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "proptest case 2 failed (replay: KNOR_PROPTEST_SEED=2): boom 2")]
    fn a_panicking_body_names_the_case_to_replay() {
        let mut n = 0;
        crate::run_cases(10, None, |_| {
            assert!(n != 2, "boom {n}");
            n += 1;
            Ok(())
        });
    }

    #[test]
    fn a_seed_runs_only_that_case() {
        let mut seen = Vec::new();
        crate::run_cases(64, Some(7), |rng| {
            seen.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(seen, [crate::case_rng(7).next_u64()]);
    }
}
