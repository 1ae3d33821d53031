//! Offline shim for `proptest`.
//!
//! Covers the combinator surface this workspace uses — range and tuple
//! strategies, `prop_map`, `Just`, `prop_oneof!`, `collection::vec`,
//! `bool::ANY`, `any::<T>()`, `proptest!`/`prop_assert*!` macros, and a
//! deterministic [`test_runner::TestRunner`]. A failing case prints its
//! drawn inputs (so generated values must be `Debug`), but they are **not
//! shrunk**: upstream's minimization machinery is out of scope for an
//! offline stand-in, so expect larger counterexamples.

#![forbid(unsafe_code)]

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Maximum shrink iterations (accepted for API compatibility; this
        /// shim's shrinking is bounded by construction).
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256, max_shrink_iters: 1024 }
        }
    }

    /// Why a single case failed or was rejected.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property does not hold for this input.
        Fail(String),
        /// The input does not satisfy a precondition; the case is skipped.
        Reject(String),
    }

    impl TestCaseError {
        /// A failed assertion.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejected (filtered-out) input.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
            }
        }
    }

    /// Result of a single property-test case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Drives case generation. Only the RNG matters in this shim.
    #[derive(Clone)]
    pub struct TestRunner {
        pub(crate) rng: StdRng,
        config: Config,
    }

    impl TestRunner {
        /// A runner with the given configuration and a fixed seed.
        pub fn new(config: Config) -> Self {
            TestRunner { rng: StdRng::seed_from_u64(0x9e3779b97f4a7c15), config }
        }

        /// A runner with a deterministic, documented seed (matches upstream's
        /// `deterministic()` contract: same inputs on every invocation).
        pub fn deterministic() -> Self {
            Self::new(Config::default())
        }

        /// Number of cases to run.
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        /// Mutable access to the RNG for strategy implementations.
        pub fn rng(&mut self) -> &mut StdRng {
            &mut self.rng
        }
    }

    /// Run case `case` (1-based) of `cases`. A failed assertion and a
    /// panicking body both panic with the case number, the original
    /// message and the case's inputs, which `inputs` renders only then; a
    /// rejected input passes.
    #[doc(hidden)]
    pub fn run_case(
        case: u32,
        cases: u32,
        body: impl FnOnce() -> TestCaseResult,
        inputs: impl FnOnce() -> String,
    ) {
        let msg = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
            Ok(Ok(())) | Ok(Err(TestCaseError::Reject(_))) => return,
            Ok(Err(TestCaseError::Fail(msg))) => msg,
            Err(payload) => match payload.downcast::<String>() {
                Ok(msg) => *msg,
                Err(payload) => match payload.downcast::<&'static str>() {
                    Ok(msg) => (*msg).to_string(),
                    Err(_) => "panicked with a non-string payload".to_string(),
                },
            },
        };
        panic!(
            "proptest case {case}/{cases} failed: {msg}\ninputs: {}\n(offline shim: no shrinking)",
            inputs()
        );
    }
}

pub mod strategy {
    use crate::test_runner::TestRunner;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream there is no shrinking: the "tree" produced by
    /// [`Strategy::new_tree`] holds a single value.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, runner: &mut TestRunner) -> Self::Value;

        /// Generate one value wrapped in a (non-shrinking) tree.
        fn new_tree(&self, runner: &mut TestRunner) -> Result<SingleValueTree<Self::Value>, String>
        where
            Self::Value: Clone,
        {
            Ok(SingleValueTree(self.generate(runner)))
        }

        /// Transform generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A generated value (upstream: a shrinkable tree; here: one value).
    pub trait ValueTree {
        /// The value type.
        type Value;

        /// The current (only) value.
        fn current(&self) -> Self::Value;
    }

    /// The only [`ValueTree`] in this shim: a single, unshrinkable value.
    #[derive(Debug, Clone)]
    pub struct SingleValueTree<T>(pub(crate) T);

    impl<T: Clone> ValueTree for SingleValueTree<T> {
        type Value = T;

        fn current(&self) -> T {
            self.0.clone()
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _runner: &mut TestRunner) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, runner: &mut TestRunner) -> O {
            (self.f)(self.inner.generate(runner))
        }
    }

    /// Type-erased strategy, as produced by [`Strategy::boxed`].
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    trait DynStrategy<V> {
        fn generate_dyn(&self, runner: &mut TestRunner) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, runner: &mut TestRunner) -> S::Value {
            self.generate(runner)
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, runner: &mut TestRunner) -> V {
            self.0.generate_dyn(runner)
        }
    }

    /// Uniform choice between strategies (backs `prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build from the already-boxed alternatives.
        ///
        /// # Panics
        /// Panics when `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, runner: &mut TestRunner) -> V {
            let i = runner.rng.gen_range(0..self.options.len());
            self.options[i].generate(runner)
        }
    }

    macro_rules! numeric_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, runner: &mut TestRunner) -> $t {
                    runner.rng.gen_range(self.clone())
                }
            }
        )*};
    }

    numeric_range_strategy!(u8, u16, u32, u64, usize, i32, i64, f32, f64);

    macro_rules! inclusive_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, runner: &mut TestRunner) -> $t {
                    runner.rng.gen_range(self.clone())
                }
            }
        )*};
    }

    inclusive_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(runner),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
        (A, B, C, D, E, F, G)
        (A, B, C, D, E, F, G, H)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use rand::Rng;

    /// `Vec`s of values from `element`, with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let n = runner.rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(runner)).collect()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use rand::Rng;

    /// The strategy behind [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Either boolean, uniformly.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, runner: &mut TestRunner) -> bool {
            runner.rng().gen_bool(0.5)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use rand::{Rng, RngCore};

    /// Types with a canonical "whole domain" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Draw an arbitrary value.
        fn arbitrary(runner: &mut TestRunner) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(runner: &mut TestRunner) -> $t {
                    runner.rng().next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(runner: &mut TestRunner) -> bool {
            runner.rng().gen_bool(0.5)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(runner: &mut TestRunner) -> f64 {
            // Finite, sign-symmetric; avoids NaN/inf which upstream also
            // excludes by default.
            (runner.rng().gen::<f64>() - 0.5) * 2e9
        }
    }

    /// Strategy for [`Arbitrary`] types.
    pub struct AnyStrategy<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;

        fn generate(&self, runner: &mut TestRunner) -> T {
            T::arbitrary(runner)
        }
    }

    /// The canonical strategy over all of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(core::marker::PhantomData)
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Assert a condition inside a property, failing the case (not panicking)
/// so the runner can report the generated input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// `prop_assert!(a == b)` with a diagnostic showing both sides.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, "{:?} != {:?}", left, right);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{} ({:?} != {:?})",
            ::std::format!($($fmt)*),
            left,
            right
        );
    }};
}

/// `prop_assert!(a != b)` with a diagnostic showing both sides.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left != *right, "both sides equal: {:?}", left);
    }};
}

/// Reject the current input (skipped, not failed) when a precondition is
/// unmet.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among alternative strategies producing the same type.
/// Weighted arms (`n => strat`) are not supported by the shim.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Define property tests: each `fn name(x in strategy, ...) { body }` runs
/// `cases` times with fresh random inputs. A failing case prints its inputs
/// by re-drawing them from a copy of the runner taken before the case, so
/// passing cases format nothing. No shrinking on failure.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::Config::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr);) => {};
    (
        config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut runner = $crate::test_runner::TestRunner::new(config.clone());
            for case in 0..config.cases {
                let mut replay = runner.clone();
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut runner);)+
                $crate::test_runner::run_case(
                    case + 1,
                    config.cases,
                    || {
                        $body
                        ::core::result::Result::Ok(())
                    },
                    || {
                        let inputs: ::std::vec::Vec<::std::string::String> = ::std::vec![$(
                            ::std::format!(
                                "{} = {:?}",
                                stringify!($arg),
                                $crate::strategy::Strategy::generate(&($strat), &mut replay),
                            )
                        ),+];
                        inputs.join(", ")
                    },
                );
            }
        }
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::ValueTree;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn ranges_and_vecs_stay_in_bounds(
            xs in crate::collection::vec(0.0f64..10.0, 1..8),
            n in 2usize..5,
            flag in crate::bool::ANY,
        ) {
            prop_assert!((1..8).contains(&xs.len()));
            prop_assert!(xs.iter().all(|x| (0.0..10.0).contains(x)));
            prop_assert!((2..5).contains(&n));
            let _ = flag;
        }

        #[test]
        fn oneof_and_map_compose(
            v in prop_oneof![
                (0u64..10).prop_map(|x| x as i64),
                Just(-1i64),
            ],
        ) {
            prop_assert!(v == -1 || (0..10).contains(&v));
        }

        fn always_panics(x in 1u64..2, (a, b) in (Just(-3i32), Just("s"))) {
            assert!(x > 1, "plain assert on {x} {a} {b}");
        }
    }

    #[test]
    fn a_panicking_body_names_its_case() {
        let payload = std::panic::catch_unwind(always_panics).unwrap_err();
        let msg = payload.downcast::<String>().unwrap();
        assert!(msg.contains("proptest case 1/32 failed: plain assert on 1 -3 s"), "{msg}");
        assert!(msg.contains("inputs: x = 1, (a, b) = (-3, \"s\")"), "{msg}");
    }

    #[test]
    fn new_tree_is_deterministic() {
        let strat = (0u64..1000, 0.0f64..1.0).prop_map(|(a, b)| (a, b));
        let mut r1 = crate::test_runner::TestRunner::deterministic();
        let mut r2 = crate::test_runner::TestRunner::deterministic();
        let a = strat.new_tree(&mut r1).unwrap().current();
        let b = strat.new_tree(&mut r2).unwrap().current();
        assert_eq!(a, b);
    }

    #[test]
    fn rejected_cases_are_skipped() {
        fn body(x: u64) -> TestCaseResult {
            prop_assume!(x.is_multiple_of(2));
            prop_assert!(x.is_multiple_of(2));
            Ok(())
        }
        assert!(matches!(body(3), Err(TestCaseError::Reject(_))));
        assert!(body(4).is_ok());
    }
}
