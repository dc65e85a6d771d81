//! An offline, API-compatible subset of the `proptest` crate.
//!
//! The build environment has no access to a crates.io registry, so this
//! in-tree stand-in provides exactly the surface the workspace's
//! property tests use:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(...)]` header),
//! * [`Strategy`](strategy::Strategy) with `prop_map`, implemented for integer ranges,
//!   tuples, and the combinators in [`collection`] and [`option`],
//! * `any::<T>()` for the integer types the tests draw from,
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Semantics differ from upstream proptest in one deliberate way: there
//! is **no shrinking** — a failing case panics with the generated inputs
//! in the message instead of a minimized counterexample. Generation is
//! deterministic per test (seeded from the test name), so failures
//! reproduce across runs.

pub mod collection;
pub mod option;
pub mod strategy;
pub mod test_runner;

/// Everything the tests import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Run a block of property tests.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))] // optional
///     #[test]
///     fn prop_name(a in strategy_a, b in strategy_b) { body }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $(
        #[test]
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )* ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        stringify!($name),
                        case,
                    );
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &$strat,
                            &mut __rng,
                        );
                    )+
                    // Capture the inputs for the failure report before the
                    // body may move them.
                    let __case_desc = format!(
                        concat!($(concat!(stringify!($arg), " = {:?}, ")),+),
                        $(&$arg),+
                    );
                    let __result = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| { $body })
                    );
                    if let Err(err) = __result {
                        panic!(
                            "proptest case {}/{} failed for inputs: {}\n{}",
                            case + 1,
                            config.cases,
                            __case_desc,
                            $crate::test_runner::panic_message(&err),
                        );
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}
