//! Fault injection for the eqjoin stack: a process-wide registry of
//! *named failpoints* that test harnesses arm to make I/O and storage
//! paths fail on purpose.
//!
//! # Model
//!
//! A failpoint is a named site in production code:
//!
//! ```ignore
//! if let Some(action) = eqjoin_failpoint::failpoint!("store::save::after_tmp_write") {
//!     match action { /* translate into this layer's failure mode */ }
//! }
//! ```
//!
//! Sites are inert until armed. Arming happens two ways:
//!
//! * programmatically — `configure("transport::read_frame", "delay(50)")`,
//! * via the `EQJOIN_FAILPOINTS` environment variable, parsed lazily on
//!   first evaluation — `name=action;name2=action2` — so a spawned
//!   `eqjoind` child process inherits the parent test's fault plan.
//!
//! # Actions
//!
//! | spec                | meaning at the site                                   |
//! |---------------------|-------------------------------------------------------|
//! | `return-error`      | fail the operation with this layer's typed error      |
//! | `delay(ms)`         | sleep `ms` milliseconds, then continue normally       |
//! | `partial-write(n)`  | write only the first `n` bytes, then fail (torn write)|
//! | `drop-conn`         | tear down the connection mid-operation                |
//! | `abort`             | `std::process::abort()` — a `kill -9` stand-in        |
//!
//! A spec may carry a shot budget: `3*drop-conn` fires on the first
//! three evaluations and is inert afterwards (so a test can exercise
//! "fails once, retry succeeds").
//!
//! # Zero cost when disabled
//!
//! Mirroring the `crates/compat` approach to optional machinery, the
//! whole registry is behind the `failpoints` cargo feature. The
//! [`failpoint!`] macro checks the feature *of the crate it expands
//! in*, so each consumer (eqjoin-db, eqjoind-net, eqjoind) forwards a
//! `failpoints` feature of its own. With the feature off — the
//! default, and the tier-1 build — every site is a constant `None`:
//! no registry, no string, no branch survives optimization.

#![forbid(unsafe_code)]

use std::fmt;

/// What an armed failpoint tells the site to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with the layer's typed error.
    ReturnError,
    /// Sleep this many milliseconds, then proceed normally.
    Delay(u64),
    /// Write only the first `n` bytes, then fail (simulated torn write).
    PartialWrite(usize),
    /// Tear down the connection mid-operation.
    DropConn,
    /// Abort the process without unwinding (a `kill -9` stand-in).
    Abort,
}

impl Action {
    /// Parse one action spec (without a shot budget), e.g. `delay(50)`.
    pub fn parse(spec: &str) -> Result<Action, String> {
        let spec = spec.trim();
        if let Some(arg) = call_arg(spec, "delay") {
            let ms = arg
                .parse::<u64>()
                .map_err(|_| format!("delay wants integer milliseconds, got {arg:?}"))?;
            return Ok(Action::Delay(ms));
        }
        if let Some(arg) = call_arg(spec, "partial-write") {
            let n = arg
                .parse::<usize>()
                .map_err(|_| format!("partial-write wants an integer byte count, got {arg:?}"))?;
            return Ok(Action::PartialWrite(n));
        }
        match spec {
            "return-error" => Ok(Action::ReturnError),
            "drop-conn" => Ok(Action::DropConn),
            "abort" => Ok(Action::Abort),
            other => Err(format!(
                "unknown failpoint action {other:?} \
                 (want return-error | delay(ms) | partial-write(n) | drop-conn | abort)"
            )),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::ReturnError => write!(f, "return-error"),
            Action::Delay(ms) => write!(f, "delay({ms})"),
            Action::PartialWrite(n) => write!(f, "partial-write({n})"),
            Action::DropConn => write!(f, "drop-conn"),
            Action::Abort => write!(f, "abort"),
        }
    }
}

/// `call_arg("delay(50)", "delay") == Some("50")`.
fn call_arg<'a>(spec: &'a str, name: &str) -> Option<&'a str> {
    let rest = spec.strip_prefix(name)?;
    rest.strip_prefix('(')?.strip_suffix(')')
}

/// Evaluate the failpoint `$name`. Expands to `Option<Action>`: always
/// `None` unless the *expanding* crate's `failpoints` feature is on
/// (each consumer forwards one to `eqjoin-failpoint/failpoints`), so
/// disabled builds carry no registry lookup, string, or branch.
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {{
        #[cfg(feature = "failpoints")]
        let __fp_action = $crate::eval($name);
        #[cfg(not(feature = "failpoints"))]
        let __fp_action: ::core::option::Option<$crate::Action> = ::core::option::Option::None;
        __fp_action
    }};
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::Action;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Environment variable a parent process uses to hand a fault plan
    /// to spawned `eqjoind` children: `name=spec;name=spec;…`.
    pub const ENV_VAR: &str = "EQJOIN_FAILPOINTS";

    struct Point {
        action: Action,
        /// `None` = unlimited; `Some(n)` = fire on the next `n`
        /// evaluations, then go inert (but stay registered for
        /// [`hits`] accounting).
        remaining: Option<u64>,
        hits: u64,
    }

    #[derive(Default)]
    struct State {
        points: HashMap<String, Point>,
        env_loaded: bool,
    }

    fn state() -> std::sync::MutexGuard<'static, State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE
            .get_or_init(|| Mutex::new(State::default()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn load_env(s: &mut State) {
        if s.env_loaded {
            return;
        }
        s.env_loaded = true;
        let Ok(plan) = std::env::var(ENV_VAR) else {
            return;
        };
        for entry in plan.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Err(e) = configure_locked(s, entry) {
                eprintln!("eqjoin-failpoint: ignoring {ENV_VAR} entry {entry:?}: {e}");
            }
        }
    }

    fn configure_locked(s: &mut State, entry: &str) -> Result<(), String> {
        let (name, spec) = entry
            .split_once('=')
            .ok_or_else(|| format!("want name=action, got {entry:?}"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err("empty failpoint name".into());
        }
        let spec = spec.trim();
        let (remaining, action_spec) = match spec.split_once('*') {
            Some((count, rest)) => {
                let n = count
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("shot budget wants an integer, got {count:?}"))?;
                (Some(n), rest)
            }
            None => (None, spec),
        };
        let action = Action::parse(action_spec)?;
        s.points.insert(
            name.to_string(),
            Point {
                action,
                remaining,
                hits: 0,
            },
        );
        Ok(())
    }

    /// Arm (or re-arm) a failpoint: `configure("remote::send", "2*drop-conn")`.
    pub fn configure(name: &str, spec: &str) -> Result<(), String> {
        let mut s = state();
        load_env(&mut s);
        configure_locked(&mut s, &format!("{name}={spec}"))
    }

    /// Disarm one failpoint (its hit counter is dropped with it).
    pub fn remove(name: &str) {
        let mut s = state();
        load_env(&mut s);
        s.points.remove(name);
    }

    /// Disarm everything, including points armed from the environment
    /// (the env plan is not re-read afterwards).
    pub fn clear() {
        let mut s = state();
        s.env_loaded = true;
        s.points.clear();
    }

    /// How many times the named failpoint has *fired* (evaluations
    /// past an exhausted shot budget do not count).
    pub fn hits(name: &str) -> u64 {
        let mut s = state();
        load_env(&mut s);
        s.points.get(name).map_or(0, |p| p.hits)
    }

    /// Evaluate a failpoint site. Called through [`crate::failpoint!`];
    /// direct use is fine in tests.
    pub fn eval(name: &str) -> Option<Action> {
        let mut s = state();
        load_env(&mut s);
        let p = s.points.get_mut(name)?;
        match &mut p.remaining {
            Some(0) => return None,
            Some(n) => *n -= 1,
            None => {}
        }
        p.hits += 1;
        Some(p.action.clone())
    }

    /// Names currently armed (inert exhausted points included), sorted.
    pub fn armed() -> Vec<String> {
        let mut s = state();
        load_env(&mut s);
        let mut names: Vec<String> = s.points.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{armed, clear, configure, eval, hits, remove, ENV_VAR};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_specs_parse() {
        assert_eq!(Action::parse("return-error"), Ok(Action::ReturnError));
        assert_eq!(Action::parse("delay(250)"), Ok(Action::Delay(250)));
        assert_eq!(
            Action::parse("partial-write(7)"),
            Ok(Action::PartialWrite(7))
        );
        assert_eq!(Action::parse("drop-conn"), Ok(Action::DropConn));
        assert_eq!(Action::parse("abort"), Ok(Action::Abort));
        assert!(Action::parse("explode").is_err());
        assert!(Action::parse("delay(fast)").is_err());
        assert!(Action::parse("partial-write()").is_err());
    }

    #[test]
    fn action_display_round_trips() {
        for spec in [
            "return-error",
            "delay(9)",
            "partial-write(3)",
            "drop-conn",
            "abort",
        ] {
            let a = Action::parse(spec).expect("parses");
            assert_eq!(a.to_string(), spec);
            assert_eq!(Action::parse(&a.to_string()), Ok(a));
        }
    }

    #[test]
    fn disabled_macro_is_none() {
        // This test crate does not enable its own `failpoints` feature,
        // so the macro must expand to a constant `None` even though the
        // registry may exist in the dependency graph.
        #[cfg(not(feature = "failpoints"))]
        assert_eq!(failpoint!("nope"), None);
    }

    // Registry semantics are exercised with the feature on. All cases
    // share one process-wide registry, so they run under distinct
    // names and never use `clear()` (tests run concurrently).
    #[cfg(feature = "failpoints")]
    mod armed {
        use super::super::*;

        #[test]
        fn configure_eval_and_hits() {
            configure("t::basic", "return-error").expect("configure");
            assert_eq!(eval("t::basic"), Some(Action::ReturnError));
            assert_eq!(eval("t::basic"), Some(Action::ReturnError));
            assert_eq!(hits("t::basic"), 2);
            remove("t::basic");
            assert_eq!(eval("t::basic"), None);
            assert_eq!(hits("t::basic"), 0);
        }

        #[test]
        fn shot_budget_exhausts() {
            configure("t::budget", "2*drop-conn").expect("configure");
            assert_eq!(eval("t::budget"), Some(Action::DropConn));
            assert_eq!(eval("t::budget"), Some(Action::DropConn));
            assert_eq!(eval("t::budget"), None);
            assert_eq!(hits("t::budget"), 2);
            assert!(armed().contains(&"t::budget".to_string()));
        }

        #[test]
        fn unarmed_points_are_inert() {
            assert_eq!(eval("t::never-armed"), None);
        }

        #[test]
        fn bad_specs_are_rejected() {
            assert!(configure("t::bad", "explode").is_err());
            assert!(configure("t::bad", "x*return-error").is_err());
            assert!(configure("", "return-error").is_err());
            assert_eq!(eval("t::bad"), None);
        }

        #[test]
        fn macro_reads_the_registry() {
            configure("t::macro", "delay(5)").expect("configure");
            assert_eq!(failpoint!("t::macro"), Some(Action::Delay(5)));
        }
    }
}
