//! **panic-freedom** — no panicking constructs in the server request
//! path, where a malformed frame must yield a typed `DbError`, never
//! a crash that takes every other tenant's connection down with it.
//!
//! Enforced scope (findings fail the audit):
//!
//! * `crates/db/src/backend/` (every file)
//! * `crates/db/src/{store,server,protocol}.rs`
//! * `crates/eqjoind-net/src/` (every file)
//!
//! Warn-only scope (sites are counted in `audit_report.json` so the
//! trajectory is tracked, but do not fail the audit): the bench bins
//! and bench library (`crates/bench/src/`), which sit outside any lint
//! scope otherwise and are allowed to `unwrap` on their own setup.
//!
//! Flagged sites — fix (return a typed error) or waive with
//! `audit-allow(panic-freedom)` and a rationale proving the site
//! infallible:
//!
//! * `.unwrap()` / `.expect(…)` calls (`unwrap_or*` / `expect_err` on
//!   purpose-built fallbacks are fine and not matched);
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//!   invocations (`debug_assert*` is allowed: compiled out in release);
//! * index and slice expressions `x[…]` (both panic on out-of-range).
//!
//! Test code (`#[cfg(test)]` / `#[test]`) is exempt — a failing test
//! *should* panic.

use crate::lexer::{matching, Tok, TokKind};
use crate::report::Finding;
use crate::source::SourceFile;

const PASS: &str = "panic-freedom";

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Run the pass over one file. `warn_only` marks the tracked-not-
/// enforced scope.
pub fn run(file: &SourceFile, warn_only: bool, out: &mut Vec<Finding>) {
    let toks = &file.lexed.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if file.test_mask[i] {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            push(file, out, i, format!(".{}() can panic", t.text), warn_only);
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            // `std::panic::catch_unwind` etc.: require macro position,
            // not a path segment.
            && (i == 0 || !toks[i - 1].is_punct(':'))
        {
            push(file, out, i, format!("{}! can panic", t.text), warn_only);
        } else if t.is_punct('[') && i > 0 && is_index_position(&toks[i - 1]) {
            let close = matching(toks, i);
            push(
                file,
                out,
                i,
                "index/slice expression can panic on out-of-range".into(),
                warn_only,
            );
            // Descend into the index expression (nested indexing is a
            // separate site) — handled naturally by continuing at i+1.
            let _ = close;
        }
        i += 1;
    }
}

fn push(file: &SourceFile, out: &mut Vec<Finding>, tok_idx: usize, message: String, warn: bool) {
    let line = file.lexed.toks[tok_idx].line;
    out.push(Finding {
        pass: PASS,
        file: file.rel_path.clone(),
        line,
        message,
        waived: file.waiver_for(PASS, line, tok_idx),
        warn_only: warn,
    });
}

/// `[` after an identifier, `)`, `]` or `?` is indexing; after
/// anything else it is an array/type literal.
fn is_index_position(prev: &Tok) -> bool {
    (prev.kind == TokKind::Ident && !is_non_expr_keyword(&prev.text))
        || prev.is_punct(')')
        || prev.is_punct(']')
        || prev.is_punct('?')
}

fn is_non_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "loop"
            | "return"
            | "break"
            | "in"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "const"
            | "static"
            | "dyn"
            | "where"
            | "impl"
            | "for"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn findings(src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source("x.rs", PathBuf::from("x.rs"), src);
        let mut out = Vec::new();
        run(&file, false, &mut out);
        out
    }

    #[test]
    fn unwrap_expect_and_macros_are_flagged() {
        let f = findings(
            "fn f(x: Option<u32>) -> u32 { let y = x.unwrap(); let z = x.expect(\"m\"); \
             if y + z > 9 { panic!(\"boom\") } else { unreachable!() } }",
        );
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn fallback_variants_are_not_flagged() {
        let f = findings(
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + \
             x.unwrap_or_default() }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn indexing_flagged_array_literals_not() {
        let f = findings("fn f(v: &[u8], i: usize) -> u8 { let a = [1u8, 2]; v[i] + a[0] }");
        assert_eq!(f.len(), 2, "{f:?}");
        let f = findings("fn t(v: &[u8]) -> &[u8] { &v[1..] }");
        assert_eq!(f.len(), 1, "slices panic too: {f:?}");
        let f = findings("impl<const N: usize> T for [u8; N] { fn f() { for [a, b] in v {} } }");
        assert!(f.is_empty(), "`for [` opens a type or a pattern: {f:?}");
    }

    #[test]
    fn test_code_and_strings_are_exempt() {
        let f = findings(
            "#[test]\nfn t() { x.unwrap(); }\n\
             fn msg() -> &'static str { \"never .unwrap() in prod\" }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn waived_sites_carry_rationale() {
        let f = findings(
            "fn f(v: &[u8]) -> u8 {\n    // audit-allow(panic-freedom): length checked by caller\n    v[0]\n}",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].waived.as_deref(), Some("length checked by caller"));
    }

    #[test]
    fn debug_assert_is_allowed() {
        let f = findings("fn f(x: u32) { debug_assert!(x > 0); assert_ne(); }");
        assert!(f.is_empty(), "{f:?}");
    }
}
