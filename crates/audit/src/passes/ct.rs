//! **ct-discipline** — secret-dependent control flow and table lookups
//! in the crypto crates.
//!
//! Scope: every non-test function in the crates named by
//! `audit/secrets.toml` (`[scope] crates`). Within a function the pass
//! builds a *taint set* of identifiers presumed secret:
//!
//! 1. the registry identifiers (`[identifiers] names`) — always secret
//!    wherever they appear (e.g. `scalar`, `sk`, `msk`, `key`);
//! 2. parameters whose declared type mentions a registry type
//!    (`[types] names`, e.g. `Fr`, `ModifiedIpeMasterKey`);
//! 3. propagation to fixpoint through `let` bindings and `for`
//!    patterns whose right-hand side mentions a tainted identifier
//!    (uppercase-initial identifiers are never tainted — they are
//!    types/variants, not values).
//!
//! Flagged sites — each needs a fix or an `audit-allow(ct-discipline)`
//! waiver with rationale:
//!
//! * `if` / `while` conditions mentioning a tainted identifier
//!   (secret-dependent branch ⇒ timing side channel);
//! * `match` scrutinees mentioning a tainted identifier;
//! * index/slice expressions `x[…]` whose index mentions a tainted
//!   identifier (secret-dependent memory access ⇒ cache side channel);
//! * `?` applied to an expression mentioning a tainted identifier
//!   (early return keyed on secret data).
//!
//! Method receivers (`self`) are deliberately *not* tainted: the field
//! arithmetic in `bigint`/`pairing` branches on `self` limbs in its
//! reduction steps, and tainting every receiver would bury the signal.
//! The registry names the identifiers that actually carry long-lived
//! secrets through the hot paths; the waiver log documents the rest.

use crate::lexer::{matching, Tok, TokKind};
use crate::report::Finding;
use crate::source::SourceFile;
use std::collections::BTreeSet;

const PASS: &str = "ct-discipline";

/// Run the pass over one file, appending findings.
pub fn run(file: &SourceFile, secrets: &crate::config::Secrets, out: &mut Vec<Finding>) {
    for span in &file.fns {
        if file.test_mask[span.fn_tok] {
            continue;
        }
        let toks = &file.lexed.toks;
        let taint = taint_set(toks, span.fn_tok, span.body_open, span.body_close, secrets);
        if taint.is_empty() {
            continue;
        }
        scan_body(file, span.body_open, span.body_close, &taint, out);
    }
}

/// Build the function's taint set: registry identifiers + typed params,
/// propagated through `let`/`for` bindings to fixpoint.
fn taint_set(
    toks: &[Tok],
    fn_tok: usize,
    body_open: usize,
    body_close: usize,
    secrets: &crate::config::Secrets,
) -> BTreeSet<String> {
    let mut taint: BTreeSet<String> = secrets.identifiers.iter().cloned().collect();

    // Parameters: find the parameter list `( … )` between the fn name
    // and the body, then for each `name: Type` chunk check the type
    // text against the registry types.
    let mut i = fn_tok + 1;
    while i < body_open && !toks[i].is_punct('(') {
        i += 1;
    }
    if i < body_open {
        let close = matching(toks, i).min(body_open);
        let params = &toks[i + 1..close];
        for chunk in split_top_level(params, ',') {
            let Some(colon) = chunk.iter().position(|t| t.is_punct(':')) else {
                continue; // `self`, `&mut self`
            };
            let ty = &chunk[colon + 1..];
            let secret_ty = ty
                .iter()
                .any(|t| t.kind == TokKind::Ident && secrets.types.iter().any(|s| s == &t.text));
            if secret_ty {
                for t in &chunk[..colon] {
                    if is_bindable(t) {
                        taint.insert(t.text.clone());
                    }
                }
            }
        }
    }

    // Propagate through let/for bindings until nothing new taints.
    let body = &toks[body_open..body_close.min(toks.len())];
    loop {
        let before = taint.len();
        let mut j = 0usize;
        while j < body.len() {
            if body[j].is_ident("let") {
                // Pattern up to a top-level `=`; RHS up to `;` or `{`.
                let eq = scan_until(body, j + 1, |t| t.is_punct('='));
                if let Some(eq) = eq {
                    let rhs_end = scan_until(body, eq + 1, |t| t.is_punct(';') || t.is_punct('{'))
                        .unwrap_or(body.len());
                    if mentions(&body[eq + 1..rhs_end], &taint) {
                        for t in &body[j + 1..eq] {
                            if is_bindable(t) {
                                taint.insert(t.text.clone());
                            }
                        }
                    }
                    j = eq + 1;
                    continue;
                }
            } else if body[j].is_ident("for") {
                // `for PAT in EXPR {`
                if let Some(in_kw) = scan_until(body, j + 1, |t| t.is_ident("in")) {
                    let expr_end =
                        scan_until(body, in_kw + 1, |t| t.is_punct('{')).unwrap_or(body.len());
                    if mentions(&body[in_kw + 1..expr_end], &taint) {
                        for t in &body[j + 1..in_kw] {
                            if is_bindable(t) {
                                taint.insert(t.text.clone());
                            }
                        }
                    }
                    j = expr_end;
                    continue;
                }
            }
            j += 1;
        }
        if taint.len() == before {
            break;
        }
    }
    taint
}

/// Scan a function body for secret-dependent branches, scrutinees,
/// indexing and `?`.
fn scan_body(
    file: &SourceFile,
    body_open: usize,
    body_close: usize,
    taint: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let toks = &file.lexed.toks;
    let body_end = body_close.min(toks.len());
    let mut i = body_open;
    while i < body_end {
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "if" || t.text == "while" || t.text == "match") {
            let cond_end = scan_until(toks, i + 1, |t| t.is_punct('{')).unwrap_or(body_end);
            let cond = &toks[i + 1..cond_end.min(body_end)];
            if let Some(name) = first_mention(cond, taint) {
                push(
                    file,
                    out,
                    i,
                    format!("`{}` on secret-tainted `{name}`", t.text),
                );
            }
            i += 1;
            continue;
        }
        if t.is_punct('[') && i > body_open && is_index_position(&toks[i - 1]) {
            let close = matching(toks, i);
            if let Some(name) = first_mention(&toks[i + 1..close.min(body_end)], taint) {
                push(
                    file,
                    out,
                    i,
                    format!("index/slice with secret-tainted `{name}`"),
                );
            }
            i = close.min(body_end);
            continue;
        }
        if t.is_punct('?') && i > body_open && is_index_position(&toks[i - 1]) {
            // Look back over the expression the `?` applies to.
            let mut k = i;
            while k > body_open {
                let p = &toks[k - 1];
                if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') || p.is_punct('=') {
                    break;
                }
                k -= 1;
            }
            if let Some(name) = first_mention(&toks[k..i], taint) {
                push(file, out, i, format!("`?` on secret-tainted `{name}`"));
            }
        }
        i += 1;
    }
}

fn push(file: &SourceFile, out: &mut Vec<Finding>, tok_idx: usize, message: String) {
    let line = file.lexed.toks[tok_idx].line;
    out.push(Finding {
        pass: PASS,
        file: file.rel_path.clone(),
        line,
        message,
        waived: file.waiver_for(PASS, line, tok_idx),
        warn_only: false,
    });
}

/// Would `toks[i-1]` make a following `[` an index (not an array
/// literal) — identifier, `)`, `]` or `?`.
fn is_index_position(prev: &Tok) -> bool {
    prev.kind == TokKind::Ident && !is_keyword(&prev.text)
        || prev.is_punct(')')
        || prev.is_punct(']')
        || prev.is_punct('?')
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "fn"
            | "impl"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "unsafe"
            | "dyn"
    )
}

/// A lowercase-initial identifier a pattern can bind (filters out
/// keywords, `_`, and Type/Variant names).
fn is_bindable(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && !is_keyword(&t.text)
        && t.text != "_"
        && t.text
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
}

/// Do any of `toks` mention a tainted identifier? Returns the first.
fn first_mention<'a>(toks: &[Tok], taint: &'a BTreeSet<String>) -> Option<&'a String> {
    toks.iter()
        .filter(|t| t.kind == TokKind::Ident)
        .find_map(|t| taint.get(&t.text))
}

fn mentions(toks: &[Tok], taint: &BTreeSet<String>) -> bool {
    first_mention(toks, taint).is_some()
}

/// Split a parameter list on `sep` at bracket depth 0. Inside a param
/// list `<`/`>` only ever delimit generics, so they count as brackets
/// too (keeping `BTreeMap<String, Fr>` in one chunk).
fn split_top_level(toks: &[Tok], sep: char) -> Vec<&[Tok]> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(sep) {
            out.push(&toks[start..i]);
            start = i + 1;
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

/// First index `>= from` whose token satisfies `pred`, tracking
/// bracket depth so separators inside nested groups are skipped.
fn scan_until(toks: &[Tok], from: usize, pred: impl Fn(&Tok) -> bool) -> Option<usize> {
    let mut depth = 0isize;
    for (k, t) in toks.iter().enumerate().skip(from) {
        if depth == 0 && pred(t) {
            return Some(k);
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Secrets;
    use std::path::PathBuf;

    fn secrets() -> Secrets {
        Secrets {
            identifiers: vec!["scalar".into(), "sk".into()],
            types: vec!["Fr".into()],
            crates: vec!["pairing".into()],
        }
    }

    fn findings(src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source("x.rs", PathBuf::from("x.rs"), src);
        let mut out = Vec::new();
        run(&file, &secrets(), &mut out);
        out
    }

    #[test]
    fn branch_on_registry_identifier_is_flagged() {
        let f = findings("fn f(scalar: &[u64]) -> u32 { if scalar[0] == 1 { 1 } else { 0 } }");
        assert!(f.iter().any(|x| x.message.contains("`if`")));
    }

    #[test]
    fn taint_propagates_through_let_and_for() {
        let f =
            findings("fn f(scalar: &[u64]) { let d = scalar[0] & 1; while d != 0 { work(); } }");
        assert!(
            f.iter().any(|x| x.message.contains("`while`")),
            "let-propagated taint reaches the while condition: {f:?}"
        );
        let f = findings("fn g(scalar: &[u64]) { for d in scalar { if *d > 0 { w(); } } }");
        assert!(f.iter().any(|x| x.message.contains("`if`")));
    }

    #[test]
    fn typed_params_are_tainted() {
        let f = findings("fn f(k: &Fr) -> bool { if k.is_zero() { return true; } false }");
        assert!(f.iter().any(|x| x.message.contains("secret-tainted `k`")));
    }

    #[test]
    fn secret_indexing_is_flagged() {
        let f = findings("fn f(table: &[u8], sk: usize) -> u8 { table[sk] }");
        assert!(f.iter().any(|x| x.message.contains("index/slice")));
    }

    #[test]
    fn public_values_do_not_flag() {
        let f = findings("fn f(n: usize) -> usize { if n > 3 { n } else { 0 } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn waivers_attach() {
        let f = findings(
            "// audit-allow(ct-discipline): recoding is variable-time by design\n\
             fn f(scalar: &[u64]) -> u32 { if scalar[0] == 1 { 1 } else { 0 } }",
        );
        assert!(!f.is_empty());
        assert!(f.iter().all(|x| x.waived.is_some()));
    }

    #[test]
    fn array_literals_are_not_indexing() {
        let f = findings("fn f(scalar: u64) -> [u64; 2] { let a = [scalar, 0]; a }");
        assert!(f.is_empty(), "{f:?}");
    }
}
