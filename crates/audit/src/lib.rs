//! `audit` — dependency-free static analysis for this workspace.
//!
//! Three lints, driven off a hand-written Rust lexer (comments, strings,
//! lifetimes and all) so they see exactly what `rustc` sees and none of
//! what it doesn't:
//!
//! * **ct-discipline** — no secret-dependent branches or table indexing
//!   in the crypto crates ([`passes::ct`]);
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!`/indexing in the
//!   server request path ([`passes::panics`]);
//! * **unsafe-hygiene** — `unsafe` only where allowed, always with a
//!   `// SAFETY:` comment, `#![forbid(unsafe_code)]` everywhere else
//!   ([`passes::unsafe_hygiene`]).
//!
//! Each of these checks a property the compiler does not. The wire
//! format is not among them: its tags and layouts are written once, in
//! the tables of `crates/db/src/protocol.rs`, so there is no second
//! copy for a lint to compare against — byte stability is pinned by the
//! golden fixture in `tests/serialization.rs` instead.
//!
//! A fourth internal lint, **waiver-hygiene**, keeps the escape hatch
//! honest: every `// audit-allow(<lint>): <reason>` waiver must carry a
//! non-empty rationale, name a real lint, and match at least one
//! finding — stale waivers fail the audit just like real findings.
//!
//! Run `cargo run -p audit` for the human summary (exit 1 on failure),
//! `cargo run -p audit -- --json` for the machine-readable report that
//! is committed as `audit_report.json` and diffed in CI.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod source;
pub mod walker;

use crate::config::Secrets;
use crate::report::{Finding, Report, PASS_NAMES};
use crate::source::SourceFile;
use crate::walker::Workspace;
use std::path::Path;

/// Files (beyond `crates/db/src/backend/` and `crates/eqjoind-net/src/`)
/// in the enforced panic-freedom scope.
const PANIC_ENFORCED_FILES: [&str; 5] = [
    "crates/db/src/store.rs",
    "crates/db/src/server.rs",
    "crates/db/src/protocol.rs",
    "crates/db/src/join.rs",
    "crates/db/src/encrypted.rs",
];

/// Run the whole audit, discovering the workspace upward from `start`.
pub fn run_audit(start: &Path) -> Result<Report, String> {
    let ws = Workspace::discover(start)?;
    let secrets = Secrets::load(&ws.root)?;
    let mut findings: Vec<Finding> = Vec::new();

    // Per-file passes. Files stay loaded for the waiver-hygiene sweep.
    let mut files: Vec<SourceFile> = Vec::new();
    for rel in ws.rust_files() {
        let file = SourceFile::load(&ws.root, &rel)?;
        if ct_scope(&rel, &secrets) {
            passes::ct::run(&file, &secrets, &mut findings);
        }
        if let Some(warn_only) = panic_scope(&rel) {
            passes::panics::run(&file, warn_only, &mut findings);
        }
        passes::unsafe_hygiene::run(&file, &mut findings);
        files.push(file);
    }
    passes::unsafe_hygiene::check_forbid(&ws, &mut findings);

    // Waiver hygiene: rationale present, lint known, waiver used.
    for file in &files {
        for w in &file.waivers {
            let site = |message: String| Finding {
                pass: "waiver-hygiene",
                file: file.rel_path.clone(),
                line: w.line,
                message,
                waived: None,
                warn_only: false,
            };
            if !PASS_NAMES.contains(&w.lint.as_str()) {
                findings.push(site(format!(
                    "audit-allow({}) names an unknown lint",
                    w.lint
                )));
            } else if w.reason.is_empty() {
                findings.push(site(format!(
                    "audit-allow({}) has no rationale — say why the site is safe",
                    w.lint
                )));
            } else if !w.used.get() {
                findings.push(site(format!(
                    "audit-allow({}) matches no finding — stale waiver, remove it",
                    w.lint
                )));
            }
        }
    }

    let mut report = Report { findings };
    report.normalize();
    Ok(report)
}

fn ct_scope(rel: &str, secrets: &Secrets) -> bool {
    secrets
        .crates
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// `Some(warn_only)` when `rel` is in a panic-freedom scope.
fn panic_scope(rel: &str) -> Option<bool> {
    if rel.starts_with("crates/db/src/backend/")
        || rel.starts_with("crates/eqjoind-net/src/")
        || PANIC_ENFORCED_FILES.contains(&rel)
    {
        Some(false)
    } else if rel.starts_with("crates/bench/src/") {
        Some(true)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit audits the workspace it lives in — `cargo test -p
    /// audit` is itself a full run.
    #[test]
    fn workspace_audit_runs() {
        let report = run_audit(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("audit runs");
        let json = report.json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"panic-freedom\""));
        // Don't assert passed() here — tests/audit.rs owns that gate
        // (and prints the findings); this just proves the plumbing.
    }

    #[test]
    fn scopes_are_wired_as_documented() {
        assert_eq!(panic_scope("crates/db/src/backend/remote.rs"), Some(false));
        assert_eq!(panic_scope("crates/db/src/store.rs"), Some(false));
        assert_eq!(panic_scope("crates/db/src/join.rs"), Some(false));
        assert_eq!(panic_scope("crates/db/src/encrypted.rs"), Some(false));
        assert_eq!(
            panic_scope("crates/eqjoind-net/src/reactor.rs"),
            Some(false)
        );
        assert_eq!(panic_scope("crates/bench/src/bin/fig3.rs"), Some(true));
        assert_eq!(panic_scope("crates/db/src/session.rs"), None);
        assert_eq!(panic_scope("crates/pairing/src/ops.rs"), None);
    }
}
