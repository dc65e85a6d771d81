//! Findings and the machine-readable report.
//!
//! The committed artifact `audit_report.json` is deliberately
//! **low-churn**: enforced findings are listed with file+line (the list
//! must be empty for the audit to pass, so it never churns), while
//! waived and warn-only sites appear as per-file *counts* only — an
//! unrelated edit that shifts line numbers does not invalidate the
//! artifact, but adding or removing a waiver shows up as a diff CI can
//! flag.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three enforced lints plus waiver hygiene.
pub const PASS_NAMES: [&str; 4] = [
    "ct-discipline",
    "panic-freedom",
    "unsafe-hygiene",
    "waiver-hygiene",
];

/// One audit finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The lint (one of [`PASS_NAMES`]).
    pub pass: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the site.
    pub message: String,
    /// `Some(rationale)` when an `audit-allow` waiver covers the site.
    pub waived: Option<String>,
    /// True for sites in the warn-only scope (tracked, never failing).
    pub warn_only: bool,
}

/// Aggregated result of an audit run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every finding, including waived and warn-only ones.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Enforced (unwaived, non-warn-only) findings — must be empty for
    /// the audit to pass.
    pub fn enforced(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.waived.is_none() && !f.warn_only)
    }

    /// Did the audit pass?
    pub fn passed(&self) -> bool {
        self.enforced().next().is_none()
    }

    /// Sort findings for deterministic output.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.pass, &a.file, a.line, &a.message).cmp(&(b.pass, &b.file, b.line, &b.message))
        });
    }

    /// Render the human-readable summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for pass in PASS_NAMES {
            let enforced: Vec<&Finding> = self.enforced().filter(|f| f.pass == pass).collect();
            let waived = self
                .findings
                .iter()
                .filter(|f| f.pass == pass && f.waived.is_some())
                .count();
            let warn = self
                .findings
                .iter()
                .filter(|f| f.pass == pass && f.warn_only && f.waived.is_none())
                .count();
            let _ = writeln!(
                out,
                "{pass}: {} finding(s), {waived} waived, {warn} warn-only",
                enforced.len()
            );
            for f in &enforced {
                let _ = writeln!(out, "  {}:{}: {}", f.file, f.line, f.message);
            }
        }
        let _ = writeln!(
            out,
            "audit: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }

    /// Render the machine-readable JSON report (deterministic:
    /// normalized ordering, sorted maps, trailing newline).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"passes\": {\n");
        for (pi, pass) in PASS_NAMES.iter().enumerate() {
            let enforced: Vec<&Finding> = self.enforced().filter(|f| f.pass == *pass).collect();
            let mut waived: BTreeMap<&str, u64> = BTreeMap::new();
            let mut warn: BTreeMap<&str, u64> = BTreeMap::new();
            for f in self.findings.iter().filter(|f| f.pass == *pass) {
                if f.waived.is_some() {
                    *waived.entry(f.file.as_str()).or_default() += 1;
                } else if f.warn_only {
                    *warn.entry(f.file.as_str()).or_default() += 1;
                }
            }
            let _ = writeln!(out, "    {}: {{", json_str(pass));
            out.push_str("      \"enforced_findings\": [");
            for (i, f) in enforced.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\n        {{\"file\": {}, \"line\": {}, \"message\": {}}}",
                    if i == 0 { "" } else { "," },
                    json_str(&f.file),
                    f.line,
                    json_str(&f.message)
                );
            }
            if !enforced.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("],\n");
            let count_map = |out: &mut String, name: &str, map: &BTreeMap<&str, u64>| {
                let _ = write!(out, "      {}: {{", json_str(name));
                for (i, (file, n)) in map.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\n        {}: {n}",
                        if i == 0 { "" } else { "," },
                        json_str(file)
                    );
                }
                if !map.is_empty() {
                    out.push_str("\n      ");
                }
                out.push('}');
            };
            count_map(&mut out, "waived_sites", &waived);
            out.push_str(",\n");
            count_map(&mut out, "warn_only_sites", &warn);
            let _ = write!(
                out,
                ",\n      \"waived_total\": {},\n      \"warn_only_total\": {}\n    }}{}\n",
                waived.values().sum::<u64>(),
                warn.values().sum::<u64>(),
                if pi + 1 == PASS_NAMES.len() { "" } else { "," }
            );
        }
        let _ = write!(
            out,
            "  }},\n  \"passed\": {}\n}}\n",
            if self.passed() { "true" } else { "false" }
        );
        out
    }
}

/// JSON string escaping (the subset the report needs: control chars,
/// quotes, backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic_and_counts_correctly() {
        let mut report = Report::default();
        report.findings.push(Finding {
            pass: "panic-freedom",
            file: "b.rs".into(),
            line: 2,
            message: "x".into(),
            waived: Some("reason".into()),
            warn_only: false,
        });
        report.findings.push(Finding {
            pass: "panic-freedom",
            file: "a\"q.rs".into(),
            line: 1,
            message: "y".into(),
            waived: None,
            warn_only: true,
        });
        report.normalize();
        assert!(report.passed());
        let j = report.json();
        assert_eq!(j, {
            report.normalize();
            report.json()
        });
        assert!(j.contains("\"waived_total\": 1"));
        assert!(j.contains("\"warn_only_total\": 1"));
        assert!(j.contains("a\\\"q.rs"), "escaping: {j}");
        assert!(j.contains("\"passed\": true"));
    }

    #[test]
    fn enforced_findings_fail_the_audit() {
        let mut report = Report::default();
        report.findings.push(Finding {
            pass: "ct-discipline",
            file: "a.rs".into(),
            line: 1,
            message: "branch on secret".into(),
            waived: None,
            warn_only: false,
        });
        assert!(!report.passed());
        assert!(report.json().contains("\"passed\": false"));
        assert!(report.human().contains("FAIL"));
    }
}
