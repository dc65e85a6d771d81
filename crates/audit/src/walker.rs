//! Workspace discovery and the file walk.
//!
//! The audit finds the workspace root by walking up from its starting
//! directory to the first `Cargo.toml` containing a `[workspace]`
//! table, reads the member list out of it, and scans each member
//! crate's `src/` tree. No `cargo metadata`, no dependencies — the
//! member list in the manifest is the single source of truth, and a
//! crate that is not a member does not build anyway.

use std::path::{Path, PathBuf};

/// One workspace member crate.
#[derive(Clone, Debug)]
pub struct CrateInfo {
    /// Package name from the member's `Cargo.toml`.
    pub name: String,
    /// Member directory relative to the workspace root (`"."` for the
    /// root package).
    pub dir: String,
    /// Crate-root files that exist, relative to the workspace root
    /// (`src/lib.rs` and/or `src/main.rs`).
    pub root_files: Vec<String>,
    /// True for the offline `crates/compat/*` stand-ins.
    pub is_compat: bool,
}

/// The discovered workspace.
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Member crates, manifest order.
    pub crates: Vec<CrateInfo>,
}

impl Workspace {
    /// Walk up from `start` to the workspace root and enumerate the
    /// member crates.
    pub fn discover(start: &Path) -> Result<Workspace, String> {
        let mut dir = start
            .canonicalize()
            .map_err(|e| format!("{}: {e}", start.display()))?;
        let root = loop {
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() {
                let text = std::fs::read_to_string(&manifest)
                    .map_err(|e| format!("{}: {e}", manifest.display()))?;
                if text.contains("[workspace]") {
                    break dir;
                }
            }
            match dir.parent() {
                Some(p) => dir = p.to_path_buf(),
                None => return Err("no workspace Cargo.toml above the start directory".into()),
            }
        };
        let manifest = std::fs::read_to_string(root.join("Cargo.toml"))
            .map_err(|e| format!("workspace manifest: {e}"))?;
        let members = members_array(&manifest)
            .ok_or_else(|| "workspace manifest has no members array".to_string())?;
        let mut crates = Vec::new();
        for member in members {
            let member_dir = root.join(&member);
            let name = package_name(&member_dir)
                .ok_or_else(|| format!("{member}: cannot read package name"))?;
            let mut root_files = Vec::new();
            for rf in ["src/lib.rs", "src/main.rs"] {
                if member_dir.join(rf).is_file() {
                    root_files.push(rel_join(&member, rf));
                }
            }
            crates.push(CrateInfo {
                name,
                is_compat: member.starts_with("crates/compat/"),
                dir: member,
                root_files,
            });
        }
        Ok(Workspace { root, crates })
    }

    /// Every `.rs` file under each member's `src/`, workspace-relative,
    /// sorted.
    pub fn rust_files(&self) -> Vec<String> {
        let mut out = Vec::new();
        for krate in &self.crates {
            let src = if krate.dir == "." {
                self.root.join("src")
            } else {
                self.root.join(&krate.dir).join("src")
            };
            collect_rs(&src, &mut out);
        }
        let root_str = format!("{}/", self.root.display());
        let mut rels: Vec<String> = out
            .iter()
            .filter_map(|p| p.strip_prefix(&root_str).map(|r| r.replace('\\', "/")))
            .collect();
        rels.sort();
        rels.dedup();
        rels
    }
}

fn rel_join(dir: &str, file: &str) -> String {
    if dir == "." {
        file.to_string()
    } else {
        format!("{dir}/{file}")
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.display().to_string());
        }
    }
}

/// Extract the `members = [ … ]` string array from the workspace
/// manifest (the full manifest grammar is out of scope — inline tables
/// and all — so this targets just the member list).
fn members_array(manifest: &str) -> Option<Vec<String>> {
    let at = manifest.find("members")?;
    let open = at + manifest[at..].find('[')?;
    let close = open + manifest[open..].find(']')?;
    let inner = &manifest[open + 1..close];
    let mut out = Vec::new();
    let mut rest = inner;
    while let Some(q) = rest.find('"') {
        let tail = &rest[q + 1..];
        let end = tail.find('"')?;
        out.push(tail[..end].to_string());
        rest = &tail[end + 1..];
    }
    Some(out)
}

/// The `name = "…"` under `[package]` in `dir/Cargo.toml`.
fn package_name(dir: &Path) -> Option<String> {
    let text = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']') == "package";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start();
                if let Some(value) = value.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse() {
        let m = members_array(
            "[workspace]\nmembers = [\n    \".\",\n    \"crates/a\", # c\n    \"crates/b\",\n]\n",
        )
        .unwrap();
        assert_eq!(m, [".", "crates/a", "crates/b"]);
    }

    #[test]
    fn discovers_this_workspace() {
        let ws = Workspace::discover(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        assert!(ws.crates.iter().any(|c| c.name == "audit"));
        assert!(ws.crates.iter().any(|c| c.name == "eqjoin"));
        let compat: Vec<&CrateInfo> = ws.crates.iter().filter(|c| c.is_compat).collect();
        assert_eq!(compat.len(), 1, "the proptest stand-in");
        let files = ws.rust_files();
        assert!(files.iter().any(|f| f == "crates/db/src/protocol.rs"));
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        assert!(files.iter().all(|f| !f.contains("target/")));
    }
}
