//! Checked-in audit registries, read from `audit/` at the workspace
//! root with a minimal hand-rolled TOML-subset parser (the audit is
//! dependency-free by design, like the rest of the workspace).
//!
//! Supported subset: `[section]` headers, `key = "string"` and
//! `key = [ "a", "b", ... ]` arrays (single- or multi-line). Comments
//! start with `#`. That is all the registries need; anything else is a
//! parse error so a typo cannot silently drop an entry.

use std::collections::BTreeMap;
use std::path::Path;

/// One parsed TOML-subset document: `section.key -> value`.
#[derive(Clone, Debug, Default)]
pub struct TomlDoc {
    /// String values by `section.key`.
    pub strings: BTreeMap<String, String>,
    /// String-array values by `section.key`.
    pub arrays: BTreeMap<String, Vec<String>>,
}

impl TomlDoc {
    /// Parse `path`.
    pub fn load(path: &Path) -> Result<TomlDoc, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: read failed: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse TOML-subset text.
    pub fn parse(text: &str) -> Result<TomlDoc, String> {
        let mut doc = TomlDoc::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", n + 1));
            };
            let key = format!("{section}.{}", key.trim());
            let mut value = value.trim().to_string();
            if value.starts_with('[') {
                // Array, possibly spanning lines until the closing `]`.
                while !value.trim_end().ends_with(']') {
                    let Some((_, cont)) = lines.next() else {
                        return Err(format!("line {}: unterminated array", n + 1));
                    };
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                }
                let inner = value
                    .trim()
                    .strip_prefix('[')
                    .and_then(|v| v.strip_suffix(']'))
                    .ok_or_else(|| format!("line {}: malformed array", n + 1))?;
                let mut items = Vec::new();
                for item in inner.split(',') {
                    let item = item.trim();
                    if item.is_empty() {
                        continue;
                    }
                    items.push(parse_string(item).ok_or_else(|| {
                        format!("line {}: array items must be quoted strings", n + 1)
                    })?);
                }
                doc.arrays.insert(key, items);
            } else if let Some(s) = parse_string(&value) {
                doc.strings.insert(key, s);
            } else {
                return Err(format!("line {}: unsupported value {value:?}", n + 1));
            }
        }
        Ok(doc)
    }

    /// The array at `section.key`, or an empty list.
    pub fn array(&self, key: &str) -> &[String] {
        self.arrays.get(key).map_or(&[], |v| v.as_slice())
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` inside quotes would break this, but the registries never put
    // `#` in strings; keep the parser honest by rejecting that case.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(v: &str) -> Option<String> {
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(|s| s.to_string())
}

/// The secret registry (`audit/secrets.toml`) driving ct-discipline.
#[derive(Clone, Debug, Default)]
pub struct Secrets {
    /// Identifiers treated as secret wherever they appear.
    pub identifiers: Vec<String>,
    /// Type names whose function parameters are tainted at entry.
    pub types: Vec<String>,
    /// Crate directories (under `crates/`) the pass runs in.
    pub crates: Vec<String>,
}

impl Secrets {
    /// Load from `<root>/audit/secrets.toml`.
    pub fn load(root: &Path) -> Result<Secrets, String> {
        let doc = TomlDoc::load(&root.join("audit/secrets.toml"))?;
        let need = |key: &str| -> Result<Vec<String>, String> {
            let v = doc.array(key);
            if v.is_empty() {
                return Err(format!("audit/secrets.toml: `{key}` missing or empty"));
            }
            Ok(v.to_vec())
        };
        Ok(Secrets {
            identifiers: need("identifiers.names")?,
            types: need("types.names")?,
            crates: need("scope.crates")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let doc = TomlDoc::parse(
            r#"
# top comment
[identifiers]
names = ["scalar", "sk"]  # trailing comment

[scope]
crates = [
    "pairing",
    "fhipe",
]
note = "text"
"#,
        )
        .unwrap();
        assert_eq!(doc.array("identifiers.names"), ["scalar", "sk"]);
        assert_eq!(doc.array("scope.crates"), ["pairing", "fhipe"]);
        assert_eq!(doc.strings["scope.note"], "text");
    }

    #[test]
    fn rejects_garbage() {
        assert!(TomlDoc::parse("key value-without-equals").is_err());
        assert!(TomlDoc::parse("key = [\"unterminated\"").is_err());
        assert!(TomlDoc::parse("key = bare_word").is_err());
    }
}
