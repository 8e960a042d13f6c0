//! The public surface holds only what callers name: every `pub fn` and
//! `pub const` of a library crate (`crates/*/src`) must be named by a
//! caller outside that crate, or be `pub(crate)` so rustc's `dead_code`
//! lint sees whether anything still uses it.
//!
//! Callers are other crates, `tests/` directories, `examples/`, doc
//! examples (the crate's own included) and the benchmark harness under
//! `perfbench/src/`. A doc link is not a caller, and neither is a
//! crate's own unit-test module. The check is by name: an identifier
//! counts as named when it appears as a whole word in caller code, so
//! a common method name (`new`, `len`) is never flagged. Each crate
//! root's `#![warn(unreachable_pub)]` covers the other half: a `pub`
//! item that no root re-export or public module reaches.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One source file split into what the check reads.
struct Source {
    path: PathBuf,
    /// `(line number, text)` of every line outside `#[cfg(test)]`
    /// modules.
    non_test: Vec<(usize, String)>,
    /// Code with `//` comments (doc comments included) removed.
    code: Vec<String>,
    /// Code inside the fenced examples of `///` and `//!` comments.
    doc_examples: Vec<String>,
}

impl Source {
    fn read(path: PathBuf) -> Self {
        let text = fs::read_to_string(&path).expect("readable source");
        let lines: Vec<&str> = text.lines().collect();
        let (mut non_test, mut code, mut doc_examples) = (Vec::new(), Vec::new(), Vec::new());
        let mut in_test = false;
        // Inside a doc fence: `Some(true)` for an example, `Some(false)`
        // for a `text` block.
        let mut fence: Option<bool> = None;
        for (i, line) in lines.iter().enumerate() {
            // A top-level test module runs from its attribute to the
            // first unindented closing brace (rustfmt layout).
            if line.starts_with("#[cfg(test)]")
                && lines.get(i + 1).is_some_and(|next| {
                    let next = next.trim_start_matches("pub(crate) ");
                    next.starts_with("mod ") && next.ends_with('{')
                })
            {
                in_test = true;
            }
            let trimmed = line.trim_start();
            if let Some(doc) = trimmed
                .strip_prefix("///")
                .or_else(|| trimmed.strip_prefix("//!"))
            {
                let doc = doc.trim_start();
                if let Some(info) = doc.strip_prefix("```") {
                    fence = match fence {
                        Some(_) => None,
                        None => Some(!info.contains("text")),
                    };
                } else if fence == Some(true) {
                    doc_examples.push(doc.strip_prefix("# ").unwrap_or(doc).to_string());
                }
                continue;
            }
            code.push(line.split("//").next().unwrap_or_default().to_string());
            if !in_test {
                non_test.push((i + 1, line.to_string()));
            }
            if in_test && *line == "}" {
                in_test = false;
            }
        }
        Self {
            path,
            non_test,
            code,
            doc_examples,
        }
    }
}

/// Every `.rs` file under `dir`, recursively; nothing if it is absent.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn add_words(lines: &[String], words: &mut HashSet<String>) {
    for line in lines {
        words.extend(
            line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .map(str::to_string),
        );
    }
}

/// The name of the `pub fn`, `pub const fn` or `pub const` a line
/// declares, if it declares one.
fn declared_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["fn ", "const fn ", "const "]
        .iter()
        .find_map(|keyword| rest.strip_prefix(keyword))?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|name| !name.is_empty())
}

#[test]
fn every_pub_fn_and_const_is_named_by_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "perfbench/src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    paths.retain(|p| !p.components().any(|c| c.as_os_str() == "target"));
    let sources: Vec<Source> = paths.into_iter().map(Source::read).collect();

    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|src| src.join("lib.rs").is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 15, "found {} library crates", crates.len());

    let mut unnamed = Vec::new();
    let mut checked = 0;
    for src in &crates {
        let mut callers = HashSet::new();
        for s in &sources {
            if !s.path.starts_with(src) {
                add_words(&s.code, &mut callers);
            }
            add_words(&s.doc_examples, &mut callers);
        }
        for s in sources.iter().filter(|s| s.path.starts_with(src)) {
            for (line, text) in &s.non_test {
                if let Some(name) = declared_name(text) {
                    checked += 1;
                    if !callers.contains(name) {
                        let file = s.path.strip_prefix(root).unwrap_or(&s.path);
                        unnamed.push(format!("{}:{line}: {}", file.display(), text.trim()));
                    }
                }
            }
        }
    }
    assert!(checked > 100, "only {checked} pub items found");
    assert!(
        unnamed.is_empty(),
        "{} pub items no caller outside their crate names; make them \
         pub(crate) (and delete what dead_code then reports):\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}
