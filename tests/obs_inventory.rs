//! Meta-lint over the observability layer: every literal `counter!` /
//! `histogram!` call site in the workspace must be documented in
//! DESIGN.md §13's metric inventory table, and every documented metric
//! must still have a call site. The `cactid-obs` crate itself is
//! excluded — its macro uses are doc examples and self-tests with
//! placeholder names.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name != "target" && name != "obs" {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extracts `macro!("name")` metric names from one line, skipping
/// comments so doc examples don't count as call sites.
fn names_on_line<'a>(line: &'a str, marker: &str) -> Vec<&'a str> {
    if line.trim_start().starts_with("//") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find(marker) {
        rest = &rest[pos + marker.len()..];
        if let Some(end) = rest.find('"') {
            out.push(&rest[..end]);
            rest = &rest[end..];
        }
    }
    out
}

/// Metric name → kind ("counter" / "histogram") at real call sites.
fn call_sites() -> BTreeMap<String, &'static str> {
    let root = repo_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    rust_sources(&root.join("src"), &mut files);
    let mut out = BTreeMap::new();
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            for name in names_on_line(line, "counter!(\"") {
                out.insert(name.to_string(), "counter");
            }
            for name in names_on_line(line, "histogram!(\"") {
                out.insert(name.to_string(), "histogram");
            }
        }
    }
    out
}

/// Metric name → kind parsed from DESIGN.md §13's inventory table rows
/// (`| `name` | kind | meaning |`).
fn documented() -> BTreeMap<String, String> {
    let doc = std::fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
    let mut out = BTreeMap::new();
    for line in doc.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once("` | ") else {
            continue;
        };
        let Some((kind, _)) = rest.split_once(" | ") else {
            continue;
        };
        if kind == "counter" || kind == "histogram" {
            out.insert(name.to_string(), kind.to_string());
        }
    }
    out
}

#[test]
fn metric_call_sites_and_design_md_inventory_agree() {
    let sites = call_sites();
    let table = documented();
    assert!(
        !sites.is_empty(),
        "no metric call sites found in the workspace?"
    );
    assert!(
        !table.is_empty(),
        "no inventory rows found in DESIGN.md §13?"
    );

    let undocumented: Vec<&String> = sites.keys().filter(|n| !table.contains_key(*n)).collect();
    assert!(
        undocumented.is_empty(),
        "metrics recorded in code but missing from DESIGN.md §13: {undocumented:?}"
    );
    let stale: Vec<&String> = table.keys().filter(|n| !sites.contains_key(*n)).collect();
    assert!(
        stale.is_empty(),
        "metrics documented in DESIGN.md §13 with no call site: {stale:?}"
    );
    for (name, kind) in &sites {
        assert_eq!(
            table[name], *kind,
            "{name} is a {kind} in code but documented as {}",
            table[name]
        );
    }
}

#[test]
fn audit_pipeline_metrics_are_inventoried() {
    // The static-analysis metrics must be present on both sides: the
    // per-spec screen's, and the solver's per-rule prune counts that
    // `cactid explore --trace` reports in place of a separate grid audit.
    let sites = call_sites();
    let table = documented();
    for name in [
        "core.screen.calls",
        "core.screen.infeasible",
        "core.solve.pruned.subarray_rows",
        "core.solve.pruned.wordline_elmore",
        "core.solve.pruned.sense_margin",
    ] {
        assert_eq!(sites.get(name), Some(&"counter"), "{name} call site");
        assert_eq!(
            table.get(name).map(String::as_str),
            Some("counter"),
            "{name} row"
        );
    }
}
