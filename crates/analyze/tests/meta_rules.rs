//! Meta-lints over the rule set itself: every `CDxxxx` id that appears in
//! the rule sources must be a row of the `RULES` table, and every row
//! must be documented in DESIGN.md's rule tables. These
//! tests read the repository sources at test time, so adding a rule
//! without registering and documenting it is a test failure, not a
//! review hazard.

use cactid_analyze::RULES;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn rules_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("src/rules")
}

fn design_md() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every `CD` followed by exactly four digits in `text`.
fn cd_codes(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut out = BTreeSet::new();
    for i in 0..bytes.len().saturating_sub(5) {
        if &bytes[i..i + 2] == b"CD" && bytes[i + 2..i + 6].iter().all(u8::is_ascii_digit) {
            // Reject longer runs like CD00011 — rule codes are exactly
            // four digits.
            if bytes.get(i + 6).is_none_or(|b| !b.is_ascii_digit()) {
                out.insert(text[i..i + 6].to_string());
            }
        }
    }
    out
}

fn codes_in_sources() -> BTreeSet<String> {
    let dir = rules_dir();
    let mut out = BTreeSet::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            out.extend(cd_codes(&std::fs::read_to_string(&path).unwrap()));
        }
    }
    out
}

#[test]
fn every_code_in_the_sources_is_registered_and_vice_versa() {
    let registered: BTreeSet<String> = RULES.iter().map(|r| r.code.to_string()).collect();
    let in_sources = codes_in_sources();
    assert!(!in_sources.is_empty(), "rule sources mention no CD codes?");

    let unregistered: Vec<&String> = in_sources.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "codes in crates/analyze/src/rules/ missing from RULES: {unregistered:?}"
    );
    let unwritten: Vec<&String> = registered.difference(&in_sources).collect();
    assert!(
        unwritten.is_empty(),
        "registered codes with no rule source mentioning them: {unwritten:?}"
    );
}

#[test]
fn registered_codes_are_unique() {
    let codes: BTreeSet<&str> = RULES.iter().map(|r| r.code).collect();
    assert_eq!(codes.len(), RULES.len(), "duplicate rule code in RULES");
}

#[test]
fn every_registered_rule_is_documented_in_design_md() {
    let doc = design_md();
    // Restrict the scan to table rows so a code mentioned in prose does
    // not count as documentation.
    let table_rows: String = doc
        .lines()
        .filter(|l| l.trim_start().starts_with("| CD"))
        .collect::<Vec<_>>()
        .join("\n");
    let documented = cd_codes(&table_rows);
    for rule in &RULES {
        assert!(
            documented.contains(rule.code),
            "{} is in RULES but has no DESIGN.md rule-table row",
            rule.code
        );
    }
}
