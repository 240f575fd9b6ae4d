//! Schema coverage for the `--format json` diagnostics emitter: a golden
//! file pins the exact bytes for a known-bad spec, and a round-trip test
//! proves every `Severity` and `LintObject` variant survives
//! `render_json` → `json::parse`.

use cactid_analyze::{render_json, Analyzer, Diagnostic, Location, Report};
use cactid_core::{AccessMode, MemoryKind, MemorySpec};
use cactid_obs::json::{self, JsonValue};
use cactid_tech::{CellTechnology, TechNode};

/// 1.5 MB capacity, 48 B blocks, 3 banks: trips CD0001 (sets don't split
/// across banks), CD0002 (block size), and CD0003 (bank count), with both
/// null and non-null suggestions in one report.
fn bad_spec() -> MemorySpec {
    MemorySpec {
        capacity_bytes: 1536 << 10,
        block_bytes: 48,
        associativity: 8,
        n_banks: 3,
        kind: MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        },
        cell_tech: CellTechnology::Sram,
        node: TechNode::N32,
        address_bits: 40,
        opt: Default::default(),
    }
}

#[test]
fn known_bad_spec_matches_the_golden_jsonl() {
    let report = Analyzer::new().lint_spec(&bad_spec());
    let expected = include_str!("goldens/bad_spec.jsonl");
    assert_eq!(
        render_json(&report),
        expected,
        "json emitter output drifted from tests/goldens/bad_spec.jsonl \
         (regenerate it deliberately if the schema changed)"
    );
}

#[test]
fn every_severity_and_location_variant_round_trips() {
    // One diagnostic per severity, spread across all four location
    // objects, plus an unregistered code to cover `rule: null` and a
    // suggestion to cover the non-null branch.
    let report: Report = [
        Diagnostic::error("CD0001", Location::spec("capacity_bytes"), "err \"quoted\"")
            .with_suggestion(Location::spec("capacity_bytes"), "2097152"),
        Diagnostic::warn("CD0101", Location::run("access_ns"), "warn msg"),
        Diagnostic::info("CD0010", Location::org("ndwl"), "info msg"),
        Diagnostic::error("CD9999", Location::solution("area"), "unregistered"),
    ]
    .into_iter()
    .collect();
    let out = render_json(&report);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "one JSON object per diagnostic:\n{out}");

    let expect = [
        ("CD0001", "error", "spec", true, true),
        ("CD0101", "warning", "run", false, true),
        ("CD0010", "info", "organization", false, true),
        ("CD9999", "error", "solution", false, false),
    ];
    for (line, (code, severity, object, has_suggestion, has_rule)) in lines.iter().zip(expect) {
        let v = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        assert_eq!(s("code").as_deref(), Some(code));
        assert_eq!(s("severity").as_deref(), Some(severity));
        let loc = v.get("location").expect("location object");
        assert_eq!(
            loc.get("object").and_then(JsonValue::as_str),
            Some(object),
            "{line}"
        );
        let path = loc.get("path").and_then(JsonValue::as_str).unwrap();
        assert!(path.starts_with(object), "path {path} echoes the object");
        assert_eq!(
            v.get("suggestion")
                .is_some_and(|x| !matches!(x, JsonValue::Null)),
            has_suggestion,
            "{line}"
        );
        let rule = v.get("rule").expect("rule key always present");
        assert_eq!(!matches!(rule, JsonValue::Null), has_rule, "{line}");
        if has_rule {
            assert!(
                rule.get("default_severity")
                    .and_then(JsonValue::as_str)
                    .is_some(),
                "{line}"
            );
        }
        // The quoted-string escape must survive the round trip.
        if code == "CD0001" {
            assert_eq!(s("message").as_deref(), Some("err \"quoted\""));
        }
    }
}

#[test]
fn empty_reports_emit_nothing() {
    assert_eq!(render_json(&Report::new()), "");
}
