//! Rendering of diagnostic reports: rustc-style text and machine-readable
//! JSON.
//!
//! ```text
//! error[CD0015]: tRCD (13.10 ns) + CAS (15.90 ns) = 29.00 ns exceeds ...
//!   --> solution.main_memory.timing.cas_latency
//!   = note: invariant: tRCD + CAS ≤ access, tRC = tRAS + tRP, ... (paper §2.3.2)
//!   = help: set solution.access_time = 2.9000e-8
//! ```
//!
//! [`render_json`] emits the same information as JSONL — one object per
//! diagnostic, schema documented on the function — for consumption by
//! scripts and CI gates.

use crate::lint::{Diagnostic, Location, Report};
use crate::rules::rule;
use cactid_obs::escape;
use std::fmt::Write as _;

/// Renders a full report in rustc style; rule summaries and paper
/// references are looked up in [`crate::RULES`]. Ends with a summary
/// line; returns an empty string for an empty report.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    for d in report {
        let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
        let _ = writeln!(out, "  --> {}", d.location);
        if let Some(rule) = rule(d.code) {
            let _ = writeln!(
                out,
                "  = note: invariant: {} (paper {})",
                rule.summary, rule.paper_ref
            );
        }
        if let Some(s) = &d.suggestion {
            let _ = writeln!(out, "  = help: {s}");
        }
        out.push('\n');
    }
    if !report.is_empty() {
        let _ = writeln!(out, "{}", summary_line(report));
    }
    out
}

fn location_json(loc: &Location) -> String {
    format!(
        "{{\"object\":\"{}\",\"field\":\"{}\",\"path\":\"{}\"}}",
        loc.object.as_str(),
        escape(loc.field),
        loc
    )
}

fn diagnostic_json(d: &Diagnostic) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"location\":{},\"message\":\"{}\"",
        d.code,
        d.severity.as_str(),
        location_json(&d.location),
        escape(&d.message),
    );
    match &d.suggestion {
        Some(s) => {
            let _ = write!(
                out,
                ",\"suggestion\":{{\"field\":\"{}\",\"value\":\"{}\"}}",
                s.field,
                escape(&s.value)
            );
        }
        None => out.push_str(",\"suggestion\":null"),
    }
    match rule(d.code) {
        Some(m) => {
            let _ = write!(
                out,
                ",\"rule\":{{\"stage\":\"{}\",\"default_severity\":\"{}\",\
                 \"summary\":\"{}\",\"paper\":\"{}\"}}",
                m.stage().name(),
                m.default_severity.as_str(),
                escape(m.summary),
                escape(m.paper_ref)
            );
        }
        None => out.push_str(",\"rule\":null"),
    }
    out.push('}');
    out
}

/// Renders a report as machine-readable JSONL: one JSON object per
/// diagnostic, in report order, newline-terminated. An empty report
/// renders as an empty string.
///
/// Schema (stable; additions only):
///
/// ```json
/// {"code":"CD0001",
///  "severity":"error",
///  "location":{"object":"spec","field":"capacity_bytes","path":"spec.capacity_bytes"},
///  "message":"...",
///  "suggestion":{"field":"spec.capacity_bytes","value":"1048576"} | null,
///  "rule":{"stage":"spec","default_severity":"error","summary":"...","paper":"§2.1"} | null}
/// ```
///
/// `severity` and `rule.default_severity` take the
/// [`crate::Severity`] names (`info`/`warning`/`error`);
/// `location.object` the [`crate::lint::LintObject`] names
/// (`spec`/`organization`/`solution`/`run`); `rule` is `null` only for
/// diagnostics whose code names no rule of [`crate::RULES`].
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    for d in report {
        let _ = writeln!(out, "{}", diagnostic_json(d));
    }
    out
}

/// The one-line verdict: `error: 2 errors, 1 warning emitted` or
/// `lint: no errors, 1 warning emitted` or `lint: clean`.
pub fn summary_line(report: &Report) -> String {
    let errors = report.error_count();
    let warns = report.warn_count();
    let plural = |n: usize, word: &str| {
        if n == 1 {
            format!("1 {word}")
        } else {
            format!("{n} {word}s")
        }
    };
    if errors > 0 {
        let mut s = format!("error: {} ", plural(errors, "error"));
        if warns > 0 {
            let _ = write!(s, "and {} ", plural(warns, "warning"));
        }
        s.push_str("emitted");
        s
    } else if warns > 0 {
        format!("lint: no errors, {} emitted", plural(warns, "warning"))
    } else {
        "lint: clean".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{Diagnostic, Location};
    use cactid_obs::json;

    #[test]
    fn renders_code_location_note_and_help() {
        let mut report = Report::new();
        report.push(
            Diagnostic::error(
                "CD0007",
                Location::spec("kind.prefetch"),
                "prefetch of 4 bits per pin cannot sustain a burst of 8 beats",
            )
            .with_suggestion(Location::spec("kind.prefetch"), "8"),
        );
        let text = render(&report);
        assert!(text.contains("error[CD0007]:"), "{text}");
        assert!(text.contains("--> spec.kind.prefetch"), "{text}");
        assert!(text.contains("= note: invariant:"), "{text}");
        assert!(text.contains("(paper §2.1)"), "{text}");
        assert!(
            text.contains("= help: set spec.kind.prefetch = 8"),
            "{text}"
        );
        assert!(text.contains("error: 1 error emitted"), "{text}");
    }

    #[test]
    fn run_rule_diagnostics_also_get_notes() {
        let mut report = Report::new();
        report.push(Diagnostic::error(
            "CD0105",
            Location::run("idx"),
            "idx 3 appears twice",
        ));
        let text = render(&report);
        assert!(text.contains("= note: invariant:"), "{text}");
        assert!(text.contains("--> run.idx"), "{text}");
    }

    #[test]
    fn json_rendering_parses_back_with_full_schema() {
        let mut report = Report::new();
        report.push(
            Diagnostic::error(
                "CD0007",
                Location::spec("kind.prefetch"),
                "a \"quoted\" message",
            )
            .with_suggestion(Location::spec("kind.prefetch"), "8"),
        );
        report.push(Diagnostic::warn("CD0104", Location::run("access_ns"), "m"));
        let text = render_json(&report);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = json::parse(lines[0]).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("CD0007"));
        assert_eq!(v.get("severity").unwrap().as_str(), Some("error"));
        let loc = v.get("location").unwrap();
        assert_eq!(loc.get("object").unwrap().as_str(), Some("spec"));
        assert_eq!(
            loc.get("path").unwrap().as_str(),
            Some("spec.kind.prefetch")
        );
        assert_eq!(
            v.get("message").unwrap().as_str(),
            Some("a \"quoted\" message")
        );
        let sug = v.get("suggestion").unwrap();
        assert_eq!(sug.get("value").unwrap().as_str(), Some("8"));
        let rule = v.get("rule").unwrap();
        assert_eq!(rule.get("stage").unwrap().as_str(), Some("spec"));
        assert_eq!(
            rule.get("default_severity").unwrap().as_str(),
            Some("error")
        );
        let v = json::parse(lines[1]).unwrap();
        assert_eq!(v.get("severity").unwrap().as_str(), Some("warning"));
        assert_eq!(v.get("suggestion"), Some(&json::JsonValue::Null));
        assert_eq!(
            v.get("rule").unwrap().get("stage").unwrap().as_str(),
            Some("run")
        );
    }

    #[test]
    fn unregistered_codes_render_null_rule() {
        let mut report = Report::new();
        report.push(Diagnostic::info("CD9999", Location::spec("x"), "m"));
        let text = render_json(&report);
        let v = json::parse(text.trim()).unwrap();
        assert_eq!(v.get("rule"), Some(&json::JsonValue::Null));
        assert_eq!(v.get("severity").unwrap().as_str(), Some("info"));
    }

    #[test]
    fn summary_lines_cover_all_cases() {
        let mut r = Report::new();
        assert_eq!(summary_line(&r), "lint: clean");
        r.push(Diagnostic::warn(
            "CD0002",
            Location::spec("block_bytes"),
            "m",
        ));
        assert_eq!(summary_line(&r), "lint: no errors, 1 warning emitted");
        r.push(Diagnostic::error(
            "CD0001",
            Location::spec("capacity_bytes"),
            "m",
        ));
        r.push(Diagnostic::error("CD0003", Location::spec("n_banks"), "m"));
        assert_eq!(summary_line(&r), "error: 2 errors and 1 warning emitted");
    }

    #[test]
    fn empty_report_renders_empty() {
        assert!(render(&Report::new()).is_empty());
        assert!(render_json(&Report::new()).is_empty());
    }
}
