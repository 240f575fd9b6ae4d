//! The JSONL trace sidecar and the stderr summary table.
//!
//! The sidecar is a plain-text JSONL file, one object per line:
//!
//! ```text
//! {"type":"meta","version":2,"cmd":"explore","unix_ms":1754460000000}
//! {"type":"counter","name":"core.solve.calls","value":4}
//! {"type":"histogram","name":"span.explore.solve.ns","count":4,"sum":81,"max":40,"mean":20.25,"p50":24,"p90":38,"p99":40,"buckets":[0,...]}
//! ```
//!
//! Version 2 added the `p50`/`p90`/`p99` estimated quantiles (see
//! [`crate::metrics::quantile_from_buckets`]) to every histogram line.
//!
//! Wall-clock time appears **only** in the `meta` line; counters and
//! histograms carry event counts and monotonic-clock durations, never
//! host timestamps. Metric lines are sorted by name (counters first), so
//! diffing two sidecars of the same build is meaningful.

use crate::json::escape;
use crate::registry::{snapshot, Snapshot};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Renders one snapshot as the sidecar's JSONL body (no meta line).
fn render_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            escape(&c.name),
            c.value
        );
    }
    for h in &snap.histograms {
        let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\
             \"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
            escape(&h.name),
            h.count,
            h.sum,
            h.max,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
            buckets.join(",")
        );
    }
    out
}

/// Writes the full trace sidecar for the current process state: a `meta`
/// line stamped with the wall clock, then every registered metric.
///
/// # Errors
///
/// Propagates filesystem errors from creating or writing `path`.
pub fn write_trace(path: &Path, cmd: &str) -> std::io::Result<()> {
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let snap = snapshot();
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "{{\"type\":\"meta\",\"version\":2,\"cmd\":\"{}\",\"unix_ms\":{unix_ms}}}",
        escape(cmd)
    )?;
    f.write_all(render_jsonl(&snap).as_bytes())?;
    f.flush()
}

/// Renders the compact end-of-run summary table the CLIs print to stderr:
/// every nonzero counter, then every nonempty histogram with count, mean,
/// estimated p50/p99 and max. Durations (`*.ns` histograms) render in
/// human milliseconds.
pub fn render_summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    let counters: Vec<_> = snap.counters.iter().filter(|c| c.value > 0).collect();
    let histograms: Vec<_> = snap.histograms.iter().filter(|h| h.count > 0).collect();
    let _ = writeln!(
        out,
        "cactid-obs: {} counters, {} histograms",
        counters.len(),
        histograms.len()
    );
    if !counters.is_empty() {
        let _ = writeln!(out, "  {:<44} {:>12}", "counter", "value");
        for c in counters {
            let _ = writeln!(out, "  {:<44} {:>12}", c.name, c.value);
        }
    }
    if !histograms.is_empty() {
        let _ = writeln!(
            out,
            "  {:<44} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "histogram", "count", "mean", "p50", "p99", "max"
        );
        for h in histograms {
            let (mean, p50, p99, max) = if h.name.ends_with(".ns") {
                (
                    format!("{:.3} ms", h.mean() / 1e6),
                    format!("{:.3} ms", h.quantile(0.50) / 1e6),
                    format!("{:.3} ms", h.quantile(0.99) / 1e6),
                    format!("{:.3} ms", h.max as f64 / 1e6),
                )
            } else {
                (
                    format!("{:.1}", h.mean()),
                    format!("{:.1}", h.quantile(0.50)),
                    format!("{:.1}", h.quantile(0.99)),
                    h.max.to_string(),
                )
            };
            let _ = writeln!(
                out,
                "  {:<44} {:>8} {:>12} {:>12} {:>12} {:>12}",
                h.name, h.count, mean, p50, p99, max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::registry::{counter, histogram};

    #[test]
    fn trace_file_is_nonempty_valid_jsonl() {
        counter("trace.test.events").add(3);
        histogram("trace.test.wait_ns").record(1500);
        let dir = std::env::temp_dir().join(format!("obs-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        write_trace(&path, "unit-test").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines.len() >= 3, "meta + at least two metrics");
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[0].contains("\"unix_ms\":"));
        for line in &lines {
            assert!(
                matches!(parse(line), Ok(JsonValue::Obj(_))),
                "bad JSONL line: {line}"
            );
        }
        assert!(body.contains("\"name\":\"trace.test.events\""));
        assert!(body.contains("\"name\":\"trace.test.wait_ns\""));
        // Version-2 histogram lines carry the estimated quantiles.
        let hist = lines
            .iter()
            .find(|l| l.contains("\"name\":\"trace.test.wait_ns\""))
            .unwrap();
        for field in ["\"p50\":", "\"p90\":", "\"p99\":"] {
            assert!(hist.contains(field), "missing {field} in {hist}");
        }
    }

    #[test]
    fn summary_renders_nonzero_metrics_only() {
        counter("trace.test.zero"); // registered, stays zero
        counter("trace.test.live").inc();
        histogram("trace.test.span.ns").record(2_000_000);
        let s = render_summary(&crate::snapshot());
        assert!(s.contains("trace.test.live"));
        assert!(!s.contains("trace.test.zero"));
        assert!(s.contains("ms"), "ns histograms render as milliseconds");
    }
}
