//! Measurement arithmetic shared by every workload: medians, percentiles
//! with a minimum-tail rule, check counting, the in-memory span tracer,
//! and the result line.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice: a metric with no samples must stop the run, never
/// print as 0.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "metric has zero samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-percentile of `xs`, refused unless at least
/// [`MIN_TAIL`] samples lie above it.
///
/// # Errors
///
/// When `xs` is too small for `q`: the message names the percentile and
/// the sample count.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    let n = xs.len();
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples leaves {} beyond it; need {MIN_TAIL}",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// [`percentile`] that stops the run when the rule fails.
///
/// # Panics
///
/// When `xs` holds too few samples for `q`.
pub fn pct(xs: &[f64], q: f64, what: &str) -> f64 {
    percentile(xs, q).unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// On an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "metric has zero samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, refusing a zero denominator.
///
/// # Panics
///
/// When `den` is zero: the ratio has no samples behind it.
pub fn ratio(num: f64, den: f64, what: &str) -> f64 {
    assert!(den != 0.0, "{what}: zero denominator");
    num / den
}

/// Checked operations: every timed operation whose output was verified.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another set of checks.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of checks that passed.
    ///
    /// # Panics
    ///
    /// When nothing was checked.
    pub fn ok_frac(&self) -> f64 {
        assert!(self.attempted > 0, "ok_frac: no operation was checked");
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Named figures in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one figure.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Appends every figure of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Renders the benchmark's result line.
///
/// # Panics
///
/// On a non-finite value or a repeated name.
pub fn result_line(correct: bool, checks: Checks, metrics: &Metrics) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(seen.insert(name.as_str()), "{name} reported twice");
        if i > 0 {
            body.push_str(", ");
        }
        // `{:?}` prints the shortest text that reads back as the same f64.
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.attempted, checks.failed
    )
}

/// Peak resident set of this process in MB (`VmHWM`).
///
/// # Panics
///
/// When `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Start, seconds since the tracer was made.
    pub start: f64,
    /// End, seconds since the tracer was made.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Pass the span belongs to.
    pub pass: u32,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder for the benchmark's own calls into each layer.
/// Single-threaded: spans wrap calls made from the benchmark's thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
    pass: Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            pass: Cell::new(0),
        }
    }
}

impl Tracer {
    /// Starts a new pass id for the spans that follow.
    pub fn next_pass(&self) -> u32 {
        self.pass.set(self.pass.get() + 1);
        self.pass.get()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                start: self.t0.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: self.stack.borrow().last().copied(),
                pass: self.pass.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// Durations of the spans called `name` in `pass`.
    pub fn durations(&self, name: &str, pass: u32) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.pass == pass)
            .map(SpanRec::seconds)
            .collect()
    }

    /// Total duration of the spans called `name` in `pass`.
    pub fn total(&self, name: &str, pass: u32) -> f64 {
        self.durations(name, pass).iter().sum()
    }

    /// Writes the spans as JSONL, one object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:?},\"end_s\":{:?},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start, s.end, s.pass
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, inside a span when a tracer is given.
pub fn timed<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Seconds of `span`'s interval covered by its direct children.
pub fn child_coverage(spans: &[SpanRec], span: usize) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(span))
        .map(|s| (s.start, s.end))
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Self time per span name: each span's duration minus the part of it
/// its children cover, summed by name.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.name).or_insert(0.0) += s.seconds() - child_coverage(spans, i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn median_of_nothing_fails_loudly() {
        median(&[]);
    }

    #[test]
    #[should_panic(expected = "no operation was checked")]
    fn ok_frac_of_nothing_fails_loudly() {
        Checks::default().ok_frac();
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Ok(990.0));
        assert_eq!(percentile(&xs, 0.5), Ok(500.0));
        // 999 samples leave only 9 beyond p99.
        let err = percentile(&xs[..999], 0.99).unwrap_err();
        assert!(err.contains("leaves 9 beyond"), "{err}");
        assert!(percentile(&[], 0.5).is_err());
        // The rule holds for every accepted percentile and sample count.
        for n in [1usize, 19, 20, 21, 100, 999, 1000, 1500] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for q in [0.5, 0.9, 0.99, 0.999] {
                if let Ok(p) = percentile(&xs, q) {
                    let beyond = xs.iter().filter(|&&x| x > p).count();
                    assert!(beyond >= MIN_TAIL, "n={n} q={q} leaves {beyond}");
                }
            }
        }
    }

    #[test]
    fn failed_checks_lower_ok_frac() {
        let mut c = Checks::default();
        c.check(true);
        c.check(false);
        assert_eq!(
            c,
            Checks {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(c.ok_frac(), 0.5);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("iter_s", 0.1 + 0.2, "s");
        let line = result_line(
            true,
            Checks {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"iter_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let spans = t.spans();
        let selfs = self_times(&spans);
        assert!(selfs["inner"] >= 0.02);
        assert!(selfs["outer"] >= 0.01 && selfs["outer"] < spans[0].seconds() - 0.02 + 1e-9);
        assert!((child_coverage(&spans, 0) - spans[1].seconds()).abs() < 1e-12);
    }
}
