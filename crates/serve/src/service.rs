//! The service: request dispatch, the solve path, and the stdio loop.
//!
//! One [`Service`] owns one [`SolutionStore`] (a file with `--store`, in
//! memory without), a [`MemoPool`] of evaluation memos, and a thread
//! budget for the explore engine's pool. Its one transport is a JSONL
//! loop over any reader/writer pair ([`Service::run_lines`], with
//! [`Service::run_stdio`] on stdin/stdout); every line goes through
//! [`Service::handle_line`]. A socket is one `socat` away.
//!
//! # The solve path and byte identity
//!
//! A `solve` request resolves in two stages, cheapest first:
//!
//! 1. **store** — fingerprint + canonical-key lookup in the store; a hit
//!    splices the stored body under the request's `id` without any model
//!    evaluation.
//! 2. **solve** — the full organization sweep on a pooled memo (the
//!    resident [`cactid_tech::Technology`] tables are likewise constructed
//!    once per node), after which the rendered body goes into the store.
//!
//! The store is the service's only answer table, so a spec answered once
//! is answered from it for the rest of the session under the same opt and
//! access-mode labels, whether or not a file backs it.
//!
//! A `grid` request takes the same stages in bulk: it expands the grid,
//! answers every store hit, and runs the misses, renumbered `0..m`, through
//! [`cactid_explore::explore_expansion`] with the resident memo pool. The
//! engine groups them by bank geometry and sweep key as it does for
//! `cactid explore`, so the grid costs what that explore run costs. Each
//! answer goes back under its grid `idx` and into the store.
//!
//! Records carry only deterministic data (the explore JSONL contract), so
//! the spliced warm answer is byte-identical to a cold in-process solve
//! by construction: both come from the same
//! [`cactid_explore::record::render_solved`] output, differing only in
//! the `idx` prefix the service re-attaches per request.

use crate::error::ServeError;
use crate::protocol::{parse_request, Request};
use crate::store::SolutionStore;
use cactid_core::MemorySpec;
use cactid_explore::hash::{spec_canon, spec_fingerprint};
use cactid_explore::record::{mode_label, render_invalid, render_solved};
use cactid_explore::{
    explore_expansion, Expansion, ExploreConfig, ExploreError, Grid, GridPoint, MemoPool,
};
use cactid_obs::json::JsonObject;
use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The longest request line the loops read, newline included. A line
/// nested a million brackets deep still fits, so it reaches the JSON
/// parser's nesting cap; a longer line is skipped to its newline and
/// answered in band with an error.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Service construction options.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Worker threads the explore engine uses on `grid` requests; `0`
    /// means the pool default.
    pub threads: usize,
    /// Path of the persistent solution store; `None` keeps the store in
    /// memory for the session.
    pub store: Option<PathBuf>,
}

/// A resident solve service. See the module docs for the solve path.
#[derive(Debug)]
pub struct Service {
    store: SolutionStore,
    memos: MemoPool,
    threads: usize,
    requests: AtomicU64,
    solved: AtomicU64,
}

/// The store lookup key: everything besides the spec that shapes the
/// rendered body (opt label and access-mode label), then the injective
/// canonical spec encoding. Labels come from fixed tables, so the key is
/// TSV-safe end to end.
fn store_key(point: &GridPoint, spec: &MemorySpec) -> String {
    format!(
        "{};{};{}",
        point.opt_label,
        mode_label(point.access_mode),
        spec_canon(spec)
    )
}

/// The stored portion of a record line: everything after `{"idx":N,`.
fn record_body(line: &str) -> &str {
    line.split_once(',').map_or(line, |(_, rest)| rest)
}

/// Reattaches a request-local `idx` to a stored body.
fn splice_idx(idx: usize, body: &str) -> String {
    format!("{{\"idx\":{idx},{body}")
}

fn error_line(id: u64, msg: &str) -> String {
    let mut o = JsonObject::new();
    o.u64("id", id).str("error", msg);
    o.finish()
}

impl Service {
    /// Builds a service: opens (or creates) the persistent store when
    /// configured, or starts an in-memory one, with a cold memo pool.
    ///
    /// # Errors
    ///
    /// Store open failures; see [`SolutionStore::open`].
    pub fn new(config: &ServeConfig) -> Result<Self, ServeError> {
        let store = match &config.store {
            Some(p) => SolutionStore::open(p)?,
            None => SolutionStore::in_memory(),
        };
        Ok(Service {
            store,
            memos: MemoPool::new(),
            threads: config.threads,
            requests: AtomicU64::new(0),
            solved: AtomicU64::new(0),
        })
    }

    /// The solution store: file-backed when configured, else in memory.
    pub fn store(&self) -> &SolutionStore {
        &self.store
    }

    /// Requests handled over the service's lifetime; blank lines do not
    /// count.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Specs solved over the service's lifetime; store hits and
    /// duplicates within one grid do not count.
    pub fn solved(&self) -> u64 {
        self.solved.load(Ordering::Relaxed)
    }

    /// Answers one request line. Returns the response lines plus whether
    /// the request asked the service to shut down. Blank lines produce no
    /// response and don't count as requests.
    pub fn handle_line(&self, line: &str) -> (Vec<String>, bool) {
        let line = line.trim();
        if line.is_empty() {
            return (Vec::new(), false);
        }
        self.answer(|| parse_request(line))
    }

    /// Counts, times and answers one request; `parse` yields the request
    /// or the in-band error to answer it with.
    fn answer(
        &self,
        parse: impl FnOnce() -> Result<Request, (u64, String)>,
    ) -> (Vec<String>, bool) {
        let t0 = Instant::now();
        cactid_obs::counter!("serve.requests").inc();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (responses, shutdown) = match parse() {
            Err((id, msg)) => (vec![error_line(id, &msg)], false),
            Ok(Request::Solve { point, .. }) => (vec![self.solve_line(&point)], false),
            Ok(Request::Grid { id, grid }) => (self.grid_lines(id, &grid), false),
            Ok(Request::Stats { id }) => (vec![self.stats_line(id)], false),
            Ok(Request::Shutdown { id }) => {
                let mut o = JsonObject::new();
                o.u64("id", id).bool("ok", true);
                (vec![o.finish()], true)
            }
        };
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        cactid_obs::histogram!("serve.request.ns").record(ns);
        (responses, shutdown)
    }

    /// The store's answer for `point`, spliced under its `idx`, or `None`
    /// on a miss.
    fn stored(&self, point: &GridPoint, spec: &MemorySpec) -> Option<String> {
        let body = self
            .store
            .get(spec_fingerprint(spec), &store_key(point, spec))?;
        Some(splice_idx(point.idx, &body))
    }

    /// Inserts a freshly solved record for `point` into the store.
    fn remember(&self, point: &GridPoint, spec: &MemorySpec, line: &str) {
        let key = store_key(point, spec);
        if let Err(e) = self
            .store
            .insert(spec_fingerprint(spec), &key, record_body(line))
        {
            // A failing append must not corrupt the answer: serve the
            // solve, surface the store problem out of band.
            eprintln!("cactid-serve: {e}");
        }
    }

    /// Resolves one point: store hit, else a full solve on a pooled memo
    /// (then store insert). Invalid specs render as `"invalid"` records
    /// and never touch the store.
    fn solve_line(&self, point: &GridPoint) -> String {
        let spec = match &point.spec {
            Ok(spec) => spec,
            Err(e) => return render_invalid(point, e),
        };
        if let Some(line) = self.stored(point, spec) {
            return line;
        }
        let line = render_solved(point, &self.memos.solve(spec));
        self.solved.fetch_add(1, Ordering::Relaxed);
        self.remember(point, spec, &line);
        line
    }

    /// Answers a grid: store hits are spliced in place, and the rest run
    /// through the explore engine as one renumbered point list, so they
    /// share organization and data-array sweeps exactly as `cactid
    /// explore` does. Each answer from the engine goes back under its
    /// grid `idx` and into the store.
    fn grid_lines(&self, id: u64, grid: &Grid) -> Vec<String> {
        let expansion = match grid.expand() {
            Ok(e) => e,
            Err(e) => {
                // The protocol refuses empty axes before a grid gets
                // here, so the point cap is the one expansion failure.
                if let ExploreError::TooManyPoints { .. } = e {
                    cactid_obs::counter!("serve.rejected.grid_too_large").inc();
                }
                return vec![error_line(id, &e.to_string())];
            }
        };
        let mut lines: Vec<Option<String>> = Vec::with_capacity(expansion.points.len());
        let mut misses = Vec::new();
        let mut miss_idx = Vec::new();
        for mut point in expansion.points {
            let hit = point
                .spec
                .as_ref()
                .ok()
                .and_then(|spec| self.stored(&point, spec));
            if hit.is_none() {
                miss_idx.push(point.idx);
                point.idx = misses.len();
                misses.push(point);
            }
            lines.push(hit);
        }
        let misses = Expansion {
            points: misses,
            fingerprint: expansion.fingerprint,
        };
        let config = ExploreConfig {
            threads: self.threads,
            memos: Some(&self.memos),
            ..ExploreConfig::default()
        };
        let solved = match explore_expansion(&misses, &config) {
            Ok(report) => {
                self.solved
                    .fetch_add(report.stats.solved as u64, Ordering::Relaxed);
                report.lines
            }
            Err(e) => return vec![error_line(id, &e.to_string())],
        };
        for ((point, line), idx) in misses.points.iter().zip(&solved).zip(miss_idx) {
            if let Ok(spec) = &point.spec {
                self.remember(point, spec, line);
            }
            lines[idx] = Some(splice_idx(idx, record_body(line)));
        }
        let mut lines: Vec<String> = lines
            .into_iter()
            .map(|l| l.unwrap_or_else(|| unreachable!("every grid point is answered")))
            .collect();
        let mut done = JsonObject::new();
        done.u64("id", id)
            .bool("done", true)
            .u64("points", lines.len() as u64);
        lines.push(done.finish());
        lines
    }

    fn stats_line(&self, id: u64) -> String {
        let mut o = JsonObject::new();
        o.u64("id", id)
            .u64("requests", self.requests_served())
            .u64("solved", self.solved())
            .u64("store_entries", self.store.len() as u64);
        o.finish()
    }

    /// Serves JSONL requests from `reader` until end-of-input or a
    /// `shutdown` request, writing response lines to `writer` (flushed
    /// after every request, so interactive callers see answers
    /// immediately). A line longer than [`MAX_LINE_BYTES`] or not valid
    /// UTF-8 is answered in band, like a malformed one, and counted under
    /// `serve.rejected.*`, as is a grid past the engine's point cap.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport read/write failures. Malformed
    /// requests are answered in-band and are not errors.
    pub fn run_lines(
        &self,
        mut reader: impl BufRead,
        mut writer: impl Write,
    ) -> Result<(), ServeError> {
        let read = |e: std::io::Error| ServeError::Io(format!("read: {e}"));
        let mut line = Vec::new();
        loop {
            line.clear();
            let n = (&mut reader)
                .take(MAX_LINE_BYTES as u64)
                .read_until(b'\n', &mut line)
                .map_err(read)?;
            if n == 0 {
                break;
            }
            // A capped read that stopped short of a newline is over-long
            // only if anything follows it; at end of input it is whole.
            let over_long = n == MAX_LINE_BYTES
                && line.last() != Some(&b'\n')
                && reader.skip_until(b'\n').map_err(read)? > 0;
            let (responses, shutdown) = if over_long {
                cactid_obs::counter!("serve.rejected.line_too_long").inc();
                let msg = format!("request line longer than {MAX_LINE_BYTES} bytes");
                self.answer(|| Err((0, msg)))
            } else if let Ok(line) = std::str::from_utf8(&line) {
                self.handle_line(line)
            } else {
                cactid_obs::counter!("serve.rejected.not_utf8").inc();
                self.answer(|| Err((0, "request line is not valid UTF-8".to_string())))
            };
            for r in &responses {
                writeln!(writer, "{r}").map_err(|e| ServeError::Io(format!("write: {e}")))?;
            }
            writer
                .flush()
                .map_err(|e| ServeError::Io(format!("write: {e}")))?;
            if shutdown {
                break;
            }
        }
        Ok(())
    }

    /// Serves stdin/stdout, the service's one transport: what `cactid
    /// serve` runs, and the natural mode under a process supervisor.
    ///
    /// # Errors
    ///
    /// See [`Service::run_lines`].
    pub fn run_stdio(&self) -> Result<(), ServeError> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.run_lines(stdin.lock(), stdout.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_less() -> Service {
        Service::new(&ServeConfig::default()).unwrap()
    }

    fn solve_req(id: u64) -> String {
        format!("{{\"id\":{id},\"op\":\"solve\",\"size\":65536,\"assoc\":4}}")
    }

    #[test]
    fn stdio_loop_answers_and_stops_on_shutdown() {
        let svc = store_less();
        let input = format!(
            "{}\n\n{}\n{{\"id\":5,\"op\":\"stats\"}}\n{{\"id\":6,\"op\":\"shutdown\"}}\nignored after shutdown\n",
            solve_req(1),
            solve_req(2)
        );
        let mut out = Vec::new();
        svc.run_lines(input.as_bytes(), &mut out).unwrap();
        assert_eq!(svc.requests_served(), 4, "blank line is not a request");
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"idx\":1,"));
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[1].starts_with("{\"idx\":2,"));
        assert!(lines[2].contains("\"requests\":3"));
        assert!(
            lines[2].contains("\"solved\":1"),
            "store shared: {}",
            lines[2]
        );
        assert_eq!(lines[3], "{\"id\":6,\"ok\":true}");
    }

    #[test]
    fn duplicate_requests_differ_only_in_idx() {
        let svc = store_less();
        let (a, _) = svc.handle_line(&solve_req(1));
        let (b, _) = svc.handle_line(&solve_req(42));
        assert_eq!(record_body(&a[0]), record_body(&b[0]));
        assert!(b[0].starts_with("{\"idx\":42,"));
    }

    #[test]
    fn malformed_lines_are_answered_in_band() {
        let svc = store_less();
        let (r, shutdown) = svc.handle_line("{\"id\":3,\"op\":\"fly\"}");
        assert!(!shutdown);
        assert!(r[0].starts_with("{\"id\":3,\"error\":"));
        let (r, _) = svc.handle_line("garbage");
        assert!(r[0].starts_with("{\"id\":0,\"error\":"));
    }

    #[test]
    fn a_deeply_nested_line_is_answered_in_band_and_the_loop_survives() {
        let svc = store_less();
        let input = format!(
            "{{\"id\":1,\"op\":\"solve\",\"x\":{}\n{{\"id\":2,\"op\":\"stats\"}}\n",
            "[".repeat(1 << 20)
        );
        let mut out = Vec::new();
        svc.run_lines(input.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].starts_with("{\"id\":0,\"error\":"), "{}", lines[0]);
        assert!(lines[0].contains("nesting deeper than"), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"id\":2,"), "{}", lines[1]);
        assert!(lines[1].contains("\"requests\":2"), "{}", lines[1]);
    }

    /// Runs `input` through the stdio loop and returns its answer lines.
    fn run(svc: &Service, input: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        svc.run_lines(input, &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn a_non_utf8_line_is_answered_in_band_and_the_loop_survives() {
        let svc = store_less();
        let rejected = cactid_obs::counter!("serve.rejected.not_utf8").get();
        let lines = run(&svc, b"\xff\xfe\n{\"id\":2,\"op\":\"stats\"}\n");
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("{\"id\":0,\"error\":"), "{}", lines[0]);
        assert!(lines[0].contains("UTF-8"), "{}", lines[0]);
        assert!(
            lines[1].starts_with("{\"id\":2,\"requests\":2,"),
            "{}",
            lines[1]
        );
        assert!(cactid_obs::counter!("serve.rejected.not_utf8").get() > rejected);
    }

    #[test]
    fn an_over_long_line_is_skipped_and_answered_in_band() {
        let svc = store_less();
        let rejected = cactid_obs::counter!("serve.rejected.line_too_long").get();
        let mut input = b"{\"id\":1,\"op\":\"stats\",\"pad\":\"".to_vec();
        input.resize(MAX_LINE_BYTES + 4096, b'a');
        input.extend_from_slice(b"\"}\n{\"id\":2,\"op\":\"stats\"}\n");
        let lines = run(&svc, &input);
        assert_eq!(lines.len(), 2, "one answer per line");
        assert!(lines[0].starts_with("{\"id\":0,\"error\":"), "{}", lines[0]);
        assert!(lines[0].contains("longer than"), "{}", lines[0]);
        assert!(
            lines[1].starts_with("{\"id\":2,\"requests\":2,"),
            "{}",
            lines[1]
        );
        assert!(cactid_obs::counter!("serve.rejected.line_too_long").get() > rejected);

        // A line of exactly the cap, newline included, is still read.
        let mut input = b"{\"id\":3,\"op\":\"stats\",\"pad\":\"".to_vec();
        input.resize(MAX_LINE_BYTES - 3, b'a');
        input.extend_from_slice(b"\"}\n");
        let lines = run(&svc, &input);
        assert!(
            lines[0].starts_with("{\"id\":3,\"requests\":"),
            "{}",
            lines[0]
        );

        // So is a last line of exactly the cap with no newline at all.
        let mut input = b"{\"id\":4,\"op\":\"stats\",\"pad\":\"".to_vec();
        input.resize(MAX_LINE_BYTES - 2, b'a');
        input.extend_from_slice(b"\"}");
        assert_eq!(input.len(), MAX_LINE_BYTES);
        let lines = run(&svc, &input);
        assert_eq!(lines.len(), 1, "one answer for the last line");
        assert!(
            lines[0].starts_with("{\"id\":4,\"requests\":"),
            "{}",
            lines[0]
        );

        // One byte past the cap, even if only the newline, is too long.
        let mut input = b"{\"id\":5,\"op\":\"stats\",\"pad\":\"".to_vec();
        input.resize(MAX_LINE_BYTES - 2, b'a');
        input.extend_from_slice(b"\"}\n");
        let lines = run(&svc, &input);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("longer than"), "{}", lines[0]);
    }

    #[test]
    fn invalid_specs_render_as_invalid_records() {
        let svc = store_less();
        let (r, _) = svc.handle_line("{\"id\":9,\"op\":\"solve\",\"size\":49152}");
        assert!(r[0].starts_with("{\"idx\":9,"));
        assert!(r[0].contains("\"status\":\"invalid\""));
    }

    #[test]
    fn a_burst_wider_than_its_page_is_invalid() {
        let svc = store_less();
        let (r, _) = svc.handle_line(
            "{\"id\":4,\"op\":\"solve\",\"size\":1073741824,\"banks\":8,\"cell\":\"comm-dram\",\
             \"node\":32,\"main_memory\":{\"io\":32,\"burst\":16,\"prefetch\":16,\"page\":256}}",
        );
        assert!(r[0].contains("\"status\":\"invalid\""), "{}", r[0]);
        assert!(r[0].contains("a burst cannot span pages"), "{}", r[0]);
        assert_eq!(svc.solved(), 0);
        assert!(svc.store().is_empty());
    }

    #[test]
    fn a_capacity_past_the_address_width_is_invalid() {
        // 2 TiB needs 41 address bits; specs carry 40.
        let svc = store_less();
        let (r, _) = svc.handle_line(
            "{\"id\":5,\"op\":\"solve\",\"size\":2199023255552,\"ram\":true,\
             \"cell\":\"comm-dram\",\"banks\":64,\"block\":64,\"node\":32}",
        );
        assert!(r[0].contains("\"status\":\"invalid\""), "{}", r[0]);
        assert!(r[0].contains("(41 bits needed)"), "{}", r[0]);
        assert_eq!(svc.solved(), 0);
        assert!(svc.store().is_empty());
    }

    #[test]
    fn grid_op_streams_points_then_a_done_line() {
        let svc = store_less();
        let (r, _) =
            svc.handle_line("{\"id\":7,\"op\":\"grid\",\"sizes\":[65536,131072],\"assocs\":[4,8]}");
        assert_eq!(r.len(), 5);
        for (i, line) in r[..4].iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"idx\":{i},")), "{line}");
            assert!(line.contains("\"status\":\"ok\""));
        }
        assert_eq!(r[4], "{\"id\":7,\"done\":true,\"points\":4}");
        // The grid populated the shared store; a matching solve re-renders
        // the same body without a fresh sweep.
        let (single, _) = svc.handle_line(&solve_req(3));
        assert_eq!(record_body(&single[0]), record_body(&r[0]));
    }

    #[test]
    fn a_store_less_service_answers_repeats_from_its_store() {
        let grid = "{\"id\":7,\"op\":\"grid\",\"sizes\":[65536,131072],\"assocs\":[4,8]}";
        let svc = store_less();
        let hits = cactid_obs::counter!("serve.store.hits").get();

        // A repeated solve.
        let (first, _) = svc.handle_line(&solve_req(1));
        assert_eq!(svc.solved(), 1);
        let (again, _) = svc.handle_line(&solve_req(1));
        assert_eq!(again, first);
        assert_eq!(svc.solved(), 1, "the repeat was not solved again");
        assert!(cactid_obs::counter!("serve.store.hits").get() > hits);

        // A solve of a point an earlier grid answered.
        let svc = store_less();
        let (points, _) = svc.handle_line(grid);
        assert_eq!(svc.solved(), 4);
        let (single, _) = svc.handle_line(&solve_req(0));
        assert_eq!(single[0], points[0]);
        assert_eq!(svc.solved(), 4, "the grid's answer was reused");

        // The same grid twice.
        let (again, _) = svc.handle_line(grid);
        assert_eq!(again, points);
        assert_eq!(svc.solved(), 4, "the second grid was not solved again");
        assert_eq!(svc.store().len(), 4);
    }

    #[test]
    fn an_overflowing_grid_is_answered_in_band_and_the_loop_survives() {
        // Four 2^16-entry axes in one 512 KiB line: their product, 2^64,
        // wraps to 0 unless the point count saturates.
        let svc = store_less();
        let rejected = cactid_obs::counter!("serve.rejected.grid_too_large").get();
        let axis = vec!["1"; 1 << 16].join(",");
        let input = format!(
            "{{\"id\":1,\"op\":\"grid\",\"sizes\":[{axis}],\"blocks\":[{axis}],\
             \"assocs\":[{axis}],\"banks\":[{axis}]}}\n{{\"id\":2,\"op\":\"stats\"}}\n"
        );
        let lines = run(&svc, input.as_bytes());
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("{\"id\":1,\"error\":"), "{}", lines[0]);
        assert!(lines[0].contains("engine cap"), "{}", lines[0]);
        assert!(cactid_obs::counter!("serve.rejected.grid_too_large").get() > rejected);
        assert!(
            lines[1].starts_with("{\"id\":2,\"requests\":2,"),
            "{}",
            lines[1]
        );
    }
}
