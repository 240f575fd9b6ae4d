//! Checkpointing: the sidecar files that make interrupted sweeps resumable.
//!
//! A run writing to `out.jsonl` streams two sidecars in completion order,
//! one line per finished point, written as each pool job finishes:
//!
//! * `out.jsonl.part` — the raw JSONL records (no Pareto annotations);
//! * `out.jsonl.ckpt` — a TSV with one header and one metrics line per
//!   point:
//!
//! ```text
//! #cactid-explore-ckpt v2 grid=6c62272e07bb0142 points=100
//! 0<TAB>ok<TAB>1.23e-9<TAB>4.5e-11<TAB>2.1e-7<TAB>0.013<TAB>.
//! 7<TAB>infeasible<TAB>-<TAB>-<TAB>-<TAB>-<TAB>.
//! ```
//!
//! The header pins the grid fingerprint and point count, so a resume
//! against an edited grid fails loudly instead of stitching mismatched
//! points together. The ckpt carries the four Pareto objectives (f64
//! `Display`, which round-trips exactly) so a resumed run can extract the
//! frontier without parsing JSON. The trailing `.` is a completeness
//! sentinel: no field starts with `.`, so no truncation of a line can
//! still parse — a cut inside the last float (`0.013` → `0.01`) can never
//! be mistaken for a complete record with a different metric.
//!
//! A point counts as completed only when present in **both** sidecars,
//! and only **newline-terminated** lines count at all: a trailing
//! fragment left by a kill mid-write is ignored on load (the point
//! re-solves) and truncated away by [`trim_torn_tail`] before the resumed
//! run appends, so it can never merge with the next record. A malformed
//! *interior* line, by contrast, is real corruption and fails the load
//! loudly — tolerating it would silently discard every checkpoint written
//! after it.

use crate::error::ExploreError;
use crate::pareto::ParetoMetrics;
use crate::record::{line_idx, strip_pareto, PointStatus};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Magic prefix of the checkpoint header line.
pub const CKPT_MAGIC: &str = "#cactid-explore-ckpt v2";

/// Terminal field of every checkpoint [`line`]. No other field can start
/// with `.`, so a truncated line can never end in `<TAB>.` and pass as
/// complete.
const SENTINEL: &str = ".";

/// The streaming-records sidecar path for an output file.
pub fn part_path(out: &Path) -> PathBuf {
    sidecar(out, "part")
}

/// The checkpoint sidecar path for an output file.
pub fn ckpt_path(out: &Path) -> PathBuf {
    sidecar(out, "ckpt")
}

fn sidecar(out: &Path, ext: &str) -> PathBuf {
    let mut name = out.as_os_str().to_os_string();
    name.push(".");
    name.push(ext);
    PathBuf::from(name)
}

/// Renders the checkpoint header for a grid.
pub fn header(fingerprint: u64, points: usize) -> String {
    format!("{CKPT_MAGIC} grid={fingerprint:016x} points={points}")
}

/// Renders one checkpoint line.
pub fn line(idx: usize, status: PointStatus, metrics: Option<&ParetoMetrics>) -> String {
    let mut s = format!("{idx}\t{}", status.label());
    match metrics {
        Some(m) => {
            for v in [m.access_s, m.read_j, m.area_m2, m.leakage_w] {
                let _ = write!(s, "\t{v}");
            }
        }
        None => s.push_str("\t-\t-\t-\t-"),
    }
    s.push('\t');
    s.push_str(SENTINEL);
    s
}

fn bad(msg: impl Into<String>) -> ExploreError {
    ExploreError::Checkpoint(msg.into())
}

/// Parses [`header`] back into `(fingerprint, points)`.
pub fn parse_header(line: &str) -> Result<(u64, usize), ExploreError> {
    let rest = line
        .strip_prefix(CKPT_MAGIC)
        .ok_or_else(|| bad(format!("not a cactid-explore checkpoint: {line:?}")))?;
    let mut grid = None;
    let mut points = None;
    for field in rest.split_whitespace() {
        if let Some(v) = field.strip_prefix("grid=") {
            grid = u64::from_str_radix(v, 16).ok();
        } else if let Some(v) = field.strip_prefix("points=") {
            points = v.parse().ok();
        }
    }
    match (grid, points) {
        (Some(g), Some(p)) => Ok((g, p)),
        _ => Err(bad(format!("malformed checkpoint header: {line:?}"))),
    }
}

fn parse_status(s: &str) -> Option<PointStatus> {
    match s {
        "ok" => Some(PointStatus::Ok),
        "infeasible" => Some(PointStatus::Infeasible),
        "invalid" => Some(PointStatus::Invalid),
        _ => None,
    }
}

/// Parses one checkpoint [`line()`].
pub fn parse_line(text: &str) -> Result<(usize, PointStatus, Option<ParetoMetrics>), ExploreError> {
    let fields: Vec<&str> = text.split('\t').collect();
    let [idx, status, access, read, area, leak, SENTINEL] = fields[..] else {
        return Err(bad(format!("incomplete checkpoint line: {text:?}")));
    };
    let idx = idx
        .parse()
        .map_err(|_| bad(format!("bad checkpoint index: {text:?}")))?;
    let status =
        parse_status(status).ok_or_else(|| bad(format!("bad checkpoint status: {text:?}")))?;
    let metrics = if access == "-" {
        None
    } else {
        let f = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| bad(format!("bad checkpoint metric: {text:?}")))
        };
        Some(ParetoMetrics {
            access_s: f(access)?,
            read_j: f(read)?,
            area_m2: f(area)?,
            leakage_w: f(leak)?,
        })
    };
    Ok((idx, status, metrics))
}

/// One point restored from the sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumedPoint {
    /// The stored record line, Pareto annotation stripped.
    pub line: String,
    /// The point's status.
    pub status: PointStatus,
    /// The Pareto objectives, for `ok` points.
    pub metrics: Option<ParetoMetrics>,
}

/// Returns the newline-terminated lines of `s`, dropping a trailing
/// fragment torn by a kill mid-write.
fn complete_lines(s: &str) -> std::str::Lines<'_> {
    let end = s.rfind('\n').map_or(0, |i| i + 1);
    s[..end].lines()
}

/// Truncates a trailing newline-less fragment left by an interrupted
/// write, so that lines appended afterwards never merge with it. A
/// missing file is a no-op.
///
/// # Errors
///
/// [`ExploreError::Io`] when the file exists but cannot be read or
/// truncated.
pub fn trim_torn_tail(p: &Path) -> Result<(), ExploreError> {
    let io = |e: std::io::Error| ExploreError::Io(format!("{}: {e}", p.display()));
    let bytes = match std::fs::read(p) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(io(e)),
    };
    match bytes.last() {
        None | Some(b'\n') => return Ok(()),
        Some(_) => {}
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(p)
        .map_err(io)?;
    f.set_len(keep as u64).map_err(io)
}

/// Loads the completed points of a previous run against the same grid.
///
/// Missing sidecars mean a fresh start (empty map). A present checkpoint
/// whose header disagrees with `fingerprint`/`points` is an error — the
/// grid definition changed under the output file. Only newline-terminated
/// lines count, so a trailing torn fragment in either sidecar is ignored
/// (that point re-solves); a malformed interior checkpoint line is
/// corruption and fails loudly. Only points recorded in both sidecars are
/// resumed.
///
/// # Errors
///
/// [`ExploreError::Checkpoint`] on a header mismatch or corrupt line, and
/// [`ExploreError::Io`] if a sidecar exists but cannot be read.
pub fn load(
    out: &Path,
    fingerprint: u64,
    points: usize,
) -> Result<HashMap<usize, ResumedPoint>, ExploreError> {
    let read = |p: &Path| -> Result<Option<String>, ExploreError> {
        match std::fs::read_to_string(p) {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ExploreError::Io(format!("{}: {e}", p.display()))),
        }
    };
    let (Some(ckpt), Some(part)) = (read(&ckpt_path(out))?, read(&part_path(out))?) else {
        return Ok(HashMap::new());
    };

    let mut ckpt_lines = complete_lines(&ckpt);
    let head = ckpt_lines
        .next()
        .ok_or_else(|| bad("empty checkpoint file"))?;
    let (got_grid, got_points) = parse_header(head)?;
    if got_grid != fingerprint || got_points != points {
        return Err(bad(format!(
            "checkpoint is for a different grid \
             (grid {got_grid:016x}/{got_points} points, expected \
             {fingerprint:016x}/{points}); delete the sidecars or change --out"
        )));
    }

    let mut statuses = HashMap::new();
    for l in ckpt_lines {
        // Newline-terminated lines were written whole, so a parse failure
        // here is corruption, not a torn tail.
        let (idx, status, metrics) = parse_line(l).map_err(|e| match e {
            ExploreError::Checkpoint(msg) => {
                bad(format!("{msg}; delete the sidecars or change --out"))
            }
            other => other,
        })?;
        if idx >= points {
            return Err(bad(format!("checkpoint index {idx} out of range")));
        }
        statuses.insert(idx, (status, metrics));
    }

    let mut out_map = HashMap::new();
    for l in complete_lines(&part) {
        let Some(idx) = line_idx(l) else { continue };
        let Some(&(status, metrics)) = statuses.get(&idx) else {
            continue;
        };
        let mut line = l.to_string();
        strip_pareto(&mut line);
        out_map.insert(
            idx,
            ResumedPoint {
                line,
                status,
                metrics,
            },
        );
    }
    Ok(out_map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> ParetoMetrics {
        ParetoMetrics {
            access_s: 1.25e-9,
            read_j: 4.5e-11,
            area_m2: 2.1e-7,
            leakage_w: 0.013,
        }
    }

    #[test]
    fn header_round_trips() {
        let h = header(0x6c62_272e_07bb_0142, 100);
        assert_eq!(parse_header(&h).unwrap(), (0x6c62_272e_07bb_0142, 100));
        assert!(parse_header("#something-else").is_err());
    }

    #[test]
    fn line_round_trips_metrics_exactly() {
        let m = metrics();
        let (idx, status, parsed) = parse_line(&line(7, PointStatus::Ok, Some(&m))).unwrap();
        assert_eq!((idx, status), (7, PointStatus::Ok));
        let p = parsed.unwrap();
        assert_eq!(p.access_s.to_bits(), m.access_s.to_bits());
        assert_eq!(p.leakage_w.to_bits(), m.leakage_w.to_bits());

        let (idx, status, parsed) = parse_line(&line(3, PointStatus::Infeasible, None)).unwrap();
        assert_eq!((idx, status), (3, PointStatus::Infeasible));
        assert!(parsed.is_none());
    }

    #[test]
    fn no_truncation_of_a_line_parses() {
        // The sentinel makes completeness self-evident: every proper
        // prefix must fail, including cuts inside the last float that
        // would otherwise parse as a different metric ("0.013" -> "0.01").
        let full = line(7, PointStatus::Ok, Some(&metrics()));
        for cut in 0..full.len() {
            assert!(parse_line(&full[..cut]).is_err(), "prefix {cut} parsed");
        }
        // A v1-era line (no sentinel) is incomplete, not a shorter arity.
        assert!(parse_line("5\tok\t1e-9\t4e-11\t2e-7\t0.01").is_err());
    }

    #[test]
    fn torn_tail_is_ignored_but_interior_corruption_is_loud() {
        let dir = std::env::temp_dir().join("cactid-explore-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("sweep.jsonl");
        let fp = 0x1234u64;
        let l0 = line(0, PointStatus::Ok, Some(&metrics()));
        let l1 = line(1, PointStatus::Ok, Some(&metrics()));
        std::fs::write(
            part_path(&out),
            "{\"idx\":0,\"status\":\"ok\"}\n{\"idx\":1,\"status\":\"ok\"}\n",
        )
        .unwrap();

        // Torn trailing fragment (no newline): ignored, point 1 not resumed.
        let torn = format!("{}\n{l0}\n{}", header(fp, 10), &l1[..l1.len() - 3]);
        std::fs::write(ckpt_path(&out), &torn).unwrap();
        let m = load(&out, fp, 10).unwrap();
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&0));

        // The same bad line newline-terminated mid-file: corruption.
        let corrupt = format!("{}\n{}\n{l1}\n", header(fp, 10), &l0[..l0.len() - 3]);
        std::fs::write(ckpt_path(&out), &corrupt).unwrap();
        match load(&out, fp, 10) {
            Err(ExploreError::Checkpoint(msg)) => {
                assert!(msg.contains("delete the sidecars"), "{msg}");
            }
            other => panic!("expected checkpoint corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trim_torn_tail_cuts_only_the_fragment() {
        let dir = std::env::temp_dir().join("cactid-explore-trim-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("sidecar");

        std::fs::write(&p, "complete\ntorn-fragm").unwrap();
        trim_torn_tail(&p).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "complete\n");

        // Already clean (or missing): untouched.
        trim_torn_tail(&p).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "complete\n");
        trim_torn_tail(&dir.join("absent")).unwrap();

        // All fragment, no newline: emptied.
        std::fs::write(&p, "torn").unwrap();
        trim_torn_tail(&p).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_joins_both_sidecars() {
        let dir = std::env::temp_dir().join("cactid-explore-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("sweep.jsonl");
        let fp = 0xabcdu64;
        let mut ckpt = header(fp, 10);
        ckpt.push('\n');
        ckpt.push_str(&line(0, PointStatus::Ok, Some(&metrics())));
        ckpt.push('\n');
        ckpt.push_str(&line(1, PointStatus::Ok, Some(&metrics())));
        ckpt.push('\n');
        std::fs::write(ckpt_path(&out), ckpt).unwrap();
        // Point 1 missing from the part file (torn write): not resumed.
        // The stored pareto annotation on point 0 is stripped on load.
        std::fs::write(
            part_path(&out),
            "{\"idx\":0,\"status\":\"ok\",\"pareto\":{\"frontier\":false}}\n",
        )
        .unwrap();

        let m = load(&out, fp, 10).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[&0].line, "{\"idx\":0,\"status\":\"ok\"}");
        assert_eq!(m[&0].status, PointStatus::Ok);
        assert!(m[&0].metrics.is_some());

        // Wrong fingerprint: loud failure.
        assert!(matches!(
            load(&out, fp + 1, 10),
            Err(ExploreError::Checkpoint(_))
        ));
        // Missing sidecars: fresh start.
        assert!(load(&dir.join("absent.jsonl"), fp, 10).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
