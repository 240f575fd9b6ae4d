//! Checkpointing: the sidecar that makes interrupted sweeps resumable.
//!
//! A run writing to `out.jsonl` streams one sidecar, `out.jsonl.ckpt`, in
//! completion order, one line per finished point, written as each pool
//! job finishes. It is a [`crate::log`] file: a header, then one
//! TAB-separated line per point closed by the `.` sentinel:
//!
//! ```text
//! #cactid-explore-ckpt v4 grid=6c62272e07bb0142 points=100
//! 0<TAB>ok<TAB>1.23e-9<TAB>4.5e-11<TAB>2.1e-7<TAB>0.013<TAB>{"idx":0,...}<TAB>.
//! 7<TAB>infeasible<TAB>-<TAB>-<TAB>-<TAB>-<TAB>{"idx":7,...}<TAB>.
//! ```
//!
//! The header pins the grid fingerprint and point count, so a resume
//! against an edited grid fails loudly instead of stitching mismatched
//! points together. Each line carries the point's status, its four Pareto
//! objectives (f64 `Display`, which round-trips exactly) so a resumed run
//! can extract the frontier without parsing JSON, and its JSONL record
//! without Pareto annotations (JSON escaping keeps it free of TABs and
//! newlines). Torn tails, interior corruption and the header check before
//! any cut follow the log's rules ([`crate::log`]).

use crate::error::ExploreError;
use crate::log::{Log, LogError};
use crate::pareto::ParetoMetrics;
use crate::record::{line_idx, PointStatus};
use std::collections::HashMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};

/// Magic prefix of the checkpoint header line.
pub const CKPT_MAGIC: &str = "#cactid-explore-ckpt v4";

/// The checkpoint sidecar path for an output file.
pub fn ckpt_path(out: &Path) -> PathBuf {
    let mut name = out.as_os_str().to_os_string();
    name.push(".ckpt");
    PathBuf::from(name)
}

/// One point restored from the checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumedPoint {
    /// The stored record line, without Pareto annotation.
    pub line: String,
    /// The point's status.
    pub status: PointStatus,
    /// The Pareto objectives, for `ok` points.
    pub metrics: Option<ParetoMetrics>,
}

/// Opens the checkpoint of `out` for a run over a grid of `points` points
/// with definition `fingerprint`, returning its append handle and, when
/// `resume` is set, the points a previous run completed. Without `resume`
/// the checkpoint starts afresh; with it, a missing checkpoint is a fresh
/// start too.
///
/// # Errors
///
/// [`ExploreError::Checkpoint`] when the checkpoint belongs to another grid
/// or format or holds a corrupt line (the file is left as it was), and
/// [`ExploreError::Io`] when it cannot be read or written.
pub fn open(
    out: &Path,
    fingerprint: u64,
    points: usize,
    resume: bool,
) -> Result<(Log, HashMap<usize, ResumedPoint>), ExploreError> {
    let path = ckpt_path(out);
    let head = format!("{CKPT_MAGIC} grid={fingerprint:016x} points={points}");
    let mut resumed = HashMap::new();
    let log = if resume {
        Log::open(
            &path,
            &head,
            |[idx, status, access, read, area, leak, line]| {
                let idx = idx.parse().ok().filter(|&i| i < points)?;
                let status = parse_status(status)?;
                let metrics = match [access, read, area, leak] {
                    ["-", "-", "-", "-"] => None,
                    v => {
                        let [access_s, read_j, area_m2, leakage_w] = v.map(str::parse::<f64>);
                        Some(ParetoMetrics {
                            access_s: access_s.ok()?,
                            read_j: read_j.ok()?,
                            area_m2: area_m2.ok()?,
                            leakage_w: leakage_w.ok()?,
                        })
                    }
                };
                (line_idx(line) == Some(idx)).then_some(())?;
                let line = line.to_string();
                resumed.insert(
                    idx,
                    ResumedPoint {
                        line,
                        status,
                        metrics,
                    },
                );
                Some(())
            },
        )
    } else {
        Log::create(&path, &head)
    };
    let log = log.map_err(|e| match e {
        LogError::Io(msg) => ExploreError::Io(msg),
        LogError::Header(found) => {
            let what = if found.starts_with(CKPT_MAGIC) {
                "is for a different grid"
            } else if found.starts_with("#cactid-explore-ckpt ") {
                "is in an older format"
            } else {
                "is not a cactid-explore checkpoint"
            };
            ExploreError::Checkpoint(format!(
                "{} {what} (header {found:?}, expected {head:?}); \
                 delete the sidecars or change --out",
                path.display()
            ))
        }
        LogError::Corrupt(n) => ExploreError::Checkpoint(format!(
            "{}: corrupt checkpoint line {n}; delete the sidecars or change --out",
            path.display()
        )),
    })?;
    Ok((log, resumed))
}

/// Queues one finished point's checkpoint line on `log`.
pub fn push(
    log: &mut Log,
    idx: usize,
    line: &str,
    status: PointStatus,
    metrics: Option<&ParetoMetrics>,
) {
    let label = status.label();
    match metrics {
        Some(m) => log.push(&[
            &idx,
            &label,
            &m.access_s,
            &m.read_j,
            &m.area_m2,
            &m.leakage_w,
            &line,
        ]),
        None => {
            let none: &dyn Display = &"-";
            log.push(&[&idx, &label, none, none, none, none, &line]);
        }
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

    fn record(idx: usize) -> String {
        format!("{{\"idx\":{idx},\"status\":\"ok\"}}")
    }

    /// A fresh checkpoint of `out` holding `done` as ok points.
    fn write(out: &Path, fp: u64, points: usize, done: &[usize]) {
        let (mut log, _) = open(out, fp, points, false).unwrap();
        for &idx in done {
            push(
                &mut log,
                idx,
                &record(idx),
                PointStatus::Ok,
                Some(&metrics()),
            );
        }
        log.flush().unwrap();
    }

    fn tmp_out(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cactid-explore-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.jsonl"))
    }

    fn checkpoint_error(r: Result<(Log, HashMap<usize, ResumedPoint>), ExploreError>) -> String {
        match r {
            Err(ExploreError::Checkpoint(msg)) => msg,
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn header_round_trips() {
        let out = tmp_out("header");
        write(&out, 0x6c62_272e_07bb_0142, 100, &[]);
        let text = std::fs::read_to_string(ckpt_path(&out)).unwrap();
        assert_eq!(
            text,
            "#cactid-explore-ckpt v4 grid=6c62272e07bb0142 points=100\n"
        );
        let (_, resumed) = open(&out, 0x6c62_272e_07bb_0142, 100, true).unwrap();
        assert!(resumed.is_empty());
        assert_eq!(std::fs::read_to_string(ckpt_path(&out)).unwrap(), text);
        std::fs::remove_file(ckpt_path(&out)).ok();
    }

    #[test]
    fn line_round_trips_metrics_exactly() {
        let out = tmp_out("round-trip");
        let (mut log, _) = open(&out, 1, 10, false).unwrap();
        push(&mut log, 7, &record(7), PointStatus::Ok, Some(&metrics()));
        let infeasible = "{\"idx\":3,\"status\":\"infeasible\"}";
        push(&mut log, 3, infeasible, PointStatus::Infeasible, None);
        log.flush().unwrap();
        let (_, resumed) = open(&out, 1, 10, true).unwrap();

        let p = resumed[&7].metrics.unwrap();
        assert_eq!(resumed[&7].status, PointStatus::Ok);
        assert_eq!(resumed[&7].line, record(7));
        assert_eq!(p.access_s.to_bits(), metrics().access_s.to_bits());
        assert_eq!(p.leakage_w.to_bits(), metrics().leakage_w.to_bits());
        assert_eq!(resumed[&3].status, PointStatus::Infeasible);
        assert_eq!(resumed[&3].line, infeasible);
        assert!(resumed[&3].metrics.is_none());
        std::fs::remove_file(ckpt_path(&out)).ok();
    }

    #[test]
    fn no_truncation_of_a_line_parses() {
        // Every proper prefix of a checkpoint line, newline-terminated as
        // if it had been written whole, must fail the open: a cut inside
        // the last float would otherwise restore a different metric
        // ("0.013" -> "0.01"), a cut inside the record a different line.
        let out = tmp_out("truncation");
        let (mut log, _) = open(&out, 5, 10, false).unwrap();
        let record = "{\"idx\":7,\"status\":\"ok\",\"cell\":\"\u{3bc}\"}";
        push(&mut log, 7, record, PointStatus::Ok, Some(&metrics()));
        log.flush().unwrap();
        let whole = std::fs::read_to_string(ckpt_path(&out)).unwrap();
        let (head, line) = whole.trim_end().split_once('\n').unwrap();
        assert_eq!(open(&out, 5, 10, true).unwrap().1[&7].line, record);
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            std::fs::write(ckpt_path(&out), format!("{head}\n{}\n", &line[..cut])).unwrap();
            let msg = checkpoint_error(open(&out, 5, 10, true));
            assert!(
                msg.contains("corrupt checkpoint line 2"),
                "prefix {cut}: {msg}"
            );
        }
        std::fs::remove_file(ckpt_path(&out)).ok();
    }

    #[test]
    fn torn_tail_is_ignored_but_interior_corruption_is_loud() {
        let out = tmp_out("torn");
        write(&out, 0x1234, 10, &[0, 1]);
        let whole = std::fs::read_to_string(ckpt_path(&out)).unwrap();

        // Torn trailing fragment (no newline): ignored, point 1 not resumed.
        std::fs::write(ckpt_path(&out), &whole[..whole.len() - 3]).unwrap();
        let (_, resumed) = open(&out, 0x1234, 10, true).unwrap();
        assert_eq!(resumed.len(), 1);
        assert!(resumed.contains_key(&0));

        // The same bad line newline-terminated mid-file: corruption, and
        // the torn tail after it is not cut either.
        let lines: Vec<&str> = whole.lines().collect();
        let cut = &lines[1][..lines[1].len() - 3];
        let corrupt = format!("{}\n{cut}\n{}\n{cut}", lines[0], lines[2]);
        std::fs::write(ckpt_path(&out), &corrupt).unwrap();
        let msg = checkpoint_error(open(&out, 0x1234, 10, true));
        assert!(msg.contains("delete the sidecars"), "{msg}");
        assert_eq!(std::fs::read_to_string(ckpt_path(&out)).unwrap(), corrupt);

        // So is invalid UTF-8 in a complete line.
        let mut bad = whole.clone().into_bytes();
        bad[lines[0].len() + 3] = 0xff;
        std::fs::write(ckpt_path(&out), &bad).unwrap();
        checkpoint_error(open(&out, 0x1234, 10, true));

        // A line whose record names another point is corrupt too.
        let swapped = whole.replacen("{\"idx\":1,", "{\"idx\":2,", 1);
        std::fs::write(ckpt_path(&out), swapped).unwrap();
        checkpoint_error(open(&out, 0x1234, 10, true));
        // So is an index outside the grid.
        write(&out, 0x1234, 10, &[10]);
        checkpoint_error(open(&out, 0x1234, 10, true));
        std::fs::remove_file(ckpt_path(&out)).ok();
    }

    #[test]
    fn trim_torn_tail_cuts_only_the_fragment() {
        let out = tmp_out("trim");
        write(&out, 0x99, 10, &[0, 1]);
        let whole = std::fs::read_to_string(ckpt_path(&out)).unwrap();
        let kept = whole.len() - whole.lines().last().unwrap().len() - 1;
        for torn in [kept + 1, whole.len() - 1] {
            std::fs::write(ckpt_path(&out), &whole[..torn]).unwrap();
            open(&out, 0x99, 10, true).unwrap();
            assert_eq!(
                std::fs::read_to_string(ckpt_path(&out)).unwrap(),
                whole[..kept]
            );
        }
        // Already clean: untouched.
        std::fs::write(ckpt_path(&out), &whole).unwrap();
        open(&out, 0x99, 10, true).unwrap();
        assert_eq!(std::fs::read_to_string(ckpt_path(&out)).unwrap(), whole);
        std::fs::remove_file(ckpt_path(&out)).ok();
    }

    #[test]
    fn open_restores_points_from_the_one_sidecar() {
        let out = tmp_out("restore");
        let fp = 0xabcd;
        write(&out, fp, 10, &[0, 1]);
        let (_, resumed) = open(&out, fp, 10, true).unwrap();
        assert_eq!(resumed.len(), 2);
        assert_eq!(resumed[&0].line, "{\"idx\":0,\"status\":\"ok\"}");
        assert_eq!(resumed[&0].status, PointStatus::Ok);
        assert!(resumed[&0].metrics.is_some());

        // Wrong fingerprint or point count: loud failure, file untouched.
        let before = std::fs::read(ckpt_path(&out)).unwrap();
        for (fp, n) in [(fp + 1, 10), (fp, 11)] {
            let msg = checkpoint_error(open(&out, fp, n, true));
            assert!(msg.contains("different grid"), "{msg}");
        }
        assert_eq!(std::fs::read(ckpt_path(&out)).unwrap(), before);
        // Without resume the checkpoint starts afresh.
        let (_, resumed) = open(&out, fp, 10, false).unwrap();
        assert!(resumed.is_empty());
        assert!(open(&out, fp, 10, true).unwrap().1.is_empty());
        // Missing checkpoint: fresh start.
        let absent = tmp_out("absent");
        std::fs::remove_file(ckpt_path(&absent)).ok();
        assert!(open(&absent, fp, 10, true).unwrap().1.is_empty());
        std::fs::remove_file(ckpt_path(&out)).ok();
        std::fs::remove_file(ckpt_path(&absent)).ok();
    }
}
