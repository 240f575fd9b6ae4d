//! The append-only line log behind explore's checkpoint sidecar and the
//! `cactid-serve` solution store.
//!
//! A log is a plain-text file: one header line naming its format, then
//! one record per line, its fields TAB-separated and closed by a `.`
//! sentinel field:
//!
//! ```text
//! #some-format v1
//! field<TAB>field<TAB>field<TAB>.
//! ```
//!
//! No field may hold a TAB or a newline (the callers' fields are numbers,
//! labels and JSON, whose escaping guarantees this). A record parses only
//! with its exact field count and the sentinel last, so no truncation of
//! a line still parses: a prefix with every TAB of the line must end in
//! the TAB before the sentinel.
//!
//! # Crash safety
//!
//! Only **newline-terminated** lines count. [`Log::open`] first checks the
//! header line, then reads every complete record, and only then truncates
//! a trailing newline-less fragment left by a kill mid-append, so that
//! later appends never merge with it. A file with the wrong header is
//! rejected before anything is cut from it, and a malformed *interior*
//! line fails the open loudly, also before any cut: tolerating it would
//! silently discard every record written after it. [`Log::flush`] appends
//! the queued whole lines in one write, so the file only ever grows by
//! whole records plus at most one torn tail.

use std::fmt::{self, Display, Write as _};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Why a log could not be opened or appended to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// A filesystem operation failed; the message names the path.
    Io(String),
    /// The file's first line is not the expected header; holds the line
    /// found (lossily decoded), or the newline-less fragment if the file
    /// has no complete line.
    Header(String),
    /// Record line `n` (1-based, the header being line 1) is malformed.
    Corrupt(usize),
}

impl Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(msg) => f.write_str(msg),
            LogError::Header(found) => write!(f, "unexpected header {found:?}"),
            LogError::Corrupt(n) => write!(f, "malformed line {n}"),
        }
    }
}

/// Splits one record line into its `N` fields, or `None` unless it has
/// exactly `N` fields followed by the sentinel.
fn fields<const N: usize>(line: &str) -> Option<[&str; N]> {
    let mut parts = line.strip_suffix("\t.")?.split('\t');
    let mut out = [""; N];
    for slot in &mut out {
        *slot = parts.next()?;
    }
    parts.next().is_none().then_some(out)
}

/// An append handle on a log file, with the lines queued since the last
/// [`Log::flush`].
#[derive(Debug)]
pub struct Log {
    file: File,
    path: PathBuf,
    pending: String,
}

impl Log {
    /// Starts a fresh log at `path`, replacing any file there, with
    /// `header` as its first line.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] when the file cannot be created or written.
    pub fn create(path: &Path, header: &str) -> Result<Log, LogError> {
        let file = File::create(path).map_err(|e| io(path, &e))?;
        let mut log = Log {
            file,
            path: path.to_path_buf(),
            pending: format!("{header}\n"),
        };
        log.flush()?;
        Ok(log)
    }

    /// Opens the log at `path` for append, handing each complete record,
    /// split into its `N` fields, to `visit` in file order. `visit`
    /// returns `None` for a record it finds malformed.
    ///
    /// A missing or empty file, or one holding only a torn prefix of
    /// `header`, is started afresh as by [`Log::create`].
    ///
    /// # Errors
    ///
    /// [`LogError::Header`] when the first line is not `header`,
    /// [`LogError::Corrupt`] on a malformed record line, both leaving the
    /// file untouched, and [`LogError::Io`] when it cannot be read,
    /// truncated or opened.
    pub fn open<const N: usize>(
        path: &Path,
        header: &str,
        mut visit: impl FnMut([&str; N]) -> Option<()>,
    ) -> Result<Log, LogError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(path, &e)),
        };
        // Everything up to the last newline was written whole.
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let head_end = bytes.iter().position(|&b| b == b'\n');
        let head = &bytes[..head_end.unwrap_or(bytes.len())];
        if head_end.is_none() && header.as_bytes().starts_with(head) {
            // Empty, or a header torn before its newline: no record yet.
            return Log::create(path, header);
        }
        if head != header.as_bytes() {
            return Err(LogError::Header(String::from_utf8_lossy(head).into()));
        }
        let body = &bytes[head.len() + 1..complete];
        let line_of = |offset: usize| 2 + body[..offset].iter().filter(|&&b| b == b'\n').count();
        let text =
            std::str::from_utf8(body).map_err(|e| LogError::Corrupt(line_of(e.valid_up_to())))?;
        for (n, line) in text.split_terminator('\n').enumerate() {
            fields(line)
                .and_then(&mut visit)
                .ok_or(LogError::Corrupt(n + 2))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io(path, &e))?;
        if complete < bytes.len() {
            file.set_len(complete as u64).map_err(|e| io(path, &e))?;
        }
        Ok(Log {
            file,
            path: path.to_path_buf(),
            pending: String::new(),
        })
    }

    /// Queues one record line built from `fields`; it reaches the file at
    /// the next [`Log::flush`]. No field may render a TAB or a newline.
    pub fn push(&mut self, fields: &[&dyn Display]) {
        for field in fields {
            let _ = write!(self.pending, "{field}\t");
        }
        self.pending.push_str(".\n");
    }

    /// Appends every queued line in one write.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] when the write fails.
    pub fn flush(&mut self) -> Result<(), LogError> {
        self.file
            .write_all(self.pending.as_bytes())
            .map_err(|e| io(&self.path, &e))?;
        self.pending.clear();
        Ok(())
    }
}

fn io(path: &Path, e: &std::io::Error) -> LogError {
    LogError::Io(format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::ParetoMetrics;
    use crate::record::PointStatus;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cactid-explore-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The record line `push` writes, read back from a fresh log.
    fn written(name: &str, push: impl FnOnce(&mut Log)) -> String {
        let p = tmp(name);
        let mut log = Log::create(&p, "#test v1").unwrap();
        push(&mut log);
        log.flush().unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::remove_file(&p).ok();
        text.strip_prefix("#test v1\n")
            .and_then(|t| t.strip_suffix('\n'))
            .unwrap()
            .to_string()
    }

    #[test]
    fn no_truncation_of_a_record_line_parses() {
        // An explore checkpoint line (cuts inside the last float would
        // otherwise parse as a different metric, "0.013" -> "0.01") and a
        // store line (fingerprint, key, body). Every proper prefix must
        // fail; the whole line parses at its own field count only.
        let metrics = ParetoMetrics {
            access_s: 1.25e-9,
            read_j: 4.5e-11,
            area_m2: 2.1e-7,
            leakage_w: 0.013,
        };
        let ckpt = written("ckpt-line", |log| {
            let record = "{\"idx\":7,\"status\":\"ok\",\"cell\":\"\u{3bc}\"}";
            crate::resume::push(log, 7, record, PointStatus::Ok, Some(&metrics));
        });
        let store = written("store-line", |log| {
            log.push(&[&format_args!("{:016x}", 0xffu64), &"key", &"\"a\":1}"]);
        });
        let parses = |line: &str, arity: usize| match arity {
            2 => fields::<2>(line).is_some(),
            3 => fields::<3>(line).is_some(),
            4 => fields::<4>(line).is_some(),
            6 => fields::<6>(line).is_some(),
            7 => fields::<7>(line).is_some(),
            8 => fields::<8>(line).is_some(),
            _ => unreachable!("no such shape"),
        };
        for (full, arity) in [(ckpt.as_str(), 7), (store.as_str(), 3)] {
            assert!(parses(full, arity), "{full:?}");
            assert!(!parses(full, arity - 1), "{full:?}");
            assert!(!parses(full, arity + 1), "{full:?}");
            for cut in (0..full.len()).filter(|&c| full.is_char_boundary(c)) {
                assert!(
                    !parses(&full[..cut], arity),
                    "prefix {cut} of {full:?} parsed"
                );
            }
            // A line without the sentinel is incomplete, not a shorter
            // arity.
            assert!(!parses(full.strip_suffix("\t.").unwrap(), arity));
        }
    }
}
