//! The disk-backed, content-addressed solution store.
//!
//! The store maps a solved spec to the rendered body of its JSONL record,
//! keyed by the spec's 64-bit FNV-1a fingerprint
//! ([`cactid_explore::hash::spec_fingerprint`]) and guarded against
//! fingerprint collisions by the injective canonical encoding
//! ([`cactid_explore::hash::spec_canon`]): lookups compare the full
//! canonical key, so a 64-bit collision degrades to a miss instead of a
//! wrong answer — the same discipline as the in-process
//! [`cactid_explore::SolveCache`].
//!
//! # On-disk format
//!
//! A plain-text, append-only file: one magic header line, then one TSV
//! line per stored solution:
//!
//! ```text
//! #cactid-serve-store v2
//! <fp:016x><TAB><key><TAB><body><TAB>.
//! ```
//!
//! `key` is the canonical spec encoding (tab- and newline-free by
//! construction) prefixed with the opt label and access-mode label the
//! record was rendered under; `body` is the record line minus its leading
//! `{"idx":N,` (JSON string escaping keeps it tab-free).
//!
//! The file is a [`cactid_explore::log`] file, read and appended by the
//! same code as explore's checkpoint, and crash-safe by its rules: a torn
//! tail is cut and its record re-solved by whoever needs it next, while a
//! wrong header or a malformed interior line fails the open loudly with
//! the file left as it was.

use crate::error::ServeError;
use cactid_explore::log::{Log, LogError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic first line of a store file; bumps when the record format does.
pub const STORE_MAGIC: &str = "#cactid-serve-store v2";

#[derive(Debug, Default)]
struct Inner {
    /// fp → `[(key, body)]`; buckets are tiny (collisions are rare).
    index: HashMap<u64, Vec<(String, String)>>,
    /// Append handle; `None` for in-memory stores.
    log: Option<Log>,
}

/// A thread-safe content-addressed store of rendered solution bodies,
/// optionally spilled to an append-only file so later processes reopen it
/// warm. See the module docs for format and crash-safety.
#[derive(Debug)]
pub struct SolutionStore {
    inner: Mutex<Inner>,
    path: Option<PathBuf>,
}

impl SolutionStore {
    /// An empty store with no backing file: lookups and inserts work, but
    /// nothing survives the process.
    pub fn in_memory() -> Self {
        SolutionStore {
            inner: Mutex::new(Inner::default()),
            path: None,
        }
    }

    /// Opens (or creates) the store at `path`, loading every complete
    /// record and positioning for append. A torn trailing fragment from a
    /// killed writer is truncated away; that record is simply re-solved
    /// and re-inserted by whoever needs it next.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the file cannot be read, truncated or opened
    /// for append, and [`ServeError::Store`] if it exists but has the
    /// wrong magic or a malformed interior line; the file is then left as
    /// it was.
    pub fn open(path: &Path) -> Result<Self, ServeError> {
        let mut index: HashMap<u64, Vec<(String, String)>> = HashMap::new();
        let log = Log::open(path, STORE_MAGIC, |[fp, key, body]| {
            if fp.len() != 16 || key.is_empty() || body.is_empty() {
                return None;
            }
            let bucket = index.entry(u64::from_str_radix(fp, 16).ok()?).or_default();
            // First write wins, matching the in-process memo: a duplicate
            // append (two racing services) is harmless.
            if !bucket.iter().any(|(k, _)| k == key) {
                bucket.push((key.to_string(), body.to_string()));
            }
            Some(())
        })
        .map_err(|e| match e {
            LogError::Io(msg) => ServeError::Io(msg),
            LogError::Header(head) => ServeError::Store(format!(
                "{}: not a cactid-serve store of this format (header {head:?}, \
                 expected {STORE_MAGIC:?}); delete it or pick another --store path",
                path.display()
            )),
            LogError::Corrupt(n) => ServeError::Store(format!(
                "{}: malformed record at line {n}; the file is corrupt — \
                 delete it or pick another --store path",
                path.display()
            )),
        })?;
        Ok(SolutionStore {
            inner: Mutex::new(Inner {
                index,
                log: Some(log),
            }),
            path: Some(path.to_path_buf()),
        })
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The number of stored solutions.
    pub fn len(&self) -> usize {
        self.lock().index.values().map(Vec::len).sum()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up a stored body by fingerprint, verifying the full canonical
    /// key so fingerprint collisions read as misses.
    pub fn get(&self, fp: u64, key: &str) -> Option<String> {
        let hit = self
            .lock()
            .index
            .get(&fp)
            .and_then(|bucket| bucket.iter().find(|(k, _)| k == key))
            .map(|(_, body)| body.clone());
        if hit.is_some() {
            cactid_obs::counter!("serve.store.hits").inc();
        } else {
            cactid_obs::counter!("serve.store.misses").inc();
        }
        hit
    }

    /// Inserts a solved body, appending it to the backing file (one line,
    /// flushed). Returns `false` without writing when the key is already
    /// present — inserts are idempotent, so duplicate requests racing past
    /// the lookup cost one solve, never a corrupt double record.
    ///
    /// `key` and `body` must be tab- and newline-free; the canonical spec
    /// encoding and JSON record rendering both guarantee this.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the append or flush fails.
    pub fn insert(&self, fp: u64, key: &str, body: &str) -> Result<bool, ServeError> {
        debug_assert!(
            !key.contains(['\t', '\n']) && !body.contains(['\t', '\n']),
            "store fields must be TSV-safe"
        );
        let mut inner = self.lock();
        let bucket = inner.index.entry(fp).or_default();
        if bucket.iter().any(|(k, _)| k == key) {
            return Ok(false);
        }
        bucket.push((key.to_string(), body.to_string()));
        if let Some(log) = inner.log.as_mut() {
            log.push(&[&format_args!("{fp:016x}"), &key, &body]);
            log.flush().map_err(|e| ServeError::Io(e.to_string()))?;
        }
        cactid_obs::counter!("serve.store.inserts").inc();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cactid-serve-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_across_reopen() {
        let p = tmp("roundtrip");
        std::fs::remove_file(&p).ok();
        {
            let s = SolutionStore::open(&p).unwrap();
            assert!(s.is_empty());
            assert!(s.insert(0xabcd, "key-a", "\"x\":1}").unwrap());
            assert!(
                !s.insert(0xabcd, "key-a", "\"x\":1}").unwrap(),
                "idempotent"
            );
            assert!(s.insert(0xabce, "key-b", "\"y\":2}").unwrap());
            assert_eq!(s.len(), 2);
        }
        let s = SolutionStore::open(&p).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0xabcd, "key-a").as_deref(), Some("\"x\":1}"));
        assert_eq!(s.get(0xabce, "key-b").as_deref(), Some("\"y\":2}"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn fingerprint_collisions_read_as_misses() {
        let s = SolutionStore::in_memory();
        s.insert(7, "key-a", "\"a\":1}").unwrap();
        s.insert(7, "key-b", "\"b\":2}").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(7, "key-a").as_deref(), Some("\"a\":1}"));
        assert_eq!(s.get(7, "key-b").as_deref(), Some("\"b\":2}"));
        assert!(s.get(7, "key-c").is_none(), "collision degrades to a miss");
    }

    #[test]
    fn torn_tail_is_recovered_and_reappended_cleanly() {
        let p = tmp("torn");
        std::fs::remove_file(&p).ok();
        {
            let s = SolutionStore::open(&p).unwrap();
            s.insert(1, "key-1", "\"a\":1}").unwrap();
        }
        // Simulate a kill mid-append: a trailing fragment with no newline.
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        write!(f, "0000000000000002\tkey-2\t\"b\":").unwrap();
        drop(f);

        let s = SolutionStore::open(&p).unwrap();
        assert_eq!(s.len(), 1, "the torn record is gone, not half-loaded");
        s.insert(3, "key-3", "\"c\":3}").unwrap();
        drop(s);
        // The re-append started on a fresh line: everything loads.
        let s = SolutionStore::open(&p).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(3, "key-3").as_deref(), Some("\"c\":3}"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn a_store_cut_at_any_byte_reopens_to_its_complete_records() {
        // The third body has a multi-byte character, so some cuts land
        // inside a UTF-8 sequence.
        let records: [(u64, &str, &str); 3] = [
            (0x11, "key-1", "\"a\":1}"),
            (0x22, "key-2", "\"b\":[2,2.5]}"),
            (0x33, "key-3", "\"c\":\"\u{3bc}m\"}"),
        ];
        let full = tmp("cut-full");
        std::fs::remove_file(&full).ok();
        {
            let s = SolutionStore::open(&full).unwrap();
            for &(fp, key, body) in &records {
                s.insert(fp, key, body).unwrap();
            }
        }
        let bytes = std::fs::read(&full).unwrap();
        // Byte offset just past each record's newline.
        let ends: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .skip(1)
            .collect();
        assert_eq!(ends.len(), records.len());
        let cut_path = tmp("cut");
        for cut in 0..=bytes.len() {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            let s = SolutionStore::open(&cut_path).unwrap();
            assert_eq!(s.len(), complete, "cut at {cut}");
            for (i, &(fp, key, body)) in records.iter().enumerate() {
                let want = (i < complete).then_some(body);
                assert_eq!(s.get(fp, key).as_deref(), want, "cut at {cut}");
            }
            // Re-inserting every record appends the lost ones on fresh
            // lines, so the next open loads all three.
            for (i, &(fp, key, body)) in records.iter().enumerate() {
                let lost = i >= complete;
                assert_eq!(s.insert(fp, key, body).unwrap(), lost, "cut at {cut}");
            }
            drop(s);
            let s = SolutionStore::open(&cut_path).unwrap();
            assert_eq!(s.len(), records.len(), "reopen after cut at {cut}");
            for &(fp, key, body) in &records {
                assert_eq!(s.get(fp, key).as_deref(), Some(body), "cut at {cut}");
            }
        }
        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&cut_path).ok();
    }

    #[test]
    fn no_truncation_of_a_record_line_parses() {
        // Every proper prefix of a record line, newline-terminated as if
        // it had been written whole, must fail the open rather than load
        // a shorter key or body.
        let p = tmp("truncation");
        std::fs::remove_file(&p).ok();
        SolutionStore::open(&p)
            .unwrap()
            .insert(0xff, "key", "\"a\":1}")
            .unwrap();
        let whole = std::fs::read_to_string(&p).unwrap();
        let (head, line) = whole.trim_end().split_once('\n').unwrap();
        assert_eq!(line, "00000000000000ff\tkey\t\"a\":1}\t.");
        assert_eq!(
            SolutionStore::open(&p).unwrap().get(0xff, "key").as_deref(),
            Some("\"a\":1}")
        );
        for cut in 0..line.len() {
            std::fs::write(&p, format!("{head}\n{}\n", &line[..cut])).unwrap();
            match SolutionStore::open(&p) {
                Err(ServeError::Store(msg)) => {
                    assert!(
                        msg.contains("malformed record at line 2"),
                        "prefix {cut}: {msg}"
                    );
                }
                other => panic!("prefix {cut} opened: {other:?}"),
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn interior_corruption_fails_the_open_loudly() {
        let p = tmp("corrupt");
        std::fs::write(
            &p,
            format!("{STORE_MAGIC}\n0000000000000001\tkey\t\"a\":1\nmore\tstuff\t.\t.\n"),
        )
        .unwrap();
        match SolutionStore::open(&p) {
            Err(ServeError::Store(msg)) => assert!(msg.contains("line 2"), "{msg}"),
            other => panic!("expected store corruption, got {other:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let p = tmp("magic");
        std::fs::write(&p, "#something-else v9\n").unwrap();
        assert!(matches!(SolutionStore::open(&p), Err(ServeError::Store(_))));
        // A file that is not a store is refused before its torn-looking
        // last line is cut: every byte stays.
        let notes = "shopping list\nmilk, eggs, bread, coffee";
        std::fs::write(&p, notes).unwrap();
        match SolutionStore::open(&p) {
            Err(ServeError::Store(msg)) => {
                assert!(msg.contains("not a cactid-serve store"), "{msg}");
            }
            other => panic!("expected a wrong-magic error, got {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&p).unwrap(), notes);
        // A store an older record format wrote is refused whole too.
        let v1 = "#cactid-serve-store v1\n00000000000000ff\tkey\t\"a\":1,\"lint_rejected\":0}\t.\n";
        std::fs::write(&p, v1).unwrap();
        match SolutionStore::open(&p) {
            Err(ServeError::Store(msg)) => assert!(msg.contains("v1"), "{msg}"),
            other => panic!("expected a wrong-magic error, got {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&p).unwrap(), v1);
        std::fs::remove_file(&p).ok();
    }
}
