//! Hermetic fuzzing of the input readers: the JSON parser behind serve's
//! request lines and audit's JSONL, serve's request grammar, and the line
//! log behind explore checkpoints and serve stores.
//!
//! Inputs are byte-level mutations of valid lines, drawn from the in-tree
//! xorshift64* generator at fixed seeds, so every run sees the same cases
//! and a failure names the case that reproduces it. The properties:
//! `escape` then `parse` gives the string back, no reader panics, no
//! parsed value nests deeper than [`MAX_DEPTH`], and a log open that fails
//! leaves its file byte-identical.

use cacti_d::explore::log::Log;
use cacti_d::explore::{explore, ExploreConfig, Grid};
use cacti_d::obs::json::{escape, parse, JsonValue, MAX_DEPTH};
use cacti_d::serve::parse_request;
use cacti_d::sim::rng::XorShift64Star;
use std::path::PathBuf;

/// Valid request lines, one per op, with every grid axis present.
const REQUESTS: [&str; 5] = [
    r#"{"id":1,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}"#,
    r#"{"id":2,"op":"solve","size":1073741824,"banks":8,"cell":"comm-dram","node":78,"main_memory":{"io":8,"burst":8,"prefetch":8,"page":8192}}"#,
    r#"{"id":3,"op":"grid","sizes":[65536,131072],"blocks":[64],"assocs":[4,8],"banks":[1],"nodes":[32],"cells":["sram"],"opts":["default","ed"],"mode":"normal"}"#,
    r#"{"id":4,"op":"stats"}"#,
    r#"{"id":5,"op":"shutdown"}"#,
];

/// Bytes an insertion draws from: JSON's structure, escapes and number
/// syntax, the log's TAB, newline and sentinel, and bytes that are not
/// UTF-8 on their own.
const INSERTS: &[u8] = b"{}[]\":,\\u/.-+eE019aftn \t\n\x00\x1f\x7f\xc3\xe2\xf0\xff";

fn pick<T: Copy>(rng: &mut XorShift64Star, from: &[T]) -> T {
    from[rng.next_below(from.len() as u64) as usize]
}

/// One to four random edits of `valid`: overwrite, insert, delete,
/// truncate, or duplicate a short run of bytes elsewhere.
fn mutate(rng: &mut XorShift64Star, valid: &[u8]) -> Vec<u8> {
    let mut b = valid.to_vec();
    for _ in 0..rng.next_in_range(1, 4) {
        let at = rng.next_below(b.len() as u64 + 1) as usize;
        match rng.next_below(5) {
            0 if at < b.len() => b[at] = rng.next_u64() as u8,
            1 => b.insert(at, pick(rng, INSERTS)),
            2 if at < b.len() => drop(b.remove(at)),
            3 => b.truncate(at),
            _ => {
                let end = b.len().min(at + rng.next_in_range(1, 16) as usize);
                let run = b[at..end].to_vec();
                let to = rng.next_below(b.len() as u64 + 1) as usize;
                b.splice(to..to, run);
            }
        }
    }
    b
}

/// Wraps `line` in `k` arrays, so its nesting lands near the cap.
fn nest(line: &str, k: usize) -> String {
    format!("{}{line}{}", "[".repeat(k), "]".repeat(k))
}

/// Nesting depth of a parsed value; scalars are depth 0.
fn depth(v: &JsonValue) -> usize {
    match v {
        JsonValue::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        JsonValue::Obj(members) => 1 + members.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// A string of quotes, backslashes, control bytes, printable ASCII and
/// two-, three- and four-byte characters.
fn random_string(rng: &mut XorShift64Star) -> String {
    (0..rng.next_below(24))
        .map(|_| {
            let code = match rng.next_below(7) {
                0 => u32::from('"'),
                1 => u32::from('\\'),
                2 => rng.next_below(0x20) as u32,
                3 => rng.next_in_range(0x20, 0x7f) as u32,
                4 => rng.next_in_range(0x80, 0x7ff) as u32,
                5 => rng.next_in_range(0x800, 0xffff) as u32,
                _ => rng.next_in_range(0x1_0000, 0x10_ffff) as u32,
            };
            // Surrogate code points are not characters.
            char::from_u32(code).unwrap_or('\u{fffd}')
        })
        .collect()
}

fn assert_round_trips(s: &str) {
    let quoted = format!("\"{}\"", escape(s));
    assert_eq!(
        parse(&quoted).as_ref().ok().and_then(JsonValue::as_str),
        Some(s),
        "{quoted:?}"
    );
}

#[test]
fn escape_then_parse_round_trips() {
    let every_control: String = (0u8..0x20).chain([0x7f]).map(char::from).collect();
    assert_round_trips(&every_control);
    let mut rng = XorShift64Star::new(0xF022_0001);
    for _ in 0..2_000 {
        assert_round_trips(&random_string(&mut rng));
    }
}

/// A small explore run's record lines and checkpoint file.
fn explore_outputs(dir: &std::path::Path) -> (Vec<String>, Vec<u8>) {
    let mut grid = Grid::new();
    grid.capacities = vec![32 << 10, 64 << 10];
    let out = dir.join("sweep.jsonl");
    let config = ExploreConfig {
        threads: 1,
        out: Some(&out),
        pareto: true,
        ..ExploreConfig::default()
    };
    explore(&grid, &config).unwrap();
    let records = std::fs::read_to_string(&out).unwrap();
    let ckpt = std::fs::read(dir.join("sweep.jsonl.ckpt")).unwrap();
    (records.lines().map(str::to_string).collect(), ckpt)
}

/// A fresh temp directory per test, as tests run in parallel.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cactid-fuzz-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mutated_lines_never_panic_or_nest_past_the_cap() {
    let dir = scratch_dir("lines");
    let (records, _) = explore_outputs(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let valid: Vec<&str> = REQUESTS
        .iter()
        .copied()
        .chain(records.iter().map(String::as_str))
        .collect();
    for line in REQUESTS {
        assert!(parse_request(line).is_ok(), "{line}");
    }
    for line in &records {
        assert!(parse(line).is_ok(), "{line}");
    }
    let mut rng = XorShift64Star::new(0xF022_0002);
    let mut parsed = 0;
    for case in 0..3_000 {
        let line = pick(&mut rng, &valid);
        let mut text = String::from_utf8_lossy(&mutate(&mut rng, line.as_bytes())).into_owned();
        if rng.next_bool(0.25) {
            let k = rng.next_in_range(MAX_DEPTH as u64 - 3, MAX_DEPTH as u64 + 1);
            text = nest(&text, k as usize);
        }
        if let Ok(v) = parse(&text) {
            parsed += 1;
            assert!(depth(&v) <= MAX_DEPTH, "case {case}: {text:?}");
        }
        // Decode only: a mutated grid may ask for up to `MAX_POINTS`
        // solves, so a request is never run.
        let _ = parse_request(&text);
    }
    // Some mutations must stay valid, or the cap check above saw nothing.
    assert!(parsed > 100, "only {parsed} mutated lines parsed");
}

/// Reads a checkpoint line's fields as resume does: an index, a status,
/// four objectives (`-` when absent) and a JSON record.
fn checkpoint_line([idx, _status, access, read, area, leak, line]: [&str; 7]) -> Option<()> {
    idx.parse::<usize>().ok()?;
    for metric in [access, read, area, leak] {
        if metric != "-" {
            metric.parse::<f64>().ok()?;
        }
    }
    parse(line).ok().map(drop)
}

#[test]
fn a_refused_checkpoint_is_left_byte_identical() {
    let dir = scratch_dir("ckpt");
    let (_, valid) = explore_outputs(&dir);
    let header_end = valid.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&valid[..header_end]).unwrap();
    let path = dir.join("mutated.ckpt");
    let mut rng = XorShift64Star::new(0xF022_0003);
    let mut refused = 0;
    for case in 0..400 {
        let bytes = mutate(&mut rng, &valid);
        std::fs::write(&path, &bytes).unwrap();
        let opened = Log::open(&path, header, checkpoint_line);
        let after = std::fs::read(&path).unwrap();
        if opened.is_err() {
            refused += 1;
            assert_eq!(after, bytes, "case {case}: a refused open changed the file");
        } else {
            // An accepted open keeps exactly the whole lines, or starts
            // afresh from a torn header.
            let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let fresh = format!("{header}\n");
            assert!(
                after == bytes[..whole] || after == fresh.as_bytes(),
                "case {case}: an accepted open kept a partial line"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(refused > 100, "only {refused} mutated checkpoints refused");
}
