//! End-to-end exit-code contract of the `cactid` CLI.
//!
//! `lint` and `audit --jsonl` share one exit policy: rule errors always
//! fail (exit 1), warnings fail only under `--deny-warnings`, a clean or
//! warnings-only report exits 0, and a bad invocation (unknown rule code,
//! unknown flag) exits 2 before any analysis runs. These tests pin that
//! policy through the real binary, not the library.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cactid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cactid"))
        .args(args)
        .output()
        .expect("cactid binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("cactid exits, not signals")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

/// A two-record run, 64 KB then 128 KB on the same axes, with the given
/// `(access ns, area mm²)` per record.
fn pair_jsonl(name: &str, small: (f64, f64), big: (f64, f64)) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cactid-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let record = |idx: u64, cap: u64, (ns, mm2): (f64, f64)| {
        format!(
            "{{\"idx\":{idx},\"capacity_bytes\":{cap},\"block_bytes\":64,\
             \"associativity\":8,\"banks\":1,\"node_nm\":32.0,\"cell\":\"sram\",\
             \"mode\":\"normal\",\"opt\":\"default\",\"status\":\"ok\",\
             \"access_ns\":{ns},\"random_cycle_ns\":{ns},\"read_nj\":0.1,\
             \"write_nj\":0.1,\"area_mm2\":{mm2},\"leakage_mw\":10.0}}\n"
        )
    };
    std::fs::write(
        &path,
        format!(
            "{}{}",
            record(0, 64 << 10, small),
            record(1, 128 << 10, big)
        ),
    )
    .unwrap();
    path
}

/// A run whose larger capacity is *smaller* — a CD0102 monotonicity
/// warning, and nothing else.
fn shrink_jsonl() -> PathBuf {
    pair_jsonl("shrink.jsonl", (1.0, 2.0), (1.5, 1.0))
}

/// A run whose larger capacity is *faster* — a CD0101 note, which the
/// weighted §2.4 objective allows, and nothing else.
fn inversion_jsonl() -> PathBuf {
    pair_jsonl("inversion.jsonl", (2.0, 1.0), (1.0, 1.0))
}

#[test]
fn lint_errors_always_exit_nonzero() {
    // 1.5 MB → 3072 sets: CD0001 fires at error severity.
    let out = cactid(&["lint", "--size", "1536K"]);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(stdout(&out).contains("error[CD0001]"), "{out:?}");
}

#[test]
fn a_size_past_64_bits_is_a_usage_error_naming_the_value() {
    // 2^34 GiB is 2^64 bytes: the product wraps to 0 in 64 bits, and one
    // more GiB wraps to 64 GiB.
    for args in [
        &["--size", "17179869248G", "--assoc", "8"][..],
        &["--size", "17179869184G"],
        &["lint", "--size", "17179869184G"],
        &["explore", "--sizes", "17179869184G"],
    ] {
        let out = cactid(args);
        assert_eq!(code(&out), 2, "{args:?}: {out:?}");
        let value = args.iter().find(|a| a.ends_with('G')).unwrap();
        assert!(stderr(&out).contains(value), "{args:?}: {out:?}");
        assert!(stdout(&out).is_empty(), "{args:?}: {out:?}");
    }
}

/// Plain `cactid` refuses `spec` as an invalid memory specification whose
/// message contains `why`, and `cactid lint` reports it as `error[code]`.
fn assert_invalid_everywhere(spec: &[&str], why: &str, code_: &str) {
    let out = cactid(spec);
    assert_eq!(code(&out), 1, "{out:?}");
    let err = stderr(&out);
    assert!(err.contains("error: invalid memory specification"), "{err}");
    assert!(err.contains(why), "{err}");
    let lint = cactid(&[&["lint"][..], spec].concat());
    assert_eq!(code(&lint), 1, "{lint:?}");
    assert!(
        stdout(&lint).contains(&format!("error[{code_}]")),
        "{lint:?}"
    );
    assert!(stdout(&lint).contains(why), "{lint:?}");
}

#[test]
fn a_capacity_past_the_address_width_is_an_invalid_spec() {
    // 2 TiB needs 41 address bits; the CLI's specs carry 40.
    assert_invalid_everywhere(
        &[
            "--size",
            "2048G",
            "--ram",
            "--cell",
            "comm-dram",
            "--banks",
            "64",
            "--block",
            "64",
            "--node",
            "32",
        ],
        "40 address bits cannot even index the 2199023255552 B capacity (41 bits needed)",
        "CD0008",
    );
}

#[test]
fn a_page_of_two_to_the_63_bits_is_an_invalid_spec() {
    // Twice the page wraps to 0 in 64 bits, which would fit any bank.
    assert_invalid_everywhere(
        &[
            "--size",
            "1G",
            "--block",
            "8",
            "--banks",
            "8",
            "--cell",
            "comm-dram",
            "--node",
            "32",
            "--main-memory",
            "--page",
            "9223372036854775808",
        ],
        "page of 9223372036854775808 bits exceeds half a bank",
        "CD0007",
    );
}

#[test]
fn each_broken_prefetch_rule_gets_its_own_message() {
    // The CLI's main memory bursts 8 beats: 12 covers them but is not a
    // power of two, and 4 is a power of two too short for them.
    let spec = |prefetch: &'static str| {
        [
            "--size",
            "1G",
            "--block",
            "8",
            "--banks",
            "8",
            "--cell",
            "comm-dram",
            "--node",
            "32",
            "--main-memory",
            "--prefetch",
            prefetch,
        ]
    };
    assert_invalid_everywhere(
        &spec("12"),
        "internal prefetch of 12 bits per pin is not a power of two",
        "CD0007",
    );
    let lint = cactid(&[&["lint"][..], &spec("12")].concat());
    assert!(!stdout(&lint).contains("cannot sustain"), "{lint:?}");
    assert_invalid_everywhere(
        &spec("4"),
        "internal prefetch of 4 bits per pin cannot sustain a burst of 8 beats",
        "CD0007",
    );
}

#[test]
fn lint_clean_specs_exit_zero_even_with_deny_warnings() {
    let clean = &["lint", "--size", "2M", "--cell", "sram", "--node", "32"];
    let out = cactid(clean);
    assert_eq!(code(&out), 0, "{out:?}");
    let denied = cactid(&[clean as &[&str], &["--deny-warnings"]].concat());
    assert_eq!(code(&denied), 0, "{denied:?}");
}

#[test]
fn lint_unknown_rule_code_is_a_usage_error() {
    let out = cactid(&["lint", "--size", "2M", "--allow", "CD9999"]);
    assert_eq!(code(&out), 2, "{out:?}");
    let deny = cactid(&["lint", "--size", "2M", "--deny", "bogus"]);
    assert_eq!(code(&deny), 2, "{deny:?}");
}

#[test]
fn lint_format_json_emits_parseable_diagnostics() {
    let out = cactid(&["lint", "--size", "1536K", "--format", "json"]);
    assert_eq!(code(&out), 1, "errors still fail in json mode");
    let text = stdout(&out);
    let first = text.lines().next().expect("one diagnostic line");
    assert!(first.starts_with('{') && first.ends_with('}'), "{first}");
    assert!(first.contains("\"code\":\"CD0001\""), "{first}");
    assert!(first.contains("\"severity\":\"error\""), "{first}");
}

#[test]
fn warnings_only_exit_zero_unless_denied() {
    let path = shrink_jsonl();
    let jsonl = path.to_str().unwrap();

    // A warning-only report exits 0...
    let out = cactid(&["audit", "--jsonl", jsonl]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert!(stdout(&out).contains("warning[CD0102]"), "{out:?}");

    // ...fails under --deny-warnings...
    let denied = cactid(&["audit", "--jsonl", jsonl, "--deny-warnings"]);
    assert_eq!(code(&denied), 1, "{denied:?}");

    // ...fails when the rule itself is promoted to deny...
    let promoted = cactid(&["audit", "--jsonl", jsonl, "--deny", "CD0102"]);
    assert_eq!(code(&promoted), 1, "{promoted:?}");
    assert!(stdout(&promoted).contains("error[CD0102]"), "{promoted:?}");

    // ...and passes again when the rule is allowed away, leaving an
    // empty machine-readable report.
    let allowed = cactid(&[
        "audit",
        "--jsonl",
        jsonl,
        "--allow",
        "CD0102",
        "--deny-warnings",
        "--format",
        "json",
    ]);
    assert_eq!(code(&allowed), 0, "{allowed:?}");
    assert!(stdout(&allowed).is_empty(), "{allowed:?}");

    // A faster larger design is only a note: it passes --deny-warnings.
    let inversion = inversion_jsonl();
    let noted = cactid(&[
        "audit",
        "--jsonl",
        inversion.to_str().unwrap(),
        "--deny-warnings",
    ]);
    assert_eq!(code(&noted), 0, "{noted:?}");
    assert!(stdout(&noted).contains("info[CD0101]"), "{noted:?}");
    let denied = cactid(&[
        "audit",
        "--jsonl",
        inversion.to_str().unwrap(),
        "--deny",
        "CD0101",
    ]);
    assert_eq!(code(&denied), 1, "{denied:?}");
    assert!(stdout(&denied).contains("error[CD0101]"), "{denied:?}");

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn audit_grid_mode_and_prove_are_usage_errors() {
    // Both static copies of the prescreen are gone; `cactid explore
    // --trace` reports the solver's own per-rule prune counts instead.
    for argv in [
        &["audit", "--grid", "--sizes", "64K"][..],
        &["audit", "--sizes", "64K"],
        &["prove", "--size", "64K"],
        // Lint runs on the spec and the winner, never inside a solve.
        &["explore", "--sizes", "64K", "--lint"],
        // Serve speaks stdin/stdout only; there is no listener to bind.
        &["serve", "--listen", "127.0.0.1:0"],
    ] {
        let out = cactid(argv);
        assert_eq!(code(&out), 2, "{argv:?}: {out:?}");
        assert!(stdout(&out).is_empty(), "{argv:?}: {out:?}");
    }
}

#[test]
fn explore_resume_refuses_a_foreign_checkpoint_untouched() {
    // A file that is not a checkpoint, without a final newline, where the
    // sidecar would be: resume fails before cutting its last line.
    let dir = std::env::temp_dir().join(format!("cactid-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("sweep.jsonl");
    let ckpt = dir.join("sweep.jsonl.ckpt");
    let notes = "meeting notes\nsizes to try: 64K, 128K, 256K";
    std::fs::write(&ckpt, notes).unwrap();
    let run = cactid(&[
        "explore",
        "--sizes",
        "64K",
        "--out",
        out.to_str().unwrap(),
        "--resume",
    ]);
    assert_eq!(code(&run), 1, "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("not a cactid-explore checkpoint"),
        "{stderr}"
    );
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), notes);
    assert!(!out.exists());
    std::fs::remove_dir_all(&dir).ok();
}
