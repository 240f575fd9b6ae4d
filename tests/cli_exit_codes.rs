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

/// A two-record run whose larger capacity is *faster* — a CD0101
/// monotonicity warning, and nothing else.
fn inversion_jsonl() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cactid-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inversion.jsonl");
    let record = |idx: u64, cap: u64, ns: f64| {
        format!(
            "{{\"idx\":{idx},\"capacity_bytes\":{cap},\"block_bytes\":64,\
             \"associativity\":8,\"banks\":1,\"node_nm\":32.0,\"cell\":\"sram\",\
             \"mode\":\"normal\",\"opt\":\"default\",\"status\":\"ok\",\
             \"access_ns\":{ns},\"random_cycle_ns\":{ns},\"read_nj\":0.1,\
             \"write_nj\":0.1,\"area_mm2\":1.0,\"leakage_mw\":10.0}}\n"
        )
    };
    std::fs::write(
        &path,
        format!("{}{}", record(0, 64 << 10, 2.0), record(1, 128 << 10, 1.0)),
    )
    .unwrap();
    path
}

#[test]
fn lint_errors_always_exit_nonzero() {
    // 1.5 MB → 3072 sets: CD0001 fires at error severity.
    let out = cactid(&["lint", "--size", "1536K"]);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(stdout(&out).contains("error[CD0001]"), "{out:?}");
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
    let path = inversion_jsonl();
    let jsonl = path.to_str().unwrap();

    // A warning-only report exits 0...
    let out = cactid(&["audit", "--jsonl", jsonl]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert!(stdout(&out).contains("warning[CD0101]"), "{out:?}");

    // ...fails under --deny-warnings...
    let denied = cactid(&["audit", "--jsonl", jsonl, "--deny-warnings"]);
    assert_eq!(code(&denied), 1, "{denied:?}");

    // ...fails when the rule itself is promoted to deny...
    let promoted = cactid(&["audit", "--jsonl", jsonl, "--deny", "CD0101"]);
    assert_eq!(code(&promoted), 1, "{promoted:?}");
    assert!(stdout(&promoted).contains("error[CD0101]"), "{promoted:?}");

    // ...and passes again when the rule is allowed away, leaving an
    // empty machine-readable report.
    let allowed = cactid(&[
        "audit",
        "--jsonl",
        jsonl,
        "--allow",
        "CD0101",
        "--deny-warnings",
        "--format",
        "json",
    ]);
    assert_eq!(code(&allowed), 0, "{allowed:?}");
    assert!(stdout(&allowed).is_empty(), "{allowed:?}");

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
