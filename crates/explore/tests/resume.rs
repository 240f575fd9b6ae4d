//! Resume semantics: interrupted sweeps pick up where they left off and
//! still produce the exact file an uninterrupted run would have.

use cactid_explore::{explore, ExploreConfig, ExploreError, Grid};
use std::path::{Path, PathBuf};

fn grid() -> Grid {
    let mut g = Grid::new();
    g.capacities = vec![32 << 10, 64 << 10, 128 << 10];
    g.associativities = vec![2, 4];
    g
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("cactid-explore-resume")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(out: &Path, resume: bool) -> ExploreConfig<'_> {
    ExploreConfig {
        threads: 2,
        out: Some(out),
        resume,
        pareto: true,
        ..ExploreConfig::default()
    }
}

#[test]
fn interrupted_run_resumes_without_resolving_completed_points() {
    let dir = tmp_dir("interrupt");
    let out = dir.join("sweep.jsonl");
    let full = explore(&grid(), &config(&out, false)).unwrap();
    assert_eq!(full.stats.solved, 6);
    let reference = std::fs::read_to_string(&out).unwrap();

    // Simulate an interrupt: keep the header and the first two streamed
    // points of the checkpoint.
    std::fs::remove_file(&out).unwrap();
    let ckpt = dir.join("sweep.jsonl.ckpt");
    let kept: String = std::fs::read_to_string(&ckpt)
        .unwrap()
        .lines()
        .take(3)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&ckpt, kept).unwrap();

    let resumed = explore(&grid(), &config(&out, true)).unwrap();
    assert_eq!(resumed.stats.resumed, 2);
    assert_eq!(resumed.stats.solved, 4, "only the lost points re-solve");
    assert!(resumed.stats.balanced());
    assert_eq!(std::fs::read_to_string(&out).unwrap(), reference);
}

#[test]
fn resuming_a_complete_run_solves_zero_points() {
    let dir = tmp_dir("complete");
    let out = dir.join("sweep.jsonl");
    let first = explore(&grid(), &config(&out, false)).unwrap();
    let reference = std::fs::read_to_string(&out).unwrap();

    let second = explore(&grid(), &config(&out, true)).unwrap();
    assert_eq!(second.stats.solved, 0);
    assert_eq!(second.stats.resumed, first.stats.points);
    assert!(second.stats.render().contains("solved 0,"));
    assert_eq!(second.lines, first.lines);
    assert_eq!(second.frontier, first.frontier);
    assert_eq!(std::fs::read_to_string(&out).unwrap(), reference);
}

#[test]
fn resumed_invalid_points_are_counted_once() {
    // Regression: a resumed run over a grid with invalid axis combinations
    // used to count those points under both `resumed` and `invalid`,
    // breaking the stats partition (debug panic, wrong release stats).
    let dir = tmp_dir("invalid");
    let out = dir.join("sweep.jsonl");
    let mut g = grid();
    g.capacities = vec![48 << 10, 64 << 10, 128 << 10]; // 48 KB: invalid
    let first = explore(&g, &config(&out, false)).unwrap();
    assert_eq!(first.stats.invalid, 2);
    let reference = std::fs::read_to_string(&out).unwrap();

    let resumed = explore(&g, &config(&out, true)).unwrap();
    assert!(resumed.stats.balanced());
    assert_eq!(resumed.stats.solved, 0);
    assert_eq!(resumed.stats.resumed, 4, "only the valid points");
    assert_eq!(resumed.stats.invalid, 2);
    assert_eq!(resumed.stats.ok, first.stats.ok);
    assert_eq!(std::fs::read_to_string(&out).unwrap(), reference);
}

#[test]
fn torn_checkpoint_tail_re_solves_one_point_and_repairs_the_file() {
    let dir = tmp_dir("torn");
    let out = dir.join("sweep.jsonl");
    explore(&grid(), &config(&out, false)).unwrap();
    let reference = std::fs::read_to_string(&out).unwrap();

    // Tear the last checkpoint line mid-float, as a kill would.
    let ckpt = dir.join("sweep.jsonl.ckpt");
    let content = std::fs::read_to_string(&ckpt).unwrap();
    std::fs::write(&ckpt, &content[..content.len() - 4]).unwrap();

    let first = explore(&grid(), &config(&out, true)).unwrap();
    assert_eq!(first.stats.resumed, 5, "torn point is not trusted");
    assert_eq!(first.stats.solved, 1);
    assert_eq!(std::fs::read_to_string(&out).unwrap(), reference);

    // The fragment was truncated before appending, so the checkpoint is
    // whole again: a second resume re-solves nothing.
    let second = explore(&grid(), &config(&out, true)).unwrap();
    assert_eq!(second.stats.solved, 0);
    assert_eq!(second.stats.resumed, 6);
    assert_eq!(std::fs::read_to_string(&out).unwrap(), reference);
}

#[test]
fn resume_against_a_changed_grid_fails_loudly() {
    let dir = tmp_dir("changed");
    let out = dir.join("sweep.jsonl");
    explore(&grid(), &config(&out, false)).unwrap();

    let mut edited = grid();
    edited.capacities.push(256 << 10);
    match explore(&edited, &config(&out, true)) {
        Err(ExploreError::Checkpoint(msg)) => {
            assert!(msg.contains("different grid"), "{msg}");
        }
        other => panic!("expected checkpoint mismatch, got {other:?}"),
    }
}

#[test]
fn without_resume_the_sidecars_are_overwritten_not_joined() {
    let dir = tmp_dir("overwrite");
    let out = dir.join("sweep.jsonl");
    explore(&grid(), &config(&out, false)).unwrap();
    let rerun = explore(&grid(), &config(&out, false)).unwrap();
    assert_eq!(rerun.stats.resumed, 0);
    assert_eq!(rerun.stats.solved, 6);
}

#[test]
fn a_run_leaves_only_the_output_and_its_checkpoint() {
    let dir = tmp_dir("files");
    let out = dir.join("sweep.jsonl");
    explore(&grid(), &config(&out, false)).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["sweep.jsonl", "sweep.jsonl.ckpt"]);
}

#[test]
fn an_older_format_checkpoint_asks_to_delete_the_sidecars() {
    // A checkpoint as the two-sidecar format wrote it: v2 header, no
    // record field.
    let dir = tmp_dir("v2");
    let out = dir.join("sweep.jsonl");
    let ckpt = dir.join("sweep.jsonl.ckpt");
    let v2 = "#cactid-explore-ckpt v2 grid=6c62272e07bb0142 points=6\n\
              0\tok\t1.23e-9\t4.5e-11\t2.1e-7\t0.013\t.\n";
    std::fs::write(&ckpt, v2).unwrap();
    match explore(&grid(), &config(&out, true)) {
        Err(ExploreError::Checkpoint(msg)) => {
            assert!(msg.contains("older format"), "{msg}");
            assert!(msg.contains("delete the sidecars"), "{msg}");
        }
        other => panic!("expected an older-format checkpoint error, got {other:?}"),
    }
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), v2);
    assert!(!out.exists());
}
