//! The one-grid-path contract: a `grid` request answers exactly the
//! records `cactid explore` writes for the same grid, in grid order, then
//! its `done` line — store-less, on a cold store, after a restart on a warm
//! one, and on a store that already holds part of the grid — at one and
//! two threads.

use cactid_explore::{explore, ExploreConfig, Grid, OptVariant};
use cactid_serve::{ServeConfig, Service};
use cactid_tech::CellTechnology;
use std::path::PathBuf;

const SIZES: &str = "[49152,65536,131072]";

/// 3 sizes (48 KB is invalid) × banks 1/2/4 × 2 cells × the three named
/// knob variants = 54 points.
fn grid() -> Grid {
    let mut g = Grid::new();
    g.capacities = vec![48 << 10, 64 << 10, 128 << 10];
    g.banks = vec![1, 2, 4];
    g.cells = vec![CellTechnology::Sram, CellTechnology::LpDram];
    g.opts = ["default", "ed", "c"]
        .iter()
        .map(|l| OptVariant::named(l).unwrap())
        .collect();
    g
}

/// The same grid as a serve request, with `sizes` and `opts` overridable
/// so a sub-grid can be served first.
fn request(id: u64, sizes: &str, opts: &str) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"grid\",\"sizes\":{sizes},\"banks\":[1,2,4],\
         \"cells\":[\"sram\",\"lp-dram\"],\"opts\":{opts}}}"
    )
}

fn full_request(id: u64) -> String {
    request(id, SIZES, "[\"default\",\"ed\",\"c\"]")
}

/// What `cactid explore` writes for the grid, then the `done` line.
fn expected(id: u64) -> Vec<String> {
    let mut lines = explore(&grid(), &ExploreConfig::default()).unwrap().lines;
    lines.push(format!("{{\"id\":{id},\"done\":true,\"points\":54}}"));
    lines
}

fn answer(svc: &Service, request: &str) -> Vec<String> {
    svc.handle_line(request).0
}

fn store_path(name: &str, threads: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cactid-serve-grid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-t{threads}.store"));
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn a_memo_only_grid_answers_the_explore_records() {
    let expected = expected(7);
    assert!(expected
        .iter()
        .any(|l| l.contains("\"status\":\"invalid\"")));
    for threads in [1, 2] {
        let svc = Service::new(&ServeConfig {
            threads,
            store: None,
        })
        .unwrap();
        assert_eq!(
            answer(&svc, &full_request(7)),
            expected,
            "threads {threads}"
        );
    }
}

#[test]
fn cold_and_restarted_warm_grids_answer_the_explore_records() {
    let expected = expected(3);
    for threads in [1, 2] {
        let store = store_path("restart", threads);
        let config = ServeConfig {
            threads,
            store: Some(store.clone()),
        };
        {
            let svc = Service::new(&config).unwrap();
            assert_eq!(
                answer(&svc, &full_request(3)),
                expected,
                "cold, threads {threads}"
            );
        }
        let svc = Service::new(&config).unwrap();
        assert_eq!(
            answer(&svc, &full_request(3)),
            expected,
            "warm, threads {threads}"
        );
        assert_eq!(
            svc.solved(),
            0,
            "every warm point came from the store, threads {threads}"
        );
        drop(svc);
        std::fs::remove_file(&store).ok();
    }
}

#[test]
fn a_half_warm_store_answers_the_explore_records_in_grid_order() {
    let expected = expected(5);
    for threads in [1, 2] {
        let store = store_path("half", threads);
        let config = ServeConfig {
            threads,
            store: Some(store.clone()),
        };
        {
            // The 128 KB points under the `ed` knobs reach the store first.
            let svc = Service::new(&config).unwrap();
            let sub = answer(&svc, &request(4, "[131072]", "[\"ed\"]"));
            assert_eq!(sub.len(), 7, "six points and a done line");
        }
        let svc = Service::new(&config).unwrap();
        assert_eq!(svc.store().len(), 6);
        assert_eq!(
            answer(&svc, &full_request(5)),
            expected,
            "threads {threads}"
        );
        assert_eq!(
            svc.solved(),
            36 - 6,
            "only the store misses were solved, threads {threads}"
        );
        drop(svc);
        std::fs::remove_file(&store).ok();
    }
}
