//! `serve-session`: one closed-loop client feeding JSONL `solve` lines to
//! `Service::handle_line`, backed by a file store. A cold phase answers
//! every distinct request once (solve, then store append); the service
//! restarts, replaying the store; a warm phase replays seeded draws from
//! the same requests (decode, store lookup, splice).
//! Not an end-to-end workload of `BENCHMARK.json`: its timings could not
//! hold a bound on a shared host (see `NOTES.md`); its layers are measured
//! in every traced run.

use crate::measure::{median, pct, timed, Checks, Metrics, Tracer};
use crate::{shuffle, PassOut, Scale, Workload};
use cactid_obs::Snapshot;
use cactid_serve::{parse_request, Request, ServeConfig, Service, SolutionStore};
use memsim::rng::XorShift64Star;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Distinct requests of the cold phase: enough for a p99 with ten
/// samples beyond it in every pass.
const COLD: usize = 1040;
/// Warm requests per pass.
const WARM_FULL: usize = 300_000;
const WARM_PROBE: usize = 20_000;
/// Calls per store / decode micro-timing.
const MICRO: usize = 20_000;

/// The fixed set of distinct, valid `solve` request lines (ids 1..),
/// independent of the seed.
pub fn distinct_requests() -> Vec<String> {
    let mut out = Vec::new();
    let combos = [
        ("sram", "default"),
        ("lp-dram", "default"),
        ("comm-dram", "default"),
        ("sram", "ed"),
        ("comm-dram", "c"),
        ("lp-dram", "c"),
    ];
    for node in [32, 45] {
        for (cell, opt) in combos {
            for size_bits in 14..=23 {
                for assoc in [1, 2, 4, 8, 16] {
                    for banks in [1, 2, 4, 8] {
                        let id = out.len() + 1;
                        let line = format!(
                            "{{\"id\":{id},\"op\":\"solve\",\"size\":{},\"assoc\":{assoc},\
                             \"banks\":{banks},\"cell\":\"{cell}\",\"node\":{node},\"opt\":\"{opt}\"}}",
                            1u64 << size_bits
                        );
                        let valid = matches!(
                            parse_request(&line),
                            Ok(Request::Solve { ref point, .. }) if point.spec.is_ok()
                        );
                        if valid {
                            out.push(line);
                        }
                        if out.len() == COLD {
                            return out;
                        }
                    }
                }
            }
        }
    }
    panic!("only {} valid distinct requests", out.len());
}

/// `true` when `answer` is the single record line answering request `id`.
pub fn answers(answer: &[String], id: usize) -> bool {
    answer.len() == 1 && answer[0].starts_with(&format!("{{\"idx\":{id},"))
}

/// `true` when a warm answer is byte-identical to the cold one.
pub fn same_answer(warm: &[String], cold: &str) -> bool {
    warm.len() == 1 && warm[0] == cold
}

/// The serve-session workload.
pub struct ServeSession {
    lines: Vec<String>,
    cold_order: Vec<usize>,
    warm_draws: Vec<usize>,
    store: PathBuf,
    micro_store: PathBuf,
    cold_us: Vec<f64>,
    last_cold_us: Vec<f64>,
    last_warm_us: Vec<f64>,
    cold_answers: Vec<String>,
}

impl ServeSession {
    /// A session whose request order and warm draws come from `seed`,
    /// with its store under `dir`.
    pub fn new(seed: u64, scale: Scale, dir: &std::path::Path) -> Self {
        let lines = distinct_requests();
        let mut cold_order: Vec<usize> = (0..lines.len()).collect();
        shuffle(&mut cold_order, &mut XorShift64Star::for_stream(seed, 10));
        let warm = match scale {
            Scale::Full => WARM_FULL,
            Scale::Probe => WARM_PROBE,
        };
        let mut rng = XorShift64Star::for_stream(seed, 11);
        let warm_draws = (0..warm)
            .map(|_| rng.next_below(lines.len() as u64) as usize)
            .collect();
        ServeSession {
            lines,
            cold_order,
            warm_draws,
            store: dir.join("serve.store"),
            micro_store: dir.join("micro.store"),
            cold_us: Vec::new(),
            last_cold_us: Vec::new(),
            last_warm_us: Vec::new(),
            cold_answers: Vec::new(),
        }
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            threads: 1,
            store: Some(self.store.clone()),
        }
    }

    fn cold_phase(&mut self, svc: &Service, checks: &mut Checks) {
        self.cold_answers = vec![String::new(); self.lines.len()];
        self.last_cold_us.clear();
        for &i in &self.cold_order {
            let t = Instant::now();
            let (answer, _) = svc.handle_line(&self.lines[i]);
            self.last_cold_us.push(t.elapsed().as_secs_f64() * 1e6);
            checks.check(answers(&answer, i + 1));
            self.cold_answers[i] = answer.into_iter().next().unwrap_or_default();
        }
    }

    fn warm_phase(&mut self, svc: &Service, checks: &mut Checks) {
        self.last_warm_us.clear();
        for &i in &self.warm_draws {
            let t = Instant::now();
            let (answer, _) = svc.handle_line(&self.lines[i]);
            self.last_warm_us.push(t.elapsed().as_secs_f64() * 1e6);
            checks.check(same_answer(&answer, &self.cold_answers[i]));
        }
    }

    /// Per-call times of the store and the request decoder, measured on a
    /// private store holding the cold answers under this benchmark's own
    /// keys.
    fn micro(&self) -> Metrics {
        let _ = std::fs::remove_file(&self.micro_store);
        let store = SolutionStore::open(&self.micro_store).expect("the micro store opens");
        let mut insert_us = Vec::new();
        for (i, body) in self.cold_answers.iter().enumerate() {
            let key = format!("k{i}");
            let t = Instant::now();
            let fresh = store
                .insert(i as u64, &key, body)
                .expect("the micro store appends");
            insert_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(fresh, "micro store key {key} inserted twice");
        }
        let mut get_us = Vec::new();
        let mut decode_us = Vec::new();
        for &i in self.warm_draws.iter().take(MICRO) {
            let key = format!("k{i}");
            let t = Instant::now();
            let hit = store.get(i as u64, &key);
            get_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(hit.is_some(), "micro store lost key {key}");
            let t = Instant::now();
            let req = parse_request(&self.lines[i]);
            decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            black_box(req.is_ok());
        }
        let mut m = Metrics::default();
        m.push("serve.decode_us", median(&decode_us), "us");
        m.push("serve.store_get_us", median(&get_us), "us");
        m.push("serve.store_insert_us", median(&insert_us), "us");
        m
    }
}

impl Workload for ServeSession {
    fn warm_up(&mut self) {
        self.pass(None);
        self.cold_us.clear();
    }

    fn pass_s(&self) -> f64 {
        2.0
    }

    fn setup_reps(&self) -> usize {
        31
    }

    /// One restart: a fresh service replaying the store the last cold
    /// phase wrote.
    fn setup(&mut self, tr: Option<&Tracer>) -> f64 {
        let config = self.config();
        let t = Instant::now();
        let svc = timed(tr, "serve.open", || Service::new(&config));
        let s = t.elapsed().as_secs_f64();
        drop(svc.expect("the store reopens"));
        s
    }

    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut {
        let _ = std::fs::remove_file(&self.store);
        let config = self.config();
        let mut checks = Checks::default();
        let t = Instant::now();
        timed(tr, "pass", || {
            timed(tr, "serve.cold", || {
                let svc = Service::new(&config).expect("a fresh store opens");
                self.cold_phase(&svc, &mut checks);
            });
            let svc =
                timed(tr, "serve.restart", || Service::new(&config)).expect("the store reopens");
            timed(tr, "serve.warm", || self.warm_phase(&svc, &mut checks));
        });
        let seconds = t.elapsed().as_secs_f64();
        // Cold samples pool across passes (1 040 per pass); warm samples
        // stay those of the last pass, so the run's peak RSS does not grow
        // with the number of passes.
        self.cold_us.extend_from_slice(&self.last_cold_us);
        PassOut {
            seconds,
            ops: (self.last_cold_us.len() + self.last_warm_us.len()) as u64,
            checks,
        }
    }

    fn notes(&self) -> Vec<String> {
        let line = |name: &str, xs: &[f64]| {
            format!(
                "{name}_p50_us {:?} {name}_p99_us {:?} (n={})",
                pct(xs, 0.5, name),
                pct(xs, 0.99, name),
                xs.len()
            )
        };
        vec![
            line("cold", &self.cold_us),
            line("warm", &self.last_warm_us),
        ]
    }

    fn layers(&mut self, tr: &Tracer, setup: u32, pass: u32, snap: &Snapshot) -> Metrics {
        let mut m = self.micro();
        let reps: Vec<f64> = (0..11)
            .map(|_| {
                let t = Instant::now();
                let s = SolutionStore::open(&self.store).expect("the store reopens");
                let secs = t.elapsed().as_secs_f64();
                drop(s);
                secs
            })
            .collect();
        m.push("serve.store_open_s", median(&reps), "s");
        m.push(
            "serve.restart_s",
            median(&tr.durations("serve.open", setup)),
            "s",
        );
        m.push("serve.cold_s", tr.total("serve.cold", pass), "s");
        m.push("serve.warm_s", tr.total("serve.warm", pass), "s");
        let c = &self.last_cold_us;
        let w = &self.last_warm_us;
        m.push("serve.handle_cold_us.p50", pct(c, 0.5, "handle_cold"), "us");
        m.push(
            "serve.handle_cold_us.p99",
            pct(c, 0.99, "handle_cold"),
            "us",
        );
        m.push("serve.handle_warm_us.p50", pct(w, 0.5, "handle_warm"), "us");
        m.push(
            "serve.handle_warm_us.p99",
            pct(w, 0.99, "handle_warm"),
            "us",
        );
        let count = |name| snap.counter(name).unwrap_or(0) as f64;
        let hits = count("serve.store.hits");
        m.push("serve.store.hits", hits, "count");
        m.push("serve.store.misses", count("serve.store.misses"), "count");
        m.push("serve.store.inserts", count("serve.store.inserts"), "count");
        m.push("serve.warm_hit_rate", hits / w.len() as f64, "ratio");
        let bytes = std::fs::metadata(&self.store)
            .expect("the store exists")
            .len();
        m.push("serve.store_bytes", bytes as f64, "bytes");
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_set_is_fixed_and_distinct() {
        let a = distinct_requests();
        assert_eq!(a.len(), COLD);
        let mut b = a.clone();
        b.sort();
        b.dedup_by(|x, y| x.split_once(',').map(|p| p.1) == y.split_once(',').map(|p| p.1));
        assert_eq!(b.len(), COLD);
    }

    #[test]
    fn a_corrupted_warm_answer_is_caught() {
        let cold = "{\"idx\":7,\"status\":\"ok\",\"access_ns\":1.25}".to_string();
        assert!(same_answer(std::slice::from_ref(&cold), &cold));
        let corrupt = cold.replace("1.25", "1.26");
        assert!(!same_answer(&[corrupt], &cold));
        assert!(!same_answer(&[], &cold));
        assert!(!same_answer(&[cold.clone(), cold.clone()], &cold));
        assert!(answers(std::slice::from_ref(&cold), 7));
        assert!(!answers(&[cold], 71));
    }
}
