//! Simulation statistics: cycle attribution (paper Figure 4(b) categories),
//! access counters for the power model (Figure 5), and latency tracking.

/// Where a stalled thread's cycles are attributed — the execution-cycle
/// breakdown categories of the paper's Figure 4(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Executing instructions (not waiting for memory).
    Instruction,
    /// Stalled while an L2 (local or remote) services the request.
    L2Access,
    /// Stalled while the shared L3 services the request.
    L3Access,
    /// Stalled while main memory services the request.
    MemoryAccess,
    /// Idle at a barrier.
    Barrier,
    /// Spinning on a lock.
    Lock,
}

impl StallKind {
    /// All categories in the paper's plotting order.
    pub const ALL: &'static [StallKind] = &[
        StallKind::Instruction,
        StallKind::L2Access,
        StallKind::L3Access,
        StallKind::MemoryAccess,
        StallKind::Barrier,
        StallKind::Lock,
    ];

    fn index(self) -> usize {
        match self {
            StallKind::Instruction => 0,
            StallKind::L2Access => 1,
            StallKind::L3Access => 2,
            StallKind::MemoryAccess => 3,
            StallKind::Barrier => 4,
            StallKind::Lock => 5,
        }
    }
}

/// Per-level access counters consumed by the study's power model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessCounts {
    /// L1 reads (loads + instruction fetches are counted separately).
    pub l1_reads: u64,
    /// L1 writes (stores + fills).
    pub l1_writes: u64,
    /// Instruction-fetch L1I accesses.
    pub l1i_reads: u64,
    /// L2 reads.
    pub l2_reads: u64,
    /// L2 writes (stores-through, fills, writebacks received).
    pub l2_writes: u64,
    /// L3 reads (lookups).
    pub l3_reads: u64,
    /// L3 writes (fills + writebacks).
    pub l3_writes: u64,
    /// L3 open-row (page) hits — page-mode interface only.
    pub l3_page_hits: u64,
    /// Crossbar line transfers (either direction).
    pub xbar_transfers: u64,
    /// Main-memory row activations.
    pub mem_activates: u64,
    /// Main-memory read bursts.
    pub mem_reads: u64,
    /// Main-memory write bursts.
    pub mem_writes: u64,
    /// Main-memory open-page row-buffer hits (no activate needed).
    pub mem_page_hits: u64,
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions retired (all threads).
    pub instructions: u64,
    /// Thread-cycles attributed to each [`StallKind`] (sums to
    /// `cycles × n_threads`).
    pub cycle_breakdown: [u64; 6],
    /// Access counters.
    pub counts: AccessCounts,
    /// Sum of load latencies \[cycles\] (for average read latency).
    pub load_latency_sum: u64,
    /// Number of loads.
    pub loads: u64,
    /// Loads that hit each level: [L1, L2, L3, memory].
    pub load_level_hits: [u64; 4],
}

impl SimStats {
    /// Instructions per cycle across the whole chip.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }

    /// Average load (read) latency in cycles — Figure 4(a)'s second series.
    pub fn avg_read_latency(&self) -> f64 {
        if self.loads == 0 {
            return 0.0;
        }
        self.load_latency_sum as f64 / self.loads as f64
    }

    /// Attributes `n` thread-cycles to `kind`.
    pub fn attribute(&mut self, kind: StallKind, n: u64) {
        self.cycle_breakdown[kind.index()] += n;
    }

    /// Thread-cycles attributed to `kind`.
    pub fn attributed(&self, kind: StallKind) -> u64 {
        self.cycle_breakdown[kind.index()]
    }

    /// Normalized cycle breakdown (fractions summing to 1, if any cycles
    /// were attributed).
    pub fn breakdown_fractions(&self) -> [f64; 6] {
        let total: u64 = self.cycle_breakdown.iter().sum();
        let mut out = [0.0; 6];
        if total > 0 {
            for (o, &c) in out.iter_mut().zip(&self.cycle_breakdown) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }

    /// Publishes this run's aggregate counts into the process-wide
    /// [`cactid_obs`] registry (the `sim.*` counters of the trace sidecar).
    ///
    /// Call once per *measured* run — typically after the warm-up phase is
    /// discarded — since repeated calls accumulate. Per-event quantities
    /// that aggregate awkwardly (refresh stalls, coherence invalidations)
    /// are counted at their event sites instead and cover the whole
    /// process lifetime including warm-up.
    pub fn publish_obs(&self) {
        let pairs: [(&str, u64); 16] = [
            ("sim.cycles", self.cycles),
            ("sim.instructions", self.instructions),
            ("sim.loads", self.loads),
            ("sim.l1.hits", self.load_level_hits[0]),
            ("sim.l2.hits", self.load_level_hits[1]),
            ("sim.l3.hits", self.load_level_hits[2]),
            ("sim.mem.hits", self.load_level_hits[3]),
            ("sim.l1.reads", self.counts.l1_reads),
            ("sim.l1.writes", self.counts.l1_writes),
            ("sim.l2.reads", self.counts.l2_reads),
            ("sim.l2.writes", self.counts.l2_writes),
            ("sim.l3.reads", self.counts.l3_reads),
            ("sim.l3.writes", self.counts.l3_writes),
            ("sim.l3.page_hits", self.counts.l3_page_hits),
            ("sim.mem.activates", self.counts.mem_activates),
            ("sim.mem.page_hits", self.counts.mem_page_hits),
        ];
        for (name, v) in pairs {
            cactid_obs::counter(name).add(v);
        }
    }

    /// Accumulates `other` into `self`, field by field — used by the
    /// sharded simulator to combine per-shard statistics with the
    /// boundary-side statistics. `cycles` is *not* summed (it is wall
    /// simulated time, identical across shards, not additive); the caller
    /// sets it from the engine clock.
    pub fn merge(&mut self, other: &SimStats) {
        self.instructions += other.instructions;
        for (a, b) in self.cycle_breakdown.iter_mut().zip(&other.cycle_breakdown) {
            *a += b;
        }
        self.load_latency_sum += other.load_latency_sum;
        self.loads += other.loads;
        for (a, b) in self.load_level_hits.iter_mut().zip(&other.load_level_hits) {
            *a += b;
        }
        let (c, o) = (&mut self.counts, &other.counts);
        c.l1_reads += o.l1_reads;
        c.l1_writes += o.l1_writes;
        c.l1i_reads += o.l1i_reads;
        c.l2_reads += o.l2_reads;
        c.l2_writes += o.l2_writes;
        c.l3_reads += o.l3_reads;
        c.l3_writes += o.l3_writes;
        c.l3_page_hits += o.l3_page_hits;
        c.xbar_transfers += o.xbar_transfers;
        c.mem_activates += o.mem_activates;
        c.mem_reads += o.mem_reads;
        c.mem_writes += o.mem_writes;
        c.mem_page_hits += o.mem_page_hits;
    }

    /// FNV-1a digest over every field — a compact checksum for asserting
    /// bitwise equality of runs (e.g. against a pinned constant) without
    /// printing the whole struct.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.cycles);
        mix(self.instructions);
        for &v in &self.cycle_breakdown {
            mix(v);
        }
        let c = &self.counts;
        for v in [
            c.l1_reads,
            c.l1_writes,
            c.l1i_reads,
            c.l2_reads,
            c.l2_writes,
            c.l3_reads,
            c.l3_writes,
            c.l3_page_hits,
            c.xbar_transfers,
            c.mem_activates,
            c.mem_reads,
            c.mem_writes,
            c.mem_page_hits,
        ] {
            mix(v);
        }
        mix(self.load_latency_sum);
        mix(self.loads);
        for &v in &self.load_level_hits {
            mix(v);
        }
        h
    }

    /// L3 hit rate among loads that reached the L3.
    pub fn l3_hit_rate(&self) -> f64 {
        let reached = self.load_level_hits[2] + self.load_level_hits[3];
        if reached == 0 {
            return 0.0;
        }
        self.load_level_hits[2] as f64 / reached as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_and_fractions() {
        let mut s = SimStats::default();
        s.attribute(StallKind::Instruction, 60);
        s.attribute(StallKind::MemoryAccess, 40);
        let f = s.breakdown_fractions();
        assert!((f[0] - 0.6).abs() < 1e-12);
        assert!((f[3] - 0.4).abs() < 1e-12);
        assert_eq!(s.attributed(StallKind::MemoryAccess), 40);
    }

    #[test]
    fn ipc_and_latency_guard_divide_by_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.avg_read_latency(), 0.0);
        assert_eq!(s.l3_hit_rate(), 0.0);
    }

    #[test]
    fn publish_obs_adds_the_level_hit_counters() {
        let mut s = SimStats {
            loads: 10,
            load_level_hits: [5, 3, 1, 1],
            ..SimStats::default()
        };
        s.counts.l3_page_hits = 4;
        let before = cactid_obs::snapshot();
        let loads0 = before.counter("sim.loads").unwrap_or(0);
        let l1_0 = before.counter("sim.l1.hits").unwrap_or(0);
        let pg0 = before.counter("sim.l3.page_hits").unwrap_or(0);
        s.publish_obs();
        let after = cactid_obs::snapshot();
        assert!(after.counter("sim.loads").unwrap() >= loads0 + 10);
        assert!(after.counter("sim.l1.hits").unwrap() >= l1_0 + 5);
        assert!(after.counter("sim.l3.page_hits").unwrap() >= pg0 + 4);
    }

    #[test]
    fn merge_sums_everything_but_cycles() {
        let mut a = SimStats {
            cycles: 100,
            instructions: 10,
            loads: 3,
            load_latency_sum: 30,
            load_level_hits: [1, 1, 1, 0],
            ..SimStats::default()
        };
        a.counts.l1_reads = 5;
        a.attribute(StallKind::L2Access, 7);
        let mut b = SimStats {
            cycles: 999,
            instructions: 4,
            loads: 2,
            load_latency_sum: 8,
            load_level_hits: [2, 0, 0, 0],
            ..SimStats::default()
        };
        b.counts.l1_reads = 9;
        b.attribute(StallKind::L2Access, 3);
        a.merge(&b);
        assert_eq!(a.cycles, 100, "cycles must not be summed");
        assert_eq!(a.instructions, 14);
        assert_eq!(a.loads, 5);
        assert_eq!(a.load_latency_sum, 38);
        assert_eq!(a.load_level_hits, [3, 1, 1, 0]);
        assert_eq!(a.counts.l1_reads, 14);
        assert_eq!(a.attributed(StallKind::L2Access), 10);
    }

    #[test]
    fn digest_is_sensitive_to_each_field() {
        let base = SimStats::default();
        let mut x = base.clone();
        x.counts.mem_page_hits = 1;
        let mut y = base.clone();
        y.load_level_hits[3] = 1;
        assert_ne!(base.digest(), x.digest());
        assert_ne!(base.digest(), y.digest());
        assert_ne!(x.digest(), y.digest());
        assert_eq!(base.digest(), SimStats::default().digest());
    }

    #[test]
    fn all_kinds_have_distinct_indices() {
        let mut seen = std::collections::HashSet::new();
        for &k in StallKind::ALL {
            assert!(seen.insert(k.index()));
        }
        assert_eq!(seen.len(), 6);
    }
}
