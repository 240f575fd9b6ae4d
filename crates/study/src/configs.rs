//! Builds the six system configurations of the LLC study (paper §3.1, §4.1,
//! Table 3) from live CACTI-D solutions.
//!
//! For each DRAM technology the paper evaluates two solutions: one
//! optimized for capacity (`config C`, best density) and one with smaller
//! mats and better energy/delay (`config ED`). We reproduce that by running
//! the §2.4 staged optimizer with different knob settings. Cache clock
//! ratios follow the paper's rule of at most 6 pipeline stages per cache.

use crate::power::{CHANNELS, CHANNEL_TRANSFERS_PER_S, CHIPS_PER_RANK, CHIP_IO_BITS};
use cactid_circuit::{BlockResult, Crossbar};
use cactid_core::{AccessMode, MemoryKind, MemorySpec, OptimizationOptions, Solution};
use cactid_explore::{optimize_cached_in, SolveCache};
use cactid_tech::{CellTechnology, DeviceType, TechNode, Technology, WireType};
use cactid_units::{Meters, Seconds};
use memsim::config::{
    CacheConfig, DramConfig, L3Config, L3Interface, L3PageTiming, PagePolicy, SetMapping,
    SystemConfig,
};

/// CPU clock of the study (2 GHz, paper §4.1).
pub const CLOCK_HZ: f64 = 2.0e9;
/// Maximum pipeline stages inside any cache (paper §4.1).
pub const MAX_PIPE_STAGES: u64 = 6;
/// Crossbar span at 32 nm, measured from the Niagara2 die photo and scaled
/// (paper §4.1).
pub const XBAR_SIDE_M: Meters = Meters::from_si(3.0e-3);
/// Crossbar datapath width \[bits\].
pub const XBAR_WIDTH_BITS: usize = 128;
/// Banks of every L3, each on its own crossbar port (paper §4.1).
pub const L3_BANKS: u32 = 8;

/// The six system configurations in the paper's plotting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlcKind {
    /// No L3 at all.
    NoL3,
    /// 24 MB SRAM L3 (12-way).
    Sram24,
    /// 48 MB LP-DRAM L3, energy/delay-optimized mats (12-way).
    LpDramEd48,
    /// 72 MB LP-DRAM L3, capacity-optimized (18-way).
    LpDramC72,
    /// 96 MB COMM-DRAM L3, energy/delay-optimized mats (12-way).
    CmDramEd96,
    /// 192 MB COMM-DRAM L3, capacity-optimized (24-way).
    CmDramC192,
}

impl LlcKind {
    /// All six configurations.
    pub const ALL: &'static [LlcKind] = &[
        LlcKind::NoL3,
        LlcKind::Sram24,
        LlcKind::LpDramEd48,
        LlcKind::LpDramC72,
        LlcKind::CmDramEd96,
        LlcKind::CmDramC192,
    ];

    /// The paper's x-axis label for this configuration.
    pub fn label(self) -> &'static str {
        match self {
            LlcKind::NoL3 => "nol3",
            LlcKind::Sram24 => "sram",
            LlcKind::LpDramEd48 => "lp_dram_ed",
            LlcKind::LpDramC72 => "lp_dram_c",
            LlcKind::CmDramEd96 => "cm_dram_ed",
            LlcKind::CmDramC192 => "cm_dram_c",
        }
    }

    /// (capacity, associativity, cell technology, capacity-optimized?) of
    /// the L3, if any.
    pub fn l3_shape(self) -> Option<(u64, u32, CellTechnology, bool)> {
        match self {
            LlcKind::NoL3 => None,
            LlcKind::Sram24 => Some((24 << 20, 12, CellTechnology::Sram, false)),
            LlcKind::LpDramEd48 => Some((48 << 20, 12, CellTechnology::LpDram, false)),
            LlcKind::LpDramC72 => Some((72 << 20, 18, CellTechnology::LpDram, true)),
            LlcKind::CmDramEd96 => Some((96 << 20, 12, CellTechnology::CommDram, false)),
            LlcKind::CmDramC192 => Some((192 << 20, 24, CellTechnology::CommDram, true)),
        }
    }
}

/// A fully-built study configuration: the memsim system description plus
/// the CACTI-D solutions it was derived from (needed by the power model).
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Which of the six configurations this is.
    pub kind: LlcKind,
    /// The simulator configuration.
    pub system: SystemConfig,
    /// CACTI-D solution for the 32 KB L1 (per core; L1I is identical).
    pub l1: Solution,
    /// CACTI-D solution for the 1 MB L2 (per core).
    pub l2: Solution,
    /// CACTI-D solution for one L3 bank, if an L3 is present.
    pub l3: Option<Solution>,
    /// CACTI-D solution for the 8 Gb main-memory chip.
    pub main_memory: Solution,
    /// Per-flit crossbar evaluation (delay/energy/leakage).
    pub xbar: BlockResult,
}

fn cache_spec(
    capacity: u64,
    assoc: u32,
    banks: u32,
    cell: CellTechnology,
    opt: OptimizationOptions,
) -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(capacity)
        .block_bytes(64)
        .associativity(assoc)
        .banks(banks)
        .cell_tech(cell)
        .node(TechNode::N32)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .optimization(opt)
        .build()
        .unwrap_or_else(|e| panic!("study cache specs are valid: {e}"))
}

/// The study's 8 Gb DDR4-3200-class main-memory chip spec (paper §3.1).
pub fn main_memory_spec() -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(1 << 30) // 8 Gb
        .block_bytes(8)
        .banks(8)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N32)
        .kind(MemoryKind::MainMemory {
            io_bits: CHIP_IO_BITS,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8 << 10,
        })
        .optimization(OptimizationOptions::c())
        .build()
        .unwrap_or_else(|e| panic!("the main-memory spec is valid: {e}"))
}

/// Rounds a time up to whole CPU cycles (at least one).
pub(crate) fn quantize(t: Seconds) -> u64 {
    (t.value() * CLOCK_HZ).ceil().max(1.0) as u64
}

/// The CPU-to-cache clock ratio of a cache solution, by the paper's
/// pipeline-depth rule: the cache runs at `1/ratio` of the CPU clock,
/// where `ratio` is the smallest divisor keeping its access within
/// [`MAX_PIPE_STAGES`] stages; all its timings quantize to that
/// granularity.
pub(crate) fn clock_ratio(sol: &Solution) -> u64 {
    quantize(sol.access_time).div_ceil(MAX_PIPE_STAGES).max(1)
}

fn cache_config(sol: &Solution, capacity: u64, assoc: u32) -> CacheConfig {
    let ratio = clock_ratio(sol);
    let cycles = |t: Seconds| quantize(t).div_ceil(ratio) * ratio;
    CacheConfig {
        capacity_bytes: capacity,
        line_bytes: 64,
        associativity: assoc,
        access_cycles: cycles(sol.access_time),
        cycle_cycles: cycles(sol.random_cycle),
        interleave_cycles: cycles(sol.interleave_cycle),
        n_subbanks: sol.org.ndbl,
    }
}

/// Derives the page-mode row timing of a DRAM L3 from its solution's delay
/// breakdown (used by the §3.4 interface ablation): tRCD is the row path
/// to sensed data, tCAS the column path, tRP the restore + precharge.
pub fn page_timing_of(sol: &Solution) -> L3PageTiming {
    let d = &sol.data.delay;
    L3PageTiming {
        t_rcd: quantize(d.decode + d.bitline + d.sense),
        t_cas: quantize(d.mux + d.htree_out + d.htree_in),
        t_rp: quantize(d.restore + d.precharge),
    }
}

/// The crossbar between the cores' L2s and the L3 banks: one input per
/// simulated core, one output per bank.
pub fn crossbar(n_cores: u32) -> Crossbar {
    Crossbar::new(
        n_cores as usize,
        L3_BANKS as usize,
        XBAR_WIDTH_BITS,
        XBAR_SIDE_M,
    )
}

/// Evaluates the [`crossbar`] of `n_cores` cores once (per-flit).
pub fn crossbar_eval(n_cores: u32) -> BlockResult {
    let tech = Technology::new(TechNode::N32);
    let dev = tech.device(DeviceType::Hp);
    let wire = tech.wire(WireType::Global);
    crossbar(n_cores).evaluate(&dev, &wire)
}

/// CPU cycles one `line_bytes` line holds a memory channel's data bus:
/// one beat per [`CHIPS_PER_RANK`] × [`CHIP_IO_BITS`] bits of the line,
/// one transfer per beat at [`CHANNEL_TRANSFERS_PER_S`].
pub fn line_burst_cycles(line_bytes: u32) -> u64 {
    let channel_bits = CHIPS_PER_RANK * CHIP_IO_BITS;
    let beats = u64::from((line_bytes * 8).div_ceil(channel_bits));
    (beats * CLOCK_HZ as u64).div_ceil(CHANNEL_TRANSFERS_PER_S)
}

/// Builds one study configuration (runs the CACTI-D sweeps; ~a second).
pub fn build(kind: LlcKind) -> StudyConfig {
    // The six study configurations share their L1/L2/main-memory specs,
    // and Table 3 builds all six: going through the cactid-explore solve
    // memo makes each distinct spec cost one solve per process.
    let l1_sol = optimize_cached_in(
        SolveCache::global(),
        &cache_spec(
            32 << 10,
            8,
            1,
            CellTechnology::Sram,
            OptimizationOptions::default(),
        ),
    )
    .unwrap_or_else(|e| panic!("the L1 spec solves: {e}"));
    let l2_sol = optimize_cached_in(
        SolveCache::global(),
        &cache_spec(
            1 << 20,
            8,
            1,
            CellTechnology::Sram,
            OptimizationOptions::default(),
        ),
    )
    .unwrap_or_else(|e| panic!("the L2 spec solves: {e}"));
    let mm_sol = optimize_cached_in(SolveCache::global(), &main_memory_spec())
        .unwrap_or_else(|e| panic!("the main-memory spec solves: {e}"));
    let Some(mm) = mm_sol.main_memory.as_ref() else {
        unreachable!("a main-memory solution carries chip-level data")
    };

    let l3_sol = kind.l3_shape().map(|(cap, assoc, cell, cap_opt)| {
        let mut opt = if cap_opt {
            OptimizationOptions::c()
        } else {
            OptimizationOptions::ed()
        };
        // The paper models an aggressively leakage-controlled SRAM L3
        // (sleep transistors halving idle-mat leakage, like the 65 nm Xeon).
        opt.sleep_transistors = cell == CellTechnology::Sram;
        optimize_cached_in(
            SolveCache::global(),
            &cache_spec(cap, assoc, L3_BANKS, cell, opt),
        )
        .unwrap_or_else(|e| panic!("the {} L3 spec solves: {e}", kind.label()))
    });

    let mut system = SystemConfig::baseline_no_l3();
    system.clock_hz = CLOCK_HZ;
    system.l1 = cache_config(&l1_sol, 32 << 10, 8);
    system.l2 = cache_config(&l2_sol, 1 << 20, 8);
    system.dram = DramConfig {
        channels: CHANNELS,
        // DDR4-3200-class devices expose 16 banks (4 bank groups × 4);
        // the model folds bank groups into a flat bank count.
        banks: 16,
        page_bytes: 8 << 10,
        t_rcd: quantize(mm.timing.t_rcd),
        t_cl: quantize(mm.timing.cas_latency),
        t_rp: quantize(mm.timing.t_rp),
        t_rc: quantize(mm.timing.t_rc),
        // tRRD_S at 3200 MT/s is ~3 ns; the chip-level model's
        // power-delivery bound applies per bank group.
        t_rrd: quantize(mm.timing.t_rrd).min(6),
        t_burst: line_burst_cycles(system.l2.line_bytes),
        // NPB-style streaming hits open rows heavily; the paper (§2.3.4)
        // leaves the policy to the architect — open page is the right
        // choice for these workloads (the closed-page ablation lives in
        // the benches).
        page_policy: PagePolicy::Open,
    };
    let xbar = crossbar_eval(system.n_cores);
    let xbar_cycles = quantize(xbar.delay).max(1);
    system.l3 = l3_sol.as_ref().map(|sol| {
        let Some((cap, assoc, cell, _)) = kind.l3_shape() else {
            unreachable!("an L3 solution implies an L3 shape")
        };
        L3Config {
            bank: cache_config(sol, cap / u64::from(L3_BANKS), assoc),
            n_banks: L3_BANKS,
            xbar_cycles,
            set_mapping: SetMapping::SetsPerPage,
            interface: L3Interface::SramLike,
            page_timing: cell.is_dram().then(|| page_timing_of(sol)),
        }
    });

    StudyConfig {
        kind,
        system,
        l1: l1_sol,
        l2: l2_sol,
        l3: l3_sol,
        main_memory: mm_sol,
        xbar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_l3_config_builds() {
        let c = build(LlcKind::NoL3);
        assert!(c.system.l3.is_none());
        assert!(c.l3.is_none());
        // DRAM timings in a DDR4-plausible band at 2 GHz.
        assert!(c.system.dram.t_rcd > 15 && c.system.dram.t_rcd < 60);
        assert!(c.system.dram.t_rc > c.system.dram.t_rcd + c.system.dram.t_rp);
    }

    #[test]
    fn sram_l3_is_fast_and_comm_l3_is_dense_slow() {
        let sram = build(LlcKind::Sram24);
        let comm = build(LlcKind::CmDramC192);
        let s = sram.system.l3.as_ref().unwrap();
        let c = comm.system.l3.as_ref().unwrap();
        assert!(s.bank.access_cycles < c.bank.access_cycles);
        assert!(s.bank.cycle_cycles <= c.bank.cycle_cycles);
        assert_eq!(s.bank.capacity_bytes, 3 << 20);
        assert_eq!(c.bank.capacity_bytes, 24 << 20);
        let cell = |kind: LlcKind| kind.l3_shape().map(|(_, _, cell, _)| cell);
        assert_eq!(cell(sram.kind), Some(CellTechnology::Sram));
        assert_eq!(cell(comm.kind), Some(CellTechnology::CommDram));
    }

    #[test]
    fn ed_config_has_better_cycle_time_than_c() {
        let ed = build(LlcKind::LpDramEd48);
        let c = build(LlcKind::LpDramC72);
        let ed_l3 = ed.l3.as_ref().unwrap();
        let c_l3 = c.l3.as_ref().unwrap();
        assert!(ed_l3.random_cycle <= c_l3.random_cycle * 1.05);
        // C is denser (better area efficiency).
        assert!(c_l3.area_efficiency >= ed_l3.area_efficiency * 0.95);
    }

    #[test]
    fn the_crossbar_has_one_input_per_simulated_core() {
        let c = build(LlcKind::Sram24);
        let n_cores = c.system.n_cores;
        assert_eq!(crossbar(n_cores).n_in, n_cores as usize);
        assert_eq!(crossbar(n_cores).n_out, L3_BANKS as usize);
        assert_eq!(c.xbar, crossbar_eval(n_cores));
        assert_eq!(crossbar(2 * n_cores).n_in, 2 * n_cores as usize);
    }

    #[test]
    fn the_dimm_channel_sets_the_burst_and_the_channel_count() {
        let dram = build(LlcKind::NoL3).system.dram;
        // 64 B over a 64-bit DDR4-3200 channel: 8 beats, 2.5 ns, 5 cycles
        // at 2 GHz.
        assert_eq!(dram.t_burst, 5);
        assert_eq!(dram.channels, 2);
        assert_eq!(line_burst_cycles(128), 10);
        assert_eq!(crate::power::TOTAL_CHIPS, 16);
    }

    #[test]
    fn quantization_respects_pipeline_rule() {
        let comm = build(LlcKind::CmDramEd96);
        let l3 = comm.system.l3.as_ref().unwrap();
        let ratio = clock_ratio(comm.l3.as_ref().unwrap());
        assert!(l3.bank.access_cycles <= MAX_PIPE_STAGES * ratio);
        assert_eq!(l3.bank.access_cycles % ratio, 0);
        assert_eq!(l3.bank.cycle_cycles % ratio, 0);
    }

    #[test]
    fn every_cache_holds_the_whole_npbgen_address_layout() {
        // A tag array panics on an address past its tag range, so the
        // last byte of the traces' highest region must fit the L1, the L2
        // and (through the bank interleave) every L3 bank: of all six
        // configurations, of the SRAM-L3 baseline, and of every many-core
        // chip `llc-study shard` builds.
        use memsim::cache::{LineState, SetAssocCache};
        use memsim::l3::L3;
        use memsim::SystemConfig;
        let last = npbgen::generator::SHARED_BASE + npbgen::profile::SHARED_BYTES - 1;
        let systems = LlcKind::ALL
            .iter()
            .map(|&kind| (format!("{kind:?}"), build(kind).system))
            .chain([("with_sram_l3".into(), SystemConfig::with_sram_l3())])
            .chain((0..=6).map(|k| {
                (
                    format!("many_core({})", 1 << k),
                    SystemConfig::many_core(1 << k),
                )
            }));
        for (name, system) in systems {
            for c in [system.l1, system.l2] {
                let mut tags: SetAssocCache =
                    SetAssocCache::new(c.capacity_bytes, c.line_bytes, c.associativity, 1);
                tags.insert(0, last, LineState::Shared);
                assert_eq!(tags.probe(0, last), Some(LineState::Shared), "{name}");
            }
            if let Some(l3) = system.l3 {
                let mut l3 = L3::new(l3);
                l3.insert(last, LineState::Shared);
                assert_eq!(l3.lookup(last), Some(LineState::Shared), "{name}");
            }
        }
    }
}
