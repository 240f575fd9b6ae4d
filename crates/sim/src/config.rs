//! System configuration: geometry and timing of every hierarchy level.
//!
//! All timings are in CPU cycles. The LLC study derives them from CACTI-D
//! solutions (Table 3); the defaults here correspond to the paper's values
//! at 2 GHz.

use crate::coherence::MAX_CORES;

/// The most hardware threads a core may have: the issue stage keeps a
/// core's ready threads in one `u64`.
pub const MAX_THREADS_PER_CORE: u32 = 64;

/// A structurally invalid [`SystemConfig`], caught at construction instead
/// of mid-simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The L3 interface is [`L3Interface::PageMode`] but `page_timing` is
    /// `None`, so row hits/misses have no tRCD/CAS/tRP to charge.
    PageModeWithoutTiming,
    /// `n_cores` is zero or exceeds the core ceiling of the sharer sets
    /// ([`MAX_CORES`]).
    UnsupportedCoreCount(u32),
    /// A cache level's line size is not a power of two, or is below the
    /// 4 B minimum of the packed tag slot (`tag << 2 | state`). The slot's
    /// [`TAG_BITS`](crate::cache::Slot::TAG_BITS)-bit tag also bounds the
    /// addresses a level holds, to `2^(TAG_BITS + log2 sets + log2 line bytes)`;
    /// validation cannot see trace addresses, so the cache checks that
    /// bound on every access and panics past it.
    BadLineSize {
        /// The level: `"L1"`, `"L2"` or `"L3 bank"`.
        level: &'static str,
        /// The offending line size \[bytes\].
        line_bytes: u32,
    },
    /// The L1 and L2 lines differ in size. Coherence tracks L2 lines, and
    /// an L2 eviction must drop every L1 copy of its line, so the two
    /// levels share one line size.
    LineSizeMismatch {
        /// The L1 line size \[bytes\].
        l1: u32,
        /// The L2 line size \[bytes\].
        l2: u32,
    },
    /// A cache level has zero ways.
    ZeroAssociativity {
        /// The level: `"L1"`, `"L2"` or `"L3 bank"`.
        level: &'static str,
    },
    /// A cache level's set count (capacity / (line × ways)) is zero or not
    /// a power of two, so addresses cannot be split into set and tag.
    BadSetCount {
        /// The level: `"L1"`, `"L2"` or `"L3 bank"`.
        level: &'static str,
        /// The set count the geometry works out to.
        sets: u64,
    },
    /// `threads_per_core` is zero, so no core has a thread to issue.
    ZeroThreadsPerCore,
    /// `threads_per_core` exceeds [`MAX_THREADS_PER_CORE`]: the issue
    /// stage reads a core's ready threads off one 64-bit mask.
    TooManyThreadsPerCore(u32),
    /// An interleave divisor — DRAM channels, banks or page size, L3 bank
    /// count or subbank count — is zero or not a power of two. The
    /// simulators split addresses with shifts and masks, so each of these
    /// must be a nonzero power of two.
    InterleaveNotPowerOfTwo {
        /// The field, e.g. `"dram.channels"` or `"l3.bank.n_subbanks"`.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::PageModeWithoutTiming => write!(
                f,
                "page-mode L3 requires page_timing (tRCD/CAS/tRP); \
                 set L3Config::page_timing or use the SRAM-like interface"
            ),
            ConfigError::UnsupportedCoreCount(n) => write!(
                f,
                "n_cores = {n} is outside the supported 1..={MAX_CORES} range \
                 of the sharer sets"
            ),
            ConfigError::BadLineSize { level, line_bytes } => write!(
                f,
                "{level} line size {line_bytes} B must be a power of two of at least 4 B"
            ),
            ConfigError::LineSizeMismatch { l1, l2 } => write!(
                f,
                "L1 line size {l1} B differs from L2 line size {l2} B; \
                 the private caches must share one line size"
            ),
            ConfigError::ZeroAssociativity { level } => {
                write!(f, "{level} associativity must be at least 1")
            }
            ConfigError::BadSetCount { level, sets } => write!(
                f,
                "{level} geometry gives {sets} sets; capacity / (line × ways) \
                 must be a nonzero power of two"
            ),
            ConfigError::ZeroThreadsPerCore => {
                write!(f, "threads_per_core must be at least 1")
            }
            ConfigError::TooManyThreadsPerCore(n) => write!(
                f,
                "threads_per_core = {n} exceeds {MAX_THREADS_PER_CORE}, \
                 the width of a core's ready mask"
            ),
            ConfigError::InterleaveNotPowerOfTwo { field, value } => write!(
                f,
                "{field} = {value} must be a nonzero power of two \
                 (addresses are interleaved with shifts and masks)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks one interleave divisor is a nonzero power of two.
fn interleave(field: &'static str, value: u64) -> Result<(), ConfigError> {
    if value.is_power_of_two() {
        Ok(())
    } else {
        Err(ConfigError::InterleaveNotPowerOfTwo { field, value })
    }
}

/// Geometry + timing of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (per instance for L1/L2; per bank for L3).
    pub capacity_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity.
    pub associativity: u32,
    /// Load-to-use access latency [CPU cycles].
    pub access_cycles: u64,
    /// Random (same-subbank) cycle time [CPU cycles].
    pub cycle_cycles: u64,
    /// Initiation interval for accesses to *different* subbanks
    /// [CPU cycles] (multisubbank interleaving, paper §2.3.4).
    pub interleave_cycles: u64,
    /// Number of interleavable subbanks per instance.
    pub n_subbanks: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (u64::from(self.line_bytes) * u64::from(self.associativity))
    }

    /// Checks the geometry can be built as a tag array; `level` names the
    /// level in the error.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadLineSize`], [`ConfigError::ZeroAssociativity`] or
    /// [`ConfigError::BadSetCount`].
    pub fn validate(&self, level: &'static str) -> Result<(), ConfigError> {
        let line_bytes = self.line_bytes;
        if !line_bytes.is_power_of_two() || line_bytes < 4 {
            return Err(ConfigError::BadLineSize { level, line_bytes });
        }
        if self.associativity == 0 {
            return Err(ConfigError::ZeroAssociativity { level });
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(ConfigError::BadSetCount { level, sets });
        }
        Ok(())
    }
}

/// How cache sets map onto DRAM pages in a DRAM L3 (paper Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetMapping {
    /// Multiple consecutive sets per DRAM page (Figure 3(a) generalized) —
    /// the choice the paper makes for its study (§3.4).
    #[default]
    SetsPerPage,
    /// Sets striped across pages: one way of consecutive sets per page
    /// (Figure 3(b)).
    StripedWays,
}

/// How a DRAM L3 is operated (paper §2.3.4): with a vanilla SRAM-like
/// interface plus multisubbank interleaving (the paper's choice, §3.4), or
/// with a main-memory-like ACTIVATE/READ/WRITE/PRECHARGE interface that
/// keeps pages open hoping for row-buffer hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum L3Interface {
    /// READ/WRITE only; activate+precharge hidden; multisubbank
    /// interleaving governs back-to-back accesses.
    #[default]
    SramLike,
    /// Open-page main-memory-like operation with explicit row timing.
    PageMode,
}

/// Row timing for a page-mode DRAM L3 [CPU cycles].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3PageTiming {
    /// Row activation (decode + wordline + bitline + sense).
    pub t_rcd: u64,
    /// Column access from an open row to data out.
    pub t_cas: u64,
    /// Precharge (+ restore) before a different row may open.
    pub t_rp: u64,
}

/// Shared L3 configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L3Config {
    /// Per-bank cache parameters.
    pub bank: CacheConfig,
    /// Number of banks (the paper uses 8, one per core).
    pub n_banks: u32,
    /// One-way crossbar traversal between an L2 and an L3 bank \[cycles\].
    pub xbar_cycles: u64,
    /// Cache-set ↔ DRAM-page mapping (DRAM L3s only).
    pub set_mapping: SetMapping,
    /// Operational interface (DRAM L3s only; SRAM is always SRAM-like).
    pub interface: L3Interface,
    /// Row timing when `interface` is [`L3Interface::PageMode`].
    pub page_timing: Option<L3PageTiming>,
}

impl L3Config {
    /// Checks the configuration is self-consistent.
    ///
    /// # Errors
    ///
    /// [`ConfigError::PageModeWithoutTiming`] when the interface is
    /// [`L3Interface::PageMode`] but no [`L3PageTiming`] is given,
    /// [`ConfigError::InterleaveNotPowerOfTwo`] for the bank or subbank
    /// count, or any geometry error from [`CacheConfig::validate`] for the
    /// bank.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.interface == L3Interface::PageMode && self.page_timing.is_none() {
            return Err(ConfigError::PageModeWithoutTiming);
        }
        interleave("l3.n_banks", u64::from(self.n_banks))?;
        interleave("l3.bank.n_subbanks", u64::from(self.bank.n_subbanks))?;
        self.bank.validate("L3 bank")
    }
}

/// Main-memory page policy (paper §2.3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Close the page (precharge) after every access.
    #[default]
    Closed,
    /// Keep the page open hoping for row-buffer hits.
    Open,
}

/// DDR-style main memory configuration (timings in CPU cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels (the study uses 2).
    pub channels: u32,
    /// Banks per channel (single-ranked DIMM of 8-bank devices → 8).
    pub banks: u32,
    /// Row (page) size per bank in bytes, across the rank.
    pub page_bytes: u64,
    /// Activate-to-column delay tRCD.
    pub t_rcd: u64,
    /// CAS latency.
    pub t_cl: u64,
    /// Precharge time tRP.
    pub t_rp: u64,
    /// Row cycle time tRC (≥ tRCD + tRP).
    pub t_rc: u64,
    /// Activate-to-activate (different banks) tRRD.
    pub t_rrd: u64,
    /// Data-bus occupancy of one line burst.
    pub t_burst: u64,
    /// Page policy.
    pub page_policy: PagePolicy,
}

impl DramConfig {
    /// Checks the address interleave can be computed with shifts and
    /// masks.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InterleaveNotPowerOfTwo`] for `channels`, `banks` or
    /// `page_bytes`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        interleave("dram.channels", u64::from(self.channels))?;
        interleave("dram.banks", u64::from(self.banks))?;
        interleave("dram.page_bytes", self.page_bytes)
    }
}

/// Full system description.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub n_cores: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// CPU clock \[Hz\] (used by the study to convert counts to power).
    pub clock_hz: f64,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Optional shared L3.
    pub l3: Option<L3Config>,
    /// Main memory.
    pub dram: DramConfig,
    /// Non-FP instruction latency \[cycles\] (paper: 4).
    pub other_instr_cycles: u64,
}

impl SystemConfig {
    /// Total hardware threads.
    pub fn n_threads(&self) -> usize {
        self.n_cores as usize * self.threads_per_core as usize
    }

    /// Checks the whole system description is self-consistent.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnsupportedCoreCount`],
    /// [`ConfigError::ZeroThreadsPerCore`],
    /// [`ConfigError::TooManyThreadsPerCore`],
    /// [`ConfigError::LineSizeMismatch`], or any [`ConfigError`] from
    /// the configured levels ([`CacheConfig::validate`] for the L1 and L2,
    /// [`L3Config::validate`] for the L3, [`DramConfig::validate`] for
    /// main memory).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cores == 0 || self.n_cores as usize > MAX_CORES {
            return Err(ConfigError::UnsupportedCoreCount(self.n_cores));
        }
        if self.threads_per_core == 0 {
            return Err(ConfigError::ZeroThreadsPerCore);
        }
        if self.threads_per_core > MAX_THREADS_PER_CORE {
            return Err(ConfigError::TooManyThreadsPerCore(self.threads_per_core));
        }
        self.l1.validate("L1")?;
        self.l2.validate("L2")?;
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err(ConfigError::LineSizeMismatch {
                l1: self.l1.line_bytes,
                l2: self.l2.line_bytes,
            });
        }
        if let Some(l3) = &self.l3 {
            l3.validate()?;
        }
        self.dram.validate()
    }

    /// The paper's system with no L3 (`nol3` configuration): 8 Niagara-like
    /// cores × 4 threads at 2 GHz, 32 KB 8-way L1s, 1 MB 8-way L2s, two
    /// DDR4-3200-class channels.
    pub fn baseline_no_l3() -> SystemConfig {
        SystemConfig {
            n_cores: 8,
            threads_per_core: 4,
            clock_hz: 2.0e9,
            l1: CacheConfig {
                capacity_bytes: 32 << 10,
                line_bytes: 64,
                associativity: 8,
                access_cycles: 2,
                cycle_cycles: 1,
                interleave_cycles: 1,
                n_subbanks: 1,
            },
            l2: CacheConfig {
                capacity_bytes: 1 << 20,
                line_bytes: 64,
                associativity: 8,
                access_cycles: 3,
                cycle_cycles: 1,
                interleave_cycles: 1,
                n_subbanks: 4,
            },
            l3: None,
            dram: DramConfig {
                channels: 2,
                banks: 8,
                page_bytes: 8 << 10,
                t_rcd: 31,
                t_cl: 27,
                t_rp: 22,
                t_rc: 109,
                t_rrd: 16,
                t_burst: 4,
                page_policy: PagePolicy::Closed,
            },
            other_instr_cycles: 4,
        }
    }

    /// Baseline plus an SRAM L3 shaped like the paper's 24 MB
    /// configuration (Table 3 values).
    pub fn with_sram_l3() -> SystemConfig {
        let mut c = SystemConfig::baseline_no_l3();
        c.l3 = Some(L3Config {
            bank: CacheConfig {
                capacity_bytes: 3 << 20,
                line_bytes: 64,
                associativity: 12,
                access_cycles: 5,
                cycle_cycles: 1,
                interleave_cycles: 1,
                n_subbanks: 4,
            },
            n_banks: 8,
            xbar_cycles: 2,
            set_mapping: SetMapping::default(),
            interface: L3Interface::SramLike,
            page_timing: None,
        });
        c
    }

    /// A scaled-up chip for the simulator's many-core studies:
    /// [`SystemConfig::with_sram_l3`] geometry per core, one L3 bank per
    /// core, crossbar latency growing logarithmically with the core count
    /// (2 cycles at the paper's 8 cores, +2 per doubling), and one DRAM
    /// channel per 4 cores. `many_core(8)` reproduces `with_sram_l3()`
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or above [`MAX_CORES`] (the sharer-set
    /// width) — use [`SystemConfig::validate`] for a typed
    /// error. A core count that is not a power of two builds, but fails
    /// [`SystemConfig::validate`]: the L3 bank count follows it.
    pub fn many_core(n_cores: u32) -> SystemConfig {
        assert!(
            n_cores >= 1 && n_cores as usize <= MAX_CORES,
            "n_cores = {n_cores} outside 1..={MAX_CORES}"
        );
        let mut c = SystemConfig::with_sram_l3();
        c.n_cores = n_cores;
        let Some(l3) = c.l3.as_mut() else {
            unreachable!("with_sram_l3 always has an L3")
        };
        l3.n_banks = n_cores;
        l3.xbar_cycles = 2 + 2 * u64::from((n_cores.max(8) / 8).ilog2());
        c.dram.channels = (n_cores / 4).max(2);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_geometry() {
        let c = SystemConfig::baseline_no_l3();
        assert_eq!(c.n_threads(), 32);
        assert_eq!(c.l1.sets(), 64);
        assert_eq!(c.l2.sets(), 2048);
        assert!(c.l3.is_none());
        assert!(c.dram.t_rc >= c.dram.t_rcd + c.dram.t_rp);
    }

    #[test]
    fn validate_bounds_the_core_count() {
        let mut c = SystemConfig::baseline_no_l3();
        assert_eq!(c.validate(), Ok(()));
        c.n_cores = 0;
        assert_eq!(c.validate(), Err(ConfigError::UnsupportedCoreCount(0)));
        c.n_cores = 64;
        assert_eq!(c.validate(), Ok(()));
        for n in [65, 128, 256] {
            c.n_cores = n;
            assert_eq!(c.validate(), Err(ConfigError::UnsupportedCoreCount(n)));
        }
    }

    #[test]
    fn validate_bounds_the_threads_per_core() {
        // A core's ready threads are one 64-bit mask, so 64 is the
        // ceiling; 64 cores of 2^26 threads would wrap a `u32` thread
        // count to 0.
        let mut c = SystemConfig::many_core(64);
        c.threads_per_core = 64;
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.n_threads(), 4096);
        for n in [65, 1 << 26, u32::MAX] {
            c.threads_per_core = n;
            assert_eq!(c.validate(), Err(ConfigError::TooManyThreadsPerCore(n)));
        }
        assert_eq!(c.n_threads(), 64 * u32::MAX as usize, "no wrap");
    }

    #[test]
    fn validate_rejects_a_non_power_of_two_line() {
        let mut c = SystemConfig::baseline_no_l3();
        c.l1.line_bytes = 48;
        let err = ConfigError::BadLineSize {
            level: "L1",
            line_bytes: 48,
        };
        assert_eq!(c.validate(), Err(err));
    }

    #[test]
    fn validate_rejects_a_line_below_the_packed_slot_minimum() {
        let mut c = SystemConfig::baseline_no_l3();
        c.l2.line_bytes = 2;
        let err = ConfigError::BadLineSize {
            level: "L2",
            line_bytes: 2,
        };
        assert_eq!(c.validate(), Err(err));
        // Both private levels take the smallest line, 1024 sets each.
        c.l1.line_bytes = 4;
        c.l2.line_bytes = 4;
        c.l2.capacity_bytes = 4 * 8 * 1024;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_ways() {
        let mut c = SystemConfig::with_sram_l3();
        c.l3.as_mut().unwrap().bank.associativity = 0;
        let err = ConfigError::ZeroAssociativity { level: "L3 bank" };
        assert_eq!(c.validate(), Err(err));
    }

    #[test]
    fn validate_rejects_a_cache_smaller_than_one_set() {
        let mut c = SystemConfig::baseline_no_l3();
        c.l1.capacity_bytes = 256; // one set needs 64 B × 8 ways
        let err = ConfigError::BadSetCount {
            level: "L1",
            sets: 0,
        };
        assert_eq!(c.validate(), Err(err));
    }

    #[test]
    fn validate_rejects_a_non_power_of_two_set_count() {
        // The paper's 24 MB SRAM L3 is 3 MB per bank: 12 ways give 4096
        // sets, but 8 ways would give 6144.
        let mut c = SystemConfig::with_sram_l3();
        c.l3.as_mut().unwrap().bank.associativity = 8;
        let err = ConfigError::BadSetCount {
            level: "L3 bank",
            sets: 6144,
        };
        assert_eq!(c.validate(), Err(err));
    }

    #[test]
    fn many_core_scales_the_fabric_with_the_core_count() {
        assert_eq!(SystemConfig::many_core(8), SystemConfig::with_sram_l3());
        let c = SystemConfig::many_core(64);
        assert_eq!(c.n_threads(), 256);
        let l3 = c.l3.as_ref().unwrap();
        assert_eq!(l3.n_banks, 64);
        assert_eq!(l3.xbar_cycles, 2 + 2 * 3, "three doublings past 8 cores");
        assert_eq!(c.dram.channels, 16);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn sram_l3_config_has_eight_banks() {
        let c = SystemConfig::with_sram_l3();
        let l3 = c.l3.unwrap();
        assert_eq!(l3.n_banks, 8);
        assert_eq!(l3.bank.capacity_bytes * u64::from(l3.n_banks), 24 << 20);
        assert_eq!(l3.bank.sets(), 4096);
    }
}
