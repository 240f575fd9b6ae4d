//! The core array model: evaluates one bank organization (geometry, timing,
//! energy, leakage, refresh) for any of the three cell technologies.
//!
//! Layout model: a bank is `ndwl × ndbl` subarrays. Each subarray carries
//! its own row decoder strip (pitch-matched wordline drivers) and a sense
//! amplifier strip; address and data travel on a repeatered H-tree whose
//! span follows from the assembled bank dimensions. DRAM subarrays use the
//! folded-bitline organization (paper §2.3): every bitline on the open row
//! is sensed (no bitline muxing), reads are destructive and followed by a
//! writeback/restore phase, and cells must be refreshed every retention
//! period.

use crate::error::CactiError;
use crate::tag::{TagKey, TagResult};
use cactid_circuit::decoder::Decoder;
use cactid_circuit::driver::BufferChain;
use cactid_circuit::mux::PassMux;
use cactid_circuit::repeater::RepeatedWire;
use cactid_circuit::sense_amp::SenseAmp;
use cactid_circuit::BlockResult;
use cactid_tech::{CellParams, DeviceParams, TechNode, Technology, WireParams, WireType};
use cactid_units::{Farads, Joules, Meters, Ohms, Seconds, SquareMeters, Volts, Watts};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Tuning constants, grouped so the validation experiments (Tables 2–3,
/// Figure 1) can be calibrated transparently. Values are physical-order
/// estimates; see EXPERIMENTS.md for the calibration record.
pub mod cal {
    /// Precharge device width in multiples of minimum width (SRAM).
    pub const W_PRECHARGE_MULT: f64 = 12.0;
    /// Precharge/equalizer width for DRAM, pitch-constrained to the tight
    /// bitline pitch and therefore much weaker.
    pub const W_PRECHARGE_MULT_DRAM: f64 = 3.0;
    /// SRAM bitline read swing as a multiple of the sense margin.
    pub const SRAM_BL_SWING_MULT: f64 = 2.0;
    /// Settle factor (in time constants) for DRAM charge sharing.
    pub const TAU_SHARE: f64 = 2.2;
    /// Settle factor for DRAM cell restore (writeback).
    pub const TAU_RESTORE: f64 = 2.2;
    /// Settle factor for bitline precharge/equalization.
    pub const TAU_PRECHARGE: f64 = 2.2;
    /// Fraction of the idle-stripe leakage retained under sleep
    /// transistors (paper §2.5: sleep transistors halve idle-mat leakage).
    pub const SLEEP_FACTOR: f64 = 0.5;
    /// Control/synchronization overhead multiplier on the bus-pipeline
    /// initiation interval (multisubbank interleave cycle).
    pub const INTERLEAVE_OVERHEAD: f64 = 2.0;
    /// Extra bitline energy factor covering restore + precharge of the
    /// full DRAM swing relative to the initial sensing half-swing.
    pub const DRAM_BL_CYCLE_FACTOR: f64 = 2.3;
    /// Routing-fill factor for the central address/data spine.
    pub const SPINE_FILL: f64 = 1.6;
    /// Fixed per-bank control-strip height in feature sizes.
    pub const CONTROL_STRIP_F: f64 = 60.0;
    /// Per-subarray edge overhead (precharge, equalization, mux strips) in
    /// feature sizes of height.
    pub const SUBARRAY_EDGE_F: f64 = 30.0;
}

/// Generic description of one array (data or tag) to evaluate: geometry
/// plus the electrical context. Produced from a `MemorySpec` + `OrgParams`
/// by the solver, or synthesized directly by the tag model.
#[derive(Debug, Clone)]
pub struct ArrayInput {
    /// Rows per subarray (power of two).
    pub rows: u64,
    /// Columns per subarray (power of two).
    pub cols: u64,
    /// Subarrays per activated stripe.
    pub ndwl: u32,
    /// Stripes per bank.
    pub ndbl: u32,
    /// Bitline-mux degree (1 for DRAM).
    pub deg_bl_mux: u32,
    /// Sense-amp (column-select) mux degree.
    pub deg_sa_mux: u32,
    /// Bits delivered per access.
    pub output_bits: u64,
    /// Address bits routed on the input H-tree.
    pub address_bits: u32,
    /// Cell technology parameters.
    pub cell: CellParams,
    /// Peripheral device parameters.
    pub periph: DeviceParams,
    /// Repeater relaxation knob (≥ 1).
    pub repeater_relax: f64,
    /// Sleep transistors on idle stripes.
    pub sleep_transistors: bool,
    /// Fraction of the sensed stripe whose sense amps fire (sequential-mode
    /// SRAM caches gate unselected ways; DRAM always senses the full row).
    pub sense_fraction: f64,
}

impl ArrayInput {
    /// Bits on one activated stripe.
    pub fn stripe_bits(&self) -> u64 {
        self.cols * u64::from(self.ndwl)
    }

    /// Total bits stored in the bank.
    pub fn bank_bits(&self) -> u64 {
        self.stripe_bits() * self.rows * u64::from(self.ndbl)
    }
}

/// Delay breakdown of one access path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayBreakdown {
    /// Address H-tree from bank edge to stripe.
    pub htree_in: Seconds,
    /// Predecode + row decode + wordline rise.
    pub decode: Seconds,
    /// Bitline development (SRAM discharge / DRAM charge share).
    pub bitline: Seconds,
    /// Sense amplification.
    pub sense: Seconds,
    /// Bitline-mux + sense-amp-mux traversal.
    pub mux: Seconds,
    /// Column-select decode (serial only for the main-memory interface).
    pub column_decode: Seconds,
    /// Data H-tree back to the bank edge.
    pub htree_out: Seconds,
    /// Bitline precharge (cycle-time component).
    pub precharge: Seconds,
    /// DRAM cell restore/writeback (cycle-time component; 0 for SRAM).
    pub restore: Seconds,
}

/// Energy breakdown of one access.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Address distribution.
    pub htree_in: Joules,
    /// Decoders + wordline (at V_PP for DRAM).
    pub decode: Joules,
    /// Bitline swing (+ restore/precharge for DRAM).
    pub bitline: Joules,
    /// Sense amplifiers.
    pub sense: Joules,
    /// Column path: muxes + data return H-tree.
    pub column: Joules,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Joules {
        self.htree_in + self.decode + self.bitline + self.sense + self.column
    }

    /// Row-activation portion (everything before the column path) —
    /// the DRAM ACTIVATE command energy.
    pub fn activate(&self) -> Joules {
        self.htree_in + self.decode + self.bitline + self.sense
    }
}

/// Complete evaluation of one bank organization.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayResult {
    /// Delay components.
    pub delay: DelayBreakdown,
    /// Read energy components.
    pub energy: EnergyBreakdown,
    /// Write energy per access.
    pub write_energy: Joules,
    /// Random cycle time.
    pub random_cycle: Seconds,
    /// Multisubbank interleave cycle time (paper §2.3.4).
    pub interleave_cycle: Seconds,
    /// Bank standby leakage.
    pub leakage: Watts,
    /// Bank refresh power (0 for SRAM).
    pub refresh_power: Watts,
    /// Bank width.
    pub width: Meters,
    /// Bank height.
    pub height: Meters,
    /// DRAM sense signal actually available (margin for SRAM).
    pub sense_signal: Volts,
    /// Energy to refresh one row stripe (0 for SRAM).
    pub row_refresh_energy: Joules,
    /// Delay of the column-select (CSL) driver chain. Not part of the
    /// random access path (see [`DelayBreakdown::column_decode`]); the
    /// main-memory interface consumes it for its serial CAS decode instead
    /// of re-designing the chain per candidate.
    pub column_select_delay: Seconds,
}

impl ArrayResult {
    /// Random access time: everything from address-in to data-out.
    pub fn access_time(&self) -> Seconds {
        let d = &self.delay;
        d.htree_in + d.decode + d.bitline + d.sense + d.mux + d.column_decode + d.htree_out
    }

    /// Time until data is latched in the sense amps (DRAM tRCD).
    pub fn t_row_to_sense(&self) -> Seconds {
        let d = &self.delay;
        d.htree_in + d.decode + d.bitline + d.sense
    }

    /// Column path after sensing (DRAM CAS core latency).
    pub fn t_column(&self) -> Seconds {
        let d = &self.delay;
        d.column_decode + d.mux + d.htree_out
    }

    /// Bank area.
    pub fn area(&self) -> SquareMeters {
        self.width * self.height
    }

    /// Total read energy per access.
    pub fn read_energy(&self) -> Joules {
        self.energy.total()
    }
}

/// Which of the three closed-form checks rejected a candidate, reported by
/// [`prescreen_explain`] so the solver's sweep and [`crate::static_screen`]
/// can count rejections per rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrescreenFailure {
    /// The subarray has more rows than the cell's `max_rows_per_subarray`.
    SubarrayRows,
    /// The distributed wordline RC exceeds the 3 ns hierarchical-wordline
    /// bound.
    WordlineElmore,
    /// The DRAM charge-sharing signal falls below the sense margin.
    SenseMargin,
}

/// The hierarchical-wordline feasibility bound: a distributed wordline RC
/// beyond this needs a re-buffered wordline scheme outside the model's
/// scope, so [`prescreen_explain`] rejects the organization.
pub const WORDLINE_ELMORE_BOUND: Seconds = Seconds::from_si(3e-9);

/// The closed-form feasibility screen of [`evaluate`], separated out so the
/// solver's staged pipeline can reject candidates before paying for the
/// full circuit evaluation.
///
/// This computes *exactly* the three infeasibility conditions `evaluate`
/// checks — subarray height against the cell's `max_rows_per_subarray`,
/// distributed wordline RC against the 3 ns hierarchical-wordline bound,
/// and the DRAM charge-sharing signal against the sense margin — with the
/// same expressions, so a candidate passes this screen if and only if
/// `evaluate` succeeds on it. On success it returns the sense signal the
/// organization develops (the margin itself for SRAM).
///
/// # Errors
///
/// Returns the [`PrescreenFailure`] naming the first check that failed —
/// exactly when [`evaluate`] would fail for the same `(cell, rows, cols)`.
pub fn prescreen_explain(
    cell: &CellParams,
    rows: u64,
    cols: u64,
) -> Result<Volts, PrescreenFailure> {
    if rows > cell.max_rows_per_subarray as u64 {
        return Err(PrescreenFailure::SubarrayRows);
    }
    // Wordlines are driven from one end without hierarchical re-buffering;
    // beyond a few ns of distributed RC the organization needs a
    // hierarchical wordline scheme outside this model's scope.
    let wl_rc =
        0.38 * (cell.r_wordline_per_cell * cols as f64) * (cell.c_wordline_per_cell * cols as f64);
    if wl_rc > WORDLINE_ELMORE_BOUND {
        return Err(PrescreenFailure::WordlineElmore);
    }
    if cell.technology.is_dram() {
        let Some(s) = cell.dram_sense_signal(rows as usize) else {
            unreachable!("dram cell provides a sense signal");
        };
        if s < cell.v_sense_margin {
            return Err(PrescreenFailure::SenseMargin);
        }
        Ok(s)
    } else {
        Ok(cell.v_sense_margin)
    }
}

/// Memoizes every candidate-invariant or axis-keyed piece of [`evaluate`],
/// so a sweep over adjacent [`org::enumerate_lazy`] candidates (which
/// differ in one [`crate::OrgParams`] axis at a time) recomputes only the
/// slices whose axis actually changed, and a later sweep in the same
/// technology reuses the circuits an earlier one designed.
///
/// The memo works at two levels:
///
/// - **Slots** hold the last value of each slice, keyed by the
///   organization inputs it reads — `rows`, `cols`, `(rows, cols)`, a mux
///   degree, or the bit pattern of a derived float. Their keys leave out
///   the *solve context*: the technology node, the cell and peripheral
///   parameters, the address and output widths, `repeater_relax`,
///   `sleep_transistors` and the sense fraction. So every slot is emptied
///   whenever an [`ArrayInput`]'s solve context differs from the last
///   one's.
/// - **Design tables** outlive a context change. The memo interns each
///   *device context* — the technology node, which fixes the wire
///   parameters, and the bit patterns of the cell and peripheral
///   parameters — and keys the column slice, decoder, sense-amp,
///   output-driver and mux designs, and finished tag designs
///   ([`crate::tag::design_tag`]), by that context plus the slice's own
///   inputs. A slot miss looks there before designing anything. Each
///   table holds at most `TABLE_CAP` entries and is emptied when full, so
///   a memo kept by a long-lived service stays bounded.
///
/// Every key covers the complete set of inputs its value depends on, and
/// a miss recomputes through the identical expressions [`evaluate`] uses.
/// A hit therefore returns values bitwise equal to a from-scratch
/// evaluation, for any sequence of inputs, any specs and any candidate
/// order (pinned by `staged_equivalence` and the enumeration-shuffle
/// proptest). [`evaluate`] itself runs on a fresh memo, which degenerates
/// to the plain from-scratch evaluation.
///
/// [`org::enumerate_lazy`]: crate::org::enumerate_lazy
#[derive(Debug, Default)]
pub struct EvalMemo {
    hits: u64,
    designs: DesignCounts,
    /// The solve context the slots were filled under.
    context: Option<SolveKey>,
    /// The interned device context of `context`.
    device: u32,
    slots: Slots,
    /// Interned device contexts; a table key names one by its index.
    devices: Vec<DeviceKey>,
    tables: Tables,
}

/// Entries one design table holds before it is emptied. A constant, not a
/// knob: it bounds the memo of a long-lived `cactid serve` whatever
/// `repeater_relax` values its requests carry (they reach the output
/// driver and tag keys). One pass of perfbench's 28 080-point grid designs
/// about 5 900 distinct decoders, its largest table.
const TABLE_CAP: usize = 1 << 13;
/// Device contexts interned before the memo starts over (the model's
/// nodes and cell technologies make 15).
const DEVICE_CAP: usize = 64;

/// Sense-amp slots, direct-indexed by `deg_bl_mux.trailing_zeros()`
/// (enumeration caps the bitline mux at 8 = 2³).
const SA_SLOTS: usize = 4;
/// Bitline-mux slots, same indexing as [`SA_SLOTS`].
const BL_MUX_SLOTS: usize = 4;
/// Sense-amp-mux slots, direct-indexed by `deg_sa_mux.trailing_zeros()`
/// (enumeration caps the output mux at 1024 = 2¹⁰).
const SA_MUX_SLOTS: usize = 11;

/// The last value of each slice under the current solve context.
#[derive(Debug, Default)]
struct Slots {
    consts: Option<SolveConsts>,
    screen: Option<((u64, u64), Result<Volts, PrescreenFailure>)>,
    row: Option<(u64, RowSlice)>,
    col: Option<(u64, ColSlice)>,
    dec: Option<((u64, u64), Arc<DecSlice>)>,
    dec_delay: Option<((u64, u64, u64), Seconds)>,
    sa: [Option<((u32, u64), SaSlice)>; SA_SLOTS],
    ht: Option<(u64, HtSlice)>,
    out: Option<(u64, OutSlice)>,
    bl_mux: [Option<((u32, u64), BlockResult)>; BL_MUX_SLOTS],
    sa_mux: [Option<((u32, u64), BlockResult)>; SA_MUX_SLOTS],
}

/// Designs keyed by `(device context, the slice's own inputs)`.
#[derive(Debug, Default)]
struct Tables {
    col: Table<(u32, u64), ColSlice>,
    dec: Table<(u32, u64, u64), Arc<DecSlice>>,
    sa: Table<(u32, u32, u64), SaSlice>,
    out: Table<(u32, u64), OutSlice>,
    /// Bitline and sense-amp muxes alike: `(degree, load cap bits)`.
    mux: Table<(u32, u32, u64), BlockResult>,
    tag: Table<TagKey, Result<Arc<TagResult>, CactiError>>,
}

/// Design-table lookups that hit, and designs computed on a miss.
#[derive(Debug, Default, Clone, Copy)]
struct DesignCounts {
    designed: u64,
    hits: u64,
}

/// One capped design table.
#[derive(Debug)]
struct Table<K, V>(HashMap<K, V>);

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table(HashMap::new())
    }
}

impl<K: Eq + Hash, V: Clone> Table<K, V> {
    fn get(&self, key: &K, counts: &mut DesignCounts) -> Option<V> {
        let v = self.0.get(key).cloned();
        counts.hits += u64::from(v.is_some());
        v
    }

    fn insert(&mut self, key: K, v: V, counts: &mut DesignCounts) {
        counts.designed += 1;
        if self.0.len() >= TABLE_CAP {
            self.0.clear();
        }
        self.0.insert(key, v);
    }

    fn get_or_design(
        &mut self,
        key: K,
        counts: &mut DesignCounts,
        design: impl FnOnce() -> V,
    ) -> V {
        if let Some(v) = self.get(&key, counts) {
            return v;
        }
        let v = design();
        self.insert(key, v.clone(), counts);
        v
    }
}

/// A device context: the technology node, which fixes the wire
/// parameters and the feature size (a [`Technology`] is a function of its
/// node), and the bit patterns of the cell and peripheral parameters.
#[derive(Debug, Clone, PartialEq)]
struct DeviceKey {
    node: TechNode,
    cell: [u64; 20],
    periph: [u64; 12],
}

impl DeviceKey {
    fn of(tech: &Technology, cell: &CellParams, periph: &DeviceParams) -> DeviceKey {
        DeviceKey {
            node: tech.node(),
            cell: cell_bits(cell),
            periph: periph_bits(periph),
        }
    }
}

/// A solve context: everything an [`ArrayInput`] carries besides its
/// organization axes.
#[derive(Debug, PartialEq)]
struct SolveKey {
    device: DeviceKey,
    address_bits: u32,
    output_bits: u64,
    repeater_relax: u64,
    sleep_transistors: bool,
    sense_fraction: u64,
}

impl SolveKey {
    fn of(tech: &Technology, input: &ArrayInput) -> SolveKey {
        SolveKey {
            device: DeviceKey::of(tech, &input.cell, &input.periph),
            address_bits: input.address_bits,
            output_bits: input.output_bits,
            repeater_relax: input.repeater_relax.to_bits(),
            sleep_transistors: input.sleep_transistors,
            sense_fraction: input.sense_fraction.to_bits(),
        }
    }
}

// The destructuring patterns below name every field, so a field added to
// the parameter structs fails to compile here instead of going unkeyed.

fn cell_bits(c: &CellParams) -> [u64; 20] {
    let CellParams {
        technology,
        area_f2,
        width,
        height,
        vdd_cell,
        c_bitline_per_cell,
        c_wordline_per_cell,
        r_wordline_per_cell,
        r_bitline_per_cell,
        i_cell_read,
        leak_per_cell,
        c_storage,
        vpp,
        retention_time,
        r_access_on,
        v_sense_margin,
        max_rows_per_subarray,
        timing_derate,
        sense_gm_derate,
        restore_saturation,
    } = *c;
    [
        technology as u64,
        area_f2.to_bits(),
        width.value().to_bits(),
        height.value().to_bits(),
        vdd_cell.value().to_bits(),
        c_bitline_per_cell.value().to_bits(),
        c_wordline_per_cell.value().to_bits(),
        r_wordline_per_cell.value().to_bits(),
        r_bitline_per_cell.value().to_bits(),
        i_cell_read.value().to_bits(),
        leak_per_cell.value().to_bits(),
        c_storage.value().to_bits(),
        vpp.value().to_bits(),
        retention_time.value().to_bits(),
        r_access_on.value().to_bits(),
        v_sense_margin.value().to_bits(),
        max_rows_per_subarray as u64,
        timing_derate.to_bits(),
        sense_gm_derate.to_bits(),
        restore_saturation.to_bits(),
    ]
}

fn periph_bits(d: &DeviceParams) -> [u64; 12] {
    let DeviceParams {
        vdd,
        vth,
        l_gate,
        c_gate,
        c_drain,
        r_eff_n,
        p_to_n_ratio,
        i_off_n,
        i_gate,
        g_m,
        min_width,
        i_on_n,
    } = *d;
    [
        vdd.value().to_bits(),
        vth.value().to_bits(),
        l_gate.value().to_bits(),
        c_gate.value().to_bits(),
        c_drain.value().to_bits(),
        r_eff_n.value().to_bits(),
        p_to_n_ratio.to_bits(),
        i_off_n.value().to_bits(),
        i_gate.value().to_bits(),
        g_m.value().to_bits(),
        min_width.value().to_bits(),
        i_on_n.value().to_bits(),
    ]
}

/// Values every candidate of one solve context shares: technology-wide
/// wire and device terms plus the spec-level spine width.
#[derive(Debug, Clone, Copy)]
struct SolveConsts {
    wire: WireParams,
    f: Meters,
    spine_w: Meters,
    r_pre: Ohms,
    latch_overhead: Seconds,
}

/// Everything keyed only by `rows`: bitline RC and the closed-form
/// bitline/restore/precharge timings.
#[derive(Debug, Clone, Copy)]
struct RowSlice {
    c_bl: Farads,
    t_bitline: Seconds,
    t_restore: Seconds,
    t_precharge: Seconds,
}

/// Everything keyed only by `cols`: wordline RC, subarray width, the
/// predecode wire load and the column-select driver chain.
#[derive(Debug, Clone, Copy)]
struct ColSlice {
    c_wl: Farads,
    r_wl: Ohms,
    array_w: Meters,
    predec_wire: Farads,
    csl_eval: BlockResult,
}

/// The row decoder, keyed by `(rows, cols)`. The designed chain is kept so
/// the per-candidate re-timing at the real H-tree ramp can reuse it.
#[derive(Debug)]
struct DecSlice {
    decoder: Decoder,
    dec: BlockResult,
}

/// The sense-amp strip, keyed by `(deg_bl_mux, rows)` for DRAM (the amp
/// regenerates the bitline and senses the rows-dependent signal) and by
/// `deg_bl_mux` alone for SRAM.
#[derive(Debug, Clone, Copy)]
struct SaSlice {
    sa_eval: BlockResult,
    w_latch: Meters,
}

/// The repeatered H-tree, keyed by the bit pattern of its span.
#[derive(Debug, Clone, Copy)]
struct HtSlice {
    ht_in: BlockResult,
    ht_stage: Seconds,
    w_rep: Meters,
}

/// The output driver chain, keyed by the bit pattern of the H-tree input
/// capacitance it is sized against (a per-context constant in practice —
/// repeater width is independent of span — so this slot hits after the
/// first candidate).
#[derive(Debug, Clone, Copy)]
struct OutSlice {
    out_eval: BlockResult,
    c_first: Farads,
}

impl EvalMemo {
    /// An empty memo: every slice misses on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many slot lookups hit across the memo's lifetime — the work
    /// the incremental evaluation skipped relative to from-scratch
    /// candidates. Each [`crate::ArraySweep::solve`] flushes its delta to
    /// the `core.solve.incremental_reuse` counter.
    #[must_use]
    pub fn reuse_hits(&self) -> u64 {
        self.hits
    }

    /// How many designs the memo computed into its design tables across
    /// its lifetime (flushed per solve to `core.memo.designs`).
    #[must_use]
    pub fn designs(&self) -> u64 {
        self.designs.designed
    }

    /// How many design-table lookups found a design computed earlier
    /// (flushed per solve to `core.memo.design_hits`).
    #[must_use]
    pub fn design_hits(&self) -> u64 {
        self.designs.hits
    }

    /// Points the slots at `input`'s solve context, emptying them if it
    /// differs from the one they were filled under.
    fn enter(&mut self, tech: &Technology, input: &ArrayInput) {
        let key = SolveKey::of(tech, input);
        if self.context.as_ref() == Some(&key) {
            return;
        }
        self.device = self.intern(&key.device);
        self.slots = Slots::default();
        self.context = Some(key);
    }

    /// The interned index of the device context of `tech`, `cell` and
    /// `periph`.
    pub(crate) fn intern_device(
        &mut self,
        tech: &Technology,
        cell: &CellParams,
        periph: &DeviceParams,
    ) -> u32 {
        self.intern(&DeviceKey::of(tech, cell, periph))
    }

    fn intern(&mut self, key: &DeviceKey) -> u32 {
        if let Some(i) = self.devices.iter().position(|d| d == key) {
            return i as u32;
        }
        if self.devices.len() >= DEVICE_CAP {
            // Table keys name devices by index: start every table over.
            self.devices.clear();
            self.tables = Tables::default();
            self.context = None;
        }
        self.devices.push(key.clone());
        (self.devices.len() - 1) as u32
    }

    /// The finished tag design stored under `key`, if any.
    pub(crate) fn tag(&mut self, key: &TagKey) -> Option<Result<Arc<TagResult>, CactiError>> {
        self.tables.tag.get(key, &mut self.designs)
    }

    /// Stores a finished tag design.
    pub(crate) fn insert_tag(&mut self, key: TagKey, tag: Result<Arc<TagResult>, CactiError>) {
        self.tables.tag.insert(key, tag, &mut self.designs);
    }

    /// Memoized [`prescreen_explain`] of `input`'s `(rows, cols)`.
    fn screen(&mut self, input: &ArrayInput) -> Result<Volts, PrescreenFailure> {
        let key = (input.rows, input.cols);
        if let Some((k, v)) = self.slots.screen {
            if k == key {
                self.hits += 1;
                return v;
            }
        }
        let v = prescreen_explain(&input.cell, input.rows, input.cols);
        self.slots.screen = Some((key, v));
        v
    }

    fn consts(&mut self, tech: &Technology, input: &ArrayInput) -> SolveConsts {
        if let Some(c) = self.slots.consts {
            self.hits += 1;
            return c;
        }
        let periph = &input.periph;
        let f = tech.feature_size();
        let wire = tech.wire(WireType::SemiGlobal);
        let spine_w = (u64::from(input.address_bits) + input.output_bits) as f64
            * wire.pitch
            * cal::SPINE_FILL;
        let w_pre = if input.cell.technology.is_dram() {
            cal::W_PRECHARGE_MULT_DRAM
        } else {
            cal::W_PRECHARGE_MULT
        };
        let r_pre = periph.res_on_n(w_pre * periph.min_width);
        // Pipeline latch + clocking overhead on any cycle.
        let fo4 = 0.69
            * periph.r_eff_n
            * ((1.0 + periph.p_to_n_ratio) * (periph.c_drain + 4.0 * periph.c_gate));
        let latch_overhead = 3.0 * fo4;
        let c = SolveConsts {
            wire,
            f,
            spine_w,
            r_pre,
            latch_overhead,
        };
        self.slots.consts = Some(c);
        c
    }

    fn row_slice(&mut self, input: &ArrayInput, r_pre: Ohms) -> RowSlice {
        if let Some((k, v)) = self.slots.row {
            if k == input.rows {
                self.hits += 1;
                return v;
            }
        }
        let cell = &input.cell;
        let periph = &input.periph;
        let c_bl =
            cell.c_bitline_per_cell * input.rows as f64 + 2.0 * periph.c_drain * periph.min_width;
        let r_bl = cell.r_bitline_per_cell * input.rows as f64;
        let derate = cell.timing_derate;
        let (t_bitline, t_restore) = if cell.technology.is_dram() {
            // Escape hatch: F²/F has no named quantity; series capacitance
            // of the cell and bitline computed on raw SI values.
            let c_eff = Farads::from_si(
                cell.c_storage.value() * c_bl.value() / (cell.c_storage + c_bl).value(),
            );
            let t_share = derate * cal::TAU_SHARE * (cell.r_access_on + r_bl / 2.0) * c_eff;
            // The restore tail is slow: the access device loses overdrive
            // as the cell node approaches VDD (restore_saturation), and
            // worst-case cells set the spec (timing_derate).
            let t_rest = derate
                * cal::TAU_RESTORE
                * (cell.r_access_on * cell.restore_saturation + r_bl / 2.0)
                * cell.c_storage;
            (t_share, t_rest)
        } else {
            let t_dis = c_bl * (cal::SRAM_BL_SWING_MULT * cell.v_sense_margin) / cell.i_cell_read
                + 0.38 * r_bl * c_bl;
            (t_dis, Seconds::ZERO)
        };
        let t_precharge = derate * cal::TAU_PRECHARGE * (r_pre + r_bl / 2.0) * c_bl;
        let v = RowSlice {
            c_bl,
            t_bitline,
            t_restore,
            t_precharge,
        };
        self.slots.row = Some((input.rows, v));
        v
    }

    fn col_slice(&mut self, input: &ArrayInput, k: &SolveConsts) -> ColSlice {
        if let Some((key, v)) = self.slots.col {
            if key == input.cols {
                self.hits += 1;
                return v;
            }
        }
        let key = (self.device, input.cols);
        let v = self.tables.col.get_or_design(key, &mut self.designs, || {
            let cell = &input.cell;
            let periph = &input.periph;
            let c_wl = cell.c_wordline_per_cell * input.cols as f64;
            let r_wl = cell.r_wordline_per_cell * input.cols as f64;
            let array_w = input.cols as f64 * cell.width;
            let predec_wire = k.wire.cap(array_w);
            // Column-select decode: sized to drive one CSL across the stripe.
            let csl_load = k.wire.cap(array_w) + 8.0 * periph.c_inv_min();
            let csl = BufferChain::design(periph, periph.c_inv_min(), csl_load);
            let csl_eval = csl.evaluate(periph, Seconds::ZERO);
            ColSlice {
                c_wl,
                r_wl,
                array_w,
                predec_wire,
                csl_eval,
            }
        });
        self.slots.col = Some((input.cols, v));
        v
    }

    fn dec_block(&mut self, input: &ArrayInput, col: &ColSlice) -> BlockResult {
        let key = (input.rows, input.cols);
        if let Some((k, v)) = &self.slots.dec {
            if *k == key {
                self.hits += 1;
                return v.dec;
            }
        }
        let table_key = (self.device, input.rows, input.cols);
        let v = self
            .tables
            .dec
            .get_or_design(table_key, &mut self.designs, || {
                let periph = &input.periph;
                let decoder = Decoder::design(
                    periph,
                    input.rows.max(2) as usize,
                    col.c_wl,
                    col.r_wl,
                    input.cell.vpp,
                    col.predec_wire,
                    input.cell.height,
                );
                let dec = decoder.evaluate(periph, Seconds::ZERO);
                Arc::new(DecSlice { decoder, dec })
            });
        let dec = v.dec;
        self.slots.dec = Some((key, v));
        dec
    }

    fn dec_delay(&mut self, input: &ArrayInput, ramp: Seconds) -> Seconds {
        let key = (input.rows, input.cols, ramp.value().to_bits());
        if let Some((k, v)) = self.slots.dec_delay {
            if k == key {
                self.hits += 1;
                return v;
            }
        }
        // Re-time the decode path at the real H-tree ramp; area/energy/
        // leakage were captured by the zero-ramp evaluation and are
        // ramp-independent.
        let t = match &self.slots.dec {
            Some((k, slice)) if *k == (input.rows, input.cols) => {
                slice.decoder.delay(&input.periph, ramp)
            }
            _ => unreachable!("the decoder slice is designed before decode re-timing"),
        };
        self.slots.dec_delay = Some((key, t));
        t
    }

    fn sa_slice(&mut self, input: &ArrayInput, sense_signal: Volts, c_bl: Farads) -> SaSlice {
        let is_dram = input.cell.technology.is_dram();
        let key = (input.deg_bl_mux, if is_dram { input.rows } else { 0 });
        let idx = (input.deg_bl_mux.trailing_zeros() as usize).min(SA_SLOTS - 1);
        if let Some((k, v)) = self.slots.sa[idx] {
            if k == key {
                self.hits += 1;
                return v;
            }
        }
        let table_key = (self.device, key.0, key.1);
        let v = self
            .tables
            .sa
            .get_or_design(table_key, &mut self.designs, || {
                let cell = &input.cell;
                let periph = &input.periph;
                let sa_pitch = 2.0 * cell.width * f64::from(input.deg_bl_mux);
                // DRAM sense amps must regenerate the whole bitline; SRAM amps
                // sense onto isolated latch nodes.
                let sa_c_extra = if is_dram { c_bl } else { Farads::ZERO };
                let sa =
                    SenseAmp::design_with_load(periph, sa_pitch, sa_c_extra, cell.sense_gm_derate);
                let sa_eval = sa.evaluate(periph, sense_signal, cell.vdd_cell);
                SaSlice {
                    sa_eval,
                    w_latch: sa.w_latch,
                }
            });
        self.slots.sa[idx] = Some((key, v));
        v
    }

    fn ht_slice(&mut self, input: &ArrayInput, k: &SolveConsts, htree_len: Meters) -> HtSlice {
        let key = htree_len.value().to_bits();
        if let Some((kk, v)) = self.slots.ht {
            if kk == key {
                self.hits += 1;
                return v;
            }
        }
        let periph = &input.periph;
        let ht = RepeatedWire::design(periph, &k.wire, htree_len, input.repeater_relax);
        let ht_in = ht.evaluate(periph, &k.wire, Seconds::ZERO);
        // One pipeline stage is the zero-ramp evaluation divided by the
        // segment count, and `ht_in` *is* that evaluation.
        let ht_stage = ht_in.delay / ht.n_seg as f64;
        let v = HtSlice {
            ht_in,
            ht_stage,
            w_rep: ht.w_rep,
        };
        self.slots.ht = Some((key, v));
        v
    }

    fn out_slice(&mut self, input: &ArrayInput, ht_in_cap: Farads) -> OutSlice {
        let key = ht_in_cap.value().to_bits();
        if let Some((k, v)) = self.slots.out {
            if k == key {
                self.hits += 1;
                return v;
            }
        }
        let v = self
            .tables
            .out
            .get_or_design((self.device, key), &mut self.designs, || {
                let periph = &input.periph;
                let out_drv =
                    BufferChain::design(periph, 4.0 * periph.c_inv_min(), 20.0 * ht_in_cap);
                OutSlice {
                    out_eval: out_drv.evaluate(periph, Seconds::ZERO),
                    c_first: out_drv.stage_caps[0],
                }
            });
        self.slots.out = Some((key, v));
        v
    }

    fn bl_mux_slice(&mut self, input: &ArrayInput, sa_in_cap: Farads) -> BlockResult {
        let key = (input.deg_bl_mux, sa_in_cap.value().to_bits());
        let idx = (input.deg_bl_mux.trailing_zeros() as usize).min(BL_MUX_SLOTS - 1);
        if let Some((k, v)) = self.slots.bl_mux[idx] {
            if k == key {
                self.hits += 1;
                return v;
            }
        }
        let v = self.mux(input, key.0, sa_in_cap);
        self.slots.bl_mux[idx] = Some((key, v));
        v
    }

    fn sa_mux_slice(&mut self, input: &ArrayInput, c_first: Farads) -> BlockResult {
        let key = (input.deg_sa_mux, c_first.value().to_bits());
        let idx = (input.deg_sa_mux.trailing_zeros() as usize).min(SA_MUX_SLOTS - 1);
        if let Some((k, v)) = self.slots.sa_mux[idx] {
            if k == key {
                self.hits += 1;
                return v;
            }
        }
        let v = self.mux(input, key.0, c_first);
        self.slots.sa_mux[idx] = Some((key, v));
        v
    }

    /// A pass mux of `degree` driving `c_out`, through the mux table.
    fn mux(&mut self, input: &ArrayInput, degree: u32, c_out: Farads) -> BlockResult {
        let key = (self.device, degree, c_out.value().to_bits());
        self.tables.mux.get_or_design(key, &mut self.designs, || {
            let periph = &input.periph;
            PassMux::design(periph, degree as usize).evaluate(periph, Seconds::ZERO, c_out)
        })
    }
}

/// Evaluates one array organization.
///
/// This is the from-scratch entry: it runs [`evaluate_incremental`] on a
/// fresh [`EvalMemo`], so every slice misses and the full model cost is
/// paid — the behavior sweeps rely on for the unpruned reference path.
///
/// # Errors
///
/// Returns [`CactiError::NoFeasibleSolution`] when the organization is
/// electrically infeasible (e.g. a DRAM bitline too long to meet the sense
/// margin); [`prescreen_explain`] reports the identical verdict, and its
/// reason, without the cost of the full evaluation.
pub fn evaluate(tech: &Technology, input: &ArrayInput) -> Result<ArrayResult, CactiError> {
    evaluate_incremental(tech, input, &mut EvalMemo::new())
}

/// [`evaluate`] with a caller-owned [`EvalMemo`]: slices of the model that
/// depend only on unchanged organization axes are reused from the memo
/// instead of recomputed, which makes sweeping adjacent
/// [`crate::org::enumerate_lazy`] candidates (one axis changes per step)
/// substantially cheaper than from-scratch evaluation, and circuits an
/// earlier input of the same technology designed are looked up instead of
/// redesigned. Every reused value is keyed by the complete set of inputs
/// it depends on, so the returned [`ArrayResult`] is bitwise identical to
/// [`evaluate`]'s for any memo state, any mix of inputs and any candidate
/// order.
///
/// # Errors
///
/// Returns [`CactiError::NoFeasibleSolution`] exactly when [`evaluate`]
/// does.
pub fn evaluate_incremental(
    tech: &Technology,
    input: &ArrayInput,
    memo: &mut EvalMemo,
) -> Result<ArrayResult, CactiError> {
    evaluate_screened(tech, input, memo).map_err(|_| CactiError::NoFeasibleSolution)
}

/// [`evaluate_incremental`] keeping the screen's reason: the screen is the
/// only way an evaluation fails, so the solver's sweep counts each
/// rejection by rule from the verdict the memo already holds.
pub(crate) fn evaluate_screened(
    tech: &Technology,
    input: &ArrayInput,
    memo: &mut EvalMemo,
) -> Result<ArrayResult, PrescreenFailure> {
    let cell = &input.cell;
    let periph = &input.periph;
    let is_dram = cell.technology.is_dram();

    memo.enter(tech, input);
    let sense_signal = memo.screen(input)?;

    let k = memo.consts(tech, input);
    let f = k.f;

    // ---- Bitline electrical state + rows-keyed closed-form timings ----
    let row = memo.row_slice(input, k.r_pre);
    let c_bl = row.c_bl;

    // ---- Subarray / bank geometry (needed for wire lengths) ----
    let col = memo.col_slice(input, &k);
    let array_w = col.array_w;
    let array_h = input.rows as f64 * cell.height;
    let dec = memo.dec_block(input, &col);
    let dec_strip_w = dec.area / array_h.max(f);

    let sa = memo.sa_slice(input, sense_signal, c_bl);
    let n_sa_per_subarray = (input.cols / u64::from(input.deg_bl_mux)) as f64;
    let sa_strip_h = (n_sa_per_subarray * sa.sa_eval.area) / array_w.max(f);

    let sub_w = array_w + dec_strip_w;
    let sub_h = array_h + sa_strip_h + cal::SUBARRAY_EDGE_F * f;
    let bank_w = f64::from(input.ndwl) * sub_w + k.spine_w;
    let bank_h = f64::from(input.ndbl) * sub_h + cal::CONTROL_STRIP_F * f;

    // ---- H-trees ----
    // Address-in and data-out traverse the same repeatered span from a
    // clean driver edge, so one evaluation serves both directions.
    let htree_len = (bank_w / 2.0 + bank_h / 2.0).max(10.0 * f);
    let ht = memo.ht_slice(input, &k, htree_len);
    let ht_in = &ht.ht_in;
    let ht_out = &ht.ht_in;

    // ---- Row path ----
    let t_htree_in = ht_in.delay;
    let t_decode = memo.dec_delay(input, ht_in.ramp_out);

    let derate = cell.timing_derate;
    let (t_bitline, t_restore) = (row.t_bitline, row.t_restore);
    let t_sense = derate * sa.sa_eval.delay;

    // ---- Column path ----
    let sa_in_cap = periph.cap_gate(sa.w_latch);
    let bl_mux_eval = memo.bl_mux_slice(input, sa_in_cap);
    // The mux output drives the data H-tree's first repeater.
    let ht_in_cap = periph.cap_gate(ht.w_rep * (1.0 + periph.p_to_n_ratio));
    let out = memo.out_slice(input, ht_in_cap);
    let sa_mux_eval = memo.sa_mux_slice(input, out.c_first);
    let t_mux = bl_mux_eval.delay + sa_mux_eval.delay + out.out_eval.delay;

    let t_column_decode = col.csl_eval.delay;

    let t_htree_out = ht_out.delay;

    // ---- Precharge ----
    let t_precharge = row.t_precharge;

    // ---- Cycle times ----
    let latch_overhead = k.latch_overhead;
    let random_cycle = if is_dram {
        t_decode + t_bitline + t_sense + t_restore + t_precharge + latch_overhead
    } else {
        t_bitline + t_sense + t_precharge + 0.4 * t_decode + latch_overhead
    };
    let interleave_cycle = cal::INTERLEAVE_OVERHEAD
        * ht.ht_stage
            .max(out.out_eval.delay)
            .max(t_column_decode / 2.0);

    // ---- Energy ----
    let stripe_bits = input.stripe_bits() as f64;
    let vdd_c = cell.vdd_cell;
    let e_htree_in = f64::from(input.address_bits) * 0.5 * ht_in.energy;
    let e_decode = f64::from(input.ndwl) * dec.energy;
    let e_bitline = if is_dram {
        // Every stripe bitline makes a half-VDD sense excursion, then a
        // full restore + precharge; the storage cell is rewritten.
        stripe_bits
            * cal::DRAM_BL_CYCLE_FACTOR
            * (c_bl * vdd_c * vdd_c / 2.0 + cell.c_storage * vdd_c * vdd_c / 2.0)
    } else {
        let swing = cal::SRAM_BL_SWING_MULT * cell.v_sense_margin;
        stripe_bits * c_bl * vdd_c * swing
    };
    let n_sensed = stripe_bits / f64::from(input.deg_bl_mux) * input.sense_fraction;
    let e_sense = n_sensed * sa.sa_eval.energy;
    let e_column = input.output_bits as f64
        * (0.5 * ht_out.energy + sa_mux_eval.energy + bl_mux_eval.energy + out.out_eval.energy)
        + col.csl_eval.energy;
    let energy = EnergyBreakdown {
        htree_in: e_htree_in,
        decode: e_decode,
        bitline: e_bitline,
        sense: e_sense,
        column: e_column,
    };
    // Writes drive the selected columns full swing; for DRAM the restore
    // work is already in the bitline term.
    let write_extra =
        input.output_bits as f64 * c_bl * vdd_c * vdd_c * if is_dram { 0.2 } else { 1.0 };
    let write_energy = energy.total() - 0.3 * e_column + write_extra;

    // ---- Leakage ----
    let n_subarrays = f64::from(input.ndwl * input.ndbl);
    let stripe_periph_leak = f64::from(input.ndwl)
        * (dec.leakage
            + n_sa_per_subarray * sa.sa_eval.leakage
            + n_sa_per_subarray * (bl_mux_eval.leakage + sa_mux_eval.leakage) / 8.0
            + out.out_eval.leakage);
    let cell_leak = input.bank_bits() as f64 * cell.leak_per_cell * vdd_c;
    let shared_leak = ht_in.leakage + ht_out.leakage + col.csl_eval.leakage;
    let idle_factor = if input.sleep_transistors {
        cal::SLEEP_FACTOR
    } else {
        1.0
    };
    let ndbl = f64::from(input.ndbl);
    let stripe_scale = 1.0 + (ndbl - 1.0) * idle_factor;
    let leakage = stripe_periph_leak * stripe_scale
        + cell_leak * ((1.0 / ndbl) + (1.0 - 1.0 / ndbl) * idle_factor)
        + shared_leak;
    let _ = n_subarrays;

    // ---- Refresh ----
    let (refresh_power, row_refresh_energy) = if is_dram {
        let rows_total = (input.rows * u64::from(input.ndbl)) as f64;
        let e_row = e_decode + e_bitline + e_sense;
        (rows_total * e_row / cell.retention_time, e_row)
    } else {
        (Watts::ZERO, Joules::ZERO)
    };

    Ok(ArrayResult {
        delay: DelayBreakdown {
            htree_in: t_htree_in,
            decode: t_decode,
            bitline: t_bitline,
            sense: t_sense,
            mux: t_mux,
            column_decode: Seconds::ZERO,
            htree_out: t_htree_out,
            precharge: t_precharge,
            restore: t_restore,
        },
        energy,
        write_energy,
        random_cycle,
        interleave_cycle,
        leakage,
        refresh_power,
        width: bank_w,
        height: bank_h,
        sense_signal,
        row_refresh_energy,
        column_select_delay: t_column_decode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactid_tech::{CellTechnology, TechNode};

    fn mk_input(tech: &Technology, cell_tech: CellTechnology, rows: u64, cols: u64) -> ArrayInput {
        ArrayInput {
            rows,
            cols,
            ndwl: 4,
            ndbl: 8,
            deg_bl_mux: 1,
            deg_sa_mux: 4,
            output_bits: cols * 4 / 4,
            address_bits: 40,
            cell: tech.cell(cell_tech),
            periph: tech.peripheral_device(cell_tech),
            repeater_relax: 1.0,
            sleep_transistors: false,
            sense_fraction: 1.0,
        }
    }

    #[test]
    fn sram_access_time_is_sub_ns_for_small_array() {
        let tech = Technology::new(TechNode::N32);
        let input = mk_input(&tech, CellTechnology::Sram, 128, 256);
        let r = evaluate(&tech, &input).unwrap();
        assert!(
            r.access_time() > Seconds::ps(50.0) && r.access_time() < Seconds::ns(2.0),
            "{}",
            r.access_time()
        );
        assert_eq!(r.delay.restore, Seconds::ZERO);
        assert_eq!(r.refresh_power, Watts::ZERO);
    }

    #[test]
    fn dram_has_restore_and_refresh() {
        let tech = Technology::new(TechNode::N32);
        let input = mk_input(&tech, CellTechnology::LpDram, 128, 256);
        let r = evaluate(&tech, &input).unwrap();
        assert!(r.delay.restore > Seconds::ZERO);
        assert!(r.refresh_power > Watts::ZERO);
        // Destructive readout: cycle time exceeds the SRAM-equivalent.
        assert!(r.random_cycle > r.delay.bitline + r.delay.sense);
    }

    #[test]
    fn comm_dram_is_slower_but_denser_than_sram() {
        let tech = Technology::new(TechNode::N32);
        let sram = evaluate(&tech, &mk_input(&tech, CellTechnology::Sram, 128, 256)).unwrap();
        let comm = evaluate(&tech, &mk_input(&tech, CellTechnology::CommDram, 128, 256)).unwrap();
        assert!(comm.access_time() > sram.access_time());
        assert!(comm.area() < sram.area());
        assert!(
            comm.leakage < sram.leakage / 10.0,
            "LSTP periphery + no cell leak"
        );
    }

    #[test]
    fn too_many_dram_rows_is_infeasible() {
        let tech = Technology::new(TechNode::N32);
        let input = mk_input(&tech, CellTechnology::CommDram, 4096, 256);
        assert_eq!(
            evaluate(&tech, &input).unwrap_err(),
            CactiError::NoFeasibleSolution
        );
    }

    #[test]
    fn sense_margin_rejects_from_the_first_row_below_it() {
        // Every real DRAM cell caps its subarrays below the row count where
        // the margin binds, so lift the cap to reach that boundary.
        let tech = Technology::new(TechNode::N32);
        for ty in [CellTechnology::LpDram, CellTechnology::CommDram] {
            let mut cell = tech.cell(ty);
            cell.max_rows_per_subarray = usize::MAX;
            let meets =
                |rows: u64| cell.dram_sense_signal(rows as usize).unwrap() >= cell.v_sense_margin;
            // The largest row count whose signal still meets the margin.
            let (mut lo, mut hi) = (1, 1 << 20);
            assert!(meets(lo) && !meets(hi), "{ty}");
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if meets(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            assert!(prescreen_explain(&cell, lo, 64).is_ok(), "{ty}: {lo} rows");
            assert_eq!(
                prescreen_explain(&cell, lo + 1, 64),
                Err(PrescreenFailure::SenseMargin),
                "{ty}: {} rows",
                lo + 1
            );
        }
    }

    #[test]
    fn sleep_transistors_cut_leakage() {
        let tech = Technology::new(TechNode::N32);
        let mut input = mk_input(&tech, CellTechnology::Sram, 256, 512);
        let without = evaluate(&tech, &input).unwrap().leakage;
        input.sleep_transistors = true;
        let with = evaluate(&tech, &input).unwrap().leakage;
        assert!(with < without);
        assert!(with > 0.4 * without);
    }

    #[test]
    fn bigger_bank_means_bigger_area_and_energy() {
        let tech = Technology::new(TechNode::N32);
        let small = evaluate(&tech, &mk_input(&tech, CellTechnology::Sram, 128, 256)).unwrap();
        let mut big_in = mk_input(&tech, CellTechnology::Sram, 256, 256);
        big_in.ndbl = 16;
        let big = evaluate(&tech, &big_in).unwrap();
        assert!(big.area() > small.area());
        assert!(big.leakage > small.leakage);
    }

    #[test]
    fn a_memo_past_its_device_cap_starts_over_and_stays_exact() {
        let tech = Technology::new(TechNode::N32);
        let base = mk_input(&tech, CellTechnology::Sram, 128, 256);
        let mut memo = EvalMemo::new();
        for i in 0..DEVICE_CAP + 8 {
            let mut input = base.clone();
            input.periph.vdd = base.periph.vdd * (1.0 + i as f64 * 1e-3);
            assert_eq!(
                format!("{:?}", evaluate_incremental(&tech, &input, &mut memo)),
                format!("{:?}", evaluate(&tech, &input)),
                "device {i}"
            );
        }
        assert!(memo.devices.len() <= DEVICE_CAP);
    }

    #[test]
    fn a_full_design_table_empties_before_it_grows() {
        let mut table = Table::default();
        let mut counts = DesignCounts::default();
        for k in 0..=TABLE_CAP as u64 {
            table.insert(k, k, &mut counts);
        }
        assert_eq!(table.0.len(), 1);
        assert_eq!(counts.designed, TABLE_CAP as u64 + 1);
    }

    #[test]
    fn energy_breakdown_sums() {
        let tech = Technology::new(TechNode::N32);
        let r = evaluate(&tech, &mk_input(&tech, CellTechnology::Sram, 128, 256)).unwrap();
        let e = r.energy;
        let total = e.htree_in + e.decode + e.bitline + e.sense + e.column;
        assert!((r.read_energy() - total).abs() < Joules::from_si(1e-18));
        assert!(e.activate() <= total);
    }
}
