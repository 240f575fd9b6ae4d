//! Tag-array model: a small array evaluated with the same machinery as the
//! data array, plus the tag comparator.

use crate::array::{self, ArrayInput, ArrayResult, EvalMemo};
use crate::error::CactiError;
use crate::spec::MemorySpec;
use cactid_tech::{CellParams, DeviceParams, Technology};
use cactid_units::{Joules, Seconds};
use std::sync::Arc;

/// Result of designing the tag array for a cache.
#[derive(Debug, Clone, PartialEq)]
pub struct TagResult {
    /// The underlying array evaluation (one bank's tag array).
    pub array: ArrayResult,
    /// Tag comparator delay.
    pub comparator_delay: Seconds,
    /// Tag comparator energy per access (all ways compared).
    pub comparator_energy: Joules,
}

impl TagResult {
    /// Tag path latency: array access plus compare.
    pub fn access_time(&self) -> Seconds {
        self.array.access_time() + self.comparator_delay
    }

    /// Tag path read energy.
    pub fn read_energy(&self) -> Joules {
        self.array.read_energy() + self.comparator_energy
    }
}

/// What a finished tag design reads besides the device context: the
/// bank's tag geometry and the knobs that reach its array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TagKey {
    device: u32,
    sets_per_bank: u64,
    tag_bits: u32,
    associativity: u32,
    address_bits: u32,
    repeater_relax: u64,
    sleep_transistors: bool,
}

fn fo4(dev: &DeviceParams) -> Seconds {
    let cin = (1.0 + dev.p_to_n_ratio) * dev.c_gate;
    let cself = (1.0 + dev.p_to_n_ratio) * dev.c_drain;
    0.69 * dev.r_eff_n * (cself + 4.0 * cin)
}

/// Designs the per-bank tag array for `spec`, choosing the internal
/// organization that minimizes tag access time.
///
/// The candidates are evaluated through `memo`, and the finished design
/// (or its failure) is kept there under the tag geometry: the device
/// context, sets per bank, tag bits, associativity, address bits,
/// `repeater_relax` and `sleep_transistors` — everything the design
/// reads. Another spec with the same tag geometry gets the stored design,
/// bitwise what a fresh memo would give it.
///
/// # Errors
///
/// Returns [`CactiError::NoFeasibleSolution`] if no tag organization is
/// electrically feasible.
pub fn design_tag(
    tech: &Technology,
    spec: &MemorySpec,
    memo: &mut EvalMemo,
) -> Result<Arc<TagResult>, CactiError> {
    let cell = tech.cell(spec.cell_tech);
    let periph = tech.peripheral_device(spec.cell_tech);
    let key = TagKey {
        device: memo.intern_device(tech, &cell, &periph),
        sets_per_bank: spec.sets_per_bank(),
        tag_bits: spec.tag_bits(),
        associativity: spec.associativity,
        address_bits: spec.address_bits,
        repeater_relax: spec.opt.repeater_relax.to_bits(),
        sleep_transistors: spec.opt.sleep_transistors,
    };
    if let Some(tag) = memo.tag(&key) {
        return tag;
    }
    // Every candidate shares the device interned above, so evaluating
    // them cannot renumber it before the insert.
    let tag = design(tech, spec, cell, periph, memo).map(Arc::new);
    memo.insert_tag(key, tag.clone());
    tag
}

fn design(
    tech: &Technology,
    spec: &MemorySpec,
    cell: CellParams,
    periph: DeviceParams,
    memo: &mut EvalMemo,
) -> Result<TagResult, CactiError> {
    let sets = spec.sets_per_bank();
    let tag_bits = u64::from(spec.tag_bits());
    let assoc = u64::from(spec.associativity);

    let mut best: Option<ArrayResult> = None;
    for ntspd in [1u64, 2, 4] {
        for ntwl in [1u32, 2, 4] {
            let stripe_bits = assoc * tag_bits * ntspd;
            let cols = stripe_bits / u64::from(ntwl);
            if stripe_bits % u64::from(ntwl) != 0 || !(32..=4096).contains(&cols) {
                continue;
            }
            let mut ntbl = 1u32;
            while ntbl <= 128 {
                let denom = ntspd * u64::from(ntbl);
                if !sets.is_multiple_of(denom) {
                    break;
                }
                let rows = sets / denom;
                if rows < 16 {
                    break;
                }
                if rows.is_power_of_two() {
                    let input = ArrayInput {
                        rows,
                        cols,
                        ndwl: ntwl,
                        ndbl: ntbl,
                        deg_bl_mux: 1,
                        deg_sa_mux: ntspd as u32,
                        output_bits: assoc * tag_bits,
                        address_bits: spec.address_bits,
                        cell,
                        periph,
                        repeater_relax: spec.opt.repeater_relax,
                        sleep_transistors: spec.opt.sleep_transistors,
                        sense_fraction: 1.0,
                    };
                    if let Ok(r) = array::evaluate_incremental(tech, &input, memo) {
                        let better = match &best {
                            None => true,
                            Some(b) => r.access_time() < b.access_time(),
                        };
                        if better {
                            best = Some(r);
                        }
                    }
                }
                ntbl *= 2;
            }
        }
    }
    let array = best.ok_or(CactiError::NoFeasibleSolution)?;

    // Comparator: per-bit XNOR into a log-depth AND reduction, one
    // comparator per way; ~1 FO4 per stage.
    let stages = 2.0 + (tag_bits as f64).log2().ceil();
    let comparator_delay = stages * fo4(&periph);
    let c_node = 6.0 * periph.c_inv_min();
    let comparator_energy = assoc as f64 * tag_bits as f64 * 0.5 * c_node * periph.vdd * periph.vdd;

    Ok(TagResult {
        array,
        comparator_delay,
        comparator_energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AccessMode, MemoryKind};
    use cactid_tech::{CellTechnology, TechNode};
    use cactid_units::{SquareMeters, Watts};

    fn spec(capacity: u64, tech: CellTechnology) -> MemorySpec {
        MemorySpec::builder()
            .capacity_bytes(capacity)
            .block_bytes(64)
            .associativity(8)
            .banks(1)
            .cell_tech(tech)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn tag_is_much_smaller_and_faster_than_data_capacity_suggests() {
        let tech = Technology::new(TechNode::N32);
        let s = spec(1 << 20, CellTechnology::Sram);
        let tag = design_tag(&tech, &s, &mut EvalMemo::new()).unwrap();
        // 1 MB / 64 B lines × ~27 tag bits ≈ 54 kbit ≈ 7 kB of tags.
        assert!(
            tag.array.area() < SquareMeters::from_si(1e-6),
            "tag area {} m²",
            tag.array.area()
        );
        assert!(tag.access_time() < Seconds::ns(2.0));
        assert!(tag.comparator_delay > Seconds::ZERO);
    }

    #[test]
    fn bigger_cache_has_bigger_tag_array() {
        let tech = Technology::new(TechNode::N32);
        let small = design_tag(
            &tech,
            &spec(1 << 20, CellTechnology::Sram),
            &mut EvalMemo::new(),
        )
        .unwrap();
        let big = design_tag(
            &tech,
            &spec(1 << 24, CellTechnology::Sram),
            &mut EvalMemo::new(),
        )
        .unwrap();
        assert!(big.array.area() > small.array.area());
    }

    #[test]
    fn dram_tags_work_too() {
        let tech = Technology::new(TechNode::N32);
        let tag = design_tag(
            &tech,
            &spec(8 << 20, CellTechnology::LpDram),
            &mut EvalMemo::new(),
        )
        .unwrap();
        assert!(tag.array.refresh_power > Watts::ZERO);
    }
}
