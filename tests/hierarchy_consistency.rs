//! Cross-crate integration tests: internal consistency of the CACTI-D
//! model across technologies, nodes and capacities.

use cacti_d::core::{optimize, solve_with_stats, AccessMode, MemoryKind, MemorySpec};
use cacti_d::tech::{CellTechnology, TechNode};
use cacti_d::units::{Joules, Seconds, SquareMeters, Watts};

fn cache_spec(capacity: u64, cell: CellTechnology, node: TechNode) -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(capacity)
        .block_bytes(64)
        .associativity(8)
        .banks(1)
        .cell_tech(cell)
        .node(node)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .build()
        .expect("valid spec")
}

#[test]
fn area_grows_monotonically_with_capacity() {
    for cell in CellTechnology::ALL {
        let mut prev = SquareMeters::ZERO;
        for shift in [18u32, 20, 22, 24] {
            let sol = optimize(&cache_spec(1 << shift, *cell, TechNode::N32)).unwrap();
            assert!(
                sol.area > prev,
                "{cell}: area must grow with capacity (2^{shift})"
            );
            prev = sol.area;
        }
    }
}

#[test]
fn scaling_shrinks_area_across_nodes() {
    for cell in CellTechnology::ALL {
        let mut prev = SquareMeters::from_si(f64::INFINITY);
        for node in [TechNode::N90, TechNode::N65, TechNode::N45, TechNode::N32] {
            let sol = optimize(&cache_spec(4 << 20, *cell, node)).unwrap();
            assert!(
                sol.area < prev,
                "{cell}@{node}: area must shrink with scaling"
            );
            prev = sol.area;
        }
    }
}

#[test]
fn every_solution_satisfies_basic_physics() {
    for cell in CellTechnology::ALL {
        let spec = cache_spec(2 << 20, *cell, TechNode::N45);
        for sol in solve_with_stats(&spec, None).result.unwrap() {
            assert!(sol.access_time > Seconds::ZERO);
            assert!(sol.random_cycle > Seconds::ZERO);
            assert!(sol.interleave_cycle > Seconds::ZERO);
            // Interleaving can't be slower than the full random cycle by
            // construction of the shared-bus pipeline.
            assert!(sol.interleave_cycle <= sol.random_cycle * 4.0);
            assert!(sol.read_energy > Joules::ZERO && sol.write_energy > Joules::ZERO);
            assert!(sol.area_efficiency > 0.0 && sol.area_efficiency < 1.0);
            if cell.is_dram() {
                assert!(sol.refresh_power > Watts::ZERO, "{cell} must refresh");
            } else {
                assert_eq!(sol.refresh_power, Watts::ZERO);
            }
        }
    }
}

#[test]
fn main_memory_timing_identities_hold_across_nodes() {
    for node in [
        TechNode::N90,
        TechNode::N78,
        TechNode::N65,
        TechNode::N45,
        TechNode::N32,
    ] {
        let spec = MemorySpec::builder()
            .capacity_bytes(1 << 28)
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(node)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 8 << 10,
            })
            .build()
            .expect("valid");
        let sol = optimize(&spec).unwrap();
        let mm = sol.main_memory.as_ref().unwrap();
        let t = &mm.timing;
        assert!(t.t_ras >= t.t_rcd, "{node}");
        assert!(
            (t.t_rc - (t.t_ras + t.t_rp)).abs() < Seconds::from_si(1e-15),
            "{node}"
        );
        assert!(t.t_rrd < t.t_rc, "{node}: interleaving must beat tRC");
        assert!(mm.energies.activate > mm.energies.read, "{node}");
        assert!(mm.energies.refresh_power > Watts::ZERO, "{node}");
    }
}

#[test]
fn dram_main_memory_gets_faster_at_newer_nodes() {
    let t_rcd_at = |node| {
        let spec = MemorySpec::builder()
            .capacity_bytes(1 << 28)
            .block_bytes(8)
            .banks(8)
            .cell_tech(CellTechnology::CommDram)
            .node(node)
            .kind(MemoryKind::MainMemory {
                io_bits: 8,
                burst_length: 8,
                prefetch: 8,
                page_bits: 8 << 10,
            })
            .build()
            .unwrap();
        let sol = optimize(&spec).unwrap();
        sol.main_memory.as_ref().unwrap().timing.t_rcd
    };
    // DRAM latency improves only slowly with scaling — but it must not
    // regress for the same capacity.
    assert!(t_rcd_at(TechNode::N32) < t_rcd_at(TechNode::N90));
}

#[test]
fn tag_overhead_is_small() {
    let sol = optimize(&cache_spec(8 << 20, CellTechnology::Sram, TechNode::N32)).unwrap();
    let tag = sol.tag.as_ref().expect("cache has tags");
    assert!(tag.array.area() < 0.1 * sol.data.area());
}

#[test]
fn sequential_mode_saves_sram_read_energy() {
    let normal = optimize(&cache_spec(8 << 20, CellTechnology::Sram, TechNode::N32)).unwrap();
    let mut seq_spec = cache_spec(8 << 20, CellTechnology::Sram, TechNode::N32);
    seq_spec.kind = MemoryKind::Cache {
        access_mode: AccessMode::Sequential,
    };
    let seq = optimize(&seq_spec).unwrap();
    assert!(
        seq.read_energy < normal.read_energy,
        "sequential {} vs normal {}",
        seq.read_energy,
        normal.read_energy
    );
    // And it must be slower end-to-end (tag then data).
    assert!(seq.access_time > normal.access_time);
}
