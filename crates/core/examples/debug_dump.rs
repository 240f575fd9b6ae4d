//! Calibration dump: prints model outputs for the paper's key
//! configurations next to the published targets (Tables 2 and 3).
//! Used during development; not part of the test suite.

use cactid_core::{
    optimize, solve_with_stats, AccessMode, MemoryKind, MemorySpec, OptimizationOptions, Solution,
};
use cactid_tech::{CellTechnology, TechNode};

fn cache(cap: u64, assoc: u32, banks: u32, cell: CellTechnology, node: TechNode) -> MemorySpec {
    MemorySpec::builder()
        .capacity_bytes(cap)
        .block_bytes(64)
        .associativity(assoc)
        .banks(banks)
        .cell_tech(cell)
        .node(node)
        .kind(MemoryKind::Cache {
            access_mode: AccessMode::Normal,
        })
        .optimization(OptimizationOptions {
            sleep_transistors: cell == CellTechnology::Sram,
            ..Default::default()
        })
        .build()
        .unwrap()
}

fn row(name: &str, s: &Solution) {
    println!(
        "{name:22} acc {:7.2}ns cyc {:6.2}ns int {:6.2}ns area {:8.3}mm2 eff {:5.1}% Erd {:7.3}nJ leak {:9.4}W refr {:9.5}W org(ndwl={},ndbl={},nspd={},blmux={},samux={})",
        s.access_ns(),
        s.random_cycle * 1e9,
        s.interleave_cycle * 1e9,
        s.area_mm2(),
        s.area_efficiency * 100.0,
        s.read_energy_nj(),
        s.leakage_power,
        s.refresh_power,
        s.org.ndwl,
        s.org.ndbl,
        s.org.nspd,
        s.org.deg_bl_mux,
        s.org.deg_sa_mux,
    );
    let d = &s.data.delay;
    println!(
        "   delay: htin {:.2} dec {:.2} bl {:.2} sns {:.2} mux {:.2} htout {:.2} pre {:.2} rst {:.2} (ns)",
        d.htree_in * 1e9,
        d.decode * 1e9,
        d.bitline * 1e9,
        d.sense * 1e9,
        d.mux * 1e9,
        d.htree_out * 1e9,
        d.precharge * 1e9,
        d.restore * 1e9
    );
    let e = &s.data.energy;
    println!(
        "   energy: htin {:.3} dec {:.3} bl {:.3} sns {:.3} col {:.3} (nJ) | tag acc {:.2}ns E {:.3}nJ",
        e.htree_in * 1e9,
        e.decode * 1e9,
        e.bitline * 1e9,
        e.sense * 1e9,
        e.column * 1e9,
        s.tag.as_ref().map_or(0.0, |t| t.access_time().value() * 1e9),
        s.tag.as_ref().map_or(0.0, |t| t.read_energy().value() * 1e9),
    );
}

fn main() {
    println!("== Table 3 targets @32nm, 2GHz ==");
    println!("L1 32KB: acc 1.0ns cyc 0.5 area 0.17 eff 25% E 0.07nJ leak 0.009W");
    row(
        "L1 32KB SRAM",
        &optimize(&cache(32 << 10, 8, 1, CellTechnology::Sram, TechNode::N32)).unwrap(),
    );
    println!("L2 1MB: acc 1.5ns cyc 0.5 area 2.0 eff 67% E 0.27nJ leak 0.157W");
    row(
        "L2 1MB SRAM",
        &optimize(&cache(1 << 20, 8, 1, CellTechnology::Sram, TechNode::N32)).unwrap(),
    );
    println!("L3 24MB SRAM (8bk): acc 2.5ns cyc 0.5 area 6.2/bank eff 64% E 0.54nJ leak 3.6W");
    row(
        "L3 24MB SRAM",
        &optimize(&cache(24 << 20, 12, 8, CellTechnology::Sram, TechNode::N32)).unwrap(),
    );
    println!("L3 48MB LP ED: acc 2.5ns cyc 0.5 area 5.7/bank eff 36% E 0.54nJ leak 2.0W refr 0.3W");
    row(
        "L3 48MB LP-DRAM",
        &optimize(&cache(
            48 << 20,
            12,
            8,
            CellTechnology::LpDram,
            TechNode::N32,
        ))
        .unwrap(),
    );
    println!("L3 72MB LP C: acc 3.5ns cyc 1.5 area 6.0/bank eff 51% E 0.59nJ leak 2.1W refr 0.12W");
    row(
        "L3 72MB LP-DRAM",
        &optimize(&cache(
            72 << 20,
            18,
            8,
            CellTechnology::LpDram,
            TechNode::N32,
        ))
        .unwrap(),
    );
    println!(
        "L3 96MB CM ED: acc 8ns cyc 2.5 area 4.8/bank eff 30% E 0.6nJ leak 0.015W refr 0.00018W"
    );
    row(
        "L3 96MB COMM",
        &optimize(&cache(
            96 << 20,
            12,
            8,
            CellTechnology::CommDram,
            TechNode::N32,
        ))
        .unwrap(),
    );
    println!(
        "L3 192MB CM C: acc 10.5ns cyc 5 area 6.2/bank eff 47% E 0.92nJ leak 0.026W refr 0.001W"
    );
    row(
        "L3 192MB COMM",
        &optimize(&cache(
            192 << 20,
            24,
            8,
            CellTechnology::CommDram,
            TechNode::N32,
        ))
        .unwrap(),
    );

    println!("\n== Table 2: Micron 1Gb DDR3 @78nm x8 BL8 page 8Kb ==");
    println!("targets: eff 52.5% tRCD 13.7 CL 12.3 tRC 48.2ns ACT 2.3nJ RD 1.1 WR 1.2 refr 4.5mW");
    let micron = MemorySpec::builder()
        .capacity_bytes(1 << 27)
        .block_bytes(8)
        .banks(8)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N78)
        .kind(MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8192,
        })
        .build()
        .unwrap();
    {
        let s = optimize(&micron).unwrap();
        let mm = s.main_memory.as_ref().unwrap();
        println!(
            "model: eff {:5.1}% tRCD {:5.2} CL {:5.2} tRAS {:5.2} tRP {:5.2} tRC {:5.2} tRRD {:5.2}ns ACT {:6.3}nJ RD {:6.3} WR {:6.3} refr {:7.3}mW standby {:6.1}mW area {:6.1}mm2",
            mm.area_efficiency * 100.0,
            mm.timing.t_rcd * 1e9,
            mm.timing.cas_latency * 1e9,
            mm.timing.t_ras * 1e9,
            mm.timing.t_rp * 1e9,
            mm.timing.t_rc * 1e9,
            mm.timing.t_rrd * 1e9,
            mm.energies.activate * 1e9,
            mm.energies.read * 1e9,
            mm.energies.write * 1e9,
            mm.energies.refresh_power * 1e3,
            mm.energies.standby_power * 1e3,
            mm.chip_area * 1e6,
        );
        row("  (bank view)", &s);
    }

    println!("\n== 8Gb DDR4-like @32nm (Table 3 main memory) ==");
    println!("targets: acc(tRCD+CL) 30.5ns tRC 49ns area 115mm2 eff 46% standby 0.091W refr 0.009W E 14.2nJ(x8 chips)");
    let ddr4 = MemorySpec::builder()
        .capacity_bytes(1 << 30)
        .block_bytes(8)
        .banks(8)
        .cell_tech(CellTechnology::CommDram)
        .node(TechNode::N32)
        .kind(MemoryKind::MainMemory {
            io_bits: 8,
            burst_length: 8,
            prefetch: 8,
            page_bits: 8192,
        })
        .build()
        .unwrap();
    let s = optimize(&ddr4).unwrap();
    let mm = s.main_memory.as_ref().unwrap();
    println!(
        "model: eff {:5.1}% tRCD {:5.2} CL {:5.2} tRC {:5.2} tRRD {:5.2}ns ACT {:6.3}nJ RD {:6.3}nJ refr {:7.3}mW standby {:6.1}mW area {:6.1}mm2",
        mm.area_efficiency * 100.0,
        mm.timing.t_rcd * 1e9,
        mm.timing.cas_latency * 1e9,
        mm.timing.t_rc * 1e9,
        mm.timing.t_rrd * 1e9,
        mm.energies.activate * 1e9,
        mm.energies.read * 1e9,
        mm.energies.refresh_power * 1e3,
        mm.energies.standby_power * 1e3,
        mm.chip_area * 1e6,
    );

    println!("\n== solution counts ==");
    for (n, spec) in [
        (
            "L2",
            cache(1 << 20, 8, 1, CellTechnology::Sram, TechNode::N32),
        ),
        ("micron", micron.clone()),
    ] {
        println!(
            "{n}: {} candidates",
            solve_with_stats(&spec, None).result.map_or(0, |v| v.len())
        );
    }
}
