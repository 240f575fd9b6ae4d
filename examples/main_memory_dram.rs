//! Main-memory DRAM chip modeling: the §2.1 organization (banks, burst,
//! prefetch, page size) and the §2.3.5 timing model, across device
//! generations.
//!
//! ```text
//! cargo run --release --example main_memory_dram
//! ```

use cacti_d::core::{optimize, MemoryKind, MemorySpec, OptimizationOptions};
use cacti_d::tech::{CellTechnology, TechNode};

fn chip(
    capacity_bits: u64,
    node: TechNode,
    io_bits: u32,
    page_kbit: u64,
) -> Result<MemorySpec, Box<dyn std::error::Error>> {
    Ok(MemorySpec::builder()
        .capacity_bytes(capacity_bits / 8)
        .block_bytes(8)
        .banks(8)
        .cell_tech(CellTechnology::CommDram)
        .node(node)
        .kind(MemoryKind::MainMemory {
            io_bits,
            burst_length: 8,
            prefetch: 8,
            page_bits: page_kbit << 10,
        })
        .optimization(OptimizationOptions::c())
        .build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>22} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>8}",
        "device", "tRCD", "CL", "tRC", "tRRD", "ACT nJ", "RD nJ", "refr mW", "eff %", "area mm2"
    );
    let parts: [(&str, u64, TechNode, u32, u64); 4] = [
        ("512Mb DDR2-like @90nm", 512 << 20, TechNode::N90, 8, 8),
        ("1Gb DDR3-1066 @78nm", 1 << 30, TechNode::N78, 8, 8),
        ("4Gb DDR3+ @45nm", 4 << 30, TechNode::N45, 8, 8),
        ("8Gb DDR4-3200 @32nm", 8 << 30, TechNode::N32, 8, 8),
    ];
    for (name, bits, node, io, page) in parts {
        let spec = chip(bits, node, io, page)?;
        let sol = optimize(&spec)?;
        let mm = sol.main_memory.as_ref().expect("chip-level result");
        println!(
            "{:>22} {:>6.1}n {:>6.1}n {:>6.1}n {:>6.1}n {:>7.2} {:>8.2} {:>7.2} {:>7.1} {:>8.1}",
            name,
            mm.timing.t_rcd * 1e9,
            mm.timing.cas_latency * 1e9,
            mm.timing.t_rc * 1e9,
            mm.timing.t_rrd * 1e9,
            mm.energies.activate * 1e9,
            mm.energies.read * 1e9,
            mm.energies.refresh_power * 1e3,
            mm.area_efficiency * 100.0,
            mm.chip_area / 1e-6,
        );
    }
    println!("\nNote: per-chip numbers; a 64-bit rank accesses 8 x8 chips in lockstep.");
    Ok(())
}
