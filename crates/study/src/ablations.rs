//! Ablations: the design choices the paper argues for, each flipped once.
//!
//! 1. open- vs closed-page main memory (paper §2.3.4's policy discussion);
//! 2. the Figure 3 cache-set↔DRAM-page mappings;
//! 3. the SRAM-like vs page-mode DRAM-L3 interface (§3.4's argument);
//! 4. sequential vs normal cache access mode (§3.4's energy argument —
//!    and why it cannot help a DRAM cache);
//! 5. the §2.4 `max repeater delay` energy/delay knob.
//!
//! Studies 1–3 simulate one application on one configuration per variant;
//! studies 4–5 only solve. The output is deterministic.

use crate::configs::{build, LlcKind};
use crate::figure4::run_one;
use cactid_core::{optimize, AccessMode, MemoryKind, MemorySpec, OptimizationOptions};
use cactid_tech::{CellTechnology, TechNode};
use memsim::config::{L3Interface, PagePolicy, SetMapping};
use npbgen::NpbApp;

/// Renders all five studies, simulating `instructions` per run (after an
/// equal-length warm-up, as [`run_one`] does).
pub fn render(instructions: u64) -> String {
    [
        page_policy(instructions),
        set_mapping(instructions),
        l3_interface(instructions),
        access_mode(),
        repeater_relax(),
    ]
    .concat()
}

/// Open- vs closed-page main memory on streaming mg.B with no L3.
fn page_policy(instructions: u64) -> String {
    let mut s = String::from("== ablation: main-memory page policy (mg.B, no L3) ==\n");
    let mut ipc = Vec::new();
    for policy in [PagePolicy::Open, PagePolicy::Closed] {
        let mut cfg = build(LlcKind::NoL3);
        cfg.system.dram.page_policy = policy;
        let r = run_one(&cfg, NpbApp::MgB, instructions);
        s.push_str(&format!(
            "  {policy:?}: ipc {:.2}  lat {:.1}  page hits {}/{} activates\n",
            r.stats.ipc(),
            r.stats.avg_read_latency(),
            r.stats.counts.mem_page_hits,
            r.stats.counts.mem_activates,
        ));
        ipc.push(r.stats.ipc());
    }
    s.push_str(&format!(
        "  open-page speedup on streaming mg.B: {:+.1}%\n\n",
        (ipc[0] / ipc[1] - 1.0) * 100.0
    ));
    s
}

/// The Figure 3 set↔page mappings on ft.B with the 96 MB COMM-DRAM L3.
fn set_mapping(instructions: u64) -> String {
    let mut s = String::from("== ablation: Figure 3 set<->page mapping (ft.B, 96MB COMM L3) ==\n");
    for mapping in [SetMapping::SetsPerPage, SetMapping::StripedWays] {
        let mut cfg = build(LlcKind::CmDramEd96);
        if let Some(l3) = cfg.system.l3.as_mut() {
            l3.set_mapping = mapping;
        }
        let r = run_one(&cfg, NpbApp::FtB, instructions);
        s.push_str(&format!(
            "  {mapping:?}: ipc {:.2}  lat {:.1}  l3 hit {:.2}\n",
            r.stats.ipc(),
            r.stats.avg_read_latency(),
            r.stats.l3_hit_rate(),
        ));
    }
    s.push('\n');
    s
}

/// The SRAM-like vs page-mode (main-memory-like) interface of a DRAM L3 on
/// ft.B with the 96 MB COMM-DRAM L3.
fn l3_interface(instructions: u64) -> String {
    let mut s = String::from(
        "== ablation: DRAM-L3 operational interface (ft.B, 96MB COMM L3, paper §3.4) ==\n",
    );
    for interface in [L3Interface::SramLike, L3Interface::PageMode] {
        let mut cfg = build(LlcKind::CmDramEd96);
        if let Some(l3) = cfg.system.l3.as_mut() {
            l3.interface = interface;
        }
        let r = run_one(&cfg, NpbApp::FtB, instructions);
        let hits = r.stats.counts.l3_page_hits;
        let reads = r.stats.counts.l3_reads.max(1);
        s.push_str(&format!(
            "  {interface:?}: ipc {:.2}  lat {:.1}  row-hit rate {:.2}\n",
            r.stats.ipc(),
            r.stats.avg_read_latency(),
            hits as f64 / reads as f64,
        ));
    }
    s.push_str(
        "  (paper §3.4 argues an LLC's row-hit rate is too low for an open-page\n   \
         interface to win over SRAM-like access + multisubbank interleaving)\n\n",
    );
    s
}

/// Normal vs sequential access of an 8 MB, 8-way cache at 32 nm, SRAM and
/// LP-DRAM.
fn access_mode() -> String {
    let mut s = String::from("== ablation: cache access mode energy (8MB, 8-way, 32nm) ==\n");
    for cell in [CellTechnology::Sram, CellTechnology::LpDram] {
        for mode in [AccessMode::Normal, AccessMode::Sequential] {
            let spec = MemorySpec::builder()
                .capacity_bytes(8 << 20)
                .block_bytes(64)
                .associativity(8)
                .banks(1)
                .cell_tech(cell)
                .node(TechNode::N32)
                .kind(MemoryKind::Cache { access_mode: mode })
                .build()
                .unwrap_or_else(|e| panic!("the access-mode spec is valid: {e}"));
            let sol =
                optimize(&spec).unwrap_or_else(|e| panic!("the access-mode spec solves: {e}"));
            s.push_str(&format!(
                "  {cell} {mode:?}: access {:.2} ns  read {:.3} nJ\n",
                sol.access_ns(),
                sol.read_energy_nj(),
            ));
        }
    }
    s.push_str(
        "  (paper §3.4: sequential mode should save SRAM sense energy; a DRAM cache\n   \
         must sense the full row either way)\n\n",
    );
    s
}

/// The §2.4 max-repeater-delay knob on a 24 MB, 12-way, 8-bank SRAM at
/// 32 nm.
fn repeater_relax() -> String {
    let mut s = String::from("== ablation: max-repeater-delay knob (24MB SRAM, 32nm) ==\n");
    for relax in [1.0, 1.5, 2.0, 3.0] {
        let spec = MemorySpec::builder()
            .capacity_bytes(24 << 20)
            .block_bytes(64)
            .associativity(12)
            .banks(8)
            .cell_tech(CellTechnology::Sram)
            .node(TechNode::N32)
            .kind(MemoryKind::Cache {
                access_mode: AccessMode::Normal,
            })
            .optimization(OptimizationOptions {
                repeater_relax: relax,
                ..OptimizationOptions::default()
            })
            .build()
            .unwrap_or_else(|e| panic!("the repeater spec is valid: {e}"));
        let sol = optimize(&spec).unwrap_or_else(|e| panic!("the repeater spec solves: {e}"));
        // `Watts` prints its own unit.
        s.push_str(&format!(
            "  relax {relax:.1}: access {:.2} ns  read {:.3} nJ  leakage {:.2}\n",
            sol.access_ns(),
            sol.read_energy_nj(),
            sol.leakage_power,
        ));
    }
    s.push('\n');
    s
}
