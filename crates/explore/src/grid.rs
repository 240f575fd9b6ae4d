//! Grid definitions: declarative axes over the spec space, expanded into a
//! deterministic work queue of grid points.

use crate::error::ExploreError;
use crate::hash::{spec_fingerprint, Fnv1a};
use cactid_core::{AccessMode, CactiError, MemoryKind, MemorySpec, OptimizationOptions};
use cactid_tech::{CellTechnology, TechNode};
use std::sync::Arc;

/// The engine refuses grids beyond this many points: at ~1 ms per solve a
/// million points is already a quarter CPU-hour, and anything bigger is a
/// sign the grid definition is wrong.
pub const MAX_POINTS: usize = 1 << 20;

/// A named optimization-knob variant — one value on the `opt` axis.
#[derive(Debug, Clone, PartialEq)]
pub struct OptVariant {
    /// Short label carried into every JSONL record (e.g. `"default"`,
    /// `"ed"`, `"c"`).
    pub label: String,
    /// The knob settings.
    pub opt: OptimizationOptions,
}

impl OptVariant {
    /// The paper's default knobs under the label `"default"`.
    pub fn default_variant() -> Self {
        OptVariant {
            label: "default".to_string(),
            opt: OptimizationOptions::default(),
        }
    }

    /// Looks up a named knob variant: `"default"`, plus the paper's §3.1
    /// `"ed"` ([`OptimizationOptions::ed`]) and `"c"`
    /// ([`OptimizationOptions::c`]) settings. This is the one table of the
    /// variant names the CLI `--opts` axis and the serve protocol accept;
    /// labels outside the table return `None`.
    pub fn named(label: &str) -> Option<Self> {
        let opt = match label {
            "default" => OptimizationOptions::default(),
            "ed" => OptimizationOptions::ed(),
            "c" => OptimizationOptions::c(),
            _ => return None,
        };
        Some(OptVariant {
            label: label.to_string(),
            opt,
        })
    }
}

/// A declarative sweep grid: the cartesian product of its axes.
///
/// Axes follow the paper's §2.4 spec space — capacity, block size,
/// associativity, banks, technology node, cell technology and optimization
/// knobs. All points share one cache [`AccessMode`] (the engine models
/// cache sweeps; RAM and main-memory specs go through
/// [`cactid_core::optimize`] directly). Expansion order is fixed —
/// capacities outermost, then blocks, associativities, banks, nodes, cells
/// and opt variants innermost — so a grid always enumerates to the same
/// point indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Total capacities in bytes.
    pub capacities: Vec<u64>,
    /// Cache-line sizes in bytes.
    pub blocks: Vec<u32>,
    /// Set associativities.
    pub associativities: Vec<u32>,
    /// Bank counts.
    pub banks: Vec<u32>,
    /// Technology nodes.
    pub nodes: Vec<TechNode>,
    /// Cell technologies.
    pub cells: Vec<CellTechnology>,
    /// Named optimization-knob variants.
    pub opts: Vec<OptVariant>,
    /// Tag/data access ordering shared by every point.
    pub access_mode: AccessMode,
}

impl Default for Grid {
    fn default() -> Self {
        Grid::new()
    }
}

impl Grid {
    /// A grid with every axis at its single most common value — except
    /// `capacities`, which starts empty and must be filled in.
    pub fn new() -> Self {
        Grid {
            capacities: Vec::new(),
            blocks: vec![64],
            associativities: vec![8],
            banks: vec![1],
            nodes: vec![TechNode::N32],
            cells: vec![CellTechnology::Sram],
            opts: vec![OptVariant::default_variant()],
            access_mode: AccessMode::Normal,
        }
    }

    /// The number of points the grid expands to (`0` if any axis is empty),
    /// saturating at `usize::MAX`: a wrapped product could pass the
    /// [`MAX_POINTS`] check and send [`Grid::expand`] into an unbounded
    /// allocation.
    pub fn len(&self) -> usize {
        [
            self.blocks.len(),
            self.associativities.len(),
            self.banks.len(),
            self.nodes.len(),
            self.cells.len(),
            self.opts.len(),
        ]
        .into_iter()
        .fold(self.capacities.len(), usize::saturating_mul)
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check_axes(&self) -> Result<(), ExploreError> {
        let axes: [(&'static str, usize); 7] = [
            ("capacities", self.capacities.len()),
            ("blocks", self.blocks.len()),
            ("associativities", self.associativities.len()),
            ("banks", self.banks.len()),
            ("nodes", self.nodes.len()),
            ("cells", self.cells.len()),
            ("opts", self.opts.len()),
        ];
        for (name, len) in axes {
            if len == 0 {
                return Err(ExploreError::EmptyAxis(name));
            }
        }
        let points = self.len();
        if points > MAX_POINTS {
            return Err(ExploreError::TooManyPoints {
                points,
                max: MAX_POINTS,
            });
        }
        Ok(())
    }

    /// Expands the grid into its points, in the fixed axis-nesting order,
    /// and computes the grid fingerprint the checkpoint format uses to
    /// detect definition changes across resumes.
    ///
    /// Axis combinations that fail [`MemorySpec`] validation become points
    /// with an `Err` spec (reported as `status:"invalid"` records) rather
    /// than aborting the sweep — a grid legitimately mixes, say, block
    /// sizes that only some capacities divide by.
    ///
    /// # Errors
    ///
    /// [`ExploreError::EmptyAxis`] if an axis has no values, or
    /// [`ExploreError::TooManyPoints`] past [`MAX_POINTS`].
    pub fn expand(&self) -> Result<Expansion, ExploreError> {
        self.check_axes()?;
        let mut points = Vec::with_capacity(self.len());
        // One label per variant, which every point of the variant shares.
        let labels: Vec<Arc<str>> = self
            .opts
            .iter()
            .map(|v| Arc::from(v.label.as_str()))
            .collect();
        let mut h = Fnv1a::new();
        h.write_u64(self.len() as u64);
        for &capacity_bytes in &self.capacities {
            for &block_bytes in &self.blocks {
                for &associativity in &self.associativities {
                    for &banks in &self.banks {
                        for &node in &self.nodes {
                            for &cell in &self.cells {
                                for (variant, label) in self.opts.iter().zip(&labels) {
                                    let spec = MemorySpec::builder()
                                        .capacity_bytes(capacity_bytes)
                                        .block_bytes(block_bytes)
                                        .associativity(associativity)
                                        .banks(banks)
                                        .cell_tech(cell)
                                        .node(node)
                                        .kind(MemoryKind::Cache {
                                            access_mode: self.access_mode,
                                        })
                                        .optimization(variant.opt.clone())
                                        .build();
                                    // Fingerprinted where it lies: a point built
                                    // on the stack first is copied twice.
                                    points.push(GridPoint {
                                        idx: points.len(),
                                        capacity_bytes,
                                        block_bytes,
                                        associativity,
                                        banks,
                                        node,
                                        cell,
                                        access_mode: self.access_mode,
                                        opt_label: Arc::clone(label),
                                        spec,
                                    });
                                    points[points.len() - 1].write_fingerprint(&mut h);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Expansion {
            points,
            fingerprint: h.finish(),
        })
    }
}

/// One expanded grid point: the raw axis values (kept for record rendering
/// even when the combination is invalid) plus the validated spec.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Position in the expansion order; the record index in the JSONL.
    pub idx: usize,
    /// Capacity axis value \[bytes\].
    pub capacity_bytes: u64,
    /// Block-size axis value \[bytes\].
    pub block_bytes: u32,
    /// Associativity axis value.
    pub associativity: u32,
    /// Bank-count axis value.
    pub banks: u32,
    /// Node axis value.
    pub node: TechNode,
    /// Cell-technology axis value.
    pub cell: CellTechnology,
    /// The grid's shared access mode.
    pub access_mode: AccessMode,
    /// Label of the opt variant this point uses, shared by every point of
    /// that variant.
    pub opt_label: Arc<str>,
    /// The validated spec, or why the combination is invalid.
    pub spec: Result<MemorySpec, CactiError>,
}

impl GridPoint {
    /// The memoization key for this point's spec, if valid.
    pub fn fingerprint(&self) -> Option<u64> {
        self.spec.as_ref().ok().map(spec_fingerprint)
    }

    fn write_fingerprint(&self, h: &mut Fnv1a) {
        // Raw axis values + label, so the grid fingerprint changes whenever
        // the definition does — even for combinations that fail validation
        // (a changed invalid combination still shifts every point index).
        h.write_u64(self.capacity_bytes);
        h.write_u32(self.block_bytes);
        h.write_u32(self.associativity);
        h.write_u32(self.banks);
        h.write_u32(self.node.feature_nm() as u32);
        h.write(self.opt_label.as_bytes());
        h.write_u8(0); // label terminator
        if let Ok(spec) = &self.spec {
            h.write_u64(spec_fingerprint(spec));
        } else {
            h.write_u8(0xff);
        }
    }
}

/// A fully expanded grid: the points plus the definition fingerprint.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// The points, indexed by `idx`.
    pub points: Vec<GridPoint>,
    /// FNV-1a fingerprint of the whole definition; checkpoints carry it.
    pub fingerprint: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> Grid {
        let mut g = Grid::new();
        g.capacities = vec![64 << 10, 128 << 10];
        g.associativities = vec![4, 8];
        g
    }

    #[test]
    fn expansion_order_is_fixed_and_indexed() {
        let e = small_grid().expand().unwrap();
        assert_eq!(e.points.len(), 4);
        for (i, p) in e.points.iter().enumerate() {
            assert_eq!(p.idx, i);
            assert!(p.spec.is_ok());
        }
        // Capacities outermost, associativities inner.
        assert_eq!(e.points[0].capacity_bytes, 64 << 10);
        assert_eq!(e.points[0].associativity, 4);
        assert_eq!(e.points[1].associativity, 8);
        assert_eq!(e.points[2].capacity_bytes, 128 << 10);
    }

    #[test]
    fn fingerprint_tracks_the_definition() {
        let base = small_grid().expand().unwrap().fingerprint;
        assert_eq!(base, small_grid().expand().unwrap().fingerprint);
        let mut g = small_grid();
        g.capacities.push(256 << 10);
        assert_ne!(base, g.expand().unwrap().fingerprint);
        let mut g = small_grid();
        g.opts[0].label = "renamed".to_string();
        assert_ne!(base, g.expand().unwrap().fingerprint);
    }

    #[test]
    fn invalid_combinations_become_invalid_points() {
        let mut g = small_grid();
        // 48 KB is not a power-of-two set count at 64 B × 4/8 ways.
        g.capacities = vec![48 << 10, 64 << 10];
        let e = g.expand().unwrap();
        assert_eq!(e.points.len(), 4);
        assert!(e.points[0].spec.is_err() && e.points[1].spec.is_err());
        assert!(e.points[2].spec.is_ok() && e.points[3].spec.is_ok());
    }

    #[test]
    fn empty_axis_is_reported_by_name() {
        let g = Grid::new(); // capacities empty
        assert_eq!(
            g.expand().unwrap_err(),
            ExploreError::EmptyAxis("capacities")
        );
        assert!(g.is_empty());
    }

    #[test]
    fn oversized_grid_is_rejected() {
        let mut g = small_grid();
        g.capacities = (0..2048).map(|i| (i + 1) << 10).collect();
        g.associativities = (0..1024).map(|i| i + 1).collect();
        assert!(matches!(
            g.expand().unwrap_err(),
            ExploreError::TooManyPoints { .. }
        ));
    }

    #[test]
    fn an_axis_product_past_usize_saturates_and_is_rejected() {
        // Four 2^16-entry axes multiply to 2^64, which wraps to 0 unchecked.
        let mut g = small_grid();
        g.capacities = (1..=1 << 16).collect();
        g.blocks = (1..=1 << 16).collect();
        g.associativities = (1..=1 << 16).collect();
        g.banks = (1..=1 << 16).collect();
        assert_eq!(g.len(), usize::MAX);
        assert!(!g.is_empty());
        assert_eq!(
            g.expand().unwrap_err(),
            ExploreError::TooManyPoints {
                points: usize::MAX,
                max: MAX_POINTS
            }
        );
    }
}
