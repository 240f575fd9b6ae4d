//! The JSONL request protocol.
//!
//! One request per line, one JSON object per request; responses reuse the
//! exploration engine's record schema byte-for-byte (a `serve` answer for
//! a spec is the same line `cactid explore` would have written for it).
//!
//! ```text
//! {"id":1,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}
//! {"id":2,"op":"grid","sizes":[65536,131072],"assocs":[4,8]}
//! {"id":3,"op":"stats"}
//! {"id":4,"op":"shutdown"}
//! ```
//!
//! * `solve` — one spec, answered with one record whose `idx` is the
//!   request `id`. Fields mirror the classic CLI flags: `size` (bytes,
//!   required), `block` (64), `assoc` (8), `banks` (1), `cell`
//!   (`"sram"`/`"lp-dram"`/`"comm-dram"`), `node` (nm, 32), `mode`
//!   (`"normal"`/`"sequential"`/`"fast"`), `opt` (a named variant:
//!   `"default"`/`"ed"`/`"c"`), `ram` (bool), and `main_memory`
//!   (`{"io":8,"burst":8,"prefetch":8,"page":8192}`) for the §2.1 DRAM
//!   chip model. Unknown fields are ignored (forward compatibility).
//! * `grid` — a whole sweep, fields mirroring the `cactid explore` axis
//!   flags (`sizes` required; `blocks`, `assocs`, `banks`, `nodes`,
//!   `cells`, `opts`, `mode` optional); answered with one record per
//!   point (grid-local `idx`) and a final `{"id":N,"done":true,...}`
//!   line.
//! * `stats` / `shutdown` — service introspection and orderly stop.
//!
//! Parse failures are not service errors: the caller turns the message
//! into an `{"id":N,"error":"..."}` response line and keeps serving.

use cactid_core::{AccessMode, MemoryKind, MemorySpec};
use cactid_explore::record::{parse_cell, parse_mode};
use cactid_explore::{Grid, GridPoint, OptVariant};
use cactid_obs::json::{parse, JsonValue};
use cactid_tech::{CellTechnology, TechNode};

/// A parsed request.
#[derive(Debug)]
pub enum Request {
    /// Solve one spec; the answer is one record at `idx: id`.
    Solve {
        /// Client-chosen correlation id, echoed as the record `idx`.
        id: u64,
        /// The point to solve (carries the spec or its validation error).
        point: Box<GridPoint>,
    },
    /// Solve a whole grid through the explore engine.
    Grid {
        /// Client-chosen correlation id, echoed in the `done` line.
        id: u64,
        /// The sweep definition.
        grid: Grid,
    },
    /// Report request/cache/store counts.
    Stats {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Stop the service loop after acknowledging.
    Shutdown {
        /// Client-chosen correlation id.
        id: u64,
    },
}

fn field_u64(v: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn field_u32(v: &JsonValue, key: &str, default: u32) -> Result<u32, String> {
    let raw = field_u64(v, key, u64::from(default))?;
    u32::try_from(raw).map_err(|_| format!("field {key:?} is out of range"))
}

fn field_str<'a>(v: &'a JsonValue, key: &str, default: &'a str) -> Result<&'a str, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_str()
            .ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

fn node_from_nm(nm: u64) -> Result<TechNode, String> {
    u32::try_from(nm)
        .ok()
        .and_then(TechNode::from_nm)
        .ok_or_else(|| format!("unknown technology node {nm} nm"))
}

fn cell_from(v: &str) -> Result<CellTechnology, String> {
    parse_cell(v).ok_or_else(|| format!("unknown cell technology {v:?}"))
}

fn mode_from(v: &str) -> Result<AccessMode, String> {
    parse_mode(v).ok_or_else(|| format!("unknown access mode {v:?}"))
}

fn opt_from(v: &str) -> Result<OptVariant, String> {
    OptVariant::named(v).ok_or_else(|| format!("unknown opt variant {v:?}"))
}

/// Extracts the field `key` as a list, mapping each element through
/// `each`; `None` when the field is absent.
fn field_list<T>(
    v: &JsonValue,
    key: &str,
    each: impl Fn(&JsonValue) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    let Some(f) = v.get(key) else { return Ok(None) };
    let JsonValue::Arr(items) = f else {
        return Err(format!("field {key:?} must be an array"));
    };
    if items.is_empty() {
        return Err(format!("field {key:?} must not be empty"));
    }
    items.iter().map(each).collect::<Result<_, _>>().map(Some)
}

fn elem_u64(v: &JsonValue) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| "array elements must be non-negative integers".to_string())
}

fn elem_u32(v: &JsonValue) -> Result<u32, String> {
    u32::try_from(elem_u64(v)?).map_err(|_| "array element out of range".to_string())
}

fn elem_str(v: &JsonValue) -> Result<&str, String> {
    v.as_str()
        .ok_or_else(|| "array elements must be strings".to_string())
}

fn solve_request(id: u64, v: &JsonValue) -> Result<Request, String> {
    let size = v
        .get("size")
        .ok_or_else(|| "solve requests require a \"size\" field (bytes)".to_string())?
        .as_u64()
        .ok_or_else(|| "field \"size\" must be a non-negative integer".to_string())?;
    let block = field_u32(v, "block", 64)?;
    let banks = field_u32(v, "banks", 1)?;
    let node = node_from_nm(field_u64(v, "node", 32)?)?;
    let cell = cell_from(field_str(v, "cell", "sram")?)?;
    let access_mode = mode_from(field_str(v, "mode", "normal")?)?;
    let variant = opt_from(field_str(v, "opt", "default")?)?;
    let ram = matches!(v.get("ram"), Some(JsonValue::Bool(true)));
    let (kind, default_assoc) = if let Some(mm) = v.get("main_memory") {
        let kind = MemoryKind::MainMemory {
            io_bits: field_u32(mm, "io", 8)?,
            burst_length: field_u32(mm, "burst", 8)?,
            prefetch: field_u32(mm, "prefetch", 8)?,
            page_bits: field_u64(mm, "page", 8 << 10)?,
        };
        (kind, 1)
    } else if ram {
        (MemoryKind::Ram, 1)
    } else {
        (MemoryKind::Cache { access_mode }, 8)
    };
    let associativity = field_u32(v, "assoc", default_assoc)?;
    let spec = MemorySpec::builder()
        .capacity_bytes(size)
        .block_bytes(block)
        .associativity(associativity)
        .banks(banks)
        .cell_tech(cell)
        .node(node)
        .kind(kind)
        .optimization(variant.opt)
        .build();
    let point = GridPoint {
        idx: usize::try_from(id).map_err(|_| "field \"id\" is out of range".to_string())?,
        capacity_bytes: size,
        block_bytes: block,
        associativity,
        banks,
        node,
        cell,
        access_mode,
        opt_label: variant.label,
        spec,
    };
    Ok(Request::Solve {
        id,
        point: Box::new(point),
    })
}

fn grid_request(id: u64, v: &JsonValue) -> Result<Request, String> {
    let mut grid = Grid::new();
    grid.capacities = field_list(v, "sizes", elem_u64)?
        .ok_or_else(|| "grid requests require a \"sizes\" array (bytes)".to_string())?;
    if let Some(blocks) = field_list(v, "blocks", elem_u32)? {
        grid.blocks = blocks;
    }
    if let Some(assocs) = field_list(v, "assocs", elem_u32)? {
        grid.associativities = assocs;
    }
    if let Some(banks) = field_list(v, "banks", elem_u32)? {
        grid.banks = banks;
    }
    if let Some(nodes) = field_list(v, "nodes", |n| node_from_nm(elem_u64(n)?))? {
        grid.nodes = nodes;
    }
    if let Some(cells) = field_list(v, "cells", |c| cell_from(elem_str(c)?))? {
        grid.cells = cells;
    }
    if let Some(opts) = field_list(v, "opts", |o| opt_from(elem_str(o)?))? {
        grid.opts = opts;
    }
    grid.access_mode = mode_from(field_str(v, "mode", "normal")?)?;
    Ok(Request::Grid { id, grid })
}

/// Parses one request line.
///
/// # Errors
///
/// `(id, message)` — the best-effort request id (0 when the line is not
/// even an object with an integer `id`) plus a human-readable reason, for
/// the caller to render as an error response.
pub fn parse_request(line: &str) -> Result<Request, (u64, String)> {
    let v = parse(line).map_err(|e| (0, format!("invalid JSON: {e}")))?;
    let id = v
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| (0, "requests require an integer \"id\" field".to_string()))?;
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| (id, "requests require a string \"op\" field".to_string()))?;
    match op {
        "solve" => solve_request(id, &v).map_err(|m| (id, m)),
        "grid" => grid_request(id, &v).map_err(|m| (id, m)),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err((id, format!("unknown op {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_request_fills_defaults_and_builds_the_spec() {
        let r = parse_request(r#"{"id":7,"op":"solve","size":1048576}"#).unwrap();
        let Request::Solve { id, point } = r else {
            panic!("expected solve");
        };
        assert_eq!(id, 7);
        assert_eq!(point.idx, 7);
        assert_eq!(point.capacity_bytes, 1 << 20);
        assert_eq!(point.block_bytes, 64);
        assert_eq!(point.associativity, 8);
        assert_eq!(point.opt_label, "default");
        let spec = point.spec.as_ref().unwrap();
        assert!(matches!(spec.kind, MemoryKind::Cache { .. }));
    }

    #[test]
    fn main_memory_and_ram_kinds_parse() {
        let r = parse_request(
            r#"{"id":1,"op":"solve","size":1073741824,"block":8,"banks":8,"cell":"comm-dram","node":78,"main_memory":{"io":8,"burst":8,"prefetch":8,"page":8192}}"#,
        )
        .unwrap();
        let Request::Solve { point, .. } = r else {
            panic!("expected solve");
        };
        let spec = point.spec.as_ref().unwrap();
        assert!(matches!(
            spec.kind,
            MemoryKind::MainMemory {
                io_bits: 8,
                page_bits: 8192,
                ..
            }
        ));
        assert_eq!(spec.associativity, 1, "main memory defaults to direct");

        let r = parse_request(r#"{"id":2,"op":"solve","size":65536,"ram":true}"#).unwrap();
        let Request::Solve { point, .. } = r else {
            panic!("expected solve");
        };
        assert!(matches!(point.spec.as_ref().unwrap().kind, MemoryKind::Ram));
    }

    #[test]
    fn invalid_axis_combination_is_a_point_not_an_error() {
        // 48 KB doesn't form a power-of-two set count: the request parses,
        // the point carries the validation error (rendered as an
        // `"invalid"` record, same as explore).
        let r = parse_request(r#"{"id":3,"op":"solve","size":49152}"#).unwrap();
        let Request::Solve { point, .. } = r else {
            panic!("expected solve");
        };
        assert!(point.spec.is_err());
    }

    #[test]
    fn grid_request_mirrors_the_explore_axes() {
        let r = parse_request(
            r#"{"id":9,"op":"grid","sizes":[65536,131072],"assocs":[4,8],"opts":["default","ed"]}"#,
        )
        .unwrap();
        let Request::Grid { id, grid } = r else {
            panic!("expected grid");
        };
        assert_eq!(id, 9);
        assert_eq!(grid.capacities, vec![65536, 131072]);
        assert_eq!(grid.associativities, vec![4, 8]);
        assert_eq!(grid.opts.len(), 2);
        assert_eq!(grid.len(), 8);
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (line, expect) in [
            ("not json", "invalid JSON"),
            (r#"{"op":"solve"}"#, "integer \"id\""),
            (r#"{"id":1}"#, "string \"op\""),
            (r#"{"id":1,"op":"fly"}"#, "unknown op"),
            (r#"{"id":1,"op":"solve"}"#, "\"size\""),
            (
                r#"{"id":1,"op":"solve","size":1024,"cell":"flash"}"#,
                "cell",
            ),
            (
                r#"{"id":1,"op":"solve","size":1024,"opt":"x"}"#,
                "opt variant",
            ),
            (r#"{"id":1,"op":"grid","sizes":[]}"#, "must not be empty"),
        ] {
            let (_, msg) = parse_request(line).unwrap_err();
            assert!(msg.contains(expect), "{line}: {msg}");
        }
        // The id survives into the error when parseable.
        let (id, _) = parse_request(r#"{"id":42,"op":"fly"}"#).unwrap_err();
        assert_eq!(id, 42);
    }
}
