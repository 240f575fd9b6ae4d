//! Parsed view of a completed `cactid-explore` run: one [`RunRecord`] per
//! JSONL line, collected into the [`RunContext`] the cross-record `CD01xx`
//! rules ([`crate::rule::RunRule`]) analyze.
//!
//! Parsing is deliberately forgiving — every field is optional and
//! malformed lines are collected rather than fatal — because the whole
//! point of the run stage is to diagnose record sets that are *not* in
//! perfect shape. The `CD0105` integrity rule reports what the parser
//! tolerated.

use cactid_obs::json::{self, JsonValue};

/// The Pareto annotation of an `ok` record, when present.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoFlag {
    /// `true` for frontier members.
    pub frontier: bool,
    /// Number of records this one dominates (frontier members only).
    pub dominates: Option<u64>,
}

/// One JSONL record of a batch run, with every engine-emitted field
/// optional so partially-written or hand-edited lines still parse.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// 1-based line number in the source text.
    pub line_no: usize,
    /// Grid-point index.
    pub idx: Option<u64>,
    /// Capacity axis value \[bytes\].
    pub capacity_bytes: Option<u64>,
    /// Block-size axis value \[bytes\].
    pub block_bytes: Option<u64>,
    /// Associativity axis value.
    pub associativity: Option<u64>,
    /// Bank-count axis value.
    pub banks: Option<u64>,
    /// Technology node \[nm\].
    pub node_nm: Option<f64>,
    /// Cell-technology label.
    pub cell: Option<String>,
    /// Access-mode label.
    pub mode: Option<String>,
    /// Optimization-variant label.
    pub opt: Option<String>,
    /// Point status: `"ok"`, `"infeasible"`, or `"invalid"`.
    pub status: Option<String>,
    /// Access time \[ns\].
    pub access_ns: Option<f64>,
    /// Random cycle time \[ns\].
    pub random_cycle_ns: Option<f64>,
    /// Dynamic read energy \[nJ\].
    pub read_nj: Option<f64>,
    /// Dynamic write energy \[nJ\].
    pub write_nj: Option<f64>,
    /// Area \[mm²\].
    pub area_mm2: Option<f64>,
    /// Leakage power \[mW\].
    pub leakage_mw: Option<f64>,
    /// Refresh power \[mW\].
    pub refresh_mw: Option<f64>,
    /// Pareto annotation, when the run extracted a frontier.
    pub pareto: Option<ParetoFlag>,
}

impl RunRecord {
    /// `true` when the record is a solved point (`status == "ok"`).
    pub fn is_ok(&self) -> bool {
        self.status.as_deref() == Some("ok")
    }

    /// The four Pareto objectives in record units
    /// (ns, nJ, mm², mW), when all are present.
    pub fn objectives(&self) -> Option<[f64; 4]> {
        Some([
            self.access_ns?,
            self.read_nj?,
            self.area_mm2?,
            self.leakage_mw? + self.refresh_mw.unwrap_or(0.0),
        ])
    }

    fn from_value(line_no: usize, v: &JsonValue) -> RunRecord {
        let num = |k: &str| v.get(k).and_then(JsonValue::as_f64);
        let int = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        let pareto = v.get("pareto").and_then(|p| {
            Some(ParetoFlag {
                frontier: p.get("frontier")?.as_bool()?,
                dominates: p.get("dominates").and_then(JsonValue::as_u64),
            })
        });
        RunRecord {
            line_no,
            idx: int("idx"),
            capacity_bytes: int("capacity_bytes"),
            block_bytes: int("block_bytes"),
            associativity: int("associativity"),
            banks: int("banks"),
            node_nm: num("node_nm"),
            cell: s("cell"),
            mode: s("mode"),
            opt: s("opt"),
            status: s("status"),
            access_ns: num("access_ns"),
            random_cycle_ns: num("random_cycle_ns"),
            read_nj: num("read_nj"),
            write_nj: num("write_nj"),
            area_mm2: num("area_mm2"),
            leakage_mw: num("leakage_mw"),
            refresh_mw: num("refresh_mw"),
            pareto,
        }
    }
}

/// A parsed run: the records plus whatever failed to parse, ready for
/// [`crate::Analyzer::lint_run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunContext {
    /// Records in file order.
    pub records: Vec<RunRecord>,
    /// `(line_no, parse error)` for lines that were not valid JSON
    /// objects; `CD0105` turns these into diagnostics.
    pub malformed: Vec<(usize, String)>,
}

impl RunContext {
    /// Parses a JSONL document (blank lines skipped, one record per line).
    pub fn parse(text: &str) -> RunContext {
        let mut ctx = RunContext::default();
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            match json::parse(line) {
                Ok(v @ JsonValue::Obj(_)) => ctx.records.push(RunRecord::from_value(line_no, &v)),
                Ok(_) => ctx
                    .malformed
                    .push((line_no, "not a JSON object".to_string())),
                Err(e) => ctx.malformed.push((line_no, e)),
            }
        }
        ctx
    }

    /// Iterates over the solved (`ok`) records.
    pub fn ok_records(&self) -> impl Iterator<Item = &RunRecord> {
        self.records.iter().filter(|r| r.is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"idx":0,"capacity_bytes":65536,"block_bytes":64,"associativity":4,"banks":1,"node_nm":32,"cell":"sram","mode":"normal","opt":"default","status":"ok","access_ns":0.9,"random_cycle_ns":0.5,"read_nj":0.02,"write_nj":0.02,"area_mm2":0.3,"area_efficiency":0.6,"leakage_mw":12.5,"refresh_mw":0,"orgs_enumerated":200,"bound_pruned":10,"feasible":190,"pareto":{"frontier":true,"dominates":3}}"#;

    #[test]
    fn parses_an_engine_record() {
        let ctx = RunContext::parse(OK);
        assert!(ctx.malformed.is_empty());
        let r = &ctx.records[0];
        assert_eq!(r.line_no, 1);
        assert_eq!(r.idx, Some(0));
        assert_eq!(r.capacity_bytes, Some(65536));
        assert_eq!(r.cell.as_deref(), Some("sram"));
        assert!(r.is_ok());
        assert_eq!(r.objectives(), Some([0.9, 0.02, 0.3, 12.5]));
        assert_eq!(
            r.pareto,
            Some(ParetoFlag {
                frontier: true,
                dominates: Some(3)
            })
        );
    }

    #[test]
    fn malformed_and_blank_lines_are_tolerated() {
        let text = format!("{OK}\n\nnot json\n[1,2]\n");
        let ctx = RunContext::parse(&text);
        assert_eq!(ctx.records.len(), 1);
        assert_eq!(ctx.malformed.len(), 2);
        assert_eq!(ctx.malformed[0].0, 3);
        assert_eq!(ctx.malformed[1], (4, "not a JSON object".to_string()));
    }

    #[test]
    fn missing_fields_stay_none() {
        let ctx = RunContext::parse(r#"{"idx":7,"status":"infeasible","error":"no feasible"}"#);
        let r = &ctx.records[0];
        assert_eq!(r.idx, Some(7));
        assert!(!r.is_ok());
        assert_eq!(r.objectives(), None);
        assert_eq!(r.pareto, None);
    }
}
