//! Correctness gate: every campaign's records export is digested and
//! counted, then held against the pinned per-seed expectations in
//! `expected.json`, against the other repetitions of the same cell, and
//! (on a sample) against the program's slow oracle configuration.

use marvel_serve::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One campaign's export, reduced to what the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// `<campaign id>@<spec seed>`: the key into `expected.json`.
    pub key: String,
    pub runs: usize,
    pub sdc: usize,
    pub crash: usize,
    pub early: usize,
    pub converged: usize,
    /// FNV-1a 64 over the full `records.csv` bytes, as 16 hex digits.
    pub digest: String,
    /// The record rows (`idx,effect,hvf,trap,early_terminated,converged,cycles`).
    pub rows: Vec<String>,
}

impl Cell {
    /// Digest and count a `records.csv` export of a campaign that asked
    /// for `expected_runs` faults. A missing, extra or out-of-order row is
    /// an error: the export must hold exactly one record per mask.
    pub fn from_records_csv(key: String, text: &str, expected_runs: usize) -> Result<Cell, String> {
        let mut lines = text.lines();
        let (schema, header) = (lines.next(), lines.next());
        if !schema.is_some_and(|l| l.starts_with("# schema_version="))
            || header != Some("idx,effect,hvf,trap,early_terminated,converged,cycles")
        {
            return Err(format!("{key}: records.csv lacks its schema/header lines"));
        }
        let rows: Vec<String> = lines.map(str::to_string).collect();
        let (mut sdc, mut crash, mut early, mut converged) = (0, 0, 0, 0);
        for (i, row) in rows.iter().enumerate() {
            let cols: Vec<&str> = row.split(',').collect();
            if cols.len() != 7 || cols[0] != i.to_string() {
                return Err(format!("{key}: record row {i} is missing, malformed or out of order"));
            }
            match cols[1] {
                "Sdc" => sdc += 1,
                "Crash" => crash += 1,
                "Masked" => {}
                other => return Err(format!("{key}: row {i} has effect {other:?}")),
            }
            early += usize::from(cols[4] == "true");
            converged += usize::from(cols[5] == "true");
        }
        if rows.len() != expected_runs {
            return Err(format!("{key}: {} records exported, {expected_runs} faults asked", rows.len()));
        }
        let digest = fnv64(text.as_bytes());
        Ok(Cell { key, runs: rows.len(), sdc, crash, early, converged, digest, rows })
    }

    /// The JSON line printed for every checked cell; pasting these into
    /// `expected.json` pins the current outputs.
    pub fn pin_line(&self) -> String {
        format!(
            "{{\"cell\":\"{}\",\"runs\":{},\"sdc\":{},\"crash\":{},\"digest\":\"{}\"}}",
            self.key, self.runs, self.sdc, self.crash, self.digest
        )
    }
}

pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// Pinned cells from `expected.json`: `cells` maps `<id>@<seed>` to the
/// run count, SDC/crash counts and records digest of the current program.
#[derive(Debug, Default)]
pub struct Expectations {
    cells: BTreeMap<String, (usize, usize, usize, String)>,
}

impl Expectations {
    pub fn load(path: &Path) -> Result<Expectations, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Json::Object(fields)) = doc.get("cells") else {
            return Err(format!("{}: no \"cells\" object", path.display()));
        };
        let mut cells = BTreeMap::new();
        for (key, v) in fields {
            let num =
                |k: &str| v.get(k).and_then(Json::as_usize).ok_or(format!("{key}: no integer \"{k}\""));
            let digest = v.get("digest").and_then(Json::as_str).ok_or(format!("{key}: no digest"))?;
            cells.insert(key.clone(), (num("runs")?, num("sdc")?, num("crash")?, digest.to_string()));
        }
        Ok(Expectations { cells })
    }

    /// `Ok(true)` when the cell is pinned and matches, `Ok(false)` when it
    /// is not pinned, `Err` on any mismatch.
    pub fn check(&self, cell: &Cell) -> Result<bool, String> {
        let Some((runs, sdc, crash, digest)) = self.cells.get(&cell.key) else { return Ok(false) };
        if (cell.runs, cell.sdc, cell.crash, &cell.digest) != (*runs, *sdc, *crash, digest) {
            return Err(format!(
                "{}: got runs={} sdc={} crash={} digest={}, expected runs={runs} sdc={sdc} crash={crash} digest={digest}",
                cell.key, cell.runs, cell.sdc, cell.crash, cell.digest
            ));
        }
        Ok(true)
    }
}

/// Pass/fail ledger over every campaign the run executed: a campaign that
/// fails any check counts all of its runs as failed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn record(&mut self, runs: usize, outcome: Result<(), String>) {
        self.attempted += runs as u64;
        if let Err(e) = outcome {
            eprintln!("perfbench: CHECK FAILED: {e}");
            self.failed += runs as u64;
        }
    }
}
