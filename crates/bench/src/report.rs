//! Aggregation and cross-revision comparison of sweep records.
//!
//! [`aggregate`] is the determinism keystone: it orders a sweep's records by
//! cell key in canonical serialization, so the output is byte-identical for
//! a given set of results no matter how many workers produced them.

use std::collections::BTreeMap;

use crate::record::CellRecord;

/// The canonical aggregated report of a sweep: one JSONL line per cell,
/// ordered by cell key, each line in the canonical serialization of
/// [`CellRecord::to_json`]. Ends with a newline. Cell keys are unique
/// because [`crate::grid::Grid::parse`] rejects duplicate axes and values.
pub fn aggregate(records: &[CellRecord]) -> String {
    let mut rows: Vec<&CellRecord> = records.iter().collect();
    rows.sort_by(|a, b| a.cell.cmp(&b.cell));
    let mut out = String::new();
    for r in rows {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Renders an aggregated record set as a human-readable table: one row per
/// cell, the union of metric names as columns, `-` for gaps, `FAILED` rows
/// for error records. Rows follow aggregation order (sorted by cell key).
pub fn render_table(records: &[CellRecord]) -> String {
    let mut rows: Vec<&CellRecord> = records.iter().collect();
    rows.sort_by(|a, b| a.cell.cmp(&b.cell));
    let mut columns: Vec<String> = Vec::new();
    for r in &rows {
        if let Some(result) = &r.result {
            for (name, _) in &result.metrics {
                if !columns.contains(name) {
                    columns.push(name.clone());
                }
            }
        }
    }
    columns.sort();

    let fmt_val = |v: f64| {
        if v == v.trunc() && v.abs() < 1e12 {
            format!("{v:.0}")
        } else {
            format!("{v:.3}")
        }
    };
    let mut header: Vec<String> = vec!["cell".to_string()];
    header.extend(columns.iter().cloned());
    let mut table: Vec<Vec<String>> = vec![header];
    for r in &rows {
        let mut row = vec![r.cell.clone()];
        match (&r.result, &r.error) {
            (Some(result), _) => {
                for c in &columns {
                    row.push(result.get(c).map(fmt_val).unwrap_or_else(|| "-".to_string()));
                }
            }
            (None, Some(e)) => {
                row.push(format!("FAILED: {e}"));
                row.extend(std::iter::repeat_n("-".to_string(), columns.len().saturating_sub(1)));
            }
            (None, None) => row.extend(std::iter::repeat_n("-".to_string(), columns.len())),
        }
        table.push(row);
    }

    let cols = table.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in &table {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in table.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            if i + 1 < row.len() {
                for _ in cell.chars().count()..widths[i] {
                    out.push(' ');
                }
            }
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
            out.extend(std::iter::repeat_n('-', total));
            out.push('\n');
        }
    }
    out
}

/// Per-cell verdict of a [`compare`] run.
#[derive(Clone, Debug, PartialEq)]
pub enum CellVerdict {
    /// Gate metric moved against us by more than the threshold.
    Regressed {
        /// Gate metric value at the base revision.
        base: f64,
        /// Gate metric value at the new revision.
        new: f64,
        /// Relative change in percent (positive = worse).
        delta_pct: f64,
    },
    /// Gate metric moved in our favor by more than the threshold.
    Improved {
        /// Gate metric value at the base revision.
        base: f64,
        /// Gate metric value at the new revision.
        new: f64,
        /// Relative change in percent (negative = better).
        delta_pct: f64,
    },
    /// Within threshold either way.
    Unchanged {
        /// Gate metric value at the base revision.
        base: f64,
        /// Gate metric value at the new revision.
        new: f64,
    },
    /// The cell failed at one or both revisions, or the gate metric is
    /// missing/sentinel (`< 0`) at one or both.
    Incomparable {
        /// Why the cell could not be compared.
        why: String,
    },
}

/// Outcome of comparing one revision's sweep against another's.
#[derive(Debug, Default)]
pub struct SweepCompareReport {
    /// `(cell key, verdict)` pairs, ordered by cell key.
    pub rows: Vec<(String, CellVerdict)>,
    /// Cells recorded only at the base revision.
    pub only_base: Vec<String>,
    /// Cells recorded only at the new revision.
    pub only_new: Vec<String>,
}

impl SweepCompareReport {
    /// True if the two revisions did not sweep the same cell set.
    pub fn has_coverage_gaps(&self) -> bool {
        !self.only_base.is_empty() || !self.only_new.is_empty()
    }
}

/// True when `rev` identifies `recorded`: exact match, or an unambiguous
/// SHA prefix of at least 7 characters (either direction).
fn rev_matches(recorded: &str, rev: &str) -> bool {
    if recorded == rev {
        return true;
    }
    let (long, short) = if recorded.len() >= rev.len() { (recorded, rev) } else { (rev, recorded) };
    short.len() >= 7 && long.starts_with(short)
}

/// Latest record per cell for one revision. History files are append-only,
/// so "latest" means last occurrence in file order.
fn latest_by_cell<'a>(history: &'a [CellRecord], rev: &str) -> BTreeMap<&'a str, &'a CellRecord> {
    let mut out: BTreeMap<&str, &CellRecord> = BTreeMap::new();
    for r in history {
        if r.rev.as_deref().is_some_and(|rr| rev_matches(rr, rev)) {
            out.insert(&r.cell, r);
        }
    }
    out
}

/// Compares the sweeps of two revisions recorded in `history`, judging each
/// shared cell on the `gate` metric (where *higher is worse* — latency,
/// timeouts, instance counts). A cell regresses when the gate worsens by
/// more than `threshold_pct` percent relative to base.
pub fn compare(
    history: &[CellRecord],
    rev_base: &str,
    rev_new: &str,
    gate: &str,
    threshold_pct: f64,
) -> SweepCompareReport {
    let base = latest_by_cell(history, rev_base);
    let new = latest_by_cell(history, rev_new);

    let mut report = SweepCompareReport::default();
    for (&cell, base_rec) in &base {
        let Some(new_rec) = new.get(cell) else {
            report.only_base.push(cell.to_string());
            continue;
        };
        let verdict = judge(base_rec, new_rec, gate, threshold_pct);
        report.rows.push((cell.to_string(), verdict));
    }
    for &cell in new.keys() {
        if !base.contains_key(cell) {
            report.only_new.push(cell.to_string());
        }
    }
    report
}

fn judge(base: &CellRecord, new: &CellRecord, gate: &str, threshold_pct: f64) -> CellVerdict {
    if let Some(e) = &base.error {
        return CellVerdict::Incomparable { why: format!("base failed: {e}") };
    }
    if let Some(e) = &new.error {
        return CellVerdict::Incomparable { why: format!("new failed: {e}") };
    }
    let bv = base.result.as_ref().and_then(|r| r.get(gate));
    let nv = new.result.as_ref().and_then(|r| r.get(gate));
    let (Some(bv), Some(nv)) = (bv, nv) else {
        return CellVerdict::Incomparable { why: format!("gate metric {gate:?} missing") };
    };
    if bv < 0.0 || nv < 0.0 {
        return CellVerdict::Incomparable {
            why: format!("gate metric {gate:?} is sentinel (base {bv}, new {nv})"),
        };
    }
    if bv == 0.0 && nv == 0.0 {
        return CellVerdict::Unchanged { base: bv, new: nv };
    }
    // Relative to base; a zero base with a nonzero new value is an infinite
    // relative change, which we clamp to a definitely-over-threshold value.
    let delta_pct = if bv > 0.0 { (nv - bv) / bv * 100.0 } else { f64::INFINITY };
    if delta_pct > threshold_pct {
        CellVerdict::Regressed { base: bv, new: nv, delta_pct }
    } else if delta_pct < -threshold_pct {
        CellVerdict::Improved { base: bv, new: nv, delta_pct }
    } else {
        CellVerdict::Unchanged { base: bv, new: nv }
    }
}

/// Renders a compare report as human-readable text.
pub fn render_compare(report: &SweepCompareReport, gate: &str) -> String {
    let mut out = String::new();
    for (cell, verdict) in &report.rows {
        match verdict {
            CellVerdict::Regressed { base, new, delta_pct } => {
                out.push_str(&format!(
                    "REGRESSED  {cell}  {gate} {base:.3} -> {new:.3}  ({delta_pct:+.1}%)\n"
                ));
            }
            CellVerdict::Improved { base, new, delta_pct } => {
                out.push_str(&format!(
                    "improved   {cell}  {gate} {base:.3} -> {new:.3}  ({delta_pct:+.1}%)\n"
                ));
            }
            CellVerdict::Unchanged { base, new } => {
                out.push_str(&format!("unchanged  {cell}  {gate} {base:.3} -> {new:.3}\n"));
            }
            CellVerdict::Incomparable { why } => {
                out.push_str(&format!("n/a        {cell}  {why}\n"));
            }
        }
    }
    for cell in &report.only_base {
        out.push_str(&format!("only-base  {cell}\n"));
    }
    for cell in &report.only_new {
        out.push_str(&format!("only-new   {cell}\n"));
    }
    if report.rows.is_empty() && !report.has_coverage_gaps() {
        out.push_str("no overlapping cells\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CellResult;

    fn rec(rev: &str, cell: &str, gate: f64) -> CellRecord {
        let mut r = CellResult::default();
        r.push("p99_ms", gate);
        r.push("completed", 100.0);
        let mut record = CellRecord::ok(cell.to_string(), 1, r);
        record.rev = Some(rev.to_string());
        record
    }

    fn regressed(report: &SweepCompareReport) -> bool {
        report.rows.iter().any(|(_, v)| matches!(v, CellVerdict::Regressed { .. }))
    }

    #[test]
    fn aggregate_sorts_by_cell() {
        let out = aggregate(&[rec("x", "b=2", 1.0), rec("x", "a=1", 2.0)]);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("a=1"));
        assert!(lines[1].contains("b=2"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn aggregate_is_input_order_invariant() {
        let a = vec![rec("x", "a=1", 1.0), rec("x", "b=2", 2.0), rec("x", "c=3", 3.0)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(aggregate(&a), aggregate(&b));
    }

    #[test]
    fn compare_classifies_cells() {
        let history = vec![
            rec("aaaaaaaa", "c=reg", 100.0),
            rec("aaaaaaaa", "c=imp", 100.0),
            rec("aaaaaaaa", "c=same", 100.0),
            rec("aaaaaaaa", "c=gone", 1.0),
            rec("bbbbbbbb", "c=reg", 120.0),
            rec("bbbbbbbb", "c=imp", 80.0),
            rec("bbbbbbbb", "c=same", 101.0),
            rec("bbbbbbbb", "c=fresh", 1.0),
        ];
        let report = compare(&history, "aaaaaaaa", "bbbbbbbb", "p99_ms", 10.0);
        let verdict = |cell: &str| {
            report.rows.iter().find(|(c, _)| c == cell).map(|(_, v)| v.clone()).unwrap()
        };
        assert!(matches!(verdict("c=reg"), CellVerdict::Regressed { .. }));
        assert!(matches!(verdict("c=imp"), CellVerdict::Improved { .. }));
        assert!(matches!(verdict("c=same"), CellVerdict::Unchanged { .. }));
        assert_eq!(report.only_base, vec!["c=gone"]);
        assert_eq!(report.only_new, vec!["c=fresh"]);
        assert!(regressed(&report));
        assert!(report.has_coverage_gaps());
    }

    #[test]
    fn compare_latest_record_per_cell_wins() {
        let history = vec![
            rec("aaaaaaaa", "c=1", 100.0),
            rec("bbbbbbbb", "c=1", 500.0),
            rec("bbbbbbbb", "c=1", 100.0), // a rerun fixed it
        ];
        let report = compare(&history, "aaaaaaaa", "bbbbbbbb", "p99_ms", 10.0);
        assert!(matches!(report.rows[0].1, CellVerdict::Unchanged { .. }));
    }

    #[test]
    fn compare_tolerates_rev_prefixes() {
        let history =
            vec![rec("0123456789abcdef", "c=1", 100.0), rec("fedcba9876543210", "c=1", 100.0)];
        let report = compare(&history, "0123456", "fedcba987", "p99_ms", 10.0);
        assert_eq!(report.rows.len(), 1);
        // Too-short prefixes must not match.
        let report = compare(&history, "012345", "fedcba987", "p99_ms", 10.0);
        assert!(report.rows.is_empty());
    }

    #[test]
    fn failed_and_sentinel_cells_are_incomparable() {
        let mut failed = CellRecord::failed("c=1".into(), 1, "boom".into());
        failed.rev = Some("aaaaaaaa".into());
        let history = vec![
            failed,
            rec("bbbbbbbb", "c=1", 100.0),
            rec("aaaaaaaa", "c=2", -1.0),
            rec("bbbbbbbb", "c=2", 50.0),
        ];
        let report = compare(&history, "aaaaaaaa", "bbbbbbbb", "p99_ms", 10.0);
        assert!(report.rows.iter().all(|(_, v)| matches!(v, CellVerdict::Incomparable { .. })));
        assert!(!regressed(&report));
    }

    #[test]
    fn zero_base_with_nonzero_new_regresses() {
        let history = vec![rec("aaaaaaaa", "c=1", 0.0), rec("bbbbbbbb", "c=1", 5.0)];
        let report = compare(&history, "aaaaaaaa", "bbbbbbbb", "p99_ms", 10.0);
        assert!(regressed(&report));
    }

    #[test]
    fn table_renders_all_metrics_and_failures() {
        let mut failed = CellRecord::failed("a=2".into(), 1, "boom".into());
        failed.rev = None;
        let records = vec![rec("x", "a=1", 42.0), failed];
        let table = render_table(&records);
        assert!(table.contains("p99_ms"));
        assert!(table.contains("completed"));
        assert!(table.contains("FAILED: boom"));
        let header = table.lines().next().unwrap();
        assert!(header.starts_with("cell"));
    }
}
