//! The byte-stable aggregate and the table of a sweep's records.
//!
//! [`aggregate`] is the determinism keystone: it orders a sweep's records by
//! cell key in canonical serialization, so the output is byte-identical for
//! a given set of results no matter how many workers produced them.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CellResult;

    fn rec(cell: &str, p99_ms: f64) -> CellRecord {
        let mut r = CellResult::default();
        r.push("p99_ms", p99_ms);
        r.push("completed", 100.0);
        CellRecord::ok(cell.to_string(), 1, r)
    }

    #[test]
    fn aggregate_sorts_by_cell() {
        let out = aggregate(&[rec("b=2", 1.0), rec("a=1", 2.0)]);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("a=1"));
        assert!(lines[1].contains("b=2"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn aggregate_is_input_order_invariant() {
        let a = vec![rec("a=1", 1.0), rec("b=2", 2.0), rec("c=3", 3.0)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(aggregate(&a), aggregate(&b));
    }

    #[test]
    fn table_renders_all_metrics_and_failures() {
        let failed = CellRecord::failed("a=2".into(), 1, "boom".into());
        let records = vec![rec("a=1", 42.0), failed];
        let table = render_table(&records);
        assert!(table.contains("p99_ms"));
        assert!(table.contains("completed"));
        assert!(table.contains("FAILED: boom"));
        let header = table.lines().next().unwrap();
        assert!(header.starts_with("cell"));
    }
}
