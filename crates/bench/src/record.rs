//! Sweep records: per-cell results and their canonical JSONL form.
//!
//! A record is one line of a sweep stream. The serialization is canonical —
//! metrics sorted by name, fixed field order, shortest-round-trip number
//! formatting — so the aggregated report is byte-identical whenever the
//! underlying results are, regardless of which worker produced each line.

use graf_obs::json;

/// The outcome of evaluating one cell: named scalar metrics.
///
/// Metrics are `f64` by convention; results that can be absent (a p99 with
/// no completions, a convergence time that never converged) use the sentinel
/// `-1.0` rather than NaN, because JSON cannot represent NaN and `null`
/// would make records non-uniform across cells.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellResult {
    /// `(metric name, value)` pairs. Serialized sorted by name.
    pub metrics: Vec<(String, f64)>,
}

impl CellResult {
    /// Adds one metric.
    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One line of a sweep stream: a cell key, its derived seed, and either the
/// cell's metrics or the error that prevented them.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Canonical cell key (axes sorted by name).
    pub cell: String,
    /// The seed derived from `(grid_seed, cell)`.
    pub seed: u64,
    /// Metrics, when the cell ran to completion.
    pub result: Option<CellResult>,
    /// The failure message, when it did not.
    pub error: Option<String>,
}

impl CellRecord {
    /// A successful record.
    pub fn ok(cell: String, seed: u64, result: CellResult) -> Self {
        Self { cell, seed, result: Some(result), error: None }
    }

    /// A failed record.
    pub fn failed(cell: String, seed: u64, error: String) -> Self {
        Self { cell, seed, result: None, error: Some(error) }
    }

    /// Serializes to one canonical JSONL line (no trailing newline): fields
    /// in fixed order, metrics sorted by name.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push('{');
        out.push_str("\"cell\": ");
        json::write_str(&mut out, &self.cell);
        out.push_str(&format!(", \"seed\": {}", self.seed));
        if let Some(result) = &self.result {
            out.push_str(", \"metrics\": {");
            let mut metrics = result.metrics.clone();
            metrics.sort_by(|a, b| a.0.cmp(&b.0));
            for (i, (name, value)) in metrics.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json::write_str(&mut out, name);
                out.push_str(": ");
                json::write_f64(&mut out, *value);
            }
            out.push('}');
        }
        if let Some(error) = &self.error {
            out.push_str(", \"error\": ");
            json::write_str(&mut out, error);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_obs::json::Json;

    fn record() -> CellRecord {
        let mut r = CellResult::default();
        r.push("p99_ms", 45.25);
        r.push("completed", 12345.0);
        CellRecord::ok("app=boutique/slo=60".into(), 0xDEAD, r)
    }

    /// The emitted line, read back by the generic JSON parser.
    fn emitted(r: &CellRecord) -> Json {
        let line = r.to_json();
        assert!(!line.contains('\n'), "one record is one line: {line}");
        json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    #[test]
    fn round_trips_through_jsonl() {
        let r = record();
        assert_eq!(
            r.to_json(),
            r#"{"cell": "app=boutique/slo=60", "seed": 57005, "metrics": {"completed": 12345, "p99_ms": 45.25}}"#
        );
        let doc = emitted(&r);
        assert_eq!(doc.get("cell").and_then(Json::as_str), Some("app=boutique/slo=60"));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics object") };
        let read: Vec<(&str, Option<f64>)> =
            metrics.iter().map(|(k, v)| (k.as_str(), v.as_f64())).collect();
        assert_eq!(read, [("completed", Some(12345.0)), ("p99_ms", Some(45.25))], "sorted by name");
        assert!(doc.get("error").is_none());
    }

    #[test]
    fn serialization_is_canonical_under_metric_order() {
        let mut a = CellResult::default();
        a.push("x", 1.0);
        a.push("a", 2.0);
        let mut b = CellResult::default();
        b.push("a", 2.0);
        b.push("x", 1.0);
        let ra = CellRecord::ok("c=1".into(), 1, a);
        let rb = CellRecord::ok("c=1".into(), 1, b);
        assert_eq!(ra.to_json(), rb.to_json());
    }

    #[test]
    fn error_records_round_trip() {
        let r = CellRecord::failed("c=1".into(), 9, "policy \"bogus\" unknown".into());
        assert_eq!(
            r.to_json(),
            r#"{"cell": "c=1", "seed": 9, "error": "policy \"bogus\" unknown"}"#
        );
        let doc = emitted(&r);
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("policy \"bogus\" unknown"));
        assert!(doc.get("metrics").is_none());
    }

    #[test]
    fn seeds_above_2_pow_53_round_trip_exactly() {
        for seed in [u64::MAX, 18080803159395780711, (1 << 53) + 1] {
            let r = CellRecord::failed("c=1".into(), seed, "boom".into());
            assert!(r.to_json().contains(&format!("\"seed\": {seed},")), "{}", r.to_json());
            assert_eq!(emitted(&r).get("seed").and_then(Json::as_u64), Some(seed));
        }
    }
}
