//! Sweep records: per-cell results and their canonical JSONL form.
//!
//! A record is one line of a sweep stream. The serialization is canonical —
//! metrics sorted by name, fixed field order, shortest-round-trip number
//! formatting — so the aggregated report is byte-identical whenever the
//! underlying results are, regardless of which worker produced each line.

use graf_obs::json::{self, Json};

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
    /// Optional git revision tag (present in history files, absent in
    /// per-run streams).
    pub rev: Option<String>,
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
        Self { rev: None, cell, seed, result: Some(result), error: None }
    }

    /// A failed record.
    pub fn failed(cell: String, seed: u64, error: String) -> Self {
        Self { rev: None, cell, seed, result: None, error: Some(error) }
    }

    /// Serializes to one canonical JSONL line (no trailing newline): fields
    /// in fixed order, metrics sorted by name.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push('{');
        if let Some(rev) = &self.rev {
            out.push_str("\"rev\": ");
            json::write_str(&mut out, rev);
            out.push_str(", ");
        }
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

    /// Parses one JSONL line. Errors name the missing/ill-typed field.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let doc = json::parse(line)?;
        let cell = doc
            .get("cell")
            .and_then(Json::as_str)
            .ok_or("missing/non-string field \"cell\"")?
            .to_string();
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("missing field \"seed\", or not an integer in [0, 2^64)")?;
        let rev = doc.get("rev").and_then(Json::as_str).map(str::to_string);
        let error = doc.get("error").and_then(Json::as_str).map(str::to_string);
        let result = match doc.get("metrics") {
            Some(Json::Obj(fields)) => {
                let mut r = CellResult::default();
                for (k, v) in fields {
                    let v = v.as_f64().ok_or_else(|| format!("non-number metric {k:?}"))?;
                    r.metrics.push((k.clone(), v));
                }
                Some(r)
            }
            Some(_) => return Err("field \"metrics\" is not an object".to_string()),
            None => None,
        };
        if result.is_none() && error.is_none() {
            return Err("record has neither \"metrics\" nor \"error\"".to_string());
        }
        Ok(Self { rev, cell, seed, result, error })
    }
}

/// Parses an append-only *history* file (many revisions of this tool may
/// have written it): malformed lines are counted and skipped, not fatal.
pub fn parse_history(text: &str) -> (Vec<CellRecord>, usize) {
    let mut out = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match CellRecord::from_json(line) {
            Ok(r) => out.push(r),
            Err(_) => skipped += 1,
        }
    }
    (out, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CellRecord {
        let mut r = CellResult::default();
        r.push("p99_ms", 45.25);
        r.push("completed", 12345.0);
        CellRecord::ok("app=boutique/slo=60".into(), 0xDEAD, r)
    }

    #[test]
    fn round_trips_through_jsonl() {
        let r = record();
        let line = r.to_json();
        let mut back = CellRecord::from_json(&line).unwrap();
        // Serialization sorts metrics; compare against the sorted original.
        let mut want = r.clone();
        want.result.as_mut().unwrap().metrics.sort_by(|a, b| a.0.cmp(&b.0));
        back.result.as_mut().unwrap().metrics.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(back, want);
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
        let back = CellRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(back.result.is_none());
    }

    #[test]
    fn rev_tag_round_trips() {
        let mut r = record();
        r.rev = Some("abc123".into());
        let back = CellRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back.rev.as_deref(), Some("abc123"));
    }

    #[test]
    fn history_parsing_skips_malformed_lines() {
        let good = record().to_json();
        let text = format!("{good}\n\nnot json\n");
        let (runs, skipped) = parse_history(&text);
        assert_eq!(runs.len(), 1);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn seeds_above_2_pow_53_round_trip_exactly() {
        for seed in [u64::MAX, 18080803159395780711, (1 << 53) + 1] {
            let r = CellRecord::failed("c=1".into(), seed, "boom".into());
            assert_eq!(CellRecord::from_json(&r.to_json()).unwrap().seed, seed);
        }
        for bad in ["1.5", "-1", "18446744073709551616", "\"7\""] {
            let line = format!(r#"{{"cell": "a=1", "seed": {bad}, "error": "x"}}"#);
            assert!(CellRecord::from_json(&line).is_err(), "seed {bad} accepted");
        }
    }

    #[test]
    fn record_without_metrics_or_error_is_rejected() {
        assert!(CellRecord::from_json(r#"{"cell": "a=1", "seed": 3}"#).is_err());
    }
}
