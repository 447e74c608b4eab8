//! The two exports of the event log: JSON Lines and the human-readable
//! end-of-run summary table.

use std::io::{self, Write};

use crate::json::{write_f64, write_str};
use crate::{EventKind, Obs, Value};

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::F64(x) => write_f64(out, *x),
        Value::I64(x) => {
            out.push_str(&x.to_string());
        }
        Value::U64(x) => {
            out.push_str(&x.to_string());
        }
        Value::Bool(x) => {
            out.push_str(if *x { "true" } else { "false" });
        }
        Value::Str(s) => write_str(out, s),
        Value::List(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_f64(out, *x);
            }
            out.push(']');
        }
    }
}

impl Obs {
    /// Writes the event log as JSON Lines: every event in record order, one
    /// self-contained JSON object per line with `type` `span` or `point`,
    /// its attributes and a monotone `wall_us` timestamp. No-op when
    /// disabled.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        for e in &self.events() {
            let mut line = String::with_capacity(128);
            line.push_str(&format!("{{\"seq\":{},\"wall_us\":{}", e.seq, e.wall_us));
            if let Some(t) = e.sim_s {
                line.push_str(",\"sim_s\":");
                write_f64(&mut line, t);
            }
            match e.kind {
                EventKind::Span { dur_us } => {
                    line.push_str(&format!(",\"type\":\"span\",\"dur_us\":{dur_us}"));
                }
                EventKind::Point => line.push_str(",\"type\":\"point\""),
            }
            line.push_str(",\"name\":");
            write_str(&mut line, e.name);
            if !e.attrs.is_empty() {
                line.push_str(",\"attrs\":{");
                for (i, (k, v)) in e.attrs.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    write_str(&mut line, k);
                    line.push(':');
                    write_value(&mut line, v);
                }
                line.push('}');
            }
            line.push('}');
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Writes the JSONL stream to a file path.
    pub fn write_jsonl_path(&self, path: &std::path::Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut f)?;
        f.flush()
    }

    /// Renders the human-readable end-of-run summary: per-span aggregates
    /// (count, total/mean wall time) and point-event counts.
    pub fn summary(&self) -> String {
        if !self.is_enabled() {
            return "telemetry: disabled\n".to_string();
        }
        let events = self.events();
        // Aggregate spans and points by name, preserving first-seen order.
        let mut span_rows: Vec<(&'static str, u64, u64)> = Vec::new(); // name, count, total us
        let mut point_rows: Vec<(&'static str, u64)> = Vec::new();
        for e in &events {
            match e.kind {
                EventKind::Span { dur_us } => {
                    match span_rows.iter_mut().find(|(n, _, _)| *n == e.name) {
                        Some(row) => {
                            row.1 += 1;
                            row.2 += dur_us;
                        }
                        None => span_rows.push((e.name, 1, dur_us)),
                    }
                }
                EventKind::Point => match point_rows.iter_mut().find(|(n, _)| *n == e.name) {
                    Some(row) => row.1 += 1,
                    None => point_rows.push((e.name, 1)),
                },
            }
        }
        let mut out = String::new();
        out.push_str("── telemetry summary ──────────────────────────────────────────\n");
        if !span_rows.is_empty() {
            out.push_str(&format!(
                "{:<44} {:>8} {:>12} {:>10}\n",
                "span", "count", "total ms", "mean ms"
            ));
            for (name, count, total_us) in &span_rows {
                out.push_str(&format!(
                    "{:<44} {:>8} {:>12.2} {:>10.3}\n",
                    name,
                    count,
                    *total_us as f64 / 1e3,
                    *total_us as f64 / 1e3 / *count as f64
                ));
            }
        }
        if !point_rows.is_empty() {
            out.push_str(&format!("{:<44} {:>8}\n", "event", "count"));
            for (name, count) in &point_rows {
                out.push_str(&format!("{:<44} {:>8}\n", name, count));
            }
        }
        let dropped = self.dropped_events();
        out.push_str(&format!("events: {} recorded, {} dropped\n", events.len(), dropped));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn sample_obs() -> Obs {
        let obs = Obs::enabled();
        {
            let mut s = obs.span("graf.controller.tick");
            s.attr("total_qps", 612.5).attr("solver_iterations", 120u64).sim_time_s(15.0);
        }
        obs.point("graf.train.eval").attr("val_loss", 0.25);
        for batch in [1u64, 2, 8] {
            obs.point("graf.cluster.create").attr("batch", batch).sim_time_s(20.0);
        }
        obs
    }

    #[test]
    fn jsonl_lines_parse_and_timestamps_are_monotone() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        obs.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "one line per event: {text}");
        let mut last_wall = -1.0;
        let mut names = Vec::new();
        for line in &lines {
            let j = parse(line).unwrap_or_else(|e| panic!("line {line:?}: {e}"));
            let wall = j.get("wall_us").and_then(Json::as_f64).expect("wall_us on every line");
            assert!(wall >= last_wall, "monotone timestamps: {wall} < {last_wall}");
            last_wall = wall;
            let kind = j.get("type").and_then(Json::as_str);
            assert!(matches!(kind, Some("span" | "point")), "a span or a point: {line}");
            names.push(j.get("name").and_then(Json::as_str).unwrap().to_string());
        }
        assert_eq!(names[0], "graf.controller.tick");
        assert_eq!(names.iter().filter(|n| *n == "graf.cluster.create").count(), 3);
        // The span line carries its attributes and duration.
        let span_line = lines.iter().find(|l| l.contains("controller.tick")).unwrap();
        let j = parse(span_line).unwrap();
        assert_eq!(j.get("type").and_then(Json::as_str), Some("span"));
        assert!(j.get("dur_us").is_some());
        assert_eq!(
            j.get("attrs").unwrap().get("solver_iterations").and_then(Json::as_f64),
            Some(120.0)
        );
        assert_eq!(j.get("sim_s").and_then(Json::as_f64), Some(15.0));
    }

    #[test]
    fn jsonl_escapes_attr_strings() {
        let obs = Obs::enabled();
        obs.point("e").attr("msg", "line1\nline2 \"quoted\"");
        let mut buf = Vec::new();
        obs.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let j = parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            j.get("attrs").unwrap().get("msg").and_then(Json::as_str),
            Some("line1\nline2 \"quoted\"")
        );
    }

    #[test]
    fn jsonl_writes_lists_with_null_for_non_finite() {
        let obs = Obs::enabled();
        obs.point("e").attr("rates", vec![80.5, f64::NAN]).attr("deltas", vec![0.0, -2.0]);
        let mut buf = Vec::new();
        obs.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(r#""attrs":{"rates":[80.5,null],"deltas":[0,-2]}"#), "{text}");
        let attrs = parse(text.lines().next().unwrap()).unwrap().get("attrs").unwrap().clone();
        assert_eq!(attrs.get("rates"), Some(&Json::Arr(vec![Json::Num(80.5), Json::Null])));
    }

    #[test]
    fn summary_mentions_spans_and_metrics() {
        let s = sample_obs().summary();
        assert!(s.contains("graf.controller.tick"), "{s}");
        assert!(s.contains("graf.train.eval"), "{s}");
        assert!(s.lines().any(|l| l.split_whitespace().eq(["graf.cluster.create", "3"])), "{s}");
        assert!(s.contains("5 recorded, 0 dropped"), "{s}");
    }

    #[test]
    fn disabled_exports_are_empty() {
        let obs = Obs::disabled();
        let mut buf = Vec::new();
        obs.write_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert!(obs.summary().contains("disabled"));
    }
}
