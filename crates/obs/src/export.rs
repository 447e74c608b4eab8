//! The two exports: the JSONL event log and the human-readable end-of-run
//! summary table.

use std::io::{self, Write};

use crate::json::{write_f64, write_str};
use crate::registry::Series;
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

fn fmt_num(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Obs {
    /// Writes the full telemetry stream as JSON Lines: every event in record
    /// order (span/point records with attributes), followed by one record per
    /// metric series. Every line is a self-contained JSON object carrying a
    /// monotone `wall_us` timestamp. No-op when disabled.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        let events = self.events();
        let mut last_wall = 0u64;
        for e in &events {
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
            last_wall = e.wall_us;
        }
        let metric_wall = self.wall_us_now().max(last_wall);
        let metric_lines = self
            .with_registry(|reg| {
                let mut lines = Vec::new();
                for (name, labels, series) in reg.iter() {
                    let mut line = String::with_capacity(96);
                    line.push_str(&format!("{{\"wall_us\":{metric_wall},\"type\":"));
                    match series {
                        Series::Counter(_) => line.push_str("\"counter\""),
                        Series::Gauge(_) => line.push_str("\"gauge\""),
                        Series::Hist(_) => line.push_str("\"histogram\""),
                    }
                    line.push_str(",\"name\":");
                    write_str(&mut line, name);
                    if !labels.is_empty() {
                        line.push_str(",\"labels\":{");
                        for (i, (k, v)) in labels.iter().enumerate() {
                            if i > 0 {
                                line.push(',');
                            }
                            write_str(&mut line, k);
                            line.push(':');
                            write_str(&mut line, v);
                        }
                        line.push('}');
                    }
                    match series {
                        Series::Counter(c) => line.push_str(&format!(",\"value\":{c}")),
                        Series::Gauge(g) => {
                            line.push_str(",\"value\":");
                            write_f64(&mut line, *g);
                        }
                        Series::Hist(h) => {
                            line.push_str(&format!(
                                ",\"count\":{},\"sum\":{},\"max\":{}",
                                h.count(),
                                h.sum(),
                                h.max()
                            ));
                            line.push_str(",\"mean\":");
                            write_f64(&mut line, h.mean());
                            for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
                                line.push_str(&format!(",\"{label}\":"));
                                match h.percentile(q) {
                                    Some(v) => line.push_str(&v.to_string()),
                                    None => line.push_str("null"),
                                }
                            }
                        }
                    }
                    line.push('}');
                    lines.push(line);
                }
                lines
            })
            .unwrap_or_default();
        for line in metric_lines {
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
    /// (count, total/mean wall time), point-event counts, and every metric
    /// series.
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
        let metrics = self
            .with_registry(|reg| {
                let mut s = String::new();
                if !reg.is_empty() {
                    s.push_str(&format!("{:<44} {:>18}\n", "metric", "value"));
                }
                for (name, labels, series) in reg.iter() {
                    let label_str = if labels.is_empty() {
                        String::new()
                    } else {
                        format!(
                            "{{{}}}",
                            labels
                                .iter()
                                .map(|(k, v)| format!("{k}={v}"))
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    };
                    let rendered = match series {
                        Series::Counter(c) => format!("{c}"),
                        Series::Gauge(g) => fmt_num(*g),
                        Series::Hist(h) => format!(
                            "n={} mean={:.1} p50={} p99={} max={}",
                            h.count(),
                            h.mean(),
                            h.percentile(0.5).unwrap_or(0),
                            h.percentile(0.99).unwrap_or(0),
                            h.max()
                        ),
                    };
                    s.push_str(&format!("{:<44} {:>18}\n", format!("{name}{label_str}"), rendered));
                }
                s
            })
            .unwrap_or_default();
        out.push_str(&metrics);
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
        obs.counter_add("graf.sim.events", &[], 1234);
        obs.counter_add("graf.cluster.creations_started", &[("service", "cart")], 3);
        obs.gauge_set("graf.sim.queue_depth", &[], 17.0);
        for v in [1u64, 2, 2, 8, 400] {
            obs.hist_record("graf.cluster.creation_batch", &[], v);
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
        assert!(lines.len() >= 6, "events + metric records: {text}");
        let mut last_wall = -1.0;
        let mut names = Vec::new();
        for line in &lines {
            let j = parse(line).unwrap_or_else(|e| panic!("line {line:?}: {e}"));
            let wall = j.get("wall_us").and_then(Json::as_f64).expect("wall_us on every line");
            assert!(wall >= last_wall, "monotone timestamps: {wall} < {last_wall}");
            last_wall = wall;
            names.push(j.get("name").and_then(Json::as_str).unwrap().to_string());
        }
        assert!(names.iter().any(|n| n == "graf.controller.tick"));
        assert!(names.iter().any(|n| n == "graf.sim.events"));
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
        assert!(s.contains("graf.sim.events"), "{s}");
        assert!(s.contains("creation_batch"), "{s}");
        assert!(s.contains("0 dropped"), "{s}");
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
