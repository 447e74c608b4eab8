//! Per-tick decision audit trail for the resilient control loop.
//!
//! Every [`ResilientController`](crate::ResilientController) tick can emit
//! one structured [`AuditRecord`] capturing what the controller *saw* (the
//! post-chaos rate reading, signal age, health flags), which ladder rung it
//! *chose*, what the solver *did* (iterations, how it stopped, whether the
//! SLO wall was active, loss, predicted latency — when the Full rung ran a
//! solve), and what it *applied* (per-service
//! desired counts plus the implied deltas against the previous tick).
//!
//! Records serialize to JSON Lines — one self-contained object per tick —
//! through the same std-only writer the telemetry exporter uses, so a run's
//! audit file replays the controller's reasoning without attaching a
//! debugger. The trail is write-only: nothing reads it back into a
//! decision, so auditing on or off cannot change controller behaviour.

use std::io::Write as _;
use std::path::Path;

use graf_obs::json::{write_f64, write_str};

use crate::solver::{SolveResult, Stop};

/// Solver statistics captured when a tick ran the full GRAF solve.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditSolve {
    /// Descent iterations used.
    pub iterations: usize,
    /// The rule that ended the solve.
    pub stop: Stop,
    /// Whether the SLO wall, rather than the Algorithm-1 floor, was active.
    pub wall_active: bool,
    /// Loss at the solution (scaled space).
    pub loss: f64,
    /// Predicted p99 at the solution, ms.
    pub predicted_ms: f64,
}

impl From<&SolveResult> for AuditSolve {
    fn from(s: &SolveResult) -> Self {
        Self {
            iterations: s.iterations,
            stop: s.stop,
            wall_active: s.wall_active,
            loss: s.loss,
            predicted_ms: s.predicted_ms,
        }
    }
}

/// One control tick's decision, inputs included.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Tick sequence number (starts at 0).
    pub tick: u64,
    /// Simulated time of the tick, seconds.
    pub sim_time_s: f64,
    /// Ladder rung the tick executed at (`full`, `last_good`, …).
    pub level: &'static str,
    /// Per-API rates the planner saw (post-chaos; may be NaN).
    pub rates: Vec<f64>,
    /// Age of the rate reading, seconds.
    pub signal_age_s: f64,
    /// All rates finite?
    pub rates_finite: bool,
    /// Minimum per-API trace coverage estimate.
    pub coverage_min: f64,
    /// Instance creation keeping up with desired counts?
    pub creation_ok: bool,
    /// Solver stats, when the Full rung ran a solve this tick.
    pub solver: Option<AuditSolve>,
    /// Per-service desired instance counts after the tick.
    pub desired: Vec<usize>,
    /// `desired - previous desired` per service: the tick's applied change.
    pub deltas: Vec<i64>,
}

impl AuditRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str("{\"tick\":");
        out.push_str(&self.tick.to_string());
        out.push_str(",\"sim_time_s\":");
        write_f64(&mut out, self.sim_time_s);
        out.push_str(",\"level\":");
        write_str(&mut out, self.level);
        out.push_str(",\"rates\":[");
        for (i, r) in self.rates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_f64(&mut out, *r);
        }
        out.push_str("],\"signal_age_s\":");
        write_f64(&mut out, self.signal_age_s);
        out.push_str(",\"rates_finite\":");
        out.push_str(if self.rates_finite { "true" } else { "false" });
        out.push_str(",\"coverage_min\":");
        write_f64(&mut out, self.coverage_min);
        out.push_str(",\"creation_ok\":");
        out.push_str(if self.creation_ok { "true" } else { "false" });
        out.push_str(",\"solver\":");
        match &self.solver {
            Some(s) => {
                out.push_str("{\"iterations\":");
                out.push_str(&s.iterations.to_string());
                out.push_str(",\"stop\":");
                write_str(&mut out, s.stop.as_str());
                out.push_str(",\"wall_active\":");
                out.push_str(if s.wall_active { "true" } else { "false" });
                out.push_str(",\"loss\":");
                write_f64(&mut out, s.loss);
                out.push_str(",\"predicted_ms\":");
                write_f64(&mut out, s.predicted_ms);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"desired\":[");
        for (i, d) in self.desired.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_string());
        }
        out.push_str("],\"deltas\":[");
        for (i, d) in self.deltas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_string());
        }
        out.push_str("]}");
        out
    }
}

/// Collects [`AuditRecord`]s, optionally streaming each to a JSONL file.
///
/// In-memory records are always retained (bounded only by run length — a
/// control tick every 15 simulated seconds stays tiny), so tests and
/// experiment drivers can inspect the trail without re-parsing the file.
pub struct AuditTrail {
    records: Vec<AuditRecord>,
    sink: Option<std::io::BufWriter<std::fs::File>>,
}

impl AuditTrail {
    /// A trail that only retains records in memory.
    pub fn in_memory() -> Self {
        Self { records: Vec::new(), sink: None }
    }

    /// A trail that additionally appends one JSON line per record to `path`
    /// (truncating any existing file; parent directories are created).
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let sink = std::io::BufWriter::new(std::fs::File::create(path)?);
        Ok(Self { records: Vec::new(), sink: Some(sink) })
    }

    /// Appends a record, streaming it to the file sink when one is attached.
    /// File I/O errors are swallowed — auditing must never take down the
    /// control loop.
    pub fn push(&mut self, rec: AuditRecord) {
        if let Some(sink) = &mut self.sink {
            let _ = sink.write_all(rec.to_json().as_bytes());
            let _ = sink.write_all(b"\n");
        }
        self.records.push(rec);
    }

    /// The recorded ticks, oldest first.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Number of recorded ticks.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no tick has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Flushes the file sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            let _ = sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_obs::json::{parse, Json};

    fn sample() -> AuditRecord {
        AuditRecord {
            tick: 3,
            sim_time_s: 45.0,
            level: "full",
            rates: vec![80.5, f64::NAN],
            signal_age_s: 0.25,
            rates_finite: false,
            coverage_min: 0.92,
            creation_ok: true,
            solver: Some(AuditSolve {
                iterations: 120,
                stop: Stop::WallConverged,
                wall_active: true,
                loss: 3.5,
                predicted_ms: 17.2,
            }),
            desired: vec![2, 5],
            deltas: vec![0, 2],
        }
    }

    #[test]
    fn record_serializes_to_parseable_json() {
        let j = parse(&sample().to_json()).expect("valid JSON");
        assert_eq!(j.get("tick").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("level").and_then(Json::as_str), Some("full"));
        // NaN rates become null per RFC 8259.
        assert_eq!(j.get("rates"), Some(&Json::Arr(vec![Json::Num(80.5), Json::Null])));
        let solver = j.get("solver").expect("solver object");
        assert_eq!(solver.get("iterations").and_then(Json::as_f64), Some(120.0));
        assert_eq!(solver.get("stop").and_then(Json::as_str), Some("wall_converged"));
        assert_eq!(solver.get("wall_active"), Some(&Json::Bool(true)));
        assert_eq!(solver.get("predicted_ms").and_then(Json::as_f64), Some(17.2));
        assert_eq!(j.get("deltas"), Some(&Json::Arr(vec![Json::UInt(0), Json::UInt(2)])));
    }

    #[test]
    fn degraded_tick_serializes_null_solver() {
        let rec = AuditRecord { solver: None, level: "freeze", ..sample() };
        let j = parse(&rec.to_json()).expect("valid JSON");
        assert_eq!(j.get("solver"), Some(&Json::Null));
        assert_eq!(j.get("level").and_then(Json::as_str), Some("freeze"));
    }

    #[test]
    fn trail_streams_jsonl_to_file() {
        let dir = std::env::temp_dir().join("graf-audit-test");
        let path = dir.join("audit.jsonl");
        let mut trail = AuditTrail::to_file(&path).expect("create trail");
        trail.push(sample());
        trail.push(AuditRecord { tick: 4, ..sample() });
        trail.flush();
        assert_eq!(trail.len(), 2);
        let body = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            parse(line).expect("each line is standalone JSON");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
