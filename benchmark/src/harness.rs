//! One run of one workload: repeated set-up, repeated identical timed
//! repetitions for `--seconds` (reported at their slow quartile), output
//! checks, and — when tracing — a second
//! batch of repetitions under the span recorder plus the direct probes.

use std::time::Instant;

use crate::json::{obj, parse, Value};
use crate::rec::{self_times_ns, Recorder, RepView};
use crate::spec;
use crate::stats::{median, quartiles};
use crate::sys;

/// Frozen full sizes, or toy sizes whose numbers are unusable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Named values: per-layer metrics and exact per-seed facts.
pub type Named = Vec<(&'static str, f64)>;

/// What one repetition of a timed section produced.
#[derive(Default)]
pub struct RepOutcome {
    /// Operations attempted (requests, samples, optimizer steps, ticks).
    pub attempted: u64,
    /// Operations that failed, out of `attempted`.
    pub failed: u64,
    /// FNV-1a over the repetition's outputs; equal across repetitions.
    pub fingerprint: u64,
    /// `work / work_s` is the repetition's `work_per_s`.
    pub work: f64,
    pub work_s: f64,
    /// Exact per-seed numbers (counts and simulated statistics): compared
    /// against the golden file and reported as per-layer metrics.
    pub facts: Named,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
}

impl RepOutcome {
    /// Records `what` as a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A workload: inputs made from a seed, a timed section that is repeated
/// unchanged, and the per-layer view of it.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The exact-count file for seed 7 at full size.
    const GOLDEN: &'static str;

    /// Builds every input from `seed` and warms the timed path up once.
    fn setup(seed: u64, size: Size) -> Self;

    /// One repetition of the timed section; every call does identical work.
    fn rep(&mut self, rec: &Recorder) -> RepOutcome;

    /// Per-layer metrics of one traced repetition, from its spans.
    fn layer_metrics(&self, view: &RepView<'_>, outcome: &RepOutcome, out: &mut Named);

    /// Direct probes of single functions (traced run only).
    fn probes(&mut self, rec: &Recorder, out: &mut Named);
}

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Rewrite the golden file from this run instead of comparing against it.
    pub update_golden: bool,
}

/// Set-up is timed at least `.0` times per run, and on until a second has
/// gone into it or `.1` times are done: a set-up of milliseconds needs more
/// samples for a steady median than one of a second. `setup_s` is the median.
const SETUP_REPEATS: (usize, usize) = (5, 25);
/// At least two untraced repetitions, so "same seed, same bytes" is checked.
const MIN_REPS: usize = 2;
/// The seed the golden files were recorded with.
pub const GOLDEN_SEED: u64 = 7;

struct TimedRep {
    /// Index among all repetitions of the run; spans carry it.
    rep: u32,
    wall_s: f64,
    cpu_s: f64,
    outcome: RepOutcome,
}

fn timed_rep<W: Workload>(w: &mut W, rec: &Recorder, rep: u32) -> TimedRep {
    rec.set_rep(rep);
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let outcome = rec.span("benchmark", "benchmark.rep", |_| w.rep(rec));
    let wall_s = t0.elapsed().as_secs_f64();
    TimedRep { rep, wall_s, cpu_s: sys::cpu_seconds() - cpu0, outcome }
}

/// The result of one run, ready to print.
pub struct RunReport {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of the metrics this run reports.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
    /// Wall seconds of every untraced repetition.
    pub rep_wall_s: Vec<f64>,
    pub fingerprint: u64,
    /// Human-readable notes (attribution table, golden diff).
    pub notes: Vec<String>,
}

impl RunReport {
    /// The one-line JSON object the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = obj(self.metrics.iter().map(|&(name, value, unit)| {
            (name, obj([("value", Value::from(value)), ("unit", Value::from(unit))]))
        }));
        obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", metrics),
        ])
        .encode()
    }
}

pub fn run<W: Workload>(cfg: &RunConfig) -> (RunReport, Recorder) {
    let smoke = cfg.size == Size::Smoke;

    // Set-up, several times: one start-up on a busy box says little.
    let (min_setups, max_setups) = if smoke { (1, 1) } else { SETUP_REPEATS };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut w = loop {
        let t0 = Instant::now();
        let w = W::setup(cfg.seed, cfg.size);
        setup_s.push(t0.elapsed().as_secs_f64());
        let done = setup_s.len();
        if done >= max_setups || (done >= min_setups && setup_s.iter().sum::<f64>() >= 1.0) {
            break w;
        }
    };

    // Repetitions for `seconds`. Untraced ones are the only source of
    // end-to-end metrics; when tracing, every other repetition runs under the
    // recorder, so drift on a shared box hits both kinds alike.
    let rec = Recorder::new(if cfg.trace { 1 << 19 } else { 0 });
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<TimedRep>, Vec<TimedRep>) = (Vec::new(), Vec::new());
    loop {
        let enough = plain.len() >= MIN_REPS && (!cfg.trace || !traced.is_empty());
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let rep = (plain.len() + traced.len()) as u32;
        let trace_this = cfg.trace && rep % 2 == 1;
        rec.set_enabled(trace_this);
        let done = timed_rep(&mut w, &rec, rep);
        if trace_this { &mut traced } else { &mut plain }.push(done);
    }

    let mut failures: Vec<String> = Vec::new();
    let first = &plain[0].outcome;
    for (i, r) in plain.iter().enumerate() {
        failures.extend(r.outcome.failures.iter().map(|f| format!("rep {i}: {f}")));
        if r.outcome.fingerprint != first.fingerprint {
            failures.push(format!(
                "rep {i}: fingerprint {:016x} differs from rep 0's {:016x} (same seed must give the same bytes)",
                r.outcome.fingerprint, first.fingerprint
            ));
        }
    }
    let attempted: u64 = plain.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = plain.iter().map(|r| r.outcome.failed).sum();
    // The reference box alternates, in phases of seconds to half a minute,
    // between two speeds a third apart (it shares its core with a neighbour),
    // and is at the slower one about three quarters of the time. The median
    // repetition flips to the fast level whenever a run catches mostly fast
    // phases; the slow quartile reads the slow level unless three quarters of
    // the run were fast. A change to the code moves both levels alike.
    let rep_wall_s: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let wall = quartiles(&rep_wall_s).2;
    let cpu = quartiles(&plain.iter().map(|r| r.cpu_s).collect::<Vec<_>>()).2;
    let work_per_s =
        quartiles(&plain.iter().map(|r| r.outcome.work / r.outcome.work_s).collect::<Vec<_>>()).0;

    let mut notes = Vec::new();
    let mut drift = 0.0;
    if cfg.seed == GOLDEN_SEED && !smoke {
        if cfg.update_golden {
            notes.push(write_golden::<W>(first));
        } else {
            let diff = golden_diff(W::GOLDEN, first);
            if !diff.is_empty() {
                drift = 1.0;
                notes.push(format!("golden drift vs benchmark/golden/{}-seed7.json:", W::NAME));
                notes.extend(diff);
            }
        }
    }

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if !cfg.trace {
        let values =
            [median(&setup_s), wall, cpu, sys::peak_rss_mb().unwrap_or(f64::NAN), work_per_s];
        for (&(name, unit, _), value) in spec::END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    } else {
        // The direct probes, recorded as one more repetition.
        let probe_rep = (plain.len() + traced.len()) as u32;
        rec.set_enabled(true);
        rec.set_rep(probe_rep);
        let mut layer: Named = Vec::new();
        w.probes(&rec, &mut layer);
        rec.set_enabled(false);

        let spans = rec.spans();
        let own = self_times_ns(&spans);
        let mut per_rep: Vec<Named> = Vec::new();
        let mut attributed = Vec::new();
        for (i, r) in traced.iter().enumerate() {
            if r.outcome.fingerprint != first.fingerprint {
                failures.push(format!("traced rep {i}: tracing changed the outputs"));
            }
            let view = RepView::new(&spans, &own, r.rep);
            let mut named = r.outcome.facts.clone();
            w.layer_metrics(&view, &r.outcome, &mut named);
            per_rep.push(named);
            // Time under the benchmark's own spans is its bookkeeping, not a layer's.
            let own_s = view.layer_self_s().get("benchmark").copied().unwrap_or(0.0);
            attributed.push(100.0 * (1.0 - own_s / view.total_s("benchmark.rep")));
        }
        for &(name, _) in &per_rep[0] {
            let values: Vec<f64> = per_rep
                .iter()
                .filter_map(|rep| rep.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            layer.push((name, median(&values)));
        }
        // Median against median: the overhead of tracing, not of a slow phase.
        let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let plain_wall = median(&rep_wall_s);
        layer.push((
            "benchmark.trace_overhead_pct",
            100.0 * (traced_wall - plain_wall) / plain_wall,
        ));
        layer.push(("benchmark.attributed_pct", median(&attributed)));
        layer.push(("benchmark.failed_frac", failed as f64 / attempted.max(1) as f64));
        layer.push(("benchmark.reps", traced.len() as f64));
        layer.push(("sim.world.stats_drift", drift));

        for (name, _) in &layer {
            assert!(
                spec::PER_LAYER.iter().any(|m| m.0 == *name),
                "`{name}` is reported but not listed in spec::PER_LAYER"
            );
        }
        for &(name, unit, _) in &spec::PER_LAYER {
            // A layer the workload does not touch reads 0.
            let value = layer.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            metrics.push((name, value, unit));
        }

        let last = RepView::new(&spans, &own, traced.last().expect("one traced repetition").rep);
        let root = last.total_s("benchmark.rep");
        notes.push(format!("self time by layer, last traced repetition ({root:.3} s):"));
        for (layer, s) in last.layer_self_s() {
            notes.push(format!("  {layer:<24} {s:>9.4} s {:>6.2} %", 100.0 * s / root));
        }
    }

    let report = RunReport {
        workload: W::NAME,
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        failures,
        rep_wall_s,
        fingerprint: first.fingerprint,
        notes,
    };
    (report, rec)
}

/// The golden form of a repetition: every fact plus the fingerprint.
fn golden_value(outcome: &RepOutcome) -> Value {
    let mut pairs: Vec<(String, Value)> =
        outcome.facts.iter().map(|&(n, v)| (n.to_string(), Value::from(v))).collect();
    pairs.push(("fingerprint".into(), Value::from(format!("{:016x}", outcome.fingerprint))));
    Value::Obj(pairs)
}

/// Lines describing every golden entry this repetition does not reproduce
/// exactly. Golden entries the benchmark no longer reports count as drift too.
fn golden_diff(golden: &str, outcome: &RepOutcome) -> Vec<String> {
    let want = match parse(golden) {
        Ok(v) => v,
        Err(e) => return vec![format!("  golden file does not parse: {e}")],
    };
    let got = golden_value(outcome);
    want.as_object()
        .unwrap_or_default()
        .iter()
        .filter(|(key, value)| got.get(key) != Some(value))
        .map(|(key, value)| {
            let now = got.get(key).map_or("nothing".to_string(), Value::encode);
            format!("  {key}: golden {} now {now}", value.encode())
        })
        .collect()
}

fn write_golden<W: Workload>(outcome: &RepOutcome) -> String {
    let path = format!("benchmark/golden/{}-seed7.json", W::NAME);
    let Value::Obj(pairs) = golden_value(outcome) else { unreachable!("golden is an object") };
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("  {}: {}", Value::from(k.as_str()).encode(), v.encode()))
        .collect();
    let text = format!("{{\n{}\n}}\n", body.join(",\n"));
    match std::fs::write(&path, text) {
        Ok(()) => format!("golden file {path} rewritten; rebuild to compare against it"),
        Err(e) => format!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RepOutcome {
        RepOutcome {
            fingerprint: 0xabc,
            facts: vec![("sim.world.events", 12.0), ("orchestrator.slo_violation_frac", 0.25)],
            ..Default::default()
        }
    }

    #[test]
    fn golden_diff_is_empty_only_for_identical_statistics() {
        let golden = golden_value(&outcome()).encode();
        assert!(golden_diff(&golden, &outcome()).is_empty());

        let mut moved = outcome();
        moved.facts[0].1 = 13.0;
        moved.fingerprint = 0xabd;
        let diff = golden_diff(&golden, &moved);
        assert_eq!(diff.len(), 2, "{diff:?}");
        assert!(diff[0].contains("sim.world.events: golden 12 now 13"));
        assert!(diff[1].contains("fingerprint"));

        let mut dropped = outcome();
        dropped.facts.pop();
        assert_eq!(golden_diff(&golden, &dropped).len(), 1, "a vanished statistic is drift");
        assert_eq!(golden_diff("not json", &outcome()).len(), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            workload: "w",
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("wall_s", 1.25, "s")],
            failures: vec![],
            rep_wall_s: vec![1.25, 1.25],
            fingerprint: 1,
            notes: vec![],
        };
        assert_eq!(
            report.result_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn failed_checks_are_collected() {
        let mut o = RepOutcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "bounds crossed".into());
        assert_eq!(o.failures, ["bounds crossed"]);
    }
}
