//! Graceful degradation for the control loop: a health-gated policy ladder.
//!
//! The paper's controller assumes clean inputs — complete traces, fresh
//! finite metrics, a cluster that starts instances when asked. Production
//! telemetry breaks all three (and `graf-chaos` reproduces the breakage), so
//! [`ResilientController`] wraps [`GrafController`] with the degradation
//! ladder related systems make explicit (LSRAM's lightweight fallback
//! allocator, §3.7's anomaly handling):
//!
//! 1. **Full** — the complete GRAF solve on fresh, finite rate signals.
//! 2. **LastGood** — rate signals are NaN or stale: re-apply the most recent
//!    healthy plan, as long as it is younger than a bounded age.
//! 3. **Fallback** — no sufficiently recent plan: threshold scaling on
//!    per-service CPU utilization (the Kubernetes HPA baseline), a
//!    cluster-local signal that survives front-end telemetry outages.
//! 4. **Freeze** — nothing trustworthy at all: hold the current allocation.
//!
//! Demotion is immediate; promotion back toward **Full** requires
//! `RECOVERY_TICKS` (2) consecutive healthy ticks (hysteresis), so a flapping
//! signal cannot make the controller oscillate between policies.
//!
//! Trace gaps are handled *inside* Full rather than by demotion: the
//! workload analyzer is refreshed from live traces each tick, and API rows
//! whose trace coverage collapsed keep their last-known-good multiplicities
//! ([`WorkloadAnalyzer::fold_refit`]) — per-service workload estimates
//! interpolate across the gap instead of shrinking toward zero.
//!
//! Every policy transition is counted, and every tick's decision is one
//! `graf.resilient.tick` point through `graf-obs`: what the tick saw (rates,
//! signal age, coverage, analyzer rows held by interpolation, health flags),
//! the rung it chose, and what it applied (desired counts and deltas). A
//! Full tick's solver statistics sit on the `graf.controller.tick` span
//! recorded through the same handle at the same simulated time.

use std::collections::VecDeque;

use graf_chaos::{ChaosEngine, ChaosSchedule};
use graf_obs::Obs;
use graf_orchestrator::{Autoscaler, Cluster, HpaConfig, KubernetesHpa};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::ServiceId;
use graf_trace::Trace;

use crate::analyzer::WorkloadAnalyzer;
use crate::controller::GrafController;

/// Consecutive healthy ticks required before promoting back to Full.
const RECOVERY_TICKS: u32 = 2;
/// Per-API trace coverage below this marks a trace gap: the analyzer holds
/// last-known-good multiplicities, and [`PolicyMode::FreezeOnFault`] freezes.
const COVERAGE_FLOOR: f64 = 0.7;
/// Minimum traces of an API drained in one tick before its coverage estimate
/// is updated (fewer is no evidence either way).
const MIN_COVERAGE_TRACES: usize = 5;
/// Rolling live-trace buffer the analyzer refit uses.
const REFIT_BUFFER: usize = 512;
/// Minimum buffered traces before any refit is attempted.
const REFIT_MIN_TRACES: usize = 50;

/// The rung of the degradation ladder a tick executed at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyLevel {
    /// Full GRAF solve on fresh inputs.
    Full,
    /// Re-apply the last healthy plan (bounded age).
    LastGood,
    /// Threshold/HPA scaling on cluster-local utilization.
    Fallback,
    /// Hold the current allocation.
    Freeze,
}

impl PolicyLevel {
    /// Stable lowercase name, for metric labels and tables.
    pub fn name(self) -> &'static str {
        match self {
            PolicyLevel::Full => "full",
            PolicyLevel::LastGood => "last_good",
            PolicyLevel::Fallback => "fallback",
            PolicyLevel::Freeze => "freeze",
        }
    }

    /// Ladder depth: 0 (Full) … 3 (Freeze). Higher is more degraded.
    pub fn severity(self) -> u8 {
        match self {
            PolicyLevel::Full => 0,
            PolicyLevel::LastGood => 1,
            PolicyLevel::Fallback => 2,
            PolicyLevel::Freeze => 3,
        }
    }
}

/// How the wrapper reacts to unhealthy inputs — the axis the `chaos_matrix`
/// bench compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyMode {
    /// The graded ladder described at the module level.
    Ladder,
    /// The naive strawman: freeze on *any* unhealthy signal (bad rates,
    /// collapsed trace coverage, a creation shortfall) and do nothing until
    /// every signal recovers. This is what an operator gets from "halt
    /// automation on anomaly" alerting rules.
    FreezeOnFault,
}

/// Configuration of the degradation ladder.
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// Maximum age of a plan that [`PolicyLevel::LastGood`] may re-apply.
    pub max_plan_age: SimDuration,
    /// Rate readings older than this count as stale (unhealthy).
    pub max_signal_age: SimDuration,
    /// Ladder or the freeze-on-fault strawman.
    pub mode: PolicyMode,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        Self {
            max_plan_age: SimDuration::from_secs(60.0),
            max_signal_age: SimDuration::from_secs(20.0),
            mode: PolicyMode::Ladder,
        }
    }
}

/// [`GrafController`] wrapped in the health-gated degradation ladder.
///
/// Implements [`Autoscaler`], so it drops into every experiment driver the
/// plain controller does. Without an armed chaos engine and with healthy
/// inputs it plans exactly like the inner controller (modulo the live
/// analyzer refresh, which adopts multiplicities statistically identical to
/// the offline fit when traces are complete).
pub struct ResilientController {
    inner: GrafController,
    cfg: ResilientConfig,
    chaos: Option<ChaosEngine>,
    /// Scrape history `(time, rates)` for staleness/snapshot faults.
    history: VecDeque<(SimTime, Vec<f64>)>,
    /// Pristine offline analyzer — the coverage yardstick.
    reference: WorkloadAnalyzer,
    /// Rolling live traces feeding the analyzer refresh.
    trace_buf: VecDeque<Trace>,
    /// Per-API trace coverage estimate (1.0 = complete call graphs).
    coverage: Vec<f64>,
    /// Most recent healthy plan: `(when, instance counts)`.
    last_plan: Option<(SimTime, Vec<usize>)>,
    fallback: KubernetesHpa,
    level: PolicyLevel,
    healthy_streak: u32,
    transitions: u64,
    interpolated_rows: u64,
    obs: Obs,
    /// Tick sequence number of the `graf.resilient.tick` points.
    ticks: u64,
}

impl ResilientController {
    /// Wraps a trained controller in the degradation ladder.
    pub fn new(inner: GrafController, cfg: ResilientConfig) -> Self {
        let reference = inner.analyzer().clone();
        let napis = reference.num_apis();
        let nservices = reference.num_services();
        let fallback = KubernetesHpa::new(HpaConfig::default(), nservices);
        Self {
            inner,
            cfg,
            chaos: None,
            history: VecDeque::new(),
            reference,
            trace_buf: VecDeque::new(),
            coverage: vec![1.0; napis],
            last_plan: None,
            fallback,
            level: PolicyLevel::Full,
            healthy_streak: 0,
            transitions: 0,
            interpolated_rows: 0,
            obs: Obs::disabled(),
            ticks: 0,
        }
    }

    /// Arms the controller-side faults of a chaos schedule (metric NaN/
    /// staleness windows, stale-model snapshots). World- and cluster-side
    /// faults are armed via `Cluster::arm_chaos`.
    pub fn arm_chaos(&mut self, schedule: &ChaosSchedule) {
        self.chaos = Some(schedule.engine(graf_chaos::stream::CONTROLLER));
    }

    /// Attaches a telemetry handle: one `graf.resilient.tick` decision record
    /// per tick. Telemetry never alters any decision.
    pub fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The rung the most recent tick executed at.
    pub fn level(&self) -> PolicyLevel {
        self.level
    }

    /// Degradation transitions so far (both demotions and recoveries).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Analyzer rows held back by trace-gap interpolation so far.
    pub fn interpolated_rows(&self) -> u64 {
        self.interpolated_rows
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &GrafController {
        &self.inner
    }

    /// The latest reading taken at or before `t` (falls back to the oldest
    /// retained reading when the history does not reach back that far).
    fn reading_at(&self, t: SimTime) -> Option<(SimTime, Vec<f64>)> {
        let mut best: Option<&(SimTime, Vec<f64>)> = None;
        for entry in &self.history {
            if entry.0 <= t {
                best = Some(entry);
            } else {
                break;
            }
        }
        best.or_else(|| self.history.front()).cloned()
    }

    /// Applies the controller-side chaos faults to the freshly scraped
    /// `raw` rates; returns the reading the planner should see plus its
    /// sample time.
    fn observed(&self, now: SimTime, raw: &[f64]) -> (Vec<f64>, SimTime) {
        let Some(chaos) = &self.chaos else { return (raw.to_vec(), now) };
        if chaos.metric_nan(now) {
            return (vec![f64::NAN; raw.len()], now);
        }
        if let Some(since) = chaos.stale_model_since(now) {
            if let Some((t, r)) = self.reading_at(since) {
                return (r, t);
            }
        }
        if let Some(delay) = chaos.metric_delay(now) {
            let t = SimTime::from_micros(now.as_micros().saturating_sub(delay.as_micros()));
            if let Some((t, r)) = self.reading_at(t) {
                return (r, t);
            }
            // No reading that old exists: the scrape has nothing to serve.
            return (vec![f64::NAN; raw.len()], now);
        }
        (raw.to_vec(), now)
    }

    /// Folds this tick's finished traces into the coverage estimate and the
    /// live analyzer refresh; returns the analyzer rows the refresh held
    /// back by gap interpolation.
    fn update_traces(&mut self, drained: Vec<Trace>) -> u64 {
        let napis = self.reference.num_apis();
        if !drained.is_empty() {
            // Per-API coverage from this tick's traces: observed spans per
            // trace over the expected spans of a complete call graph.
            let mut spans = vec![0.0f64; napis];
            let mut count = vec![0usize; napis];
            for t in &drained {
                let api = t.api as usize;
                if api < napis {
                    spans[api] += t.spans.len() as f64;
                    count[api] += 1;
                }
            }
            for api in 0..napis {
                if count[api] >= MIN_COVERAGE_TRACES {
                    let expected = self.reference.expected_spans(api).max(1.0);
                    self.coverage[api] = (spans[api] / count[api] as f64 / expected).min(1.0);
                }
            }
            for t in drained {
                if self.trace_buf.len() == REFIT_BUFFER {
                    self.trace_buf.pop_front();
                }
                self.trace_buf.push_back(t);
            }
        }
        if self.trace_buf.len() < REFIT_MIN_TRACES {
            return 0;
        }
        let fresh = WorkloadAnalyzer::from_traces(
            self.trace_buf.iter(),
            napis,
            self.reference.num_services(),
            0.9,
        );
        let held =
            self.inner.analyzer_mut().fold_refit(&fresh, &self.coverage, COVERAGE_FLOOR) as u64;
        self.interpolated_rows += held;
        held
    }

    /// The rung the current health signals call for (before hysteresis).
    fn target_level(
        &self,
        now: SimTime,
        rates_finite: bool,
        fresh_ok: bool,
        cov_ok: bool,
        creation_ok: bool,
        util_available: bool,
    ) -> PolicyLevel {
        match self.cfg.mode {
            PolicyMode::FreezeOnFault => {
                if rates_finite && fresh_ok && cov_ok && creation_ok {
                    PolicyLevel::Full
                } else {
                    PolicyLevel::Freeze
                }
            }
            PolicyMode::Ladder => {
                if rates_finite && fresh_ok {
                    // Trace gaps are repaired by interpolation inside Full;
                    // creation shortfalls are retried by re-planning.
                    PolicyLevel::Full
                } else if self.last_plan.as_ref().is_some_and(|(t, _)| {
                    now.since(*t).as_micros() <= self.cfg.max_plan_age.as_micros()
                }) {
                    PolicyLevel::LastGood
                } else if util_available {
                    PolicyLevel::Fallback
                } else {
                    PolicyLevel::Freeze
                }
            }
        }
    }
}

impl Autoscaler for ResilientController {
    fn interval(&self) -> SimDuration {
        self.inner.interval()
    }

    /// # Panics
    /// If the cluster's world samples no traces: the coverage check reads
    /// them, and an untraced world would read as a total trace loss.
    fn tick(&mut self, cluster: &mut Cluster) {
        assert!(
            cluster.world().config().trace_sample > 0.0,
            "ResilientController reads trace coverage: build its world with \
             SimConfig::trace_sample > 0 (e.g. 1.0)"
        );
        let now = cluster.world().now();
        // Snapshot desired counts before acting, so the decision record can
        // report the tick's applied deltas. Only taken when someone listens.
        let desired_before: Vec<usize> = if self.obs.is_enabled() {
            cluster.deployments().iter().map(|d| d.desired).collect()
        } else {
            Vec::new()
        };

        // 1. Scrape, remember, and pass the reading through the fault engine.
        let raw = self.inner.observed_rates(cluster);
        self.history.push_back((now, raw.clone()));
        let horizon =
            now.as_micros().saturating_sub(self.cfg.max_plan_age.as_micros() + 15 * 60 * 1_000_000);
        while self.history.front().is_some_and(|(t, _)| t.as_micros() < horizon) {
            self.history.pop_front();
        }
        let (rates, sampled_at) = self.observed(now, &raw);
        let age = now.since(sampled_at);

        // 2. Trace coverage + live analyzer refresh (gap interpolation).
        let drained = cluster.world_mut().traces_mut().drain_finished();
        let interpolated_rows = self.update_traces(drained);

        // 3. Health signals.
        let rates_finite = rates.iter().all(|r| r.is_finite());
        let fresh_ok = age.as_micros() <= self.cfg.max_signal_age.as_micros();
        let cov_ok = self.coverage.iter().all(|&c| c >= COVERAGE_FLOOR);
        let creation_ok = cluster.deployments().iter().all(|d| {
            let (starting, ready, _) = cluster.world().instance_counts(d.service);
            starting + ready >= d.desired
        });
        let util_available =
            cluster.deployments().iter().any(|d| cluster.world().instance_counts(d.service).1 > 0);

        // 4. Hysteresis: demote immediately, promote only after a healthy
        //    streak.
        let target =
            self.target_level(now, rates_finite, fresh_ok, cov_ok, creation_ok, util_available);
        if target == PolicyLevel::Full {
            self.healthy_streak += 1;
        } else {
            self.healthy_streak = 0;
        }
        // Demotion (target at least as severe) applies at once; promotion
        // back toward Full waits out the recovery streak.
        let demoting = target.severity() >= self.level.severity();
        let mut next =
            if demoting || self.healthy_streak >= RECOVERY_TICKS { target } else { self.level };
        // A hysteresis hold must still respect the bounded plan age.
        if next == PolicyLevel::LastGood {
            let plan_fresh = self.last_plan.as_ref().is_some_and(|(t, _)| {
                now.since(*t).as_micros() <= self.cfg.max_plan_age.as_micros()
            });
            if !plan_fresh {
                next = if util_available { PolicyLevel::Fallback } else { PolicyLevel::Freeze };
            }
        }

        // 5. Act at the chosen rung.
        match next {
            PolicyLevel::Full => {
                let counts = self.inner.tick_with_rates(cluster, &rates);
                self.last_plan = Some((now, counts));
            }
            PolicyLevel::LastGood => {
                if let Some((_, counts)) = self.last_plan.clone() {
                    for (svc, &n) in counts.iter().enumerate() {
                        cluster.set_desired(ServiceId(svc as u16), n.max(1));
                    }
                }
            }
            PolicyLevel::Fallback => self.fallback.tick(cluster),
            PolicyLevel::Freeze => {}
        }

        // 6. The transition count and the tick's decision record — what it
        //    saw (rates, health), chose (rung) and did (desired counts and
        //    deltas). A transition is a change of `level` between
        //    consecutive records.
        if next != self.level {
            self.transitions += 1;
        }
        self.level = next;
        if self.obs.is_enabled() {
            let min_cov = self.coverage.iter().copied().fold(1.0f64, f64::min);
            let desired: Vec<f64> =
                cluster.deployments().iter().map(|d| d.desired as f64).collect();
            let deltas: Vec<f64> =
                desired.iter().zip(&desired_before).map(|(a, &b)| a - b as f64).collect();
            self.obs
                .point("graf.resilient.tick")
                .attr("tick", self.ticks)
                .attr("level", next.name())
                .attr("rates", rates)
                .attr("signal_age_s", age.as_secs_f64())
                .attr("coverage", min_cov)
                .attr("interpolated_rows", interpolated_rows)
                .attr("rates_finite", rates_finite)
                .attr("creation_ok", creation_ok)
                .attr("desired", desired)
                .attr("deltas", deltas)
                .sim_time_s(now.as_secs_f64());
        }
        self.ticks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::GrafControllerConfig;
    use crate::features::FeatureScaler;
    use crate::latency_model::{LatencyModel, NetKind, TrainConfig};
    use crate::sample_collector::{Bounds, Sample};
    use graf_chaos::FaultKind;
    use graf_obs::Value;
    use graf_orchestrator::{CreationModel, Deployment};
    use graf_sim::rng::DetRng;
    use graf_sim::topology::{ApiSpec, AppTopology, CallNode, ServiceSpec};
    use graf_sim::world::{SimConfig, World};

    fn topo2() -> AppTopology {
        AppTopology::new(
            "t2",
            vec![ServiceSpec::new("a", 1.0, 200).cv(0.0), ServiceSpec::new("b", 3.0, 200).cv(0.0)],
            vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
        )
    }

    /// A minimally trained controller — ladder logic does not depend on
    /// model quality, only on the solve being runnable.
    fn tiny_controller() -> GrafController {
        let mut rng = DetRng::new(21);
        let mut samples = Vec::new();
        for _ in 0..120 {
            let w = rng.uniform(20.0, 100.0);
            let quotas = vec![rng.uniform(150.0, 1500.0), rng.uniform(400.0, 2800.0)];
            let p99 =
                2.0 + 1200.0 / (quotas[0] - w).max(15.0) + 3600.0 / (quotas[1] - 3.0 * w).max(15.0);
            samples.push(Sample {
                api_rates: vec![w],
                workloads: vec![w, w],
                quotas_mc: quotas,
                p99_ms: p99,
            });
        }
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
        let split = ds.split(0.8, 0.1, 2);
        let mut model =
            LatencyModel::new(NetKind::Gnn, &[(0, 1)], 2, scaler, split.train.label_mean(), 5);
        model.train(&split, &TrainConfig { epochs: 6, evals: 2, ..Default::default() });
        let analyzer = WorkloadAnalyzer::from_multiplicities(vec![vec![1.0, 1.0]], vec![(0, 1)]);
        let bounds = Bounds { lower: vec![150.0, 400.0], upper: vec![1500.0, 2800.0] };
        GrafController::new(
            model,
            analyzer,
            bounds,
            GrafControllerConfig { slo_ms: 18.0, train_total_qps: 100.0, ..Default::default() },
        )
    }

    fn cluster2(seed: u64) -> Cluster {
        let world =
            World::new(topo2(), SimConfig { trace_sample: 1.0, ..SimConfig::default() }, seed);
        Cluster::new(
            world,
            vec![
                Deployment::new(graf_sim::topology::ServiceId(0), 250.0, 1),
                Deployment::new(graf_sim::topology::ServiceId(1), 250.0, 1),
            ],
            CreationModel::instant(),
        )
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn ladder_degrades_and_recovers_with_hysteresis() {
        let cfg = ResilientConfig {
            max_plan_age: SimDuration::from_secs(30.0),
            max_signal_age: SimDuration::from_secs(10.0),
            ..ResilientConfig::default()
        };
        let mut rc = ResilientController::new(tiny_controller(), cfg);
        let schedule =
            graf_chaos::ChaosSchedule::new(9).fault(FaultKind::MetricNan, t(20.0), t(60.0));
        rc.arm_chaos(&schedule);
        let mut cluster = cluster2(31);
        let mut levels = Vec::new();
        for secs in [10.0, 15.0, 25.0, 48.0, 65.0, 70.0] {
            cluster.world_mut().run_until(t(secs));
            rc.tick(&mut cluster);
            levels.push(rc.level());
        }
        assert_eq!(
            levels,
            vec![
                PolicyLevel::Full,     // healthy
                PolicyLevel::Full,     // healthy; plan recorded at 15 s
                PolicyLevel::LastGood, // NaN rates, plan age 10 s ≤ 30 s
                PolicyLevel::Fallback, // NaN rates, plan age 33 s > 30 s
                PolicyLevel::Fallback, // healthy again, but streak 1 < 2: held
                PolicyLevel::Full,     // streak 2 → recovered
            ]
        );
        assert_eq!(rc.transitions(), 3, "full→last_good→fallback→full");
    }

    #[test]
    fn freeze_mode_freezes_on_any_fault_and_ladder_stays_live() {
        let cfg = ResilientConfig { mode: PolicyMode::FreezeOnFault, ..ResilientConfig::default() };
        let mut rc = ResilientController::new(tiny_controller(), cfg);
        let schedule =
            graf_chaos::ChaosSchedule::new(9).fault(FaultKind::MetricNan, t(20.0), t(60.0));
        rc.arm_chaos(&schedule);
        let mut cluster = cluster2(31);
        cluster.world_mut().run_until(t(10.0));
        rc.tick(&mut cluster);
        assert_eq!(rc.level(), PolicyLevel::Full);
        let desired_before: Vec<usize> = cluster.deployments().iter().map(|d| d.desired).collect();
        cluster.world_mut().run_until(t(25.0));
        rc.tick(&mut cluster);
        assert_eq!(rc.level(), PolicyLevel::Freeze);
        let desired_after: Vec<usize> = cluster.deployments().iter().map(|d| d.desired).collect();
        assert_eq!(desired_before, desired_after, "freeze holds the allocation");
    }

    #[test]
    fn every_tick_logs_its_decision_through_obs() {
        let cfg = ResilientConfig {
            max_plan_age: SimDuration::from_secs(30.0),
            max_signal_age: SimDuration::from_secs(10.0),
            ..ResilientConfig::default()
        };
        let mut rc = ResilientController::new(tiny_controller(), cfg);
        let schedule =
            graf_chaos::ChaosSchedule::new(9).fault(FaultKind::MetricNan, t(20.0), t(60.0));
        rc.arm_chaos(&schedule);
        let obs = Obs::enabled();
        rc.set_obs(obs.clone());

        let mut cluster = cluster2(31);
        // Same timeline as `ladder_degrades_and_recovers_with_hysteresis` up
        // to the fallback demotion: full, full, last_good, fallback.
        for secs in [10.0, 15.0, 25.0, 48.0] {
            cluster.world_mut().run_until(t(secs));
            rc.tick(&mut cluster);
        }

        let events = obs.events();
        let attr = |e: &graf_obs::Event, key: &str| -> Value {
            e.attrs.iter().find(|(k, _)| *k == key).unwrap_or_else(|| panic!("{key}")).1.clone()
        };
        let ticks: Vec<usize> =
            (0..events.len()).filter(|&i| events[i].name == "graf.resilient.tick").collect();
        assert_eq!(ticks.len(), 4, "one record per tick");
        let levels: Vec<Value> = ticks.iter().map(|&i| attr(&events[i], "level")).collect();
        assert_eq!(levels, ["full", "full", "last_good", "fallback"].map(Value::from));
        for (n, &i) in ticks.iter().enumerate() {
            let point = &events[i];
            assert_eq!(attr(point, "tick"), Value::U64(n as u64), "ticks are sequenced");
            for key in ["desired", "deltas"] {
                assert!(matches!(attr(point, key), Value::List(v) if v.len() == 2), "{key}");
            }
            // The Full rung's solver stats are on the controller span just
            // before the point, at the same simulated time; no other rung
            // records one.
            let solved = i.checked_sub(1).map(|j| &events[j]).is_some_and(|span| {
                span.name == "graf.controller.tick"
                    && matches!(span.kind, graf_obs::EventKind::Span { .. })
                    && span.sim_s == point.sim_s
            });
            assert_eq!(solved, attr(point, "level") == Value::from("full"), "tick {n}");
        }
        let nan_tick = &events[ticks[2]];
        assert_eq!(attr(nan_tick, "rates_finite"), Value::Bool(false), "the NaN fault is visible");
        assert!(matches!(attr(nan_tick, "rates"), Value::List(r) if r.iter().all(|x| x.is_nan())));
    }

    #[test]
    fn telemetry_does_not_perturb_decisions() {
        let run = |instrument: bool| -> (Vec<usize>, Vec<PolicyLevel>) {
            let cfg = ResilientConfig {
                max_plan_age: SimDuration::from_secs(30.0),
                max_signal_age: SimDuration::from_secs(10.0),
                ..ResilientConfig::default()
            };
            let mut rc = ResilientController::new(tiny_controller(), cfg);
            let schedule =
                graf_chaos::ChaosSchedule::new(9).fault(FaultKind::MetricNan, t(20.0), t(60.0));
            rc.arm_chaos(&schedule);
            if instrument {
                rc.set_obs(Obs::enabled());
            }
            let mut cluster = cluster2(31);
            let mut levels = Vec::new();
            for secs in [10.0, 15.0, 25.0, 48.0, 65.0, 70.0] {
                cluster.world_mut().run_until(t(secs));
                rc.tick(&mut cluster);
                levels.push(rc.level());
            }
            (cluster.deployments().iter().map(|d| d.desired).collect(), levels)
        };
        let plain = run(false);
        let observed = run(true);
        assert_eq!(plain.0, observed.0, "final plans are bit-identical");
        assert_eq!(plain.1, observed.1, "ladder trajectory is bit-identical");
    }

    #[test]
    #[should_panic(expected = "SimConfig::trace_sample")]
    fn an_untraced_world_is_refused() {
        let mut rc = ResilientController::new(tiny_controller(), ResilientConfig::default());
        let world = World::new(topo2(), SimConfig::default(), 31);
        let mut cluster = Cluster::uniform(world, 250.0, 1);
        rc.tick(&mut cluster);
    }

    #[test]
    fn healthy_ticks_match_inner_controller_exactly() {
        let mut rc = ResilientController::new(tiny_controller(), ResilientConfig::default());
        let mut plain = tiny_controller();
        let mut ca = cluster2(31);
        let mut cb = cluster2(31);
        for secs in [10.0, 25.0, 40.0] {
            ca.world_mut().run_until(t(secs));
            cb.world_mut().run_until(t(secs));
            rc.tick(&mut ca);
            plain.tick(&mut cb);
        }
        assert_eq!(rc.level(), PolicyLevel::Full);
        assert_eq!(rc.transitions(), 0);
        let da: Vec<usize> = ca.deployments().iter().map(|d| d.desired).collect();
        let db: Vec<usize> = cb.deployments().iter().map(|d| d.desired).collect();
        assert_eq!(da, db, "no chaos, healthy signals → identical plans");
    }
}
