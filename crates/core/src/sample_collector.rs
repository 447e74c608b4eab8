//! The state-aware sample collector (§3.7) and Algorithm 1.
//!
//! Training the latency prediction model needs `(workload, quotas) → p99`
//! samples. Exploring every quota combination is hopeless (the paper reports
//! a 0.00027× search-space reduction for Online Boutique), so Algorithm 1
//! first bounds each service's useful quota range:
//!
//! * the **upper bound** is where extra CPU stops reducing the service's own
//!   tail latency (per-job rate caps and base latency put a floor under it),
//! * the **lower bound** is where the *single service's* latency alone would
//!   already violate the end-to-end latency SLO.
//!
//! Samples are then drawn uniformly inside the box and measured by running
//! the simulated application — each sample applies a configuration, offers
//! load, lets the system settle, and reads the p99 over a 10-second window,
//! mirroring the paper's apply → load → measure → flush cycle. Probes are
//! independent, so Algorithm 1's baseline pair and per-service scans, and then
//! the samples, fan out over `SamplingConfig::threads` workers (the paper's
//! "sample collection can be processed in parallel"). A probe's seed depends
//! only on its position (`seed ^ (i << 8) ^ step` in service `i`'s scan, a
//! per-index fork for a sample), no probe reads another chain's result, and
//! results are assembled in index order after the join: bounds, samples and
//! telemetry are bit-identical for every thread count.

use graf_metrics::Summary;
use graf_sim::par::fan_out;
use graf_sim::rng::DetRng;
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, AppTopology, ServiceId};
use graf_sim::world::{SimConfig, World};
use graf_trace::Trace;

use crate::analyzer::WorkloadAnalyzer;

/// Quota floor of Algorithm 1's search space, millicores.
pub const MIN_QUOTA_MC: f64 = 50.0;
/// Geometric quota-reduction factor per Algorithm-1 step.
const REDUCE_FACTOR: f64 = 0.85;
/// The upper bound triggers when a service's p90 exceeds its baseline × this
/// (plus a small absolute slack to absorb sub-millisecond noise).
const UPPER_TOLERANCE: f64 = 1.10;
/// Tail percentile a measurement records (paper: p99).
const PERCENTILE: f64 = 0.99;

/// Sampling and Algorithm-1 configuration.
#[derive(Clone, Debug)]
pub struct SamplingConfig {
    /// End-to-end latency SLO in ms (Algorithm 1's lower-bound criterion).
    pub slo_ms: f64,
    /// Representative per-API probe rates (req/s) for bound search; samples
    /// scale these by a random factor in `workload_range`.
    pub probe_qps: Vec<f64>,
    /// Random per-sample workload multiplier range.
    pub workload_range: (f64, f64),
    /// "Sufficient CPU" for Algorithm 1's initialization, millicores.
    pub abundant_quota_mc: f64,
    /// Instance CPU unit (quotas are deployed as `ceil(q/unit)` instances).
    pub cpu_unit_mc: f64,
    /// Measurement window, seconds (paper: 10 s).
    pub measure_secs: f64,
    /// Settle time before the window, seconds (paper's 5 s flush analog).
    pub warmup_secs: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for the Algorithm-1 bound search and for sample
    /// collection; results are bit-identical for every value.
    pub threads: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            slo_ms: 100.0,
            probe_qps: vec![50.0],
            workload_range: (0.3, 1.3),
            abundant_quota_mc: 4000.0,
            cpu_unit_mc: 500.0,
            measure_secs: 10.0,
            warmup_secs: 5.0,
            seed: 1,
            threads: 4,
        }
    }
}

/// Per-service quota bounds from Algorithm 1, millicores.
#[derive(Clone, Debug, PartialEq)]
pub struct Bounds {
    /// Lower bound `L_i`.
    pub lower: Vec<f64>,
    /// Upper bound `H_i`.
    pub upper: Vec<f64>,
}

impl Bounds {
    /// Box volume ratio versus the original `[min, abundant]^n` search space
    /// (the §5.1 "0.00027× reduced search space" statistic).
    pub fn volume_reduction(&self, min_mc: f64, abundant_mc: f64) -> f64 {
        let mut ratio = 1.0;
        for (l, h) in self.lower.iter().zip(&self.upper) {
            ratio *= ((h - l) / (abundant_mc - min_mc)).clamp(0.0, 1.0);
        }
        ratio
    }
}

/// One collected training sample.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Offered per-API rates (req/s).
    pub api_rates: Vec<f64>,
    /// Per-service workloads derived by the analyzer (req/s).
    pub workloads: Vec<f64>,
    /// Applied per-service quotas, millicores.
    pub quotas_mc: Vec<f64>,
    /// Measured end-to-end tail latency, milliseconds.
    pub p99_ms: f64,
}

/// Result of one measurement run.
#[derive(Clone, Debug)]
pub struct MeasureOutcome {
    /// End-to-end tail latency over the window, ms (None if nothing completed).
    pub e2e_tail_ms: Option<f64>,
    /// Per-service tail latency (p99) over the window, ms.
    pub service_tail_ms: Vec<Option<f64>>,
    /// Per-service p90 over the window, ms (steadier signal for Algorithm 1).
    pub service_p90_ms: Vec<Option<f64>>,
    /// Requests completed inside the window.
    pub completed: usize,
}

/// Collects training data from a simulated application.
#[derive(Clone)]
pub struct SampleCollector {
    topo: AppTopology,
    cfg: SamplingConfig,
    obs: graf_obs::Obs,
}

impl SampleCollector {
    /// Creates a collector.
    ///
    /// # Panics
    /// Panics unless `probe_qps` has one rate per API of the topology.
    pub fn new(topo: AppTopology, cfg: SamplingConfig) -> Self {
        assert_eq!(cfg.probe_qps.len(), topo.num_apis(), "probe_qps must have one rate per API");
        Self { topo, cfg, obs: graf_obs::Obs::disabled() }
    }

    /// Attaches a telemetry handle: the Algorithm-1 bound search and the
    /// sample fan-out report progress through it.
    pub fn with_obs(mut self, obs: graf_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The sampling configuration.
    pub fn config(&self) -> &SamplingConfig {
        &self.cfg
    }

    /// Runs one measurement: deploy `quotas`, offer `rates`, measure the tail
    /// over the configured window. Optionally returns the traces.
    pub fn measure(
        &self,
        quotas_mc: &[f64],
        rates: &[f64],
        seed: u64,
        keep_traces: bool,
    ) -> (MeasureOutcome, Vec<Trace>) {
        measure_run(&self.topo, quotas_mc, rates, &self.cfg, seed, keep_traces)
    }

    /// Profiles the application: runs it well-provisioned under the probe
    /// workload with full tracing and fits the workload analyzer (§3.3).
    pub fn profile(&self) -> WorkloadAnalyzer {
        let abundant = vec![self.cfg.abundant_quota_mc; self.topo.num_services()];
        let (_, traces) = self.measure(&abundant, &self.cfg.probe_qps.clone(), self.cfg.seed, true);
        WorkloadAnalyzer::from_traces(&traces, self.topo.num_apis(), self.topo.num_services(), 0.9)
    }

    /// Algorithm 1: per-service quota bounds.
    ///
    /// p99 over a short window is noisy, so the raw algorithm is robustified
    /// in two ways that preserve its semantics: the upper-bound knee is
    /// detected on the steadier p90 of the *service's own* latency, and both
    /// bounds require **two consecutive** violating steps before triggering
    /// (a single noisy window cannot set a bound).
    pub fn reduce_search_space(&self) -> Bounds {
        let mut span = self.obs.span("graf.sample.bounds");
        let n = self.topo.num_services();
        let abundant = vec![self.cfg.abundant_quota_mc; n];
        // Bounds must support the most demanding workload the sampler will
        // offer, so the scan runs at the top of the workload range.
        let rates: Vec<f64> =
            self.cfg.probe_qps.iter().map(|q| q * self.cfg.workload_range.1).collect();
        // Baseline per-service latency with sufficient CPU everywhere,
        // averaged over two runs to tame tail noise.
        let baselines = fan_out(2, self.cfg.threads, |run| {
            self.measure(&abundant, &rates, self.cfg.seed ^ [0xA1, 0xB2][run], false).0
        });
        let baseline90 = |i: usize| {
            let p90 = |run: &MeasureOutcome| run.service_p90_ms[i].unwrap_or(self.cfg.slo_ms);
            0.5 * (p90(&baselines[0]) + p90(&baselines[1]))
        };
        let scans = fan_out(n, self.cfg.threads, |i| self.scan_service(i, &rates, baseline90(i)));

        let bounds = Bounds {
            lower: scans.iter().map(|s| s.0).collect(),
            upper: scans.iter().map(|s| s.1).collect(),
        };
        for (i, &(lower_mc, upper_mc, _)) in scans.iter().enumerate() {
            self.obs
                .point("graf.sample.bound")
                .attr("service", i)
                .attr("lower_mc", lower_mc)
                .attr("upper_mc", upper_mc);
        }
        if span.is_recording() {
            let probes = 2 + scans.iter().map(|s| s.2).sum::<u64>(); // 2 baseline runs
            span.attr("probes", probes).attr("services", n).attr(
                "volume_reduction",
                bounds.volume_reduction(MIN_QUOTA_MC, self.cfg.abundant_quota_mc),
            );
        }
        bounds
    }

    /// Service `i`'s downward scan: `(lower_i, upper_i, probes)`. It reads only
    /// its own probes and its baseline p90, so scans can run in any order.
    fn scan_service(&self, i: usize, rates: &[f64], baseline90: f64) -> (f64, f64, u64) {
        // (quota, p90, p99) of service i at every step of the ladder.
        let mut scan: Vec<(f64, f64, f64)> = Vec::new();
        let mut quotas = vec![self.cfg.abundant_quota_mc; self.topo.num_services()];
        let mut q = self.cfg.abundant_quota_mc;
        let mut step = 0u64;
        let mut slo_violations = 0;
        while q > MIN_QUOTA_MC {
            q = (q * REDUCE_FACTOR).max(MIN_QUOTA_MC);
            quotas[i] = q;
            step += 1;
            let (out, _) =
                self.measure(&quotas, rates, self.cfg.seed ^ ((i as u64) << 8) ^ step, false);
            let p90 = out.service_p90_ms[i].unwrap_or(f64::INFINITY);
            let p99 = out.service_tail_ms[i].unwrap_or(f64::INFINITY);
            scan.push((q, p90, p99));
            // Stop early once the SLO violation is confirmed twice.
            slo_violations = if p99 > self.cfg.slo_ms { slo_violations + 1 } else { 0 };
            if slo_violations >= 2 {
                break;
            }
        }
        // Upper bound: quota preceding the first two consecutive steps
        // whose p90 exceeds baseline × tolerance.
        let degraded = |&(_, p90, _): &(f64, f64, f64)| p90 > baseline90 * UPPER_TOLERANCE + 0.3;
        let mut upper_i = scan.last().map_or(self.cfg.abundant_quota_mc, |s| s.0);
        for w in 0..scan.len() {
            if degraded(&scan[w]) && scan.get(w + 1).is_none_or(degraded) {
                upper_i = if w == 0 { self.cfg.abundant_quota_mc } else { scan[w - 1].0 };
                break;
            }
        }
        // Lower bound: first of two consecutive steps whose own p99
        // already violates the end-to-end SLO.
        let violates = |&(_, _, p99): &(f64, f64, f64)| p99 > self.cfg.slo_ms;
        let mut lower_i = MIN_QUOTA_MC;
        for w in 0..scan.len() {
            if violates(&scan[w]) && scan.get(w + 1).is_some_and(violates) {
                lower_i = scan[w].0;
                break;
            }
        }
        let upper_i = upper_i.max(lower_i);
        (lower_i.min(upper_i), upper_i, scan.len() as u64)
    }

    /// Collects `n` samples inside `bounds`, fanning out over worker threads.
    /// `analyzer` converts offered rates into per-service workload features.
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall clock is read only while the span records, and only into telemetry"
    )]
    pub fn collect(&self, bounds: &Bounds, analyzer: &WorkloadAnalyzer, n: usize) -> Vec<Sample> {
        let mut span = self.obs.span("graf.sample.collect");
        let start = span.is_recording().then(std::time::Instant::now);
        let samples: Vec<Sample> =
            fan_out(n, self.cfg.threads, |idx| self.collect_one(bounds, analyzer, idx))
                .into_iter()
                .flatten()
                .collect();
        if span.is_recording() {
            let secs = start.map_or(0.0, |t| t.elapsed().as_secs_f64());
            span.attr("requested", n).attr("collected", samples.len()).attr(
                "samples_per_sec",
                if secs > 0.0 { samples.len() as f64 / secs } else { 0.0 },
            );
        }
        samples
    }

    /// The deterministic per-sample draw: offered rates and quotas for
    /// sample `idx`, independent of thread interleaving.
    fn sample_params(&self, bounds: &Bounds, idx: usize) -> (Vec<f64>, Vec<f64>) {
        let mut rng = DetRng::new(self.cfg.seed ^ 0x5A17).fork(idx as u64);
        let (wlo, whi) = self.cfg.workload_range;
        let mult = rng.uniform(wlo, whi);
        let rates: Vec<f64> = self.cfg.probe_qps.iter().map(|q| q * mult).collect();
        let quotas: Vec<f64> = bounds
            .lower
            .iter()
            .zip(&bounds.upper)
            .map(|(&l, &h)| rng.uniform(l, h.max(l + 1e-9)))
            .collect();
        (rates, quotas)
    }

    fn collect_one(
        &self,
        bounds: &Bounds,
        analyzer: &WorkloadAnalyzer,
        idx: usize,
    ) -> Option<Sample> {
        let (rates, quotas) = self.sample_params(bounds, idx);
        let (out, _) = measure_run(
            &self.topo,
            &quotas,
            &rates,
            &self.cfg,
            self.cfg.seed ^ 0xC011EC7 ^ (idx as u64) << 1,
            false,
        );
        let p99_ms = out.e2e_tail_ms?;
        let workloads = analyzer.service_workloads(&rates);
        Some(Sample { api_rates: rates, workloads, quotas_mc: quotas, p99_ms })
    }
}

/// Runs one deploy → load → measure cycle in a fresh world.
fn measure_run(
    topo: &AppTopology,
    quotas_mc: &[f64],
    rates: &[f64],
    cfg: &SamplingConfig,
    seed: u64,
    keep_traces: bool,
) -> (MeasureOutcome, Vec<Trace>) {
    assert_eq!(quotas_mc.len(), topo.num_services(), "one quota per service");
    assert_eq!(rates.len(), topo.num_apis(), "one rate per API");
    let sim_cfg =
        SimConfig { trace_sample: if keep_traces { 1.0 } else { 0.0 }, ..SimConfig::default() };
    let mut world = World::new(topo.clone(), sim_cfg, seed);
    for (s, &q) in quotas_mc.iter().enumerate() {
        let replicas = (q / cfg.cpu_unit_mc).ceil().max(1.0) as usize;
        world.add_instances(ServiceId(s as u16), replicas, q / replicas as f64, SimTime::ZERO);
    }
    let total = SimTime::from_secs(cfg.warmup_secs + cfg.measure_secs);
    let mut gen = DetRng::new(seed ^ 0x10AD);
    for (api, &rate) in rates.iter().enumerate() {
        if rate <= 0.0 {
            continue;
        }
        // Poisson arrivals over the whole run.
        let mut t = 0.0f64;
        loop {
            t += gen.exp(1e6 / rate);
            if t >= total.as_micros() as f64 {
                break;
            }
            world.inject(ApiId(api as u16), SimTime(t as u64));
        }
    }
    world.run_until(total);
    let win_start = SimTime::from_secs(cfg.warmup_secs);
    let mut e2e = Summary::new();
    let mut completed = 0usize;
    for c in world.drain_completions() {
        if c.end >= win_start {
            e2e.record(c.latency_us() as f64 / 1000.0);
            completed += 1;
        }
    }
    let k = cfg.measure_secs.ceil() as usize;
    let svc_pct = |q: f64| -> Vec<Option<f64>> {
        (0..topo.num_services())
            .map(|s| world.service_percentile(ServiceId(s as u16), k, q).map(|d| d.as_millis_f64()))
            .collect()
    };
    let outcome = MeasureOutcome {
        e2e_tail_ms: e2e.percentile(PERCENTILE),
        service_tail_ms: svc_pct(PERCENTILE),
        service_p90_ms: svc_pct(0.90),
        completed,
    };
    let traces = world.traces_mut().drain_finished();
    (outcome, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_sim::topology::{ApiSpec, CallNode, ServiceSpec};

    fn chain2() -> AppTopology {
        AppTopology::new(
            "chain2",
            vec![ServiceSpec::new("a", 1.0, 300), ServiceSpec::new("b", 3.0, 300)],
            vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
        )
    }

    fn fast_cfg() -> SamplingConfig {
        SamplingConfig {
            probe_qps: vec![40.0],
            measure_secs: 4.0,
            warmup_secs: 2.0,
            abundant_quota_mc: 3000.0,
            threads: 4,
            ..SamplingConfig::default()
        }
    }

    #[test]
    fn measurement_reports_tails() {
        let c = SampleCollector::new(chain2(), fast_cfg());
        let (out, traces) = c.measure(&[2000.0, 2000.0], &[40.0], 7, true);
        assert!(out.completed > 100, "completed {}", out.completed);
        let p99 = out.e2e_tail_ms.unwrap();
        assert!(p99 > 4.0 && p99 < 100.0, "p99 {p99}");
        assert!(!traces.is_empty());
        assert!(out.service_tail_ms.iter().all(Option::is_some));
    }

    #[test]
    fn profile_learns_the_call_graph() {
        let c = SampleCollector::new(chain2(), fast_cfg());
        let analyzer = c.profile();
        assert_eq!(analyzer.edges(), &[(0, 1)]);
        let l = analyzer.service_workloads(&[10.0]);
        assert_eq!(l, vec![10.0, 10.0]);
    }

    #[test]
    fn algorithm1_bounds_are_ordered_and_tight() {
        let c = SampleCollector::new(chain2(), fast_cfg());
        let b = c.reduce_search_space();
        for i in 0..2 {
            assert!(b.lower[i] >= MIN_QUOTA_MC);
            assert!(b.upper[i] <= c.config().abundant_quota_mc);
            assert!(b.lower[i] <= b.upper[i], "bounds ordered for service {i}");
        }
        // Service b (3 core·ms at 40 qps = 120 mc offered) needs more CPU
        // than a (40 mc offered): its lower bound must be higher.
        assert!(b.lower[1] > b.lower[0], "heavier service has higher floor: {b:?}");
        // The reduced box is a genuine reduction.
        let reduction = b.volume_reduction(MIN_QUOTA_MC, c.config().abundant_quota_mc);
        assert!(reduction < 0.5, "volume reduced: {reduction}");
    }

    /// The bound search reports the same telemetry (event names and
    /// attributes in record order, and the probe counter) whatever the
    /// worker count, and counts what the serial loop at commit `e8f8f79`
    /// counted on this set-up: 41 probes (2 baselines + 39 scan steps).
    #[test]
    fn bound_search_telemetry_is_thread_count_invariant() {
        let record = |threads: usize| {
            let obs = graf_obs::Obs::enabled();
            SampleCollector::new(chain2(), SamplingConfig { threads, ..fast_cfg() })
                .with_obs(obs.clone())
                .reduce_search_space();
            obs.events().into_iter().map(|e| (e.name, e.attrs)).collect::<Vec<_>>()
        };
        let events = record(1);
        assert_eq!(record(4), events);
        let names: Vec<&str> = events.iter().map(|e| e.0).collect();
        assert_eq!(names, ["graf.sample.bound", "graf.sample.bound", "graf.sample.bounds"]);
        assert_eq!(events[0].1[0], ("service", graf_obs::Value::U64(0)));
        assert_eq!(events[1].1[0], ("service", graf_obs::Value::U64(1)));
        assert_eq!(events[2].1[0], ("probes", graf_obs::Value::U64(41)));
    }

    #[test]
    fn collect_produces_deterministic_samples_in_bounds() {
        let c = SampleCollector::new(chain2(), fast_cfg());
        let analyzer = c.profile();
        let bounds = Bounds { lower: vec![200.0, 300.0], upper: vec![1500.0, 2500.0] };
        let samples = c.collect(&bounds, &analyzer, 8);
        assert_eq!(samples.len(), 8);
        for s in &samples {
            for i in 0..2 {
                assert!(s.quotas_mc[i] >= bounds.lower[i] && s.quotas_mc[i] <= bounds.upper[i]);
            }
            assert!(s.p99_ms > 0.0);
            assert_eq!(s.workloads.len(), 2);
        }
        // Thread-count independence: same samples with 1 worker.
        let mut cfg1 = fast_cfg();
        cfg1.threads = 1;
        let c1 = SampleCollector::new(chain2(), cfg1);
        let samples1 = c1.collect(&bounds, &analyzer, 8);
        for (a, b) in samples.iter().zip(&samples1) {
            assert_eq!(a.quotas_mc, b.quotas_mc);
            assert_eq!(a.p99_ms, b.p99_ms);
        }
    }

    #[test]
    fn more_workload_raises_tail_latency() {
        let c = SampleCollector::new(chain2(), fast_cfg());
        let (lo, _) = c.measure(&[600.0, 600.0], &[30.0], 3, false);
        let (hi, _) = c.measure(&[600.0, 600.0], &[150.0], 3, false);
        assert!(
            hi.e2e_tail_ms.unwrap() > lo.e2e_tail_ms.unwrap(),
            "tail grows with load: {lo:?} vs {hi:?}"
        );
    }
}
