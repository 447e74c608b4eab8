//! `boutique_closed_loop`: the loop a user of GRAF waits for, on Online
//! Boutique — profile, bound the search space, collect samples, train, plan,
//! then run a traffic surge under GRAF and the same surge under the
//! Kubernetes HPA.
//!
//! The only workload where every layer runs in the proportions a user pays
//! for; the simulator does most of it as hundreds of short-lived worlds.
//! Closed loop: Locust-style users who each wait for their reply and think
//! before the next request, so a slow system receives less load.

use std::time::Instant;

use graf_apps::online_boutique;
use graf_core::{
    Bounds, FeatureScaler, GrafController, GrafControllerConfig, LatencyModel, NetKind,
    SampleCollector, SamplingConfig, TrainConfig,
};
use graf_loadgen::{ClosedLoop, LoadGen};
use graf_orchestrator::{
    run_experiment, Autoscaler, Cluster, CreationModel, Deployment, ExperimentHooks, HpaConfig,
    KubernetesHpa,
};
use graf_sim::time::{SimDuration, SimTime};
use graf_sim::topology::{ApiId, AppTopology, ServiceId};
use graf_sim::world::{Completion, SimConfig, World};

use crate::harness::{Named, RepOutcome, Size, Workload};
use crate::probe::per_call_s;
use crate::rec::{Recorder, RepView};
use crate::stats::{median, Fnv};
use crate::sys;
use crate::workloads::gnn_train::mape_0_200;
use crate::workloads::sim_highrate::fold_completions;

/// `boutique_setup` of the figure binaries: probe rates per API, SLO, CPU unit.
const PROBE_QPS: [f64; 3] = [180.0, 180.0, 240.0];
const SLO_MS: f64 = 80.0;
const CPU_UNIT_MC: f64 = 100.0;
/// Locust mix over home / browse / cart.
const USER_MIX: [f64; 3] = [3.0, 3.0, 4.0];

struct Sizes {
    samples: usize,
    measure_secs: f64,
    warmup_secs: f64,
    epochs: usize,
    users: (usize, usize),
    surge_at_s: f64,
    end_s: f64,
}

/// The full size keeps the figure binaries' 10 s + 5 s measurement cycle and
/// 750 → 1500 user surge; sample count and surge length are scaled to fit
/// several repetitions into one run.
const FULL: Sizes = Sizes {
    samples: 200,
    measure_secs: 10.0,
    warmup_secs: 5.0,
    epochs: 60,
    users: (750, 1500),
    surge_at_s: 180.0,
    end_s: 360.0,
};
const SMOKE: Sizes = Sizes {
    samples: 24,
    measure_secs: 2.0,
    warmup_secs: 1.0,
    epochs: 4,
    users: (200, 400),
    surge_at_s: 30.0,
    end_s: 60.0,
};

/// Records a span around every call the experiment driver makes into the
/// load generator.
struct SpannedLoad<'a, L> {
    inner: L,
    rec: &'a Recorder,
}

impl<L: LoadGen> LoadGen for SpannedLoad<'_, L> {
    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, ApiId)> {
        self.rec.span("loadgen", "loadgen.closed.arrivals", |n| {
            let a = self.inner.arrivals(from, to);
            *n = a.len() as u64;
            a
        })
    }

    fn on_completions(&mut self, completions: &[Completion]) {
        self.rec.span("loadgen", "loadgen.closed.on_completions", |n| {
            *n = completions.len() as u64;
            self.inner.on_completions(completions);
        })
    }
}

/// Records a span around every autoscaler tick.
struct SpannedScaler<'a, S> {
    inner: S,
    rec: &'a Recorder,
    layer: &'static str,
    name: &'static str,
}

impl<S: Autoscaler> Autoscaler for SpannedScaler<'_, S> {
    fn interval(&self) -> SimDuration {
        self.inner.interval()
    }

    fn tick(&mut self, cluster: &mut Cluster) {
        self.rec.span(self.layer, self.name, |_| self.inner.tick(cluster))
    }
}

/// What one controlled surge produced.
struct SurgeEnd {
    injected: u64,
    timeouts: u64,
    events: u64,
    /// Requests sent after the surge instant, and those of them that missed
    /// the SLO or timed out.
    post_requests: u64,
    post_violations: u64,
    /// Mean and peak total instances over the control ticks after the surge.
    mean_instances: f64,
    peak_instances: usize,
    segments: u64,
    conserved: bool,
}

pub struct BoutiqueClosedLoop {
    topo: AppTopology,
    sizes: &'static Sizes,
    sampling: SamplingConfig,
    train: TrainConfig,
    seed: u64,
    topology_build_us: f64,
}

impl BoutiqueClosedLoop {
    fn surge<S: Autoscaler>(
        &self,
        rec: &Recorder,
        run_span: &'static str,
        scaler: S,
        tick_span: (&'static str, &'static str),
        fp: &mut Fnv,
    ) -> SurgeEnd {
        let sizes = self.sizes;
        let world = World::new(self.topo.clone(), SimConfig::default(), self.seed);
        let deployments = (0..self.topo.num_services())
            .map(|s| Deployment::new(ServiceId(s as u16), CPU_UNIT_MC, 4))
            .collect();
        let mut cluster = Cluster::new(world, deployments, CreationModel::default());
        let surge_at = SimTime::from_secs(sizes.surge_at_s);
        let mix = USER_MIX.iter().enumerate().map(|(a, &w)| (ApiId(a as u16), w)).collect();
        let users = ClosedLoop::with_mix(mix, sizes.users.0, self.seed ^ 0x21)
            .users_at(surge_at, sizes.users.1);
        let mut load = SpannedLoad { inner: users, rec };
        let mut scaler =
            SpannedScaler { inner: scaler, rec, layer: tick_span.0, name: tick_span.1 };

        let slo_us = (SLO_MS * 1000.0) as u64;
        let (mut post_requests, mut post_violations, mut segments) = (0u64, 0u64, 0u64);
        let (mut instance_sum, mut instance_ticks, mut peak_instances) = (0usize, 0usize, 0usize);
        let mut on_segment = |_: &mut Cluster, completions: &[Completion]| {
            segments += 1;
            fold_completions(fp, completions);
            for c in completions.iter().filter(|c| c.start >= surge_at) {
                post_requests += 1;
                post_violations += (c.timed_out || c.latency_us() > slo_us) as u64;
            }
        };
        let mut on_control = |cluster: &mut Cluster| {
            if cluster.world().now() >= surge_at {
                let instances = cluster.total_instances();
                instance_sum += instances;
                instance_ticks += 1;
                peak_instances = peak_instances.max(instances);
            }
        };
        let mut hooks = ExperimentHooks {
            on_segment: Some(&mut on_segment),
            on_control: Some(&mut on_control),
        };
        rec.span("orchestrator", run_span, |_| {
            run_experiment(
                &mut cluster,
                &mut load,
                &mut scaler,
                SimTime::from_secs(sizes.end_s),
                &mut hooks,
            )
        });
        let stats = cluster.world().stats();
        SurgeEnd {
            injected: stats.injected,
            timeouts: stats.timeouts,
            events: stats.events,
            post_requests,
            post_violations,
            mean_instances: instance_sum as f64 / instance_ticks.max(1) as f64,
            peak_instances,
            segments,
            conserved: stats.injected == stats.completed + cluster.world().in_flight() as u64,
        }
    }
}

impl Workload for BoutiqueClosedLoop {
    const NAME: &'static str = "boutique_closed_loop";
    const GOLDEN: &'static str = include_str!("../../golden/boutique_closed_loop-seed7.json");

    fn setup(seed: u64, size: Size) -> Self {
        let sizes = if size == Size::Full { &FULL } else { &SMOKE };
        let t0 = Instant::now();
        let topo = online_boutique();
        let topology_build_us = t0.elapsed().as_secs_f64() * 1e6;
        // Collection and training fan out; results are bitwise the same for
        // any thread count.
        let threads = sys::nproc().min(4);
        let sampling = SamplingConfig {
            slo_ms: SLO_MS,
            probe_qps: PROBE_QPS.to_vec(),
            workload_range: (0.25, 1.6),
            cpu_unit_mc: CPU_UNIT_MC,
            measure_secs: sizes.measure_secs,
            warmup_secs: sizes.warmup_secs,
            threads,
            seed,
            ..SamplingConfig::default()
        };
        let train = TrainConfig { epochs: sizes.epochs, seed, threads, ..TrainConfig::default() };
        let this = Self { topo, sizes, sampling, train, seed, topology_build_us };
        // Warm-up: one measurement cycle, the unit the loop repeats most. Its
        // seed is fixed so that `setup_s` is the same work under every `--seed`.
        let collector = SampleCollector::new(this.topo.clone(), this.sampling.clone());
        let abundant = vec![this.sampling.abundant_quota_mc; this.topo.num_services()];
        collector.measure(&abundant, &PROBE_QPS, 1, false);
        this
    }

    fn rep(&mut self, rec: &Recorder) -> RepOutcome {
        let mut out = RepOutcome::default();
        let mut fp = Fnv::default();
        let sc = "core.sample_collector";
        let lm = "core.latency_model";
        let n_services = self.topo.num_services();

        // Offline: profile → bounds → samples.
        let collector = SampleCollector::new(self.topo.clone(), self.sampling.clone());
        let analyzer = rec.span(sc, "core.sample_collector.profile", |_| collector.profile());
        let bounds: Bounds =
            rec.span(sc, "core.sample_collector.bounds", |_| collector.reduce_search_space());
        let t0 = Instant::now();
        let samples = rec.span(sc, "core.sample_collector.collect", |n| {
            let s = collector.collect(&bounds, &analyzer, self.sizes.samples);
            *n = s.len() as u64;
            s
        });
        out.work = samples.len() as f64;
        out.work_s = t0.elapsed().as_secs_f64();
        let missing = (self.sizes.samples - samples.len()) as u64;
        out.check(bounds.lower.iter().zip(&bounds.upper).all(|(l, h)| l <= h), || {
            format!("bounds cross: lower {:?} upper {:?}", bounds.lower, bounds.upper)
        });
        for s in &samples {
            fp.f64(s.p99_ms);
        }

        // Train, as `Graf::build` does.
        let split_seed = self.seed ^ 0x5EED;
        let (scaler, split) = rec.span(lm, "core.latency_model.dataset", |n| {
            let scaler = FeatureScaler::fit(
                samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
            );
            let dataset = LatencyModel::dataset_from_samples(&scaler, &samples);
            *n = dataset.len() as u64;
            (scaler, dataset.split(0.7, 0.15, split_seed))
        });
        let mut edges: Vec<(u16, u16)> = analyzer.edges().to_vec();
        if edges.is_empty() {
            edges = self.topo.edges().iter().map(|&(p, c)| (p.0, c.0)).collect();
        }
        let mut model = LatencyModel::new(
            NetKind::Gnn,
            &edges,
            n_services,
            scaler,
            split.train.label_mean().max(1e-9),
            split_seed ^ 0x6E7,
        );
        let steps = (self.train.epochs * split.train.len().div_ceil(self.train.batch_size)) as u64;
        let report = rec.span(lm, "core.latency_model.train", |n| {
            *n = (self.train.epochs * split.train.len()) as u64;
            model.train(&split, &self.train)
        });
        let mape =
            rec.span(lm, "core.latency_model.error_table", |_| mape_0_200(&model, &split.test));
        out.check(report.best_val < report.val_loss[0], || {
            format!("validation loss never fell below its first value {}", report.val_loss[0])
        });
        // No starved-versus-ample prediction check here: Algorithm 1 leaves a
        // box so narrow at this SLO that the trained surface is nearly flat
        // across it. The synthetic workloads, whose surface is steep, check it.

        // Plan once at the probe operating point, then control two surges.
        let cfg = GrafControllerConfig {
            slo_ms: SLO_MS,
            train_total_qps: PROBE_QPS.iter().sum(),
            ..GrafControllerConfig::default()
        };
        let mut controller = GrafController::new(model, analyzer, bounds, cfg);
        let plan = rec.span("core.controller", "core.controller.plan", |n| {
            let p = controller.plan_outcome(&PROBE_QPS, Some(CPU_UNIT_MC));
            *n = p.solve.iterations as u64;
            p
        });
        let counts = plan.counts.as_deref().unwrap_or_default();
        out.check(
            plan.quotas_mc.iter().all(|q| q.is_finite() && *q > 0.0)
                && counts.len() == n_services
                && counts.iter().all(|&c| c >= 1),
            || {
                format!(
                    "plan is not finite with counts of at least 1: {:?} {counts:?}",
                    plan.quotas_mc
                )
            },
        );
        for q in &plan.quotas_mc {
            fp.f64(*q);
        }

        let graf = self.surge(
            rec,
            "orchestrator.run_experiment",
            controller,
            ("core.controller", "core.controller.tick_in_loop"),
            &mut fp,
        );
        let hpa = self.surge(
            rec,
            "orchestrator.run_experiment_hpa",
            KubernetesHpa::new(HpaConfig::with_threshold(0.5), n_services),
            ("orchestrator", "orchestrator.hpa_tick"),
            &mut fp,
        );
        for (name, end) in [("GRAF", &graf), ("HPA", &hpa)] {
            out.check(end.conserved, || format!("{name} surge: injected ≠ completed + in flight"));
            out.check(end.post_requests > 0, || {
                format!("{name} surge: nothing completed after the surge")
            });
        }
        let violation_frac = graf.post_violations as f64 / graf.post_requests.max(1) as f64;
        let saving_pct = 100.0 * (1.0 - graf.mean_instances / hpa.mean_instances);
        out.check(violation_frac < 0.25, || {
            format!("{violation_frac} of post-surge requests missed the SLO under GRAF")
        });

        out.attempted = self.sizes.samples as u64 + graf.injected + hpa.injected;
        out.failed = missing + graf.timeouts + hpa.timeouts;
        out.fingerprint = fp.0;
        out.facts = vec![
            ("core.sample_collector.samples", out.work),
            ("core.sample_collector.missing", missing as f64),
            ("core.latency_model.train_steps", steps as f64),
            ("core.latency_model.pred_mape_pct", mape),
            ("orchestrator.slo_violation_frac", violation_frac),
            ("orchestrator.instance_saving_vs_hpa_pct", saving_pct),
            ("orchestrator.instances_peak", graf.peak_instances as f64),
            ("orchestrator.segments", (graf.segments + hpa.segments) as f64),
            ("sim.world.events", (graf.events + hpa.events) as f64),
            ("sim.world.timeouts", (graf.timeouts + hpa.timeouts) as f64),
            ("loadgen.arrivals", (graf.injected + hpa.injected) as f64),
        ];
        out
    }

    fn layer_metrics(&self, view: &RepView<'_>, outcome: &RepOutcome, out: &mut Named) {
        let per =
            |name: &str, scale: f64| view.total_s(name) / view.calls(name).max(1) as f64 * scale;
        let collect_s = view.total_s("core.sample_collector.collect");
        out.push((
            "core.sample_collector.profile_s",
            view.total_s("core.sample_collector.profile"),
        ));
        out.push(("core.sample_collector.bounds_s", view.total_s("core.sample_collector.bounds")));
        out.push(("core.sample_collector.collect_s", collect_s));
        out.push(("core.sample_collector.samples_per_s", outcome.work / collect_s));
        out.push((
            "core.latency_model.dataset_ms",
            view.total_s("core.latency_model.dataset") * 1e3,
        ));
        out.push(("core.latency_model.train_s", view.total_s("core.latency_model.train")));
        out.push(("core.controller.plan_outcome_ms", view.total_s("core.controller.plan") * 1e3));
        out.push(("core.controller.ticks", view.calls("core.controller.tick_in_loop") as f64));
        out.push((
            "core.controller.tick_in_loop_ms",
            median(&view.durations_s("core.controller.tick_in_loop")) * 1e3,
        ));
        out.push(("orchestrator.hpa_tick_us", per("orchestrator.hpa_tick", 1e6)));
        out.push(("orchestrator.run_experiment_s", view.total_s("orchestrator.run_experiment")));
        out.push((
            "orchestrator.run_experiment_hpa_s",
            view.total_s("orchestrator.run_experiment_hpa"),
        ));
        // The driver's own time — the span minus the adapters it calls — is
        // the simulator plus the cluster bookkeeping.
        out.push((
            "orchestrator.run_experiment_self_s",
            view.self_s("orchestrator.run_experiment")
                + view.self_s("orchestrator.run_experiment_hpa"),
        ));
        out.push(("loadgen.closed.arrivals_us_per_seg", per("loadgen.closed.arrivals", 1e6)));
        out.push((
            "loadgen.closed.on_completions_us_per_seg",
            per("loadgen.closed.on_completions", 1e6),
        ));
    }

    fn probes(&mut self, rec: &Recorder, out: &mut Named) {
        out.push(("apps.topology_build_us", self.topology_build_us));
        let collector = SampleCollector::new(self.topo.clone(), self.sampling.clone());
        let quotas = vec![600.0; self.topo.num_services()];
        let mut seed = self.seed;
        let s = per_call_s(
            rec,
            "core.sample_collector",
            "core.sample_collector.measure",
            1,
            30,
            || {
                seed += 1;
                std::hint::black_box(collector.measure(&quotas, &PROBE_QPS, seed, false));
            },
        );
        out.push(("core.sample_collector.measure_ms", s * 1e3));

        // The sample-collection unit without the collector: a fresh world,
        // 15 simulated seconds at 600 requests per second.
        let fresh = || {
            let mut world = World::new(
                self.topo.clone(),
                SimConfig { trace_sample: 0.0, ..SimConfig::default() },
                self.seed,
            );
            for s in 0..self.topo.num_services() {
                world.add_instances(ServiceId(s as u16), 6, CPU_UNIT_MC, SimTime::ZERO);
            }
            world
        };
        let s = per_call_s(rec, "sim", "sim.world.new", 16, 9, || {
            std::hint::black_box(fresh());
        });
        out.push(("sim.world.new_us", s * 1e6));
        let s = per_call_s(rec, "sim", "sim.world.short_run", 1, 15, || {
            let mut world = fresh();
            for i in 0..9000u64 {
                world.inject(ApiId((i % 3) as u16), SimTime(i * 1_666));
            }
            world.run_until(SimTime::from_secs(15.0));
            std::hint::black_box(world.stats());
        });
        out.push(("sim.world.short_run_ms", s * 1e3));
    }
}
