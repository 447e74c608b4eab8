//! The latency prediction model (§3.4): training loop, checkpointing, and
//! the Table-2 accuracy analysis.

use std::cell::RefCell;

use graf_gnn::{FlatMlp, GnnConfig, GraphSpec, LatencyNet, MicroserviceGnn};
use graf_nn::{Adam, AsymmetricHuber, Matrix};
use graf_sim::rng::DetRng;

use crate::dataset::{Dataset, Split};
use crate::features::FeatureScaler;
use crate::sample_collector::Sample;

/// Which network architecture to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    /// The paper's MPNN + readout (§3.4).
    Gnn,
    /// The "GRAF without MPNN" ablation (§5.1, Fig 11).
    FlatMlp,
}

/// Training hyper-parameters.
///
/// The paper's Table 1 lists 7×10⁴ iterations at batch 256, learning rate
/// 2×10⁻⁴, dropout 0.25, θ_L = 0.1, θ_R = 0.3 on a GTX 1080. The default here
/// is a CPU-scale configuration preserving everything but the iteration
/// count; [`TrainConfig::paper`] restores the published values.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Asymmetric-Hüber left threshold.
    pub theta_l: f64,
    /// Asymmetric-Hüber right threshold.
    pub theta_r: f64,
    /// Validation evaluations per training run (for learning curves and
    /// best-checkpoint selection).
    pub evals: usize,
    /// Shuffle/dropout seed.
    pub seed: u64,
    /// Worker threads for data-parallel training (mini-batches are sharded
    /// over fixed chunks with an index-ordered gradient reduction, so any
    /// value produces bit-identical results; 1 = serial).
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch_size: 256,
            lr: 1e-3,
            theta_l: 0.1,
            theta_r: 0.3,
            evals: 20,
            seed: 7,
            threads: 1,
        }
    }
}

impl TrainConfig {
    /// The published hyper-parameters (Table 1). `epochs` here approximates
    /// 7×10⁴ optimizer iterations for a ~40 k-sample dataset.
    pub fn paper() -> Self {
        Self { epochs: 450, lr: 2e-4, ..Self::default() }
    }
}

/// Learning-curve record of one training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Optimizer iteration at each evaluation point.
    pub iters: Vec<usize>,
    /// Mean training loss since the previous evaluation.
    pub train_loss: Vec<f64>,
    /// Validation loss at each evaluation point.
    pub val_loss: Vec<f64>,
    /// Best validation loss seen.
    pub best_val: f64,
    /// Iteration of the best checkpoint.
    pub best_iter: usize,
}

/// Reusable buffers for the batch-1 paths: feature row, input matrix,
/// prediction, and input gradient. Warm after one call; reuse makes
/// [`LatencyModel::predict_ms`] and [`LatencyModel::predict_ms_with_grad`]
/// allocation-free in steady state.
#[derive(Default)]
struct SolveScratch {
    feat: Vec<f64>,
    x: Matrix,
    pred: Vec<f64>,
    dx: Matrix,
}

impl SolveScratch {
    /// The kept-trace forward of one feature row; returns the network's
    /// output in label space.
    fn forward(
        &mut self,
        net: &dyn LatencyNet,
        scaler: &FeatureScaler,
        workloads: &[f64],
        quotas_mc: &[f64],
    ) -> f64 {
        scaler.features_into(workloads, quotas_mc, &mut self.feat);
        self.x.reshape_for_overwrite(1, self.feat.len());
        self.x.data_mut().copy_from_slice(&self.feat);
        net.predict_keep_into(&self.x, &mut self.pred);
        self.pred[0]
    }
}

/// The trained model plus the scaling that maps between physical units and
/// network space.
pub struct LatencyModel {
    net: Box<dyn LatencyNet + Send>,
    /// Feature scaling (shared with the controller).
    pub scaler: FeatureScaler,
    /// Labels are trained as `y / label_scale`.
    pub label_scale: f64,
    scratch: RefCell<SolveScratch>,
}

impl Clone for LatencyModel {
    fn clone(&self) -> Self {
        Self {
            net: self.net.boxed_clone(),
            scaler: self.scaler,
            label_scale: self.label_scale,
            scratch: RefCell::default(),
        }
    }
}

impl LatencyModel {
    /// Creates an untrained model for `num_services` services over the given
    /// call-graph edges.
    pub fn new(
        kind: NetKind,
        edges: &[(u16, u16)],
        num_services: usize,
        scaler: FeatureScaler,
        label_scale: f64,
        seed: u64,
    ) -> Self {
        let mut rng = DetRng::new(seed);
        let cfg = GnnConfig::default();
        let net: Box<dyn LatencyNet + Send> = match kind {
            NetKind::Gnn => {
                let graph = GraphSpec::from_edges(num_services, edges);
                Box::new(MicroserviceGnn::new(graph, cfg.clone(), &mut rng))
            }
            NetKind::FlatMlp => Box::new(FlatMlp::new(
                num_services,
                cfg.feature_dim,
                cfg.readout_hidden,
                cfg.dropout,
                &mut rng,
            )),
        };
        assert!(label_scale > 0.0, "label scale must be positive");
        Self { net, scaler, label_scale, scratch: RefCell::default() }
    }

    /// Number of services the model covers.
    pub fn num_services(&self) -> usize {
        self.net.num_nodes()
    }

    /// Builds a [`Dataset`] from collected samples using this model's scaler.
    pub fn dataset_from_samples(scaler: &FeatureScaler, samples: &[Sample]) -> Dataset {
        let mut d = Dataset::new();
        for s in samples {
            d.push(scaler.features(&s.workloads, &s.quotas_mc), s.p99_ms);
        }
        d
    }

    fn scaled_labels(&self, ys: &[f64]) -> Vec<f64> {
        ys.iter().map(|y| y / self.label_scale).collect()
    }

    /// Trains on `split.train`, tracking validation loss and keeping the
    /// best-validation checkpoint (§3.4: "the validation set is used to
    /// prevent overfitting and save the best performance GNN").
    pub fn train(&mut self, split: &Split, cfg: &TrainConfig) -> TrainReport {
        self.train_observed(split, cfg, &graf_obs::Obs::disabled())
    }

    /// [`LatencyModel::train`] with telemetry: emits one `graf.train.eval`
    /// point per evaluation (optimizer iteration, train/val loss) and a
    /// closing `graf.train` span (epochs, best checkpoint, epochs/sec).
    /// Numerically identical to the unobserved path.
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall clock is read only while the span records, and only into telemetry"
    )]
    pub fn train_observed(
        &mut self,
        split: &Split,
        cfg: &TrainConfig,
        obs: &graf_obs::Obs,
    ) -> TrainReport {
        assert!(!split.train.is_empty(), "training set is empty");
        let mut train_span = obs.span("graf.train");
        let train_start = train_span.is_recording().then(std::time::Instant::now);
        let scratch_before = self.net.scratch_stats();
        self.net.set_threads(cfg.threads.max(1));
        let loss = AsymmetricHuber { theta_l: cfg.theta_l, theta_r: cfg.theta_r };
        let mut opt = Adam::new(cfg.lr);
        let mut rng = DetRng::new(cfg.seed);
        let mut drop_rng = DetRng::new(cfg.seed ^ 0xD20);

        let (val_x, val_y_raw) = split.val.as_matrix();
        let val_y = self.scaled_labels(&val_y_raw);
        let have_val = !split.val.is_empty();

        let mut report = TrainReport { best_val: f64::INFINITY, ..Default::default() };
        let mut best: Option<Box<dyn LatencyNet + Send>> = None;
        let eval_every = (cfg.epochs / cfg.evals.max(1)).max(1);

        let mut iter = 0usize;
        let mut acc_loss = 0.0;
        let mut acc_n = 0usize;
        // One scaled-label buffer for the whole run, refilled per batch.
        let mut y_buf: Vec<f64> = Vec::with_capacity(cfg.batch_size);
        for epoch in 0..cfg.epochs {
            for (x, y_raw) in split.train.batches(cfg.batch_size, &mut rng) {
                y_buf.clear();
                y_buf.extend(y_raw.iter().map(|y| y / self.label_scale));
                let l = self.net.train_step(&x, &y_buf, &loss, &mut opt, &mut drop_rng);
                acc_loss += l;
                acc_n += 1;
                iter += 1;
            }
            if epoch % eval_every == eval_every - 1 || epoch == cfg.epochs - 1 {
                let vl = if have_val {
                    self.net.eval_loss(&val_x, &val_y, &loss)
                } else {
                    acc_loss / acc_n.max(1) as f64
                };
                report.iters.push(iter);
                report.train_loss.push(acc_loss / acc_n.max(1) as f64);
                report.val_loss.push(vl);
                obs.point("graf.train.eval")
                    .attr("iter", iter)
                    .attr("epoch", epoch + 1)
                    .attr("train_loss", acc_loss / acc_n.max(1) as f64)
                    .attr("val_loss", vl);
                acc_loss = 0.0;
                acc_n = 0;
                if vl < report.best_val {
                    report.best_val = vl;
                    report.best_iter = iter;
                    best = Some(self.net.boxed_clone());
                }
            }
        }
        // Read before the checkpoint restore: a restored clone's scratch is
        // fresh, so its counts would say nothing about this run.
        let scratch_after = self.net.scratch_stats();
        if let Some(b) = best {
            self.net = b;
        }
        if train_span.is_recording() {
            let secs = train_start.map_or(0.0, |t| t.elapsed().as_secs_f64());
            // Allocation-avoidance accounting for this run: scratch-pool
            // buffer reuses vs fresh allocations inside the net's kernels.
            let (reused, allocated) = scratch_after;
            train_span
                .attr("epochs", cfg.epochs)
                .attr("iters", iter)
                .attr("best_val", report.best_val)
                .attr("best_iter", report.best_iter)
                .attr("epochs_per_sec", if secs > 0.0 { cfg.epochs as f64 / secs } else { 0.0 })
                .attr("scratch_reused", reused - scratch_before.0)
                .attr("scratch_allocated", allocated - scratch_before.1);
        }
        report
    }

    /// Evaluation loss on a dataset (scaled-label space).
    pub fn eval_loss(&self, data: &Dataset, cfg: &TrainConfig) -> f64 {
        let loss = AsymmetricHuber { theta_l: cfg.theta_l, theta_r: cfg.theta_r };
        let (x, y_raw) = data.as_matrix();
        let y = self.scaled_labels(&y_raw);
        self.net.eval_loss(&x, &y, &loss)
    }

    /// Predicts p99 latency (ms) for physical workloads (req/s) and quotas (mc).
    /// Allocation-free once warm: it runs the solver's forward on the
    /// model's reused scratch.
    pub fn predict_ms(&self, workloads: &[f64], quotas_mc: &[f64]) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        scratch.forward(&*self.net, &self.scaler, workloads, quotas_mc) * self.label_scale
    }

    /// Predicts p99 latency (ms) for already-scaled feature rows.
    pub fn predict_rows_ms(&self, x: &Matrix) -> Vec<f64> {
        self.net.predict(x).iter().map(|p| p * self.label_scale).collect()
    }

    /// Fused prediction + conditional gradient — the solver fast path.
    ///
    /// Runs one forward pass whose activations are retained; only when the
    /// predicted latency exceeds `grad_if_above_ms` is the backward pass run,
    /// reusing the retained trace: one forward + at most one backward per
    /// solver iteration. This is the model's one gradient path.
    ///
    /// Returns `(predicted_ms, grad_written)`; `grad_out` holds the per-quota
    /// gradient (ms per mc) only when `grad_written` is true.
    pub fn predict_ms_with_grad(
        &mut self,
        workloads: &[f64],
        quotas_mc: &[f64],
        grad_if_above_ms: f64,
        grad_out: &mut Vec<f64>,
    ) -> (f64, bool) {
        let n = workloads.len();
        let scratch = self.scratch.get_mut();
        let pred =
            scratch.forward(&*self.net, &self.scaler, workloads, quotas_mc) * self.label_scale;
        if pred <= grad_if_above_ms {
            return (pred, false);
        }
        self.net.grad_from_kept_into(&scratch.x, &mut scratch.dx);
        grad_out.clear();
        grad_out.reserve(n);
        for i in 0..n {
            let g = scratch.dx.get(0, 2 * i + 1);
            grad_out.push(self.label_scale * g / self.scaler.quota_div);
        }
        (pred, true)
    }

    /// Computes the Table-2 error analysis on a held-out dataset.
    pub fn error_table(&self, test: &Dataset) -> ErrorTable {
        let (x, y) = test.as_matrix();
        let preds = self.predict_rows_ms(&x);
        ErrorTable::compute(&preds, &y)
    }
}

/// Table 2: absolute percentage error by latency region + over-estimation.
#[derive(Clone, Debug)]
pub struct ErrorTable {
    /// `(label, lo_ms, hi_ms, mean |err| %, samples)` per region.
    pub regions: Vec<(String, f64, f64, f64, usize)>,
    /// Mean signed percentage over-estimation across all points
    /// (positive = model predicts high, the paper reports +5.2 %).
    pub mean_overestimate_pct: f64,
    /// Fraction of points where the model over-estimates.
    pub overestimate_fraction: f64,
    /// Total points.
    pub count: usize,
}

impl ErrorTable {
    /// Computes the table from predictions and labels (both ms).
    pub fn compute(preds: &[f64], labels: &[f64]) -> Self {
        assert_eq!(preds.len(), labels.len());
        let ranges = [
            ("0-50ms", 0.0, 50.0),
            ("50-100ms", 50.0, 100.0),
            ("0-200ms", 0.0, 200.0),
            ("0-800ms", 0.0, 800.0),
        ];
        let mut regions = Vec::new();
        for (name, lo, hi) in ranges {
            let mut sum = 0.0;
            let mut n = 0usize;
            for (&p, &y) in preds.iter().zip(labels) {
                if y >= lo && y < hi {
                    sum += ((p - y) / y.max(1e-9)).abs() * 100.0;
                    n += 1;
                }
            }
            regions.push((
                name.to_string(),
                lo,
                hi,
                if n > 0 { sum / n as f64 } else { f64::NAN },
                n,
            ));
        }
        let mut signed = 0.0;
        let mut over = 0usize;
        for (&p, &y) in preds.iter().zip(labels) {
            signed += (p - y) / y.max(1e-9) * 100.0;
            if p > y {
                over += 1;
            }
        }
        let count = preds.len();
        Self {
            regions,
            mean_overestimate_pct: if count > 0 { signed / count as f64 } else { 0.0 },
            overestimate_fraction: if count > 0 { over as f64 / count as f64 } else { 0.0 },
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic "application": 3-service chain with a queueing-shaped p99.
    fn synthetic_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = DetRng::new(seed);
        let mut out = Vec::new();
        for _ in 0..n {
            let w = rng.uniform(20.0, 120.0);
            let workloads = vec![w, w, w];
            let quotas: Vec<f64> = (0..3).map(|_| rng.uniform(200.0, 2000.0)).collect();
            // p99 ≈ Σ base + work/(quota − offered) queueing growth.
            let works = [1.0, 3.0, 2.0];
            let mut p99 = 3.0;
            for i in 0..3 {
                let offered = w * works[i];
                let head = (quotas[i] - offered).max(20.0);
                p99 += 1000.0 * works[i] / head + works[i];
            }
            // Mild multiplicative noise like real p99 measurements.
            let noisy = p99 * rng.lognormal_mean_cv(1.0, 0.08);
            out.push(Sample { api_rates: vec![w], workloads, quotas_mc: quotas, p99_ms: noisy });
        }
        out
    }

    fn fit_model(
        kind: NetKind,
        samples: &[Sample],
        cfg: &TrainConfig,
    ) -> (LatencyModel, TrainReport, Dataset) {
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let ds = LatencyModel::dataset_from_samples(&scaler, samples);
        let split = ds.split(0.7, 0.15, 3);
        let label_scale = split.train.label_mean().max(1e-9);
        let mut model = LatencyModel::new(kind, &[(0, 1), (1, 2)], 3, scaler, label_scale, 11);
        let report = model.train(&split, cfg);
        (model, report, split.test)
    }

    #[test]
    fn training_learns_the_latency_surface() {
        let samples = synthetic_samples(600, 5);
        let cfg = TrainConfig { epochs: 40, evals: 8, ..Default::default() };
        let (model, report, test) = fit_model(NetKind::Gnn, &samples, &cfg);
        assert!(report.val_loss.first().unwrap() > report.val_loss.last().unwrap());
        let table = model.error_table(&test);
        let region_0_800 = &table.regions[3];
        assert!(region_0_800.4 > 0, "test points exist");
        assert!(region_0_800.3 < 40.0, "mean abs error under 40%: {:?}", table.regions);
    }

    #[test]
    fn predictions_scale_back_to_ms() {
        let samples = synthetic_samples(300, 6);
        let cfg = TrainConfig { epochs: 25, evals: 5, ..Default::default() };
        let (model, _, _) = fit_model(NetKind::Gnn, &samples, &cfg);
        let p = model.predict_ms(&[60.0, 60.0, 60.0], &[1000.0, 1500.0, 1200.0]);
        assert!(p > 1.0 && p < 500.0, "prediction in a sane ms range: {p}");
    }

    #[test]
    fn quota_gradient_is_mostly_negative() {
        // More CPU → lower predicted latency, so ∂latency/∂quota < 0 at a
        // loaded operating point for a trained model.
        let samples = synthetic_samples(600, 7);
        let cfg = TrainConfig { epochs: 40, evals: 8, ..Default::default() };
        let (mut model, _, _) = fit_model(NetKind::Gnn, &samples, &cfg);
        let mut g = Vec::new();
        let (w, q) = ([100.0, 100.0, 100.0], [400.0, 600.0, 500.0]);
        // A threshold below any prediction: the gradient is always written.
        assert!(model.predict_ms_with_grad(&w, &q, f64::NEG_INFINITY, &mut g).1);
        let negatives = g.iter().filter(|&&v| v < 0.0).count();
        assert!(negatives >= 2, "gradients should point downhill: {g:?}");
    }

    #[test]
    fn flat_mlp_also_trains() {
        let samples = synthetic_samples(400, 8);
        let cfg = TrainConfig { epochs: 30, evals: 6, ..Default::default() };
        let (_, report, _) = fit_model(NetKind::FlatMlp, &samples, &cfg);
        assert!(report.best_val < report.val_loss[0]);
    }

    #[test]
    fn error_table_regions_and_overestimation() {
        let preds = vec![55.0, 110.0, 40.0, 450.0];
        let labels = vec![50.0, 100.0, 50.0, 400.0];
        let t = ErrorTable::compute(&preds, &labels);
        assert_eq!(t.count, 4);
        // 0-50: only label 50? No: region is [0,50) → 40/50 point only.
        let r0 = &t.regions[0];
        assert_eq!(r0.4, 0, "no labels strictly below 50 except... none");
        let r_all = &t.regions[3];
        assert_eq!(r_all.4, 4);
        assert!(t.overestimate_fraction > 0.5);
        assert!(t.mean_overestimate_pct > 0.0);
    }

    #[test]
    fn best_checkpoint_is_restored() {
        // With a tiny noisy set and many epochs, final val loss can exceed
        // the best; after train() the model must hold the best checkpoint.
        let samples = synthetic_samples(120, 9);
        let cfg = TrainConfig { epochs: 30, evals: 10, ..Default::default() };
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
        let split = ds.split(0.6, 0.2, 4);
        let mut model = LatencyModel::new(
            NetKind::Gnn,
            &[(0, 1), (1, 2)],
            3,
            scaler,
            split.train.label_mean(),
            12,
        );
        let report = model.train(&split, &cfg);
        let final_val = model.eval_loss(&split.val, &cfg);
        assert!(
            final_val <= report.best_val * 1.0001,
            "restored checkpoint matches best: {final_val} vs {}",
            report.best_val
        );
    }

    #[test]
    fn training_reports_scratch_reuse_for_both_nets() {
        let samples = synthetic_samples(200, 10);
        let cfg = TrainConfig { epochs: 8, evals: 4, ..Default::default() };
        for kind in [NetKind::Gnn, NetKind::FlatMlp] {
            let scaler = FeatureScaler::fit(
                samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
            );
            let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
            let split = ds.split(0.7, 0.15, 3);
            let mut model = LatencyModel::new(kind, &[(0, 1), (1, 2)], 3, scaler, 50.0, 11);
            let obs = graf_obs::Obs::enabled();
            model.train_observed(&split, &cfg, &obs);
            let events = obs.events();
            let train = events.iter().find(|e| e.name == "graf.train").expect("graf.train span");
            let attr = |key: &str| train.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            let Some(&graf_obs::Value::U64(reused)) = attr("scratch_reused") else {
                panic!("{kind:?}: no scratch_reused on {train:?}")
            };
            assert!(reused > 0, "{kind:?}: scratch reuse is counted, saw {reused}");
            assert!(matches!(attr("scratch_allocated"), Some(graf_obs::Value::U64(_))), "{kind:?}");
        }
    }
}
