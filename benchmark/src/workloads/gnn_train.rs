//! `gnn_train`: train the latency model on a synthetic Social Network corpus.
//!
//! `gnn` + `nn` batch-256 forward/backward/Adam do nearly all the work and
//! no simulator exists, so a kernel gain shows here and must not show on
//! `sim_highrate`. One thread: fan-out is not the point.

use std::time::Instant;

use graf_apps::social_network;
use graf_core::{LatencyModel, Sample, TrainConfig};
use graf_gnn::{GnnConfig, GraphSpec, LatencyNet, MicroserviceGnn};
use graf_nn::{Adam, AsymmetricHuber, Matrix, Param};
use graf_sim::rng::DetRng;

use crate::harness::{Named, RepOutcome, Size, Workload};
use crate::probe::per_call_s;
use crate::rec::{Recorder, RepView};
use crate::stats::{Fnv, Rng};
use crate::synth::{train_config, SocialModelInputs, TrainingSet};

/// Corpus size and epochs: 3072 training rows = 12 batches of 256 per epoch.
const FULL: (usize, usize) = (4096, 30);
const SMOKE: (usize, usize) = (512, 4);

pub struct GnnTrain {
    inputs: SocialModelInputs,
    corpus: Vec<Sample>,
    set: TrainingSet,
    cfg: TrainConfig,
    model_seed: u64,
    /// Model-quality checks need the full training budget; a smoke run's
    /// handful of optimizer steps cannot meet them.
    quality_checks: bool,
    topology_build_us: f64,
    /// The last repetition's trained model, for the probes.
    trained: Option<LatencyModel>,
}

/// The `0-200ms` row of the Table-2 analysis: mean absolute percentage error.
pub fn mape_0_200(model: &LatencyModel, test: &graf_core::Dataset) -> f64 {
    model.error_table(test).regions[2].3
}

impl Workload for GnnTrain {
    const NAME: &'static str = "gnn_train";
    const GOLDEN: &'static str = include_str!("../../golden/gnn_train-seed7.json");

    fn setup(seed: u64, size: Size) -> Self {
        let (samples, epochs) = if size == Size::Full { FULL } else { SMOKE };
        let t0 = Instant::now();
        let topo = social_network();
        let topology_build_us = t0.elapsed().as_secs_f64() * 1e6;
        let inputs = SocialModelInputs::new(&topo);
        let corpus = inputs.corpus(samples, &mut Rng::new(seed));
        let set = TrainingSet::new(&corpus, 0.75, 0.125, seed ^ 0x5EED);
        let model_seed = seed ^ 0x6E7;
        // Warm-up: one epoch through the timed path.
        set.untrained_model(&inputs, model_seed).train(&set.split, &train_config(1, seed));
        Self {
            inputs,
            corpus,
            set,
            cfg: train_config(epochs, seed),
            model_seed,
            quality_checks: size == Size::Full,
            topology_build_us,
            trained: None,
        }
    }

    fn rep(&mut self, rec: &Recorder) -> RepOutcome {
        let mut out = RepOutcome::default();
        let split = &self.set.split;
        let rows = (self.cfg.epochs * split.train.len()) as u64;
        let steps = (self.cfg.epochs * split.train.len().div_ceil(self.cfg.batch_size)) as u64;

        let mut model = self.set.untrained_model(&self.inputs, self.model_seed);
        let t0 = Instant::now();
        let report = rec.span("core.latency_model", "core.latency_model.train", |n| {
            *n = rows;
            model.train(split, &self.cfg)
        });
        out.work = rows as f64;
        out.work_s = t0.elapsed().as_secs_f64();
        let mape = rec.span("core.latency_model", "core.latency_model.error_table", |n| {
            *n = split.test.len() as u64;
            mape_0_200(&model, &split.test)
        });

        // An evaluation point with a non-finite loss means the optimizer
        // steps since the previous one went wrong.
        let bad_evals = report
            .train_loss
            .iter()
            .zip(&report.val_loss)
            .filter(|(t, v)| !(t.is_finite() && v.is_finite()));
        let steps_per_eval = steps / report.val_loss.len().max(1) as u64;
        out.attempted = steps;
        out.failed = bad_evals.count() as u64 * steps_per_eval;

        let mut fp = Fnv::default();
        for v in report.train_loss.iter().chain(&report.val_loss) {
            fp.f64(*v);
        }
        fp.u64(report.best_iter as u64);
        let (x, _) = split.test.as_matrix();
        for p in model.predict_rows_ms(&x) {
            fp.f64(p);
        }
        out.fingerprint = fp.0;

        let load = self.inputs.workloads(200.0);
        let starved = model.predict_ms(&load, &self.inputs.bounds.lower);
        let ample = model.predict_ms(&load, &self.inputs.bounds.upper);
        let quality = self.quality_checks;
        out.check(!quality || report.best_val < report.val_loss[0], || {
            format!("validation loss never fell below its first value {}", report.val_loss[0])
        });
        out.check(!quality || starved > ample, || {
            format!("starved quotas predict {starved} ms, not above ample quotas' {ample} ms")
        });
        out.check(mape.is_finite() && (!quality || mape < 25.0), || {
            format!("held-out MAPE {mape} % is out of band")
        });

        out.facts = vec![
            ("core.latency_model.train_steps", steps as f64),
            ("core.latency_model.nonfinite_steps", out.failed as f64),
            ("core.latency_model.pred_mape_pct", mape),
        ];
        self.trained = Some(model);
        out
    }

    fn layer_metrics(&self, view: &RepView<'_>, outcome: &RepOutcome, out: &mut Named) {
        let train_s = view.total_s("core.latency_model.train");
        out.push(("core.latency_model.train_s", train_s));
        out.push(("core.latency_model.train_rows_per_s", outcome.work / train_s));
    }

    fn probes(&mut self, rec: &Recorder, out: &mut Named) {
        out.push(("apps.topology_build_us", self.topology_build_us));
        let mut model = self.trained.take().expect("probes run after a repetition");
        let split = &self.set.split;
        let lm = "core.latency_model";

        let s = per_call_s(rec, lm, "core.latency_model.dataset", 1, 9, || {
            std::hint::black_box(LatencyModel::dataset_from_samples(
                &self.set.scaler,
                &self.corpus,
            ));
        });
        out.push(("core.latency_model.dataset_ms", s * 1e3));
        let load = self.inputs.workloads(180.0);
        let quotas: Vec<f64> = self.inputs.bounds.upper.iter().map(|u| u * 0.6).collect();
        predict_probes(rec, &mut model, &load, &quotas, out);
        let s = per_call_s(rec, lm, "core.latency_model.eval_loss", 4, 9, || {
            std::hint::black_box(model.eval_loss(&split.val, &self.cfg));
        });
        out.push(("core.latency_model.eval_loss_ms", s * 1e3));

        gnn_probes(rec, &self.inputs, &self.set, true, out);
        nn_probes(rec, self.inputs.num_services, out);
    }
}

/// What one solver iteration asks of a trained model: a batch-1 prediction,
/// and the fused prediction + input gradient.
pub fn predict_probes(
    rec: &Recorder,
    model: &mut LatencyModel,
    load: &[f64],
    quotas: &[f64],
    out: &mut Named,
) {
    let lm = "core.latency_model";
    let s = per_call_s(rec, lm, "core.latency_model.predict", 2000, 9, || {
        std::hint::black_box(model.predict_ms(load, quotas));
    });
    out.push(("core.latency_model.predict_us", s * 1e6));
    let mut grad = Vec::new();
    let s = per_call_s(rec, lm, "core.latency_model.predict_grad", 2000, 9, || {
        // A threshold below any prediction: the backward pass always runs.
        std::hint::black_box(model.predict_ms_with_grad(load, quotas, f64::MIN, &mut grad));
    });
    out.push(("core.latency_model.predict_grad_us", s * 1e6));
}

/// Probes straight on a `MicroserviceGnn` over the social graph. The batch-1
/// pair is what a solver iteration costs; the batch-256 trio (`training`) is
/// what a training step costs.
pub fn gnn_probes(
    rec: &Recorder,
    inputs: &SocialModelInputs,
    set: &TrainingSet,
    training: bool,
    out: &mut Named,
) {
    let graph = GraphSpec::from_edges(inputs.num_services, &inputs.edges);
    let mut gnn = MicroserviceGnn::new(graph, GnnConfig::default(), &mut DetRng::new(11));
    let (x, y) = set.split.train.as_matrix();
    let x1 = x.slice_rows(0, 1);
    let s = per_call_s(rec, "gnn", "gnn.predict_b1", 2000, 9, || {
        std::hint::black_box(gnn.predict(&x1));
    });
    out.push(("gnn.predict_b1_us", s * 1e6));
    let s = per_call_s(rec, "gnn", "gnn.grad_input_b1", 2000, 9, || {
        std::hint::black_box(gnn.grad_input(&x1));
    });
    out.push(("gnn.grad_input_b1_us", s * 1e6));
    if !training {
        return;
    }
    let label_mean = set.split.train.label_mean();
    let x256 = x.slice_rows(0, 256);
    let y256: Vec<f64> = y[..256].iter().map(|v| v / label_mean).collect();
    let loss = AsymmetricHuber::default();
    let s = per_call_s(rec, "gnn", "gnn.predict_b256", 8, 9, || {
        std::hint::black_box(gnn.predict(&x256));
    });
    out.push(("gnn.predict_b256_ms", s * 1e3));
    let s = per_call_s(rec, "gnn", "gnn.eval_loss", 8, 9, || {
        std::hint::black_box(gnn.eval_loss(&x256, &y256, &loss));
    });
    out.push(("gnn.eval_loss_ms", s * 1e3));
    let mut opt = Adam::new(1e-3);
    let mut drop_rng = DetRng::new(12);
    let s = per_call_s(rec, "gnn", "gnn.train_step", 4, 9, || {
        std::hint::black_box(gnn.train_step(&x256, &y256, &loss, &mut opt, &mut drop_rng));
    });
    out.push(("gnn.train_step_ms", s * 1e3));
}

/// Kernel probes at the shapes the stacked GNN uses for `nodes` services at
/// batch 256, read off `GnnConfig::default()`: the message networks see the
/// node-stacked `(nodes·256) × hidden` matrix, the readout `256 × (nodes·embed)`.
fn nn_probes(rec: &Recorder, nodes: usize, out: &mut Named) {
    let cfg = GnnConfig::default();
    let batch = 256;
    let mut rng = Rng::new(13);
    let mut mat = |r: usize, c: usize| Matrix::from_fn(r, c, |_, _| rng.uniform(-1.0, 1.0));

    let stacked = mat(nodes * batch, cfg.hidden);
    let w_msg = mat(cfg.hidden, cfg.hidden);
    let mut y = Matrix::zeros(nodes * batch, cfg.hidden);
    let s = per_call_s(rec, "nn", "nn.matmul_stacked", 64, 9, || {
        stacked.matmul_into(&w_msg, &mut y);
        std::hint::black_box(&mut y);
    });
    out.push(("nn.matmul_stacked_us", s * 1e6));

    let (m, k, n) = (batch, nodes * cfg.embed_dim, cfg.readout_hidden);
    let x = mat(m, k);
    let w = mat(k, n);
    let bias = mat(1, n);
    let mut y = Matrix::zeros(m, n);
    let s = per_call_s(rec, "nn", "nn.matmul_readout", 16, 9, || {
        x.matmul_into(&w, &mut y);
        std::hint::black_box(&mut y);
    });
    out.push(("nn.matmul_readout_us", s * 1e6));
    out.push(("nn.matmul_readout_gflops", 2.0 * (m * k * n) as f64 / s * 1e-9));

    // The weight gradient of the same layer: xᵀ · dy accumulated into k × n.
    let dy = mat(m, n);
    let mut dw = Matrix::zeros(k, n);
    let s = per_call_s(rec, "nn", "nn.matmul_transa_acc", 16, 9, || {
        x.matmul_transa_acc(&dy, &mut dw);
        std::hint::black_box(&mut dw);
    });
    out.push(("nn.matmul_transa_acc_us", s * 1e6));
    let s = per_call_s(rec, "nn", "nn.affine_relu", 16, 9, || {
        x.affine_relu_into(&w, &bias, &mut y);
        std::hint::black_box(&mut y);
    });
    out.push(("nn.affine_relu_us", s * 1e6));

    let mut param = Param::new(mat(k, n));
    let grad = mat(k, n);
    let mut opt = Adam::new(1e-3);
    let s = per_call_s(rec, "nn", "nn.adam_update", 64, 9, || {
        param.grad.copy_from(&grad);
        opt.begin_step();
        opt.update(&mut param);
    });
    out.push(("nn.adam_update_us", s * 1e6));
}
