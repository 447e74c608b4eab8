//! Ablation: the state-aware sample collector (§3.7 / §5.1, *Efficient
//! Sample Collection*).
//!
//! Algorithm 1 confines sampling to the per-service quota box where the model
//! actually needs accuracy; a naive collector spends the same budget across
//! the full `[min, abundant]` hypercube, wasting samples on configurations
//! that are either hopelessly starved or flat-latency overprovisioned. At an
//! equal sample budget, the state-aware model should predict the operating
//! region much better.

use std::io::{self, Write};

use graf_core::sample_collector::{Bounds, Sample, SampleCollector, MIN_QUOTA_MC};
use graf_core::{FeatureScaler, LatencyModel, NetKind, TrainConfig};

use super::Ctx;
use crate::standard::boutique_setup;

fn train_on(
    samples: &[Sample],
    edges: &[(u16, u16)],
    n: usize,
    train: &TrainConfig,
) -> LatencyModel {
    let scaler = FeatureScaler::fit(
        samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
    );
    let ds = LatencyModel::dataset_from_samples(&scaler, samples);
    let split = ds.split(0.8, 0.1, 5);
    let mut model = LatencyModel::new(NetKind::Gnn, edges, n, scaler, split.train.label_mean(), 5);
    model.train(&split, train);
    model
}

fn mape(model: &LatencyModel, samples: &[Sample]) -> f64 {
    let mut acc = 0.0;
    for s in samples {
        let p = model.predict_ms(&s.workloads, &s.quotas_mc);
        acc += ((p - s.p99_ms) / s.p99_ms.max(1e-9)).abs();
    }
    100.0 * acc / samples.len().max(1) as f64
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    let n = setup.topo.num_services();
    let budget = cx.args.samples.unwrap_or_else(|| cx.args.scaled(150, 900, 4000));

    writeln!(
        cx.out,
        "# Sampling ablation — Algorithm-1 box vs naive full-range, {budget} samples each"
    )?;
    writeln!(cx.out, "running Algorithm 1...")?;
    // The build's profile, Algorithm-1 box and collector: both arms sample
    // with them, at this experiment's own budget.
    let graf = cx.graf(&setup);
    let (analyzer, bounds, collector) = (&graf.analyzer, &graf.bounds, &graf.collector);
    let cfg = collector.config();
    let edges = analyzer.edges();
    // Each collector's `graf.sample.collect` span names its variant.
    let variant = |name: &'static str| cx.obs.scoped("variant", name);
    let arm = |name| collector.clone().with_obs(variant(name));
    writeln!(
        cx.out,
        "reduced box volume: {:.2e}× the original",
        bounds.volume_reduction(MIN_QUOTA_MC, cfg.abundant_quota_mc)
    )?;
    let smart = arm("state-aware").collect(bounds, analyzer, budget);

    // Naive: same budget, quotas uniform over the full original range.
    let naive_bounds =
        Bounds { lower: vec![MIN_QUOTA_MC; n], upper: vec![cfg.abundant_quota_mc; n] };
    let naive = arm("naive").collect(&naive_bounds, analyzer, budget);

    // Held-out evaluation set: fresh samples inside the operating box (where
    // the solver actually queries the model), different seeds.
    let mut eval_cfg = cfg.clone();
    eval_cfg.seed ^= 0xE7A1;
    let eval_collector =
        SampleCollector::new(setup.topo.clone(), eval_cfg).with_obs(variant("held-out"));
    let eval = eval_collector.collect(bounds, analyzer, (budget / 4).max(60));

    let train = TrainConfig { epochs: cx.args.scaled(25, 60, 200), ..Default::default() };
    let smart_model = train_on(&smart, edges, n, &train);
    let naive_model = train_on(&naive, edges, n, &train);

    writeln!(cx.out, "\n{:<26} {:>18}", "collector", "MAPE on operating region (%)")?;
    writeln!(cx.out, "{:<26} {:>18.1}", "state-aware (Algorithm 1)", mape(&smart_model, &eval))?;
    writeln!(cx.out, "{:<26} {:>18.1}", "naive full-range", mape(&naive_model, &eval))?;

    // Also show where naive samples were wasted.
    let starved = naive.iter().filter(|s| s.p99_ms > cfg.slo_ms * 4.0).count();
    writeln!(
        cx.out,
        "\nnaive samples with p99 > 4×SLO (wasted on starvation regions): {}/{}",
        starved,
        naive.len()
    )
}
