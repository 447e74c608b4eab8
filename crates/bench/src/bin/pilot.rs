//! Calibration pilot: full GRAF build on Online Boutique + GRAF-vs-HPA
//! steady-state comparison. Not a paper figure; used to validate defaults.
use std::time::Instant;

use graf_bench::standard::{boutique_setup, build_graf_observed};
use graf_bench::Args;
use graf_core::baseline::{run_steady, tune_hpa_threshold, SteadyTrial};
use graf_sim::time::SimDuration;

fn main() {
    let args = Args::parse();
    let obs = args.obs();
    let setup = boutique_setup();

    let t0 = Instant::now();
    let graf = build_graf_observed(&setup, &args, &obs);
    println!("build: {:.1}s ({} samples)", t0.elapsed().as_secs_f64(), graf.samples.len());
    println!("bounds lower: {:?}", graf.bounds.lower.iter().map(|v| v.round()).collect::<Vec<_>>());
    println!("bounds upper: {:?}", graf.bounds.upper.iter().map(|v| v.round()).collect::<Vec<_>>());
    println!("val loss: first {:.4} best {:.4}", graf.report.val_loss[0], graf.report.best_val);
    let table = graf.model.error_table(&graf.test_set);
    for r in &table.regions {
        println!("err {}: {:.1}% (n={})", r.0, r.3, r.4);
    }
    println!(
        "overestimate: {:.1}% of points, mean {:.1}%",
        table.overestimate_fraction * 100.0,
        table.mean_overestimate_pct
    );

    // What does GRAF want at the probe workload?
    let mut ctrl = graf.controller(setup.slo_ms);
    ctrl.set_obs(obs.clone());
    let t1 = Instant::now();
    let (quotas, res) = ctrl.plan(&setup.probe_qps);
    println!(
        "solve: {:.1} ms wall, {} iters, pred {:.1} ms",
        t1.elapsed().as_secs_f64() * 1000.0,
        res.iterations,
        res.predicted_ms
    );
    println!(
        "quotas: {:?} (total {:.0})",
        quotas.iter().map(|v| v.round()).collect::<Vec<_>>(),
        quotas.iter().sum::<f64>()
    );

    // Tune HPA once at the reference workload (as the paper does), then
    // compare GRAF vs that fixed threshold across workload multipliers.
    let grid: Vec<f64> = (1..=17).map(|i| 0.9 - 0.05 * i as f64).collect(); // 0.85..0.05
    let unit = setup.cpu_unit_mc;
    let mut ref_trial = SteadyTrial::new(setup.topo.clone(), setup.probe_qps.clone());
    ref_trial.cpu_unit_mc = unit;
    ref_trial.warmup = SimDuration::from_secs(180.0);
    ref_trial.measure = SimDuration::from_secs(120.0);
    ref_trial.seed = args.seed ^ 0xEEE;
    let t3 = Instant::now();
    let (thr, _) = tune_hpa_threshold(&ref_trial, setup.slo_ms, &grid);
    println!("HPA tuned once: threshold {thr:.2} ({:.0}s wall)", t3.elapsed().as_secs_f64());

    for mult in [1.0, 2.0, 3.0] {
        let rates: Vec<f64> = setup.probe_qps.iter().map(|q| q * mult).collect();
        let mut trial = ref_trial.clone();
        trial.rates = rates;

        let mut graf_ctrl = graf.controller(setup.slo_ms);
        graf_ctrl.set_obs(obs.clone());
        let graf_out = run_steady(&trial, &mut graf_ctrl);
        let mut hpa = graf_core::baseline::hpa_with_threshold(thr, setup.topo.num_services());
        let hpa_out = run_steady(&trial, &mut hpa);
        let saving = 1.0 - graf_out.mean_quota_mc / hpa_out.mean_quota_mc;
        println!(
            "mult={mult}: GRAF p99 {:?} quota {:.0} inst {:.1} | HPA p99 {:?} quota {:.0} inst {:.1} | saving {:.1}%",
            graf_out.p99_ms.map(|v| v.round()), graf_out.mean_quota_mc, graf_out.mean_instances,
            hpa_out.p99_ms.map(|v| v.round()), hpa_out.mean_quota_mc, hpa_out.mean_instances,
            saving * 100.0,
        );
        println!(
            "  graf per-svc: {:?}",
            graf_out.per_service_quota_mc.iter().map(|v| v.round()).collect::<Vec<_>>()
        );
        println!(
            "  hpa  per-svc: {:?}",
            hpa_out.per_service_quota_mc.iter().map(|v| v.round()).collect::<Vec<_>>()
        );
    }
    args.finish_telemetry(&obs);
}
