//! Ablation: the asymmetric Hüber percentage loss (§3.4's three "tricks").
//!
//! The paper motivates (a) percentage error — accuracy concentrated in the
//! small-latency region where SLOs live, (b) Hüber robustness against
//! irregular p99 samples, and (c) asymmetry — under-prediction is penalized
//! more, biasing the model toward over-estimation so the solver stays clear
//! of SLO violations. This ablation trains the same GNN on the same samples
//! with different loss shapes and reports the resulting bias and the
//! SLO-safety consequence (how often the solved configuration's *measured*
//! latency violates the target).

use std::io::{self, Write};

use graf_core::solver::{solve, SolverConfig};
use graf_core::{NetKind, TrainConfig};

use super::Ctx;
use crate::standard::boutique_setup;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    writeln!(cx.out, "# Loss ablation — asymmetric Hüber (θ_L=0.1, θ_R=0.3) vs variants")?;
    writeln!(cx.out, "training base GRAF (for samples/bounds)...")?;
    let graf = cx.graf(&setup);

    // (name, θ_L, θ_R): symmetric Hüber; paper's asymmetric; near-quadratic
    // (huge thresholds ≈ pure percentage-MSE); strongly asymmetric.
    let variants: [(&str, f64, f64); 4] = [
        ("asymmetric (paper)", 0.1, 0.3),
        ("symmetric hüber", 0.2, 0.2),
        ("quadratic (no hüber)", 1e9, 1e9),
        ("strong asymmetry", 0.05, 0.5),
    ];

    writeln!(
        cx.out,
        "\n{:<22} {:>10} {:>12} {:>14} {:>16}",
        "loss", "test_mape%", "over-est_%", "over-est_frac", "slo_violations"
    )?;
    for (name, tl, tr) in variants {
        // Retrain on the build's samples and split with the variant's thetas.
        let train = TrainConfig { theta_l: tl, theta_r: tr, ..graf.build_cfg.train.clone() };
        let (mut model, _) = graf.retrain(NetKind::Gnn, &train);
        let table = model.error_table(&graf.test_set);

        // SLO-safety: solve for several (SLO, workload) targets and measure.
        let mut violations = 0usize;
        let mut trials = 0usize;
        for slo in [80.0, 100.0, 120.0] {
            for mult in [0.7, 1.0] {
                let rates: Vec<f64> = setup.probe_qps.iter().map(|q| q * mult).collect();
                let workloads = graf.analyzer.service_workloads(&rates);
                let res =
                    solve(&mut model, &workloads, slo, &graf.bounds, &SolverConfig::default());
                let (out, _) = graf.collector.measure(
                    &res.quotas_mc,
                    &rates,
                    cx.args.seed ^ (slo as u64) << 3 ^ (mult * 10.0) as u64,
                    false,
                );
                if out.e2e_tail_ms.is_some_and(|m| m > slo) {
                    violations += 1;
                }
                trials += 1;
            }
        }
        writeln!(
            cx.out,
            "{:<22} {:>10.1} {:>12.1} {:>14.2} {:>12}/{trials}",
            name,
            table.regions[3].3,
            table.mean_overestimate_pct,
            table.overestimate_fraction,
            violations
        )?;
    }
    Ok(())
}
