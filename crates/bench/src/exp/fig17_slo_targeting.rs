//! Figure 17: measured tail latency of configurations targeting various
//! latency SLOs (§5.2).
//!
//! For every target SLO the configuration solver produces a quota vector;
//! deploying it and measuring the actual p99 shows how tightly GRAF tracks
//! the target. The paper reports 85.1 % of configurations landing within the
//! targeted SLO, with measured points densely clustered near the target.

use std::io::{self, Write};

use super::Ctx;
use crate::standard::boutique_setup;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    // Sample for the loosest SLO in the sweep: Algorithm 1's lower bounds
    // derive from the sampling SLO, so the training box must span every
    // target the solver will be asked for.
    let mut setup = boutique_setup();
    setup.slo_ms = 180.0;
    writeln!(cx.out, "# Figure 17 — measured p99 vs targeted SLO (Online Boutique)")?;
    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(&setup);

    // Sweep SLO targets across the achievable band; several workload levels
    // per target to populate the scatter.
    writeln!(
        cx.out,
        "slo_ms,workload_mult,total_quota_mc,predicted_ms,measured_p99_ms,within_slo"
    )?;
    let mut within = 0usize;
    let mut total = 0usize;
    for slo in [65.0, 80.0, 100.0, 120.0, 150.0, 180.0] {
        let mut ctrl = graf.controller(slo);
        ctrl.set_obs(cx.obs.scoped("variant", format!("slo={slo}")));
        for mult in [0.6, 0.8, 1.0] {
            let rates: Vec<f64> = setup.probe_qps.iter().map(|q| q * mult).collect();
            let plan = ctrl.plan_outcome(&rates, None);
            let (out, _) = graf.collector.measure(
                &plan.quotas_mc,
                &rates,
                cx.args.seed ^ (slo as u64) << 4 ^ (mult * 10.0) as u64,
                false,
            );
            let measured = out.e2e_tail_ms.unwrap_or(f64::NAN);
            let ok = measured <= slo;
            within += ok as usize;
            total += 1;
            writeln!(
                cx.out,
                "{slo:.0},{mult:.1},{:.0},{:.1},{measured:.1},{}",
                plan.quotas_mc.iter().sum::<f64>(),
                plan.solve.predicted_ms,
                ok as u8
            )?;
        }
    }
    writeln!(
        cx.out,
        "\n{:.1}% of configurations fall within the targeted SLO (paper: 85.1%)",
        100.0 * within as f64 / total as f64
    )
}
