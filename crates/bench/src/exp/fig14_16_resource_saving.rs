//! Figures 14, 15 & 16: steady-state CPU totals and per-microservice quotas,
//! GRAF vs the fine-tuned Kubernetes autoscaler (§5.3, *Resource saving*).
//!
//! The paper hand-tunes one global HPA utilization threshold per application
//! to meet the latency SLO, then reports that GRAF achieves the same tail
//! latency with 14–19 % less total CPU, by shifting quota toward
//! latency-sensitive microservices.

use std::io::{self, Write};

use graf_core::baseline::run_steady;
use graf_core::GrafControllerConfig;

use super::Ctx;
use crate::standard::{boutique_setup, social_setup, AppSetup};

fn evaluate(cx: &mut Ctx, setup: &AppSetup) -> io::Result<()> {
    writeln!(cx.out, "\n## {} (SLO {} ms p99)", setup.topo.name, setup.slo_ms)?;
    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(setup);
    writeln!(
        cx.out,
        "trained on {} samples; Algorithm-1 box: lower {:?}, upper {:?}",
        graf.samples.len(),
        graf.bounds.lower.iter().map(|v| v.round()).collect::<Vec<_>>(),
        graf.bounds.upper.iter().map(|v| v.round()).collect::<Vec<_>>(),
    )?;

    let trial = setup.steady_trial();

    let variant = |name: &str| cx.obs.scoped("variant", format!("{} {name}", setup.topo.name));
    let mut graf_ctrl = graf.controller(setup.slo_ms);
    graf_ctrl.set_obs(variant("GRAF"));
    let graf_out = run_steady(&trial, &mut graf_ctrl);

    // §6 extension: eq.-7 ceil replaced by greedy integer refinement.
    let mut graf_ref_ctrl = graf.controller_with(GrafControllerConfig {
        slo_ms: setup.slo_ms,
        train_total_qps: graf.train_total_qps(),
        integer_refine: true,
        ..Default::default()
    });
    graf_ref_ctrl.set_obs(variant("GRAF+integer-refinement"));
    let graf_ref_out = run_steady(&trial, &mut graf_ref_ctrl);

    let (thr, hpa_out) = cx.hpa_threshold(setup);

    writeln!(cx.out, "\n### Figure 14 row (total CPU quota, millicores)")?;
    writeln!(
        cx.out,
        "GRAF: {:.0} mc (p99 {:.0} ms, {} timeouts) | K8s@{:.2}: {:.0} mc (p99 {:.0} ms, {} timeouts)",
        graf_out.mean_quota_mc,
        graf_out.p99_ms.unwrap_or(f64::NAN),
        graf_out.timeouts,
        thr,
        hpa_out.mean_quota_mc,
        hpa_out.p99_ms.unwrap_or(f64::NAN),
        hpa_out.timeouts,
    )?;
    let saving = 1.0 - graf_out.mean_quota_mc / hpa_out.mean_quota_mc;
    writeln!(cx.out, "GRAF saves {:.1}% total CPU (paper: 14-19%)", saving * 100.0)?;
    writeln!(
        cx.out,
        "GRAF+integer-refinement (§6): {:.0} mc (p99 {:.0} ms, {} timeouts) → saves {:.1}%",
        graf_ref_out.mean_quota_mc,
        graf_ref_out.p99_ms.unwrap_or(f64::NAN),
        graf_ref_out.timeouts,
        100.0 * (1.0 - graf_ref_out.mean_quota_mc / hpa_out.mean_quota_mc)
    )?;

    writeln!(cx.out, "\n### Figures 15/16 rows (per-microservice CPU quota, millicores)")?;
    writeln!(cx.out, "{:<18} {:>8} {:>8}", "service", "GRAF", "K8s")?;
    for (i, svc) in setup.topo.services.iter().enumerate() {
        writeln!(
            cx.out,
            "{:<18} {:>8.0} {:>8.0}",
            format!("MS{} {}", i + 1, svc.name),
            graf_out.per_service_quota_mc[i],
            hpa_out.per_service_quota_mc[i],
        )?;
    }
    Ok(())
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    writeln!(cx.out, "# Figures 14/15/16 — resource saving at equal SLO")?;
    evaluate(cx, &boutique_setup())?;
    evaluate(cx, &social_setup())
}
