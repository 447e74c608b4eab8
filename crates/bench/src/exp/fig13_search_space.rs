//! Figure 13 and the §5.1 search-space statistic: Algorithm 1's reduced
//! per-microservice quota ranges versus the original search space, read from
//! the build's Algorithm-1 box (the one the sampler drew from and the solver
//! searches).
//!
//! The paper reports the Online Boutique exploration shrinking to 0.00027×
//! the original volume.

use std::io::{self, Write};

use graf_core::sample_collector::MIN_QUOTA_MC;

use super::Ctx;
use crate::standard::{boutique_setup, social_setup, AppSetup};

fn evaluate(cx: &mut Ctx, setup: &AppSetup) -> io::Result<()> {
    writeln!(cx.out, "\n## {}", setup.topo.name)?;
    let graf = cx.graf(setup);
    let (min_q, max_q) = (MIN_QUOTA_MC, graf.build_cfg.sampling.abundant_quota_mc);
    let bounds = &graf.bounds;
    writeln!(
        cx.out,
        "{:<20} {:>10} {:>10} {:>22}",
        "service", "lower_mc", "upper_mc", "original range (mc)"
    )?;
    for (i, svc) in setup.topo.services.iter().enumerate() {
        writeln!(
            cx.out,
            "{:<20} {:>10.0} {:>10.0} {:>14.0}..{:.0}",
            format!("MS{} {}", i + 1, svc.name),
            bounds.lower[i],
            bounds.upper[i],
            min_q,
            max_q
        )?;
    }
    writeln!(
        cx.out,
        "search-space volume: {:.2e}× the original (paper, Online Boutique: 2.7e-4×)",
        bounds.volume_reduction(min_q, max_q)
    )
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    writeln!(cx.out, "# Figure 13 — Algorithm-1 reduced search space")?;
    evaluate(cx, &boutique_setup())?;
    evaluate(cx, &social_setup())
}
