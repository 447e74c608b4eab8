//! Table 2: latency-prediction accuracy by latency region, plus the
//! over-estimation bias (§5.1).
//!
//! The paper reports average absolute percentage error per sampled
//! 99 %-tile-latency region (21.3 % in 0–50 ms up to 31.9 % in 0–800 ms) and
//! a +5.2 % mean over-estimation — the asymmetric-Hüber design goal, since
//! over-estimating keeps the solver away from SLO-violating configurations.

use std::io::{self, Write};

use super::Ctx;
use crate::standard::{boutique_setup, social_setup, AppSetup};

fn evaluate(cx: &mut Ctx, setup: &AppSetup) -> io::Result<()> {
    writeln!(cx.out, "\n## {}", setup.topo.name)?;
    let graf = cx.graf(setup);
    let table = graf.model.error_table(&graf.test_set);
    writeln!(
        cx.out,
        "test set: {} samples (of {} collected); best val loss {:.4}",
        table.count,
        graf.samples.len(),
        graf.report.best_val
    )?;
    writeln!(cx.out, "{:<12} {:>18} {:>9}", "region", "avg |error| (%)", "samples")?;
    for (name, _, _, err, n) in &table.regions {
        if err.is_nan() {
            writeln!(cx.out, "{name:<12} {:>18} {n:>9}", "-")?;
        } else {
            writeln!(cx.out, "{name:<12} {err:>18.1} {n:>9}")?;
        }
    }
    writeln!(
        cx.out,
        "mean over-estimation: {:+.1}% ({:.0}% of points over-estimated) — paper: +5.2%",
        table.mean_overestimate_pct,
        table.overestimate_fraction * 100.0
    )
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    writeln!(cx.out, "# Table 2 — prediction percentage error by p99-latency region")?;
    evaluate(cx, &boutique_setup())?;
    evaluate(cx, &social_setup())
}
