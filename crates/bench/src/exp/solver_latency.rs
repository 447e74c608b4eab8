//! §3.8 / §5.2 timing claims: the configuration solver's wall-clock latency
//! and iteration counts.
//!
//! The paper measures 3.4–6.8 s per solve (p90 ≈ 6.7 s to tolerance) on its
//! testbed — fast enough for synchronous control at a 15 s interval. This
//! reproduction's model is the same size but runs without Python overhead,
//! so solves complete in microseconds–milliseconds; the claim under test is
//! that the solve fits comfortably inside the control interval.

use std::io::{self, Write};
use std::time::Instant;

use graf_metrics::Summary;
use graf_sim::rng::DetRng;

use super::Ctx;
use crate::standard::boutique_setup;

#[expect(
    clippy::disallowed_methods,
    reason = "wall time per solve is this experiment's output, never a simulation input"
)]
pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    writeln!(cx.out, "# Solver latency (§3.8: 3.4–6.8 s on the paper's testbed)")?;
    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(&setup);
    let mut ctrl = cx.controller(&graf, setup.slo_ms);

    let mut wall = Summary::new();
    let mut iters = Summary::new();
    let mut rng = DetRng::new(cx.args.seed ^ 0x50);
    let solves = 200;
    for _ in 0..solves {
        let mult = rng.uniform(0.3, 1.5);
        let rates: Vec<f64> = setup.probe_qps.iter().map(|q| q * mult).collect();
        let t0 = Instant::now();
        let res = ctrl.plan_outcome(&rates, None).solve;
        wall.record(t0.elapsed().as_secs_f64() * 1000.0);
        iters.record(res.iterations as f64);
    }
    // Summaries are non-empty: the loop above recorded `solves` samples.
    let full = "summary holds one sample per solve";
    writeln!(cx.out, "\n{solves} solves across workloads 0.3–1.5× the operating point:")?;
    writeln!(
        cx.out,
        "wall time  — p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        wall.percentile(0.50).expect(full),
        wall.percentile(0.90).expect(full),
        wall.percentile(0.99).expect(full),
        wall.max().expect(full)
    )?;
    writeln!(
        cx.out,
        "iterations — p50 {:.0}, p90 {:.0}, max {:.0}",
        iters.percentile(0.50).expect(full),
        iters.percentile(0.90).expect(full),
        iters.max().expect(full)
    )?;
    let interval_ms = 15_000.0;
    writeln!(
        cx.out,
        "\nworst solve uses {:.4}% of the 15 s control interval (paper: ~45%)",
        100.0 * wall.max().expect(full) / interval_ms
    )
}
