//! Ablation of the §6 "Integer Optimization" extension: plain eq.-7 `ceil`
//! rounding vs the greedy model-checked integer refinement.
//!
//! The paper notes its rounding "is overprovisioning resources in every
//! microservices, yet bounded by the CPU resource unit for an instance" and
//! that integer optimization has "slight improvement room". This measures
//! that room: instances/quota saved by refinement at equal SLO, and whether
//! the refined configuration still meets the SLO when actually deployed.

use std::io::{self, Write};

use graf_core::solver::integer_refine;

use super::Ctx;
use crate::standard::boutique_setup;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    writeln!(cx.out, "# Integer-refinement ablation (Online Boutique, SLO {} ms)", setup.slo_ms)?;
    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(&setup);
    let unit = setup.cpu_unit_mc;

    writeln!(
        cx.out,
        "\n{:>5} {:>12} {:>12} {:>8} {:>14} {:>14}",
        "mult", "ceil_inst", "refined_inst", "saved", "ceil_p99", "refined_p99"
    )?;
    let mut ctrl = cx.controller(&graf, setup.slo_ms);
    for mult in [0.5, 0.75, 1.0] {
        let rates: Vec<f64> = setup.probe_qps.iter().map(|q| q * mult).collect();
        let plan = ctrl.plan_outcome(&rates, None);
        let ceil_counts: Vec<usize> =
            plan.quotas_mc.iter().map(|q| (q / unit).ceil().max(1.0) as usize).collect();
        let (refined, _pred) = integer_refine(
            &graf.model,
            &plan.workloads,
            &plan.solve.quotas_mc,
            &graf.bounds,
            unit,
            setup.slo_ms,
        );
        let deploy =
            |counts: &[usize]| -> Vec<f64> { counts.iter().map(|&k| k as f64 * unit).collect() };
        let (ceil_out, _) = graf.collector.measure(
            &deploy(&ceil_counts),
            &rates,
            cx.args.seed ^ (mult * 100.0) as u64,
            false,
        );
        let (ref_out, _) = graf.collector.measure(
            &deploy(&refined),
            &rates,
            cx.args.seed ^ (mult * 100.0) as u64 ^ 1,
            false,
        );
        // Signed: refinement may also add an instance the ceiling missed.
        let tc = ceil_counts.iter().sum::<usize>() as i64;
        let tr = refined.iter().sum::<usize>() as i64;
        writeln!(
            cx.out,
            "{mult:>5.2} {tc:>12} {tr:>12} {:>8} {:>14.1} {:>14.1}",
            tc - tr,
            ceil_out.e2e_tail_ms.unwrap_or(f64::NAN),
            ref_out.e2e_tail_ms.unwrap_or(f64::NAN),
        )?;
    }
    writeln!(
        cx.out,
        "\n(refinement strips whole instances the model judges unnecessary; \
         the measured p99 shows whether it cut into the SLO)"
    )
}
