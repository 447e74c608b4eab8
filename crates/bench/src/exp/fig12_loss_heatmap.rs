//! Figure 12: heat-map of the configuration solver's loss over two services'
//! quotas (§5.2, *Configuration solver*).
//!
//! The loss surface `Σr + ρ·max(0, L̂ − SLO)` restricted to two quota axes is
//! empirically convex-ish: a violation wall at low quotas (the penalty) and a
//! gentle resource slope at high quotas, so gradient descent finds the global
//! optimum along the wall. Rows/columns sweep the two heaviest Online
//! Boutique services; other services stay at GRAF's solved configuration.

use std::io::{self, Write};

use graf_apps::boutique;
use graf_core::solver::loss_at;

use super::Ctx;
use crate::standard::boutique_setup;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    writeln!(cx.out, "# Figure 12 — solver loss over (recommendation, shipping) quotas")?;
    writeln!(cx.out, "training GRAF...")?;
    let graf = cx.graf(&setup);
    let mut ctrl = cx.controller(&graf, setup.slo_ms);
    let plan = ctrl.plan_outcome(&setup.probe_qps, None);
    let solved = plan.quotas_mc;
    writeln!(
        cx.out,
        "solved configuration: {:?} (predicted {:.1} ms)",
        solved.iter().map(|v| v.round()).collect::<Vec<_>>(),
        plan.solve.predicted_ms
    )?;

    let workloads = graf.analyzer.service_workloads(&setup.probe_qps);
    let (a, b) = (boutique::RECOMMENDATION as usize, boutique::SHIPPING as usize);
    let steps = 12;
    let range = |i: usize, lo: f64, hi: f64| lo + (hi - lo) * i as f64 / (steps - 1) as f64;
    let (alo, ahi) = (graf.bounds.lower[a], graf.bounds.upper[a]);
    let (blo, bhi) = (graf.bounds.lower[b], graf.bounds.upper[b]);

    // Header: shipping quota columns.
    write!(cx.out, "rec\\ship")?;
    for j in 0..steps {
        write!(cx.out, ",{:.0}", range(j, blo, bhi))?;
    }
    writeln!(cx.out)?;
    for i in 0..steps {
        let qa = range(i, alo, ahi);
        write!(cx.out, "{qa:.0}")?;
        for j in 0..steps {
            let qb = range(j, blo, bhi);
            let mut quotas = solved.clone();
            quotas[a] = qa;
            quotas[b] = qb;
            let loss = loss_at(&graf.model, &workloads, &quotas, setup.slo_ms);
            write!(cx.out, ",{loss:.2}")?;
        }
        writeln!(cx.out)?;
    }
    writeln!(
        cx.out,
        "\n(low-quota corner: SLO-violation penalty wall; high-quota corner: resource cost)"
    )
}
