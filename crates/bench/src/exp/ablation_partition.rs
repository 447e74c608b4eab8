//! Ablation of the §6 scalability extension: one full-graph GNN vs an
//! ensemble of per-partition GNNs on Social Network (10 services).
//!
//! The readout input grows linearly with the service count; partitioning
//! caps each sub-model's size. This measures the accuracy cost of the
//! additive composition at k = 2 and k = 3 partitions.

use std::io::{self, Write};

use graf_core::{NetKind, PartitionedLatencyModel};

use super::Ctx;
use crate::standard::social_setup;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = social_setup();
    writeln!(cx.out, "# Partitioning ablation — Social Network, full GNN vs k-part ensembles")?;
    writeln!(cx.out, "training full GRAF...")?;
    let graf = cx.graf(&setup);

    // Reference: full model's error on its held-out test set.
    let table = graf.model.error_table(&graf.test_set);
    writeln!(cx.out, "\n{:<14} {:>12} {:>16} {:>14}", "model", "parts", "params", "MAPE (%)")?;
    writeln!(
        cx.out,
        "{:<14} {:>12} {:>16} {:>14.1}",
        "full GNN",
        1,
        graf.model.num_params(),
        table.regions[3].3
    )?;

    // Evaluate the partitioned ensembles on the same raw samples (the exact
    // test rows differ by feature slicing, so MAPE is computed over the whole
    // sample set for both — the full model's whole-set MAPE is printed too).
    let mut full_mape = 0.0;
    for s in &graf.samples {
        let p = graf.model.predict_ms(&s.workloads, &s.quotas_mc);
        full_mape += ((p - s.p99_ms) / s.p99_ms.max(1e-9)).abs();
    }
    full_mape *= 100.0 / graf.samples.len() as f64;
    writeln!(
        cx.out,
        "{:<14} {:>12} {:>16} {:>14.1}",
        "(whole set)",
        1,
        graf.model.num_params(),
        full_mape
    )?;

    for k in [2usize, 3] {
        let (model, _reports) = PartitionedLatencyModel::build(
            NetKind::Gnn,
            graf.analyzer.edges(),
            setup.topo.num_services(),
            k,
            graf.model.scaler,
            &graf.samples,
            &graf.build_cfg.train,
            graf.build_cfg.split_seed,
        );
        writeln!(
            cx.out,
            "{:<14} {:>12} {:>16} {:>14.1}",
            format!("{k}-part"),
            model.num_parts(),
            model.num_params(),
            model.mape(&graf.samples)
        )?;
    }
    Ok(())
}
