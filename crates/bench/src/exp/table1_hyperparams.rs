//! Table 1: latency-prediction-model training hyper-parameters.
//!
//! Prints both the paper's published values and this reproduction's
//! CPU-scale defaults (`--paper-scale` restores the published iteration
//! budget in the other experiments).

use std::io::{self, Write};

use graf_core::TrainConfig;
use graf_gnn::GnnConfig;

use super::Ctx;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let paper = TrainConfig::paper();
    let ours = TrainConfig::default();
    let arch = GnnConfig::default();

    writeln!(cx.out, "# Table 1 — Latency Prediction Model training parameters")?;
    writeln!(cx.out, "{:<28} {:>14} {:>18}", "parameter", "paper", "repro default")?;
    writeln!(cx.out, "{:<28} {:>14} {:>18}", "optimizer iterations", "7e4", "epochs-based")?;
    writeln!(cx.out, "{:<28} {:>14} {:>18}", "epochs", paper.epochs, ours.epochs)?;
    writeln!(cx.out, "{:<28} {:>14} {:>18}", "batch size", 256, ours.batch_size)?;
    writeln!(cx.out, "{:<28} {:>14} {:>18}", "learning rate", "2e-4", format!("{:.0e}", ours.lr))?;
    writeln!(cx.out, "{:<28} {:>14} {:>18}", "dropout", 0.25, arch.dropout)?;
    writeln!(cx.out, "{:<28} {:>14} {:>18}", "asym. hüber θ_L", 0.1, ours.theta_l)?;
    writeln!(cx.out, "{:<28} {:>14} {:>18}", "asym. hüber θ_R", 0.3, ours.theta_r)?;
    writeln!(cx.out)?;
    writeln!(cx.out, "# Architecture (§4)")?;
    writeln!(cx.out, "MPNN φ/γ: 2 hidden layers × {} units, ReLU", arch.hidden)?;
    writeln!(cx.out, "message dim {}, embedding dim {}", arch.msg_dim, arch.embed_dim)?;
    writeln!(
        cx.out,
        "readout: 2 hidden layers × {} units, ReLU, dropout on all but last",
        arch.readout_hidden
    )?;
    writeln!(cx.out, "node features: (workload, CPU quota) = {} per node", arch.feature_dim)
}
