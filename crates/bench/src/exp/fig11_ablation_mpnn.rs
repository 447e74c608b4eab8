//! Figure 11: learning curves of GRAF vs GRAF without MPNN (§5.1, *Efficacy
//! of GNN*).
//!
//! Both models share the same samples, split, readout capacity and training
//! recipe; the ablation simply skips message passing. The paper observes the
//! no-MPNN model converging faster on the training set but generalizing
//! worse: the full model's *test/validation* loss ends lower.

use std::io::{self, Write};

use graf_core::{NetKind, TrainConfig};

use super::Ctx;
use crate::standard::boutique_setup;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let setup = boutique_setup();
    writeln!(cx.out, "# Figure 11 — learning curves: GRAF vs GRAF w/o MPNN (Online Boutique)")?;
    writeln!(cx.out, "training GRAF (MPNN)...")?;
    let graf = cx.graf(&setup);
    writeln!(cx.out, "training the ablation (no MPNN)...")?;
    let (flat_model, flat_report) = graf.retrain(NetKind::FlatMlp, &graf.build_cfg.train);

    writeln!(cx.out, "\niteration,graf_val_loss,flat_val_loss")?;
    for i in 0..graf.report.iters.len().min(flat_report.iters.len()) {
        writeln!(
            cx.out,
            "{},{:.4},{:.4}",
            graf.report.iters[i], graf.report.val_loss[i], flat_report.val_loss[i]
        )?;
    }

    let cfg = TrainConfig::default();
    let graf_test = graf.model.eval_loss(&graf.test_set, &cfg);
    let flat_test = flat_model.eval_loss(&graf.test_set, &cfg);
    writeln!(
        cx.out,
        "\nbest validation loss — GRAF {:.4}, w/o MPNN {:.4}",
        graf.report.best_val, flat_report.best_val
    )?;
    writeln!(cx.out, "held-out test loss  — GRAF {:.4}, w/o MPNN {:.4}", graf_test, flat_test)?;
    writeln!(
        cx.out,
        "\nGRAF generalizes {} on held-out data (paper: 'the trained model from GRAF \
         showed better performance than the model from GRAF without MPNN')",
        if graf_test < flat_test { "better" } else { "WORSE — investigate" }
    )?;
    let graf_table = graf.model.error_table(&graf.test_set);
    let flat_table = flat_model.error_table(&graf.test_set);
    writeln!(
        cx.out,
        "test |error| (0-800ms region) — GRAF {:.1}%, w/o MPNN {:.1}%",
        graf_table.regions[3].3, flat_table.regions[3].3
    )
}
