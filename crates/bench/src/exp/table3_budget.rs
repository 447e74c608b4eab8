//! Table 3: expected AWS budget for sample collection and model training.

use std::io::{self, Write};

use super::Ctx;
use crate::pricing::{budget_table, budget_total};

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    writeln!(cx.out, "# Table 3 — Expected budget for 50k samples + training (Online Boutique)")?;
    writeln!(
        cx.out,
        "{:<16} {:<18} {:>9} {:>10}",
        "Module", "AWS EC2 Instance", "Time (h)", "Budget ($)"
    )?;
    let rows = budget_table(50_000, 15.0, 16.0);
    for r in &rows {
        writeln!(
            cx.out,
            "{:<16} {:<18} {:>9.1} {:>10.2}",
            r.module, r.instance, r.hours, r.dollars
        )?;
    }
    writeln!(cx.out, "{:<16} {:<18} {:>9} {:>10.2}", "Total", "", "", budget_total(&rows))?;
    writeln!(cx.out)?;
    writeln!(
        cx.out,
        "(paper: 208.3 h / $20.83, 208.3 h / $82.92, 16 h / $8.42 — total $112.17; \
         sample collection parallelizes at constant cost)"
    )
}
