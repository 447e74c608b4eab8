//! Figures 4, 5 and 10: the benchmark application topologies, as Graphviz
//! DOT (pipe into `dot -Tpng` to render the paper's diagrams).

use std::io::{self, Write};

use graf_apps::all_apps;
use graf_sim::topology::ApiId;

use super::Ctx;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    for topo in all_apps() {
        writeln!(cx.out, "// ===== {} =====", topo.name)?;
        write!(cx.out, "{}", topo.to_dot())?;
        for api in 0..topo.num_apis() {
            let spec = &topo.apis[api];
            let services: Vec<String> = topo
                .services_in_api(ApiId(api as u16))
                .iter()
                .map(|s| topo.services[s.0 as usize].name.clone())
                .collect();
            writeln!(cx.out, "// API {:>12}: {}", spec.name, services.join(" → "))?;
        }
        writeln!(cx.out)?;
    }
    Ok(())
}
