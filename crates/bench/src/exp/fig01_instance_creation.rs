//! Figure 1: time to create microservice instances as a function of how many
//! are created at once.
//!
//! The paper measures 5.5 s for one instance up to 45.6 s for sixteen on one
//! worker node. The orchestrator's creation model is calibrated to that
//! curve; this experiment verifies the end-to-end behaviour by actually creating
//! batches in a cluster and timing readiness.

use std::io::{self, Write};

use graf_orchestrator::Cluster;
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec};
use graf_sim::world::{SimConfig, World};

use super::Ctx;

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    writeln!(cx.out, "# Figure 1 — time to create instances (batch size vs seconds)")?;
    writeln!(cx.out, "batch,measured_s,paper_s")?;
    let paper = [(1usize, 5.5), (2, 8.7), (4, 12.5), (8, 23.6), (16, 45.6)];
    for &(batch, paper_s) in &paper {
        let topo = AppTopology::new(
            "one",
            vec![ServiceSpec::new("s", 1.0, 100)],
            vec![ApiSpec::new("get", CallNode::new(0))],
        );
        let world = World::new(topo, SimConfig::default(), cx.args.seed);
        let mut cluster = Cluster::uniform(world, 100.0, 1);
        cluster.set_desired(ServiceId(0), 1 + batch);
        // Advance until every instance is ready; record the readiness time.
        let mut t = 0.0;
        loop {
            t += 0.1;
            cluster.world_mut().run_until(SimTime::from_secs(t));
            let (_, ready, _) = cluster.world().instance_counts(ServiceId(0));
            if ready == 1 + batch {
                break;
            }
            assert!(t < 300.0, "creation never completed");
        }
        writeln!(cx.out, "{batch},{t:.1},{paper_s}")?;
    }
    Ok(())
}
