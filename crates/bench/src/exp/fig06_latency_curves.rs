//! Figure 6: per-microservice median latency as a function of CPU quota.
//!
//! The paper plots Robot Shop's Catalogue vs Web: Catalogue's curve is much
//! sharper, which is the §2.2 argument for shifting CPU toward
//! latency-sensitive services. This experiment sweeps one service's quota while
//! the rest stay abundant and reports that service's p50.

use std::io::{self, Write};

use graf_apps::{online_boutique, robot_shop};
use graf_sim::time::SimTime;
use graf_sim::topology::{ApiId, AppTopology, ServiceId};
use graf_sim::world::{SimConfig, World};

use super::Ctx;

/// Measures one service's p50 with the rest of the app well provisioned.
fn p50_at(
    topo: &AppTopology,
    service: usize,
    quota_mc: f64,
    rates: &[f64],
    seed: u64,
) -> Option<f64> {
    let mut quotas = vec![4000.0; topo.num_services()];
    quotas[service] = quota_mc;
    // Single-instance deployment so the quota–latency relation is direct.
    let mut world = World::new(topo.clone(), SimConfig::default(), seed);
    for (s, &q) in quotas.iter().enumerate() {
        world.add_instances(ServiceId(s as u16), 1, q, SimTime::ZERO);
    }
    let mut rng = graf_sim::rng::DetRng::new(seed ^ 0xF16);
    for (api, &rate) in rates.iter().enumerate() {
        if rate <= 0.0 {
            continue;
        }
        let mut t = 0.0f64;
        loop {
            t += rng.exp(1e6 / rate);
            if t >= 11e6 {
                break;
            }
            world.inject(ApiId(api as u16), SimTime(t as u64));
        }
    }
    world.run_until(SimTime::from_secs(11.0));
    world.service_percentile(ServiceId(service as u16), 8, 0.5).map(|d| d.as_millis_f64())
}

fn sweep(cx: &mut Ctx, topo: &AppTopology, services: &[usize], rates: &[f64]) -> io::Result<()> {
    let quotas: Vec<f64> =
        vec![60.0, 80.0, 100.0, 150.0, 200.0, 300.0, 500.0, 750.0, 1000.0, 1500.0];
    write!(cx.out, "quota_mc")?;
    for &s in services {
        write!(cx.out, ",{}", topo.services[s].name)?;
    }
    writeln!(cx.out)?;
    for &q in &quotas {
        write!(cx.out, "{q:.0}")?;
        for &s in services {
            match p50_at(topo, s, q, rates, cx.args.seed) {
                Some(ms) => write!(cx.out, ",{ms:.2}")?,
                None => write!(cx.out, ",")?,
            }
        }
        writeln!(cx.out)?;
    }
    Ok(())
}

pub fn run(cx: &mut Ctx) -> io::Result<()> {
    writeln!(cx.out, "# Figure 6 — p50 latency vs CPU quota (one service varied at a time)")?;
    writeln!(cx.out, "## Robot Shop (paper's Catalogue vs Web)")?;
    sweep(cx, &robot_shop(), &[0, 1], &[120.0, 40.0, 40.0])?;
    writeln!(cx.out, "## Online Boutique (all six controlled services)")?;
    sweep(cx, &online_boutique(), &[0, 1, 2, 3, 4, 5], &[180.0, 180.0, 240.0])
}
