//! # graf-apps
//!
//! Models of the open-source benchmark applications the paper evaluates on
//! (§5, Figures 4/5/10), expressed as `graf-sim` topologies:
//!
//! * [`online_boutique`] — Google's Online Boutique demo; 6 controlled
//!   microservices (the paper's MS1–MS6) and three front-end APIs, matching
//!   "Locust generates workloads composed of three multi APIs".
//! * [`social_network`] — DeathStarBench's Social Network; 10 controlled
//!   microservices on the post-compose path (the paper's MS1–MS10, Fig 10).
//! * [`robot_shop()`](robot_shop::robot_shop) — Stan's Robot Shop (Fig 5 left), whose Web vs Catalogue
//!   latency curves motivate §2.2.
//! * [`bookinfo()`](bookinfo::bookinfo) — Istio's Bookinfo (Fig 5 right), whose Details ∥
//!   Reviews→Ratings parallelism shows why off-critical-path services don't
//!   deserve extra CPU.
//!
//! Service CPU demands are calibrated so that the qualitative properties the
//! paper exploits hold: every service has a monotone convex latency-vs-quota
//! curve with a different steepness (Fig 6), some services are far more
//! latency-sensitive than others (Online Boutique's recommendation/shipping,
//! which GRAF deliberately over-allocates in Fig 15), and parallel branches
//! create `max()`-shaped end-to-end latency (Bookinfo).
//!
//! **Invariants.** Topologies are pure data: constructors take no seeds,
//! draw no randomness and always return the same `AppTopology`, so every
//! experiment's application model is reproducible by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod bookinfo;
pub mod boutique;
pub mod robot_shop;
pub mod social;

pub use bookinfo::bookinfo;
pub use boutique::online_boutique;
pub use robot_shop::robot_shop;
pub use social::social_network;

use graf_sim::topology::AppTopology;

/// All benchmark applications, for experiments that cover every one.
pub fn all_apps() -> Vec<AppTopology> {
    vec![online_boutique(), social_network(), robot_shop(), bookinfo()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use graf_sim::time::SimTime;
    use graf_sim::topology::{ApiId, ServiceId};
    use graf_sim::world::{SimConfig, World};

    /// Smoke-runs every app: one instance per service, light load, and checks
    /// that all requests complete and touch the expected services.
    #[test]
    fn all_apps_execute_end_to_end() {
        for topo in all_apps() {
            let name = topo.name.clone();
            let napis = topo.num_apis();
            let nsvc = topo.num_services();
            let mut world = World::new(topo, SimConfig::default(), 99);
            for s in 0..nsvc {
                world.add_instances(ServiceId(s as u16), 1, 1000.0, SimTime::ZERO);
            }
            for api in 0..napis {
                for i in 0..50u64 {
                    world.inject(ApiId(api as u16), SimTime(i * 20_000 + api as u64));
                }
            }
            world.run_until(SimTime::from_secs(30.0));
            let done = world.drain_completions();
            assert_eq!(done.len(), 50 * napis, "{name}: all requests complete");
            assert!(done.iter().all(|c| c.latency_us() > 0), "{name}: latencies positive");
        }
    }

    #[test]
    fn every_app_has_connected_edges() {
        for topo in all_apps() {
            let edges = topo.edges();
            assert!(!edges.is_empty(), "{} must have call edges", topo.name);
            // Every non-root service of each API is reachable from its root.
            for api in 0..topo.num_apis() {
                let services = topo.services_in_api(ApiId(api as u16));
                assert!(!services.is_empty());
            }
        }
    }
}
