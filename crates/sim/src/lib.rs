//! # graf-sim
//!
//! Deterministic discrete-event simulator of a microservice application — the
//! substrate that stands in for the paper's 7-machine Kubernetes cluster.
//!
//! The simulation models exactly the phenomena GRAF's design depends on:
//!
//! * **Processor-sharing service stations** ([`station::Instance`]): each
//!   instance has a CPU quota in millicores; in-flight jobs share it equally
//!   (capped per job at one core). This yields the monotone, convex
//!   latency-vs-quota curves of Figure 6 and §2.2 which make gradient-descent
//!   resource optimization sound (§3.5), and produces realistic queueing tails.
//! * **Per-API call trees** ([`topology`]): requests do local work at a
//!   service, then call children sequentially or in parallel (Bookinfo-style
//!   `max` composition), so end-to-end latency is the paper's mix of additions
//!   and maxima over per-service latencies.
//! * **Instance lifecycle with startup latency**: new instances only become
//!   schedulable after a delay the orchestrator layer sets from Figure 1's
//!   measured creation times — the root cause of the cascading effect (§2.1).
//! * **Tracing & metrics hooks**: every hop can emit a Jaeger-style span
//!   (`graf-trace`), and every service tracks CPU usage/quota, arrival rate
//!   and latency windows (`graf-metrics`).
//!
//! The simulation is fully deterministic: all randomness flows from a single
//! seed through [`rng::DetRng`], events are ordered by `(time, sequence)`, and
//! no wall-clock time is read anywhere.
//!
//! ## Example
//!
//! ```
//! use graf_sim::topology::{AppTopology, ApiSpec, CallNode, ChildMode, ServiceSpec};
//! use graf_sim::time::SimTime;
//! use graf_sim::world::{SimConfig, World};
//!
//! // A two-service chain: frontend -> backend.
//! let topo = AppTopology::new(
//!     "demo",
//!     vec![
//!         ServiceSpec::new("frontend", 2.0, 500),
//!         ServiceSpec::new("backend", 4.0, 500),
//!     ],
//!     vec![ApiSpec::new(
//!         "get",
//!         CallNode::new(0).call(CallNode::new(1)),
//!     )],
//! );
//! let mut world = World::new(topo, SimConfig::default(), 7);
//! // One ready instance per service, 1000 millicores each.
//! world.add_instances(0.into(), 1, 1000.0, SimTime::ZERO);
//! world.add_instances(1.into(), 1, 1000.0, SimTime::ZERO);
//! // Inject 100 requests, 10 ms apart, and run for 5 simulated seconds.
//! for i in 0..100u64 {
//!     world.inject(0.into(), SimTime::from_millis(10.0 * i as f64));
//! }
//! world.run_until(SimTime::from_secs(5.0));
//! let done = world.drain_completions();
//! assert_eq!(done.len(), 100);
//! assert!(done.iter().all(|c| c.latency_us() >= 1000), "two hops of base latency");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod events;
pub mod frame;
pub mod loadidx;
pub mod par;
pub mod rng;
pub mod service;
pub mod station;
pub mod time;
pub mod topology;
pub mod world;

pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use topology::{ApiId, ApiSpec, AppTopology, CallNode, ChildMode, ServiceId, ServiceSpec};
pub use world::{Completion, SimConfig, World};

/// The integer-range and clone contracts of the crate's generator, as the
/// rand-style `gen_range(lo..=hi)` callers relied on them.
#[cfg(test)]
mod tests {
    use super::DetRng;

    #[test]
    fn gen_range_inclusive_stays_in_bounds() {
        let mut rng = DetRng::new(5);
        for _ in 0..10_000 {
            let v = rng.uniform_u64(10, 13);
            assert!((10..=13).contains(&v));
        }
        // Degenerate single-point range.
        assert_eq!(rng.uniform_u64(7, 7), 7);
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = DetRng::new(11);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.uniform_u64(0, 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = DetRng::new(1234);
        a.bits64();
        let mut b = a.clone();
        for _ in 0..16 {
            assert_eq!(a.bits64(), b.bits64());
        }
    }
}
