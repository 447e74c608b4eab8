//! # graf-loadgen
//!
//! Load generators for the GRAF reproduction — the analogs of the tools the
//! paper uses (§5, *Experimental Setup*):
//!
//! * [`OpenLoop`] — Vegeta-like constant-rate (open-loop) generation with
//!   piecewise-constant rate schedules. The paper uses Vegeta for the
//!   cascading-effect experiments ("queries for the cart page at a rate of
//!   300 qps") and for Social Network post-compose requests.
//! * [`ClosedLoop`] — Locust-like user threads: each simulated user sends a
//!   request drawn from an API mix, waits for the response, then thinks for a
//!   random delay ("randomly waits for up to 5 seconds") before the next
//!   request. User counts can follow a schedule, which is how the paper
//!   creates traffic surges (250 → 500 threads) and replays the Azure trace.
//! * [`azure`] — a synthetic invocations-per-minute series standing in for
//!   AzurePublicDatasetV2 (see DESIGN.md's substitution table).
//!
//! Generators implement [`LoadGen`]: the experiment driver repeatedly asks for
//! the arrivals of the next time segment and feeds completions back for
//! closed-loop pacing.
//!
//! **Invariants.** Every stochastic choice (Poisson gaps, think times, the
//! Azure-style series) is drawn from a `graf_sim::rng::DetRng` seeded at
//! construction — the same seed yields a bit-identical arrival sequence, and
//! segment boundaries never change what is drawn, only when it is handed
//! over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod azure;
pub mod closed;
pub mod open;

pub use azure::azure_series;
pub use closed::ClosedLoop;
pub use open::OpenLoop;

use graf_sim::time::SimTime;
use graf_sim::topology::ApiId;
use graf_sim::world::Completion;

/// A source of request arrivals.
///
/// The driver calls [`LoadGen::arrivals`] once per load segment (a small slice
/// of simulated time) and injects the returned arrivals into the world; after
/// running the segment it reports completions via [`LoadGen::on_completions`].
pub trait LoadGen {
    /// Returns arrivals in `[from, to)`, in any order.
    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, ApiId)>;

    /// Observes requests that completed during the last segment.
    fn on_completions(&mut self, _completions: &[Completion]) {}
}
