//! # graf-gnn
//!
//! The paper's latency-prediction network (§3.4): a message-passing neural
//! network (MPNN, Gilmer et al.) over the microservice graph followed by a
//! fully connected readout, plus the "GRAF without MPNN" ablation model of
//! §5.1/Figure 11.
//!
//! * [`GraphSpec`] — the directed service graph (parent → child edges
//!   extracted from traces or the static topology).
//! * [`MicroserviceGnn`] — two message-passing steps implementing eq. (3),
//!   `e_i = γ^(k)(x_i, Σ_{j∈N(i)} φ^(k)(e_j))`, where `N(i)` are `i`'s
//!   parents and γ/φ are 2-hidden-layer 20-unit MLPs, then a flattened
//!   readout through a 2-hidden-layer 120-unit MLP with dropout 0.25 (§4).
//! * [`FlatMlp`] — the ablation: the same readout applied directly to the
//!   concatenated raw node features, skipping message passing.
//! * [`LatencyNet`] — the common interface both models expose to GRAF's
//!   training loop and configuration solver. Crucially it provides
//!   [`LatencyNet::grad_input`], the gradient of the predicted latency with
//!   respect to the node features — the quantity the solver differentiates
//!   to walk CPU quotas downhill (§3.5).
//!
//! Node features follow §3.3: `x_i = [workload l_i, CPU quota r_i]` (scaled).
//!
//! **Invariants.** Training and inference are bit-deterministic for any
//! worker-thread count: mini-batches shard into fixed-size chunks with
//! seeds drawn in chunk order and gradients reduced in ascending chunk
//! order (see `model`). Steady-state prediction and training allocate
//! nothing after warm-up — measured by the counting allocator in
//! `tests/sanitize.rs` and banned in the hot bodies by `graf-lint`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod flat;
pub mod graph;
pub mod model;
pub mod net;

pub use flat::FlatMlp;
pub use graph::GraphSpec;
pub use model::{GnnConfig, MicroserviceGnn};
pub use net::LatencyNet;
