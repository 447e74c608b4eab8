//! # graf-nn
//!
//! A from-scratch neural-network substrate replacing the paper's
//! PyTorch/torch-geometric stack (§4). It provides exactly what GRAF's
//! latency prediction model and configuration solver need:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix whose ops all write in
//!   place (the `*_into` / `*_acc` product and affine kernels),
//! * [`Mlp`] — multi-layer perceptrons with ReLU activations and dropout,
//!   implemented in a *stateless-trace* style: [`Mlp::forward_into`] records
//!   an [`mlp::MlpTrace`] so the same network can be applied many times
//!   within one computation graph (as message passing requires) and each
//!   application back-propagated independently by the one [`Mlp::backward`],
//!   whose parameter gradients land in an external [`mlp::MlpGrads`] sink,
//! * [`Adam`] — the Adam optimizer (Kingma & Ba), which the paper uses both
//!   for training (§3.4) and for the configuration solver's gradient descent
//!   over resources (§3.5), stepped as `begin_step` + one `update` per
//!   parameter tensor,
//! * [`loss`] — losses including the paper's asymmetric Hüber on percentage
//!   error (eq. 4) with `θ_L = 0.1`, `θ_R = 0.3` (Table 1).
//!
//! `Mlp::backward` also gives gradients **with respect to inputs**, which is
//! the mechanism the configuration solver uses to differentiate predicted
//! latency with respect to CPU quotas. There is one path per operation:
//! scratch comes from the [`Workspace`] pool and outputs are caller-owned,
//! so the training and solver hot loops allocate nothing once warm.

//! **Invariants.** Kernels are pure `f64` arithmetic in fixed iteration
//! order — no threads, no randomness, no reordered reductions — so results
//! are bit-identical across runs and machines with the same FP semantics.
//! Dropout masks come from caller-provided seeded RNGs. The [`sanitize`]
//! counting allocator, installed by the crate's `tests/sanitize.rs`, proves
//! the `*_into`/`*_acc` paths allocate nothing after warm-up.

// `sanitize::CountingAlloc`'s `GlobalAlloc` impl is the one sanctioned use of
// `unsafe` (the trait contract requires it); it opts out of the deny locally.
#![deny(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod sanitize;
pub mod workspace;

pub use loss::AsymmetricHuber;
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpGrads, MlpTrace, Mode};
pub use optim::Adam;
pub use param::Param;
pub use workspace::Workspace;
