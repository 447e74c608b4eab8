//! Zero-allocation steady state for the GNN, proven by the counting allocator.
//!
//! One full `train_step` — chunked forward with dropout, backward through the
//! stacked message-passing kernels, ordered gradient reduction, split Adam
//! update — must not touch the heap once its buffers are warm, on the
//! `threads <= 1` inline path (the counter is thread-local, so the measured
//! work must stay on the measuring thread). The solver's kept-trace gradient
//! path (`predict_keep_into` + `grad_from_kept_into`) must be allocation-free
//! too, for the GNN and for the `FlatMlp` ablation.

use graf_gnn::{FlatMlp, GnnConfig, GraphSpec, LatencyNet, MicroserviceGnn};
use graf_nn::sanitize::{assert_no_alloc, CountingAlloc};
use graf_nn::{Adam, AsymmetricHuber, Matrix};
use graf_sim::rng::DetRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn gnn() -> MicroserviceGnn {
    let mut rng = DetRng::new(3);
    let graph = GraphSpec::from_edges(3, &[(0, 1), (1, 2)]);
    MicroserviceGnn::new(graph, GnnConfig::default(), &mut rng)
}

#[test]
fn gnn_train_step_is_allocation_free_in_steady_state() {
    let mut net = gnn();
    net.set_threads(1);
    let x = Matrix::from_fn(32, 6, |r, c| ((r * 5 + c * 3) % 11) as f64 / 11.0);
    let y: Vec<f64> = (0..32).map(|r| 0.5 + 0.1 * (r % 7) as f64).collect();
    let loss = AsymmetricHuber::default();
    let mut opt = Adam::new(1e-3);
    let mut rng = DetRng::new(4);

    for _ in 0..3 {
        net.train_step(&x, &y, &loss, &mut opt, &mut rng);
    }
    let l = assert_no_alloc("gnn train step", || net.train_step(&x, &y, &loss, &mut opt, &mut rng));
    assert!(l.is_finite());
}

#[test]
fn gnn_solver_fast_path_is_allocation_free_in_steady_state() {
    let mut net = gnn();
    let x = Matrix::from_fn(1, 6, |_, c| 0.2 + 0.1 * c as f64);
    let mut pred: Vec<f64> = Vec::new();
    let mut dx = Matrix::default();

    net.predict_keep_into(&x, &mut pred);
    net.grad_from_kept_into(&x, &mut dx);
    assert_no_alloc("gnn predict_keep_into + grad_from_kept_into", || {
        net.predict_keep_into(&x, &mut pred);
        net.grad_from_kept_into(&x, &mut dx);
    });
    assert_eq!(pred.len(), 1);
    assert_eq!((dx.rows(), dx.cols()), (1, 6));
}

#[test]
fn flat_mlp_solver_fast_path_is_allocation_free_in_steady_state() {
    let mut rng = DetRng::new(7);
    let mut net = FlatMlp::new(3, 2, 120, 0.25, &mut rng);
    let x = Matrix::from_fn(1, 6, |_, c| 0.2 + 0.1 * c as f64);
    let mut pred: Vec<f64> = Vec::new();
    let mut dx = Matrix::default();

    net.predict_keep_into(&x, &mut pred);
    net.grad_from_kept_into(&x, &mut dx);
    assert_no_alloc("flat-mlp predict_keep_into + grad_from_kept_into", || {
        net.predict_keep_into(&x, &mut pred);
        net.grad_from_kept_into(&x, &mut dx);
    });
    assert_eq!(pred.len(), 1);
    assert_eq!((dx.rows(), dx.cols()), (1, 6));
}

#[test]
fn flat_mlp_train_step_is_allocation_free_in_steady_state() {
    let mut rng = DetRng::new(5);
    let mut net = FlatMlp::new(3, 2, 16, 0.1, &mut rng);
    let x = Matrix::from_fn(32, 6, |r, c| ((r * 7 + c) % 9) as f64 / 9.0);
    let y: Vec<f64> = (0..32).map(|r| 0.3 + 0.05 * (r % 5) as f64).collect();
    let loss = AsymmetricHuber::default();
    let mut opt = Adam::new(1e-3);
    let mut train_rng = DetRng::new(6);

    for _ in 0..3 {
        net.train_step(&x, &y, &loss, &mut opt, &mut train_rng);
    }
    let l = assert_no_alloc("flat-mlp train step", || {
        net.train_step(&x, &y, &loss, &mut opt, &mut train_rng)
    });
    assert!(l.is_finite());
}
