//! NaN/Inf poison checks (debug builds).
//!
//! The invariant under test: a poisoned parameter is caught by the *first*
//! layer whose kernel touches it — the panic names that layer — instead of
//! surfacing pages later as a NaN loss. These tests rely on
//! `debug-assertions`, which are on in the test profile and compiled out in
//! release builds.

use graf_nn::{Matrix, Mlp, MlpTrace, Mode};
use graf_sim::rng::DetRng;

fn mlp(widths: &[usize]) -> Mlp {
    let mut rng = DetRng::new(7);
    Mlp::new(widths, 0.0, &mut rng)
}

fn input(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| 0.1 * (r as f64) - 0.05 * (c as f64) + 0.2)
}

/// Sets entry `(0, 0)` of the `index`-th parameter tensor in
/// `for_each_param_mut` order: each layer's weights, then each layer's biases.
fn poison(net: &mut Mlp, index: usize, v: f64) {
    let mut i = 0;
    net.for_each_param_mut(|p| {
        if i == index {
            p.value.set(0, 0, v);
        }
        i += 1;
    });
}

#[test]
#[should_panic(expected = "layer 0")]
fn poisoned_first_layer_weight_is_caught_at_layer_zero() {
    let mut net = mlp(&[4, 8, 8, 1]);
    poison(&mut net, 0, f64::NAN);
    let x = input(2, 4);
    net.forward_into(&x, &mut Mode::Eval, &mut MlpTrace::default(), &mut Matrix::default());
}

#[test]
#[should_panic(expected = "layer 2")]
fn poisoned_later_layer_names_its_own_layer() {
    let mut net = mlp(&[4, 8, 8, 1]);
    poison(&mut net, 2, f64::INFINITY);
    let x = input(2, 4);
    net.forward_into(&x, &mut Mode::Eval, &mut MlpTrace::default(), &mut Matrix::default());
}

#[test]
#[should_panic(expected = "layer 1")]
fn poisoned_bias_is_caught_too() {
    let mut net = mlp(&[4, 8, 8, 1]);
    // Biases follow the three weight tensors.
    poison(&mut net, 3 + 1, f64::NEG_INFINITY);
    let x = input(2, 4);
    net.forward_into(&x, &mut Mode::Eval, &mut MlpTrace::default(), &mut Matrix::default());
}

#[test]
fn clean_forward_does_not_panic() {
    let net = mlp(&[4, 8, 8, 1]);
    let x = input(3, 4);
    let mut y = Matrix::default();
    net.forward_into(&x, &mut Mode::Eval, &mut MlpTrace::default(), &mut y);
    assert!(y.data().iter().all(|v| v.is_finite()));
}

#[test]
#[should_panic(expected = "matmul_into output")]
fn kernel_output_check_catches_poisoned_operand() {
    let a = Matrix::from_fn(2, 2, |_, _| f64::NAN);
    let b = Matrix::from_fn(2, 2, |_, _| 1.0);
    let mut out = Matrix::default();
    a.matmul_into(&b, &mut out);
}
