//! Allocation-free steady state, proven by the counting allocator rather
//! than inferred from workspace statistics.
//!
//! A full MLP training step — forward with dropout, backward, ordered
//! gradient accumulation, Adam update — must perform **zero** heap
//! allocations once its buffers are warm. The first three tests check the
//! counter itself.

use graf_nn::mlp::MlpTrace;
use graf_nn::sanitize::{alloc_delta, assert_no_alloc, CountingAlloc};
use graf_nn::{Adam, Matrix, Mlp, MlpGrads, Mode, Workspace};
use graf_sim::rng::DetRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_an_allocation() {
    let ((), n) = alloc_delta(|| {
        let v: Vec<u64> = Vec::with_capacity(8);
        drop(v);
    });
    assert!(n >= 1, "Vec::with_capacity must register, saw {n}");
}

#[test]
fn pure_arithmetic_is_allocation_free() {
    let (sum, n) = alloc_delta(|| (0u64..100).sum::<u64>());
    assert_eq!(sum, 4950);
    assert_eq!(n, 0);
}

#[test]
#[should_panic(expected = "zero heap allocations")]
fn assert_no_alloc_catches_a_leaky_region() {
    assert_no_alloc("leaky", || {
        let v = vec![1u8, 2, 3];
        drop(v);
    });
}

#[test]
fn mlp_train_step_is_allocation_free_in_steady_state() {
    let mut rng = DetRng::new(11);
    let mut mlp = Mlp::new(&[6, 16, 16, 1], 0.1, &mut rng);
    let x = Matrix::from_fn(8, 6, |r, c| 0.07 * (r as f64) - 0.03 * (c as f64) + 0.1);
    let grad_out = Matrix::from_fn(8, 1, |_, _| 1.0);

    let mut trace = MlpTrace::default();
    let mut out = Matrix::default();
    let mut grads = MlpGrads::default();
    let mut ws = Workspace::new();
    let mut dx = Matrix::default();
    let mut wts = Vec::new();
    let mut opt = Adam::new(1e-3);

    let mut step = |mlp: &mut Mlp, opt: &mut Adam, rng: &mut DetRng| {
        grads.prepare(mlp);
        mlp.transpose_weights_into(&mut wts);
        mlp.forward_into(&x, &mut Mode::Train(rng), &mut trace, &mut out);
        mlp.backward(&trace, &grad_out, Some(&mut grads), &mut ws, Some(&mut dx), &wts);
        mlp.accumulate_grads(&grads);
        opt.begin_step();
        mlp.for_each_param_mut(|p| opt.update(p));
    };

    // Warm up: first steps size the trace, grads, and workspace buffers.
    for _ in 0..3 {
        step(&mut mlp, &mut opt, &mut rng);
    }
    assert_no_alloc("mlp train step", || step(&mut mlp, &mut opt, &mut rng));
}

#[test]
fn mlp_eval_forward_is_allocation_free_in_steady_state() {
    let mut rng = DetRng::new(12);
    let mlp = Mlp::new(&[4, 8, 1], 0.0, &mut rng);
    let x = Matrix::from_fn(5, 4, |r, c| 0.1 * (r as f64 + c as f64));
    let mut trace = MlpTrace::default();
    let mut out = Matrix::default();

    mlp.forward_into(&x, &mut Mode::Eval, &mut trace, &mut out);
    let y0 = out.get(0, 0);
    assert_no_alloc("mlp eval forward", || {
        mlp.forward_into(&x, &mut Mode::Eval, &mut trace, &mut out);
    });
    assert_eq!(out.get(0, 0), y0, "steady-state reuse must not change results");
}

#[test]
fn first_cold_step_does_allocate() {
    // Sanity check on the harness itself: the cold path is *supposed* to
    // allocate, so a zero reading there would mean the counter is broken.
    let mut rng = DetRng::new(13);
    let mlp = Mlp::new(&[4, 8, 1], 0.0, &mut rng);
    let x = Matrix::from_fn(5, 4, |r, c| 0.1 * (r as f64 + c as f64));
    let ((), n) = alloc_delta(|| {
        let mut trace = MlpTrace::default();
        let mut out = Matrix::default();
        mlp.forward_into(&x, &mut Mode::Eval, &mut trace, &mut out);
    });
    assert!(n > 0, "cold forward must allocate its buffers, counted {n}");
}
