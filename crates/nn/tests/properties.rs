//! Property tests: backprop correctness and loss-function invariants on
//! seeded random inputs (case `i` draws from `DetRng::new(i)`, so a failure
//! names the seed that reproduces it).

use graf_nn::{AsymmetricHuber, Matrix, Mlp, Mode};
use graf_sim::rng::DetRng;

/// Seeded cases per property.
const CASES: u64 = 24;

/// Input gradients of a randomly shaped/initialized MLP match central
/// finite differences.
#[test]
fn mlp_input_gradients_match_fd() {
    for case in 0..CASES {
        let draw = &mut DetRng::new(case);
        let seed = draw.uniform_u64(0, 4_999);
        let hidden = draw.uniform_u64(2, 23) as usize;
        let input_dim = draw.uniform_u64(1, 5) as usize;
        let rows = draw.uniform_u64(1, 3) as usize;
        let mut rng = DetRng::new(seed);
        let mlp = Mlp::new(&[input_dim, hidden, 1], 0.0, &mut rng);
        let mut data_rng = DetRng::new(seed ^ 0xF00);
        let x = Matrix::from_fn(rows, input_dim, |_, _| data_rng.uniform(-1.0, 1.0));

        let (y, trace) = mlp.forward(&x, &mut Mode::Eval);
        let ones = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        let mut m = mlp.clone();
        let gx = m.backward(&trace, &ones);

        let eps = 1e-6;
        for r in 0..rows {
            for c in 0..input_dim {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let (yp, _) = mlp.forward(&xp, &mut Mode::Eval);
                let (ym, _) = mlp.forward(&xm, &mut Mode::Eval);
                let num =
                    (yp.data().iter().sum::<f64>() - ym.data().iter().sum::<f64>()) / (2.0 * eps);
                let ana = gx.get(r, c);
                // ReLU kinks can land on the FD stencil; allow a loose bound.
                assert!(
                    (num - ana).abs() < 1e-3 * (1.0 + num.abs()),
                    "case {case}: ({r},{c}): fd {num} vs analytic {ana}"
                );
            }
        }
    }
}

/// The asymmetric Hüber loss is non-negative, zero only at zero error,
/// continuous, and penalizes underestimation more than overestimation of
/// the same relative magnitude (beyond both thresholds).
#[test]
fn asymmetric_huber_invariants() {
    let h = AsymmetricHuber::default();
    for case in 0..CASES {
        let x = DetRng::new(case).uniform(-5.0, 5.0);
        let (l, _) = h.at(x);
        assert!(l >= 0.0, "case {case}: loss {l} at {x}");
        if x.abs() > 1e-9 {
            assert!(l > 0.0, "case {case}: zero loss at {x}");
        }
        // Continuity probe.
        let (l2, _) = h.at(x + 1e-9);
        assert!((l - l2).abs() < 1e-6, "case {case}: jump at {x}");
        // Asymmetry beyond the thresholds.
        if x > h.theta_r {
            let (over, _) = h.at(-x);
            assert!(l > over, "case {case}: under {l} > over {over} at |x|={x}");
        }
    }
}

/// Loss gradient sign pushes predictions toward labels.
#[test]
fn huber_gradient_points_at_label() {
    let h = AsymmetricHuber::default();
    for case in 0..CASES {
        let draw = &mut DetRng::new(case);
        let (pred, label) = (draw.uniform(1.0, 500.0), draw.uniform(1.0, 500.0));
        let (_, g) = h.batch(&[pred], &[label]);
        if (pred - label).abs() > 1e-6 {
            assert!(
                (g[0] > 0.0) == (pred > label),
                "case {case}: gradient {g:?} must point from pred {pred} toward label {label}"
            );
        }
    }
}

/// Training mode with dropout never changes output shape and eval mode is
/// deterministic.
#[test]
fn dropout_shape_and_determinism() {
    for case in 0..CASES {
        let draw = &mut DetRng::new(case);
        let (seed, rows) = (draw.uniform_u64(0, 999), draw.uniform_u64(1, 7) as usize);
        let mut rng = DetRng::new(seed);
        let mlp = Mlp::new(&[3, 16, 2], 0.5, &mut rng);
        let x = Matrix::from_fn(rows, 3, |r, c| (r + c) as f64 * 0.1);
        let mut drop_rng = DetRng::new(seed ^ 1);
        let (y_train, _) = mlp.forward(&x, &mut Mode::Train(&mut drop_rng));
        assert_eq!((y_train.rows(), y_train.cols()), (rows, 2), "case {case}");
        let (a, _) = mlp.forward(&x, &mut Mode::Eval);
        let (b, _) = mlp.forward(&x, &mut Mode::Eval);
        assert_eq!(a.data(), b.data(), "case {case}");
    }
}
