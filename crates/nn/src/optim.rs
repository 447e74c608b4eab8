//! The Adam optimizer (Kingma & Ba, 2014), as used by the paper for both
//! model training and the configuration solver (§3.5, reference \[45\]).

use crate::param::Param;

/// First-moment decay.
const BETA1: f64 = 0.9;
/// Second-moment decay.
const BETA2: f64 = 0.999;
/// Numerical stabilizer.
const EPS: f64 = 1e-8;

/// Adam with bias correction and the standard betas.
#[derive(Clone, Copy, Debug)]
pub struct Adam {
    /// Learning rate (paper: 2 × 10⁻⁴ for training, Table 1).
    pub lr: f64,
    t: u64,
    // Bias corrections for the step in progress, cached by `begin_step` so
    // `update` is a pure per-tensor pass (no per-call `powi`).
    bc1: f64,
    bc2: f64,
}

impl Adam {
    /// Creates Adam with learning rate `lr`.
    pub fn new(lr: f64) -> Self {
        Self { lr, t: 0, bc1: 1.0, bc2: 1.0 }
    }

    /// Opens optimizer step `t + 1`: advances time and caches the bias
    /// corrections. Follow with one [`Adam::update`] per parameter tensor —
    /// callers holding parameters spread across several networks step them
    /// in place, with no `Vec` of `&mut Param`s.
    pub fn begin_step(&mut self) {
        self.t += 1;
        self.bc1 = 1.0 - BETA1.powi(self.t as i32);
        self.bc2 = 1.0 - BETA2.powi(self.t as i32);
    }

    /// Steps one parameter against its accumulated gradient, then zeroes the
    /// gradient. Must be preceded by [`Adam::begin_step`] for this step.
    ///
    /// One fused pass over the tensor — moments, bias-corrected update, and
    /// gradient reset happen in place, with no temporaries.
    pub fn update(&mut self, p: &mut Param) {
        debug_assert!(self.t > 0, "Adam::begin_step must run before update");
        let it = p
            .value
            .data_mut()
            .iter_mut()
            .zip(p.grad.data_mut())
            .zip(p.m.data_mut().iter_mut().zip(p.v.data_mut()));
        for ((value, grad), (m, v)) in it {
            *value += self.delta(*grad, m, v);
            *grad = 0.0;
        }
    }

    /// One coordinate of [`Adam::update`]: advances the moments `m`, `v`
    /// against the gradient `g` and returns the step to add to the value.
    /// Must be preceded by [`Adam::begin_step`] for this step.
    ///
    /// Coordinates that start from the same moments and see the same
    /// gradient every step move in lockstep, so one call steps them all —
    /// the configuration solver's pre-wall walk, whose gradient is 1 in every
    /// coordinate, keeps its moments as two scalars this way.
    #[inline(always)]
    pub fn delta(&self, g: f64, m: &mut f64, v: &mut f64) -> f64 {
        *m = BETA1 * *m + (1.0 - BETA1) * g;
        *v = BETA2 * *v + (1.0 - BETA2) * (g * g);
        let mhat = *m / self.bc1;
        let vhat = *v / self.bc2;
        -self.lr * mhat / (vhat.sqrt() + EPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// One optimizer step over `params`.
    fn step(opt: &mut Adam, params: &mut [&mut Param]) {
        opt.begin_step();
        for p in params.iter_mut() {
            opt.update(p);
        }
    }

    /// Minimizes f(x) = (x - 3)² from x = 0; Adam must converge to 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut p = Param::new(Matrix::zeros(1, 1));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * (x - 3.0));
            step(&mut opt, &mut [&mut p]);
        }
        let x = p.value.get(0, 0);
        assert!((x - 3.0).abs() < 1e-3, "x={x}");
    }

    /// Rosenbrock-ish 2-parameter test: both coordinates move.
    #[test]
    fn adam_handles_multiple_params() {
        let mut a = Param::new(Matrix::row_vector(vec![5.0]));
        let mut b = Param::new(Matrix::row_vector(vec![-5.0]));
        let mut opt = Adam::new(0.2);
        for _ in 0..800 {
            let (x, y) = (a.value.get(0, 0), b.value.get(0, 0));
            a.grad.set(0, 0, 2.0 * x);
            b.grad.set(0, 0, 2.0 * (y - 1.0));
            step(&mut opt, &mut [&mut a, &mut b]);
        }
        assert!(a.value.get(0, 0).abs() < 1e-2);
        assert!((b.value.get(0, 0) - 1.0).abs() < 1e-2);
    }

    /// Bias correction makes the very first step ≈ lr in the gradient
    /// direction, independent of gradient magnitude.
    #[test]
    fn first_step_is_learning_rate_sized() {
        for &g in &[1e-4, 1.0, 1e4] {
            let mut p = Param::new(Matrix::zeros(1, 1));
            p.grad.set(0, 0, g);
            step(&mut Adam::new(0.05), &mut [&mut p]);
            let moved = -p.value.get(0, 0);
            assert!((moved - 0.05).abs() < 1e-3, "grad {g}: first Adam step ≈ lr, moved {moved}");
        }
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::new(Matrix::zeros(1, 1));
        p.grad.set(0, 0, 1.0);
        step(&mut Adam::new(0.01), &mut [&mut p]);
        assert_eq!(p.grad.get(0, 0), 0.0);
    }
}
