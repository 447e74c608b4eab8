//! The paper's asymmetric Hüber percentage loss.

/// The asymmetric Hüber loss on *percentage error* of eq. (4), with the
/// paper's Table-1 constants `θ_L = 0.1`, `θ_R = 0.3`.
///
/// The percentage error is `x = (label − pred) / label`: positive `x` means
/// the model predicted a latency *shorter* than reality (underestimation),
/// which is the dangerous direction for SLO compliance, so it stays in the
/// quadratic regime up to the larger `θ_R` (accumulating more loss) while
/// overestimation is linearized early at `θ_L` with a gentle slope. Outside
/// the quadratic band the loss is `θ(2|x| − θ)`, the standard Hüber
/// continuation (the paper's eq. 4 prints `θ_R(2x + θ_R)` for the right
/// branch, which is discontinuous at `x = θ_R`; we use the continuous form).
#[derive(Clone, Copy, Debug)]
pub struct AsymmetricHuber {
    /// Left threshold: overestimation band (paper: 0.1).
    pub theta_l: f64,
    /// Right threshold: underestimation band (paper: 0.3).
    pub theta_r: f64,
}

impl Default for AsymmetricHuber {
    fn default() -> Self {
        Self { theta_l: 0.1, theta_r: 0.3 }
    }
}

impl AsymmetricHuber {
    /// Loss and `dLoss/dx` for a single percentage error `x`.
    pub fn at(&self, x: f64) -> (f64, f64) {
        if x < -self.theta_l {
            // Overestimation beyond θ_L: linear, gentle slope −2θ_L.
            (self.theta_l * (-2.0 * x - self.theta_l), -2.0 * self.theta_l)
        } else if x < self.theta_r {
            (x * x, 2.0 * x)
        } else {
            // Underestimation beyond θ_R: linear with slope 2θ_R.
            (self.theta_r * (2.0 * x - self.theta_r), 2.0 * self.theta_r)
        }
    }

    /// Mean loss over a batch and the gradient with respect to each
    /// prediction (`dLoss/dpred`, already including `dx/dpred = −1/label`).
    ///
    /// Labels must be positive (latencies are).
    pub fn batch(&self, pred: &[f64], label: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; pred.len()];
        let loss = self.batch_into(pred, label, &mut grad);
        (loss, grad)
    }

    /// Like [`AsymmetricHuber::batch`], but writes the gradient into a
    /// caller-provided buffer (same length as `pred`) instead of
    /// allocating — the hot-loop variant.
    pub fn batch_into(&self, pred: &[f64], label: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(pred.len(), label.len());
        assert_eq!(pred.len(), grad.len());
        let n = pred.len().max(1) as f64;
        let mut total = 0.0;
        for ((g, &p), &y) in grad.iter_mut().zip(pred).zip(label) {
            let y = y.max(1e-9);
            let x = (y - p) / y;
            let (l, dldx) = self.at(x);
            total += l;
            *g = dldx * (-1.0 / y) / n;
        }
        total / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huber_is_continuous_at_thresholds() {
        let h = AsymmetricHuber::default();
        for &t in &[-h.theta_l, h.theta_r] {
            let (below, _) = h.at(t - 1e-9);
            let (above, _) = h.at(t + 1e-9);
            assert!((below - above).abs() < 1e-6, "discontinuity at {t}");
        }
    }

    #[test]
    fn quadratic_inside_band() {
        let h = AsymmetricHuber::default();
        let (l, g) = h.at(0.05);
        assert!((l - 0.0025).abs() < 1e-12);
        assert!((g - 0.1).abs() < 1e-12);
    }

    #[test]
    fn underestimation_costs_more_than_overestimation() {
        let h = AsymmetricHuber::default();
        // Same magnitude of error on both sides, beyond both thresholds.
        let (over, _) = h.at(-0.5); // predicted 50% above actual
        let (under, _) = h.at(0.5); // predicted 50% below actual
        assert!(
            under > over,
            "underestimation ({under}) must cost more than overestimation ({over})"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let h = AsymmetricHuber::default();
        for &x in &[-0.5, -0.11, -0.05, 0.0, 0.1, 0.29, 0.31, 1.5] {
            let (_, g) = h.at(x);
            let eps = 1e-7;
            let num = (h.at(x + eps).0 - h.at(x - eps).0) / (2.0 * eps);
            assert!((g - num).abs() < 1e-5, "at x={x}: {g} vs {num}");
        }
    }

    #[test]
    fn batch_gradient_direction_pushes_up_when_underestimating() {
        let h = AsymmetricHuber::default();
        // pred far below label → gradient on pred must be negative (loss
        // decreases when pred increases).
        let (_, g) = h.batch(&[50.0], &[100.0]);
        assert!(g[0] < 0.0, "gradient {g:?} should push prediction up");
        // pred above label → positive gradient pulls it down.
        let (_, g) = h.batch(&[150.0], &[100.0]);
        assert!(g[0] > 0.0);
    }
}
