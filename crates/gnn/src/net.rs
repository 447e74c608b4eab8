//! The common interface of latency-prediction networks.

use graf_nn::{Adam, AsymmetricHuber, Matrix};
use graf_sim::rng::DetRng;

/// A network mapping per-service `(workload, quota)` features to predicted
/// end-to-end tail latency.
///
/// Input format: one row per sample, `num_nodes × feature_dim` columns in
/// node-major order (node 0's features first).
pub trait LatencyNet {
    /// Number of graph nodes (microservices).
    fn num_nodes(&self) -> usize;

    /// Features per node (2 in the paper: workload, quota).
    fn feature_dim(&self) -> usize;

    /// Predicts latency for a batch (eval mode, dropout off).
    fn predict(&self, x: &Matrix) -> Vec<f64>;

    /// One training step: forward in train mode, asymmetric-Hüber loss,
    /// backward, Adam update. Returns the batch loss.
    fn train_step(
        &mut self,
        x: &Matrix,
        y: &[f64],
        loss: &AsymmetricHuber,
        opt: &mut Adam,
        rng: &mut DetRng,
    ) -> f64;

    /// Evaluation loss without updating parameters.
    fn eval_loss(&self, x: &Matrix, y: &[f64], loss: &AsymmetricHuber) -> f64 {
        let pred = self.predict(x);
        loss.batch(&pred, y).0
    }

    /// Gradient of the summed prediction with respect to the input features
    /// (eval mode). Shape matches `x`. This is what the configuration solver
    /// chains with its own loss to walk quotas downhill (§3.5).
    fn grad_input(&mut self, x: &Matrix) -> Matrix;

    /// Sets the worker-thread count used by [`LatencyNet::train_step`].
    /// Implementations without a parallel path ignore it.
    fn set_threads(&mut self, _threads: usize) {}

    /// Input gradient reusing the trace retained by the immediately preceding
    /// [`LatencyNet::predict_keep_into`] call on the same batch `x`. Default:
    /// a fresh [`LatencyNet::grad_input`] (correct but re-runs the forward).
    fn grad_from_kept(&mut self, x: &Matrix) -> Matrix {
        self.grad_input(x)
    }

    /// Eval-mode prediction written into `out` (cleared and refilled,
    /// capacity reused) that retains the forward trace so a following
    /// [`LatencyNet::grad_from_kept`] can reuse it (the solver's fused
    /// forward+backward fast path, §3.5). Takes `&self` so read-only callers
    /// reach the same allocation-free forward. The default delegates to
    /// [`LatencyNet::predict`] and copies; implementations override it to
    /// skip the intermediate `Vec`.
    fn predict_keep_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        let pred = self.predict(x);
        out.clear();
        out.extend_from_slice(&pred);
    }

    /// [`LatencyNet::grad_from_kept`] writing the input gradient into `dx`
    /// (reshaped in place). The default delegates and copies; implementations
    /// override it to write straight from their retained scratch.
    fn grad_from_kept_into(&mut self, x: &Matrix, dx: &mut Matrix) {
        let g = self.grad_from_kept(x);
        dx.copy_from(&g);
    }

    /// `(reused, allocated)` scratch-buffer counts since construction, for
    /// telemetry (allocation-avoidance counters). Default: zeros.
    fn scratch_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize;

    /// Clones the network behind the trait object (used to snapshot the
    /// best-validation checkpoint during training, §3.4).
    fn boxed_clone(&self) -> Box<dyn LatencyNet + Send>;
}
