//! The common interface of latency-prediction networks.
//!
//! An implementor writes the two solver calls — an eval forward that keeps
//! its trace ([`LatencyNet::predict_keep_into`]) and the input gradient from
//! that kept trace ([`LatencyNet::grad_from_kept_into`]) — plus
//! [`LatencyNet::train_step`], [`LatencyNet::scratch_stats`], the shape
//! queries and [`LatencyNet::boxed_clone`].
//! [`LatencyNet::predict`], [`LatencyNet::grad_input`] and
//! [`LatencyNet::eval_loss`] are built on the two solver calls, so each
//! operation has one path through the network.

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

    /// Eval-mode prediction (dropout off) written into `out` (cleared and
    /// refilled, capacity reused) that retains the forward trace for a
    /// following [`LatencyNet::grad_from_kept_into`] on the same batch — the
    /// solver's fused forward + backward (§3.5). Takes `&self` so read-only
    /// callers reach the same allocation-free forward.
    fn predict_keep_into(&self, x: &Matrix, out: &mut Vec<f64>);

    /// Gradient of the summed prediction with respect to the input features,
    /// written into `dx` (reshaped to `x`'s shape), from the trace the
    /// immediately preceding [`LatencyNet::predict_keep_into`] kept. This is
    /// what the configuration solver chains with its own loss to walk quotas
    /// downhill (§3.5).
    ///
    /// # Panics
    /// Panics if no forward of `x` is kept: none ran since construction or
    /// the last [`LatencyNet::train_step`], or it ran on a batch of another
    /// row count. Debug builds also panic if the kept batch differs from `x`
    /// in any bit.
    fn grad_from_kept_into(&mut self, x: &Matrix, dx: &mut Matrix);

    /// One training step: forward in train mode, asymmetric-Hüber loss,
    /// backward, Adam update. Returns the batch loss. Invalidates the kept
    /// trace.
    fn train_step(
        &mut self,
        x: &Matrix,
        y: &[f64],
        loss: &AsymmetricHuber,
        opt: &mut Adam,
        rng: &mut DetRng,
    ) -> f64;

    /// `(reused, allocated)` scratch-buffer counts since construction, for
    /// telemetry (allocation-avoidance counters).
    fn scratch_stats(&self) -> (u64, u64);

    /// Clones the network behind the trait object (used to snapshot the
    /// best-validation checkpoint during training, §3.4). The clone starts
    /// with fresh scratch: no kept trace, zero scratch counts.
    fn boxed_clone(&self) -> Box<dyn LatencyNet + Send>;

    /// Predicts latency for a batch (eval mode, dropout off).
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_keep_into(x, &mut out);
        out
    }

    /// [`LatencyNet::predict_keep_into`] then
    /// [`LatencyNet::grad_from_kept_into`] on `x`: the input gradient of a
    /// fresh forward. Shape matches `x`.
    fn grad_input(&mut self, x: &Matrix) -> Matrix {
        let mut pred = Vec::new();
        self.predict_keep_into(x, &mut pred);
        let mut dx = Matrix::default();
        self.grad_from_kept_into(x, &mut dx);
        dx
    }

    /// Evaluation loss without updating parameters.
    fn eval_loss(&self, x: &Matrix, y: &[f64], loss: &AsymmetricHuber) -> f64 {
        loss.batch(&self.predict(x), y).0
    }

    /// Sets the worker-thread count used by [`LatencyNet::train_step`].
    /// Implementations without a parallel path ignore it.
    fn set_threads(&mut self, _threads: usize) {}
}

/// The kept-trace contract of [`LatencyNet::grad_from_kept_into`]: the
/// kept forward read `kept_rows` rows (0 after construction or a training
/// step), and in debug builds `kept(r, c)` — entry `(r, c)` of the batch it
/// read, looked up in the net's own layout — equals `x` bit for bit.
pub(crate) fn assert_kept(kept_rows: usize, x: &Matrix, kept: impl Fn(usize, usize) -> f64) {
    assert_eq!(
        kept_rows,
        x.rows(),
        "grad_from_kept_into needs a predict_keep_into of the same batch first"
    );
    if cfg!(debug_assertions) {
        for r in 0..x.rows() {
            for (c, v) in x.row(r).iter().enumerate() {
                assert!(
                    kept(r, c).to_bits() == v.to_bits(),
                    "grad_from_kept_into: the kept forward read another batch (entry ({r}, {c}))"
                );
            }
        }
    }
}
