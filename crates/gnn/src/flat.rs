//! The "GRAF without MPNN" ablation model (§5.1, Figure 11).
//!
//! Identical readout capacity, but applied directly to the concatenated raw
//! node features — no message passing, no graph structure. The paper shows it
//! trains faster but generalizes worse; [`crate::MicroserviceGnn`] should
//! beat it on held-out data.

use std::cell::RefCell;

use graf_nn::{Adam, AsymmetricHuber, Matrix, Mlp, MlpGrads, MlpTrace, Mode, Workspace};
use graf_sim::rng::DetRng;

use crate::net::{assert_kept, LatencyNet};

/// Reusable forward/backward buffers (trace, scratch pool, gradient sink).
#[derive(Default)]
struct FlatScratch {
    trace: MlpTrace,
    out: Matrix,
    dy: Matrix,
    ws: Workspace,
    /// Parameter-gradient sink, shaped by `train_step` only.
    grads: MlpGrads,
    /// Row count of the retained eval forward (0 = no valid trace).
    kept_rows: usize,
    /// Weight transposes for the input-gradient pass, valid until the next
    /// parameter update.
    wts: Vec<Matrix>,
    wts_valid: bool,
}

impl FlatScratch {
    /// Re-transposes the weights if a parameter update made them stale.
    fn refresh_wts(&mut self, mlp: &Mlp) {
        if !self.wts_valid {
            mlp.transpose_weights_into(&mut self.wts);
            self.wts_valid = true;
        }
    }
}

/// A plain MLP over concatenated node features.
pub struct FlatMlp {
    num_nodes: usize,
    feature_dim: usize,
    mlp: Mlp,
    scratch: RefCell<FlatScratch>,
}

impl Clone for FlatMlp {
    fn clone(&self) -> Self {
        Self {
            num_nodes: self.num_nodes,
            feature_dim: self.feature_dim,
            mlp: self.mlp.clone(),
            scratch: RefCell::new(FlatScratch::default()),
        }
    }
}

impl FlatMlp {
    /// Creates the ablation model with the same readout shape as the GNN
    /// (two hidden layers of `hidden` units, dropout `dropout`).
    pub fn new(
        num_nodes: usize,
        feature_dim: usize,
        hidden: usize,
        dropout: f64,
        rng: &mut DetRng,
    ) -> Self {
        let mlp = Mlp::new(&[num_nodes * feature_dim, hidden, hidden, 1], dropout, rng);
        Self { num_nodes, feature_dim, mlp, scratch: RefCell::new(FlatScratch::default()) }
    }

    /// Visits every parameter read-only, in the optimizer's order.
    pub fn for_each_param(&self, f: impl FnMut(&graf_nn::Param)) {
        self.mlp.for_each_param(f);
    }
}

impl LatencyNet for FlatMlp {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn train_step(
        &mut self,
        x: &Matrix,
        y: &[f64],
        loss: &AsymmetricHuber,
        opt: &mut Adam,
        rng: &mut DetRng,
    ) -> f64 {
        assert_eq!(x.rows(), y.len(), "batch size mismatch");
        let sc = self.scratch.get_mut();
        // Parameters change below: the kept trace goes stale.
        sc.kept_rows = 0;
        self.mlp.forward_into(x, &mut Mode::Train(rng), &mut sc.trace, &mut sc.out);
        sc.dy.reshape_zeroed(x.rows(), 1);
        let l = loss.batch_into(sc.out.data(), y, sc.dy.data_mut());
        sc.grads.prepare(&self.mlp);
        // Parameter gradients only: training never reads the input gradient.
        sc.refresh_wts(&self.mlp);
        self.mlp.backward(&sc.trace, &sc.dy, Some(&mut sc.grads), &mut sc.ws, None, &sc.wts);
        self.mlp.accumulate_grads(&sc.grads);
        // The update below makes the transposes stale.
        sc.wts_valid = false;
        // Split step: no `Vec<&mut Param>` temporary on the training path.
        opt.begin_step();
        let opt = &mut *opt;
        self.mlp.for_each_param_mut(|p| opt.update(p));
        l
    }

    fn predict_keep_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;
        self.mlp.forward_into(x, &mut Mode::Eval, &mut sc.trace, &mut sc.out);
        sc.kept_rows = x.rows();
        out.clear();
        out.extend_from_slice(sc.out.data());
    }

    fn grad_from_kept_into(&mut self, x: &Matrix, dx: &mut Matrix) {
        let sc = self.scratch.get_mut();
        assert_kept(sc.kept_rows, x, |r, c| sc.trace.input().map_or(f64::NAN, |k| k.get(r, c)));
        // Input gradient only: no parameter gradient is computed.
        sc.dy.reshape_zeroed(x.rows(), 1);
        sc.dy.data_mut().fill(1.0);
        sc.refresh_wts(&self.mlp);
        self.mlp.backward(&sc.trace, &sc.dy, None, &mut sc.ws, Some(dx), &sc.wts);
    }

    fn scratch_stats(&self) -> (u64, u64) {
        self.scratch.borrow().ws.stats()
    }

    fn boxed_clone(&self) -> Box<dyn LatencyNet + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_prediction() {
        let mut rng = DetRng::new(1);
        let m = FlatMlp::new(3, 2, 16, 0.0, &mut rng);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.feature_dim(), 2);
        let x = Matrix::from_fn(4, 6, |r, c| (r + c) as f64 * 0.1);
        assert_eq!(m.predict(&x).len(), 4);
    }

    #[test]
    fn trains_on_simple_target() {
        let mut rng = DetRng::new(2);
        let mut m = FlatMlp::new(2, 2, 24, 0.0, &mut rng);
        let x = Matrix::from_fn(128, 4, |r, c| ((r * 7 + c * 3) % 13) as f64 / 13.0);
        let y: Vec<f64> = (0..128).map(|r| 1.0 + x.get(r, 0) * 2.0 + x.get(r, 3)).collect();
        let loss = AsymmetricHuber::default();
        let mut opt = Adam::new(3e-3);
        let mut train_rng = DetRng::new(3);
        let first = m.eval_loss(&x, &y, &loss);
        for _ in 0..400 {
            m.train_step(&x, &y, &loss, &mut opt, &mut train_rng);
        }
        let last = m.eval_loss(&x, &y, &loss);
        assert!(last < first * 0.3, "{first} → {last}");
    }

    #[test]
    fn grad_input_has_input_shape() {
        let mut rng = DetRng::new(4);
        let mut m = FlatMlp::new(2, 2, 8, 0.0, &mut rng);
        let x = Matrix::from_fn(3, 4, |_, c| c as f64);
        let g = m.grad_input(&x);
        assert_eq!((g.rows(), g.cols()), (3, 4));
    }

    #[test]
    fn kept_trace_gradient_matches_fresh_gradient() {
        let mut rng = DetRng::new(5);
        let mut m = FlatMlp::new(2, 2, 8, 0.0, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f64 * 0.1);
        let slow = m.grad_input(&x);
        let _ = m.predict(&x);
        let mut fast = Matrix::default();
        m.grad_from_kept_into(&x, &mut fast);
        assert_eq!(slow.data(), fast.data());
    }

    #[test]
    fn input_only_backward_dx_is_bit_identical_to_the_full_backward() {
        // 3, 5 and 6 nodes; hidden 16 takes the narrow kernels, 120 the wide
        // path with its tail tiles.
        for (i, nodes) in [3, 5, 6].into_iter().enumerate() {
            for hidden in [16, 120] {
                let mut rng = DetRng::new(20 + i as u64);
                let mut m = FlatMlp::new(nodes, 2, hidden, 0.25, &mut rng);
                for batch in [1, 5] {
                    let x = Matrix::from_fn(batch, nodes * 2, |r, c| {
                        0.11 * c as f64 - 0.07 * r as f64 + if c % 2 == 0 { 0.3 } else { -0.1 }
                    });
                    let (mut pred, mut dx) = (Vec::new(), Matrix::default());
                    m.predict_keep_into(&x, &mut pred);
                    m.grad_from_kept_into(&x, &mut dx);
                    assert!(m.scratch.get_mut().grads.is_unallocated(), "no sink is shaped");

                    // The training backward on the same kept trace.
                    let sc = m.scratch.get_mut();
                    let mut grads = MlpGrads::default();
                    grads.prepare(&m.mlp);
                    let mut full = Matrix::default();
                    let (trace, dy, ws) = (&sc.trace, &sc.dy, &mut sc.ws);
                    m.mlp.backward(trace, dy, Some(&mut grads), ws, Some(&mut full), &sc.wts);
                    let full: Vec<u64> = full.data().iter().map(|v| v.to_bits()).collect();
                    let input_only: Vec<u64> = dx.data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(input_only, full, "{nodes} nodes, hidden {hidden}, batch {batch}");
                }
            }
        }
    }

    #[test]
    fn solver_path_never_shapes_the_gradient_sink() {
        let mut rng = DetRng::new(30);
        let mut m = FlatMlp::new(6, 2, 120, 0.25, &mut rng);
        let (mut pred, mut dx) = (Vec::new(), Matrix::default());
        for i in 0..50 {
            let x = Matrix::from_fn(1, 12, |_, c| 0.05 * (c + i % 7) as f64 + 0.1);
            m.predict_keep_into(&x, &mut pred);
            m.grad_from_kept_into(&x, &mut dx);
        }
        assert!(m.scratch.get_mut().grads.is_unallocated(), "gradient sink holds no allocation");
    }

    #[test]
    fn training_refreshes_the_input_gradient_transposes() {
        // After a parameter update the kept-trace gradient must use the new
        // weights, exactly as a model that never cached the old ones.
        let mut rng = DetRng::new(40);
        let mut m = FlatMlp::new(3, 2, 16, 0.0, &mut rng);
        let x = Matrix::from_fn(4, 6, |r, c| ((r * 3 + c) % 5) as f64 * 0.2);
        let y = [1.0, 2.0, 0.5, 1.5];
        let _ = m.grad_input(&x); // caches the transposes
        let loss = AsymmetricHuber::default();
        m.train_step(&x, &y, &loss, &mut Adam::new(1e-2), &mut DetRng::new(41));
        let stale_free = m.clone().grad_input(&x);
        assert_eq!(m.grad_input(&x).data(), stale_free.data());
    }

    #[test]
    #[should_panic(expected = "needs a predict_keep_into of the same batch first")]
    fn kept_gradient_after_a_training_step_panics() {
        let mut rng = DetRng::new(50);
        let mut m = FlatMlp::new(3, 2, 16, 0.0, &mut rng);
        let x = Matrix::from_fn(4, 6, |r, c| ((r + c) % 5) as f64 * 0.2);
        let _ = m.predict(&x);
        m.train_step(&x, &[1.0; 4], &AsymmetricHuber::default(), &mut Adam::new(1e-2), &mut rng);
        m.grad_from_kept_into(&x, &mut Matrix::default());
    }

    // The bit-for-bit batch check exists in debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the kept forward read another batch")]
    fn kept_gradient_of_another_row_panics() {
        let mut rng = DetRng::new(51);
        let mut m = FlatMlp::new(3, 2, 16, 0.0, &mut rng);
        let x = Matrix::from_fn(1, 6, |_, c| c as f64 * 0.1);
        let _ = m.predict(&x);
        let mut other = x.clone();
        other.set(0, 5, 0.25);
        m.grad_from_kept_into(&other, &mut Matrix::default());
    }
}
