//! Multi-layer perceptrons with trace-based backpropagation.
//!
//! An [`Mlp`] owns its parameters but keeps no per-call activation state:
//! `forward` returns an [`MlpTrace`] capturing everything `backward` needs.
//! This lets the GNN apply the same network to every node of a graph (message
//! passing shares φ/γ across nodes) and back-propagate each application,
//! accumulating parameter gradients.
//!
//! The hot-loop entry points are the allocation-free pair
//! [`Mlp::forward_into`] / [`Mlp::backward_with`]: the trace stores only the
//! per-layer *inputs* (layer `i`'s post-activation output doubles as layer
//! `i+1`'s input, and the ReLU gate is recovered from the sign of that
//! output) plus the dropout masks, every buffer is reshaped in place, and
//! gradients land in an external [`MlpGrads`] sink so the network itself can
//! be shared immutably across training workers.
//!
//! Callers that need only the input gradient (the configuration solver's
//! ∂prediction/∂quota) use the sink-less [`Mlp::backward_input_with_wt`]:
//! the same backward loop with the parameter-gradient products skipped, so
//! no sink is shaped or zeroed and `dx` is bit-identical to the full pass.

use graf_sim::rng::DetRng;

use crate::matrix::Matrix;
use crate::param::Param;
use crate::workspace::Workspace;

/// Forward-pass mode.
pub enum Mode<'a> {
    /// Training: dropout active, masks drawn from the RNG.
    Train(&'a mut DetRng),
    /// Inference: dropout disabled (inverted-dropout needs no rescale).
    Eval,
}

/// Captured forward state of one MLP application.
///
/// `inputs[i]` is the input to layer `i`; for `i ≥ 1` it is also layer
/// `i-1`'s post-activation (post-dropout) output, which is all `backward`
/// needs: the ReLU gate is `inputs[i+1] > 0` (dropout-zeroed positions get a
/// zero gate, but their gradient is already zeroed by the mask). No
/// pre-activation copy is stored.
#[derive(Clone, Debug, Default)]
pub struct MlpTrace {
    inputs: Vec<Matrix>,
    dropout: Vec<Option<Matrix>>,
}

/// External gradient sink for [`Mlp::backward_with`].
///
/// Keeping gradients out of the network lets several workers back-propagate
/// through one shared `&Mlp` concurrently, each into its own `MlpGrads`,
/// with a deterministic ordered reduction afterwards.
#[derive(Clone, Debug, Default)]
pub struct MlpGrads {
    weights: Vec<Matrix>,
    biases: Vec<Matrix>,
}

impl MlpGrads {
    /// Gradient buffers shaped for `mlp`, zero-filled.
    pub fn zeroed_for(mlp: &Mlp) -> Self {
        let mut g = Self::default();
        g.prepare(mlp);
        g
    }

    /// Reshapes the buffers to match `mlp`'s parameters (reusing
    /// allocations) and zeroes every entry.
    pub fn prepare(&mut self, mlp: &Mlp) {
        self.weights.resize_with(mlp.weights.len(), Matrix::default);
        self.biases.resize_with(mlp.biases.len(), Matrix::default);
        for (g, p) in self.weights.iter_mut().zip(&mlp.weights) {
            g.reshape_zeroed(p.value.rows(), p.value.cols());
        }
        for (g, p) in self.biases.iter_mut().zip(&mlp.biases) {
            g.reshape_zeroed(1, p.value.cols());
        }
    }

    /// True while the sink holds no heap buffer at all, i.e. it was never
    /// [prepared](MlpGrads::prepare).
    pub fn is_unallocated(&self) -> bool {
        self.weights.capacity() == 0 && self.biases.capacity() == 0
    }
}

/// A fully connected network: affine layers with ReLU on all but the last,
/// and optional dropout after each ReLU (the paper applies dropout "to every
/// layer except for the last", §4).
#[derive(Clone, Debug)]
pub struct Mlp {
    weights: Vec<Param>,
    biases: Vec<Param>,
    dropout_p: f64,
}

impl Mlp {
    /// Creates an MLP with the given layer widths, e.g. `[4, 20, 20, 1]`.
    /// Weights use He initialization from `rng`.
    pub fn new(widths: &[usize], dropout_p: f64, rng: &mut DetRng) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        assert!((0.0..1.0).contains(&dropout_p), "dropout in [0,1)");
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in widths.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let std = (2.0 / fan_in as f64).sqrt();
            let weight = Matrix::from_fn(fan_in, fan_out, |_, _| rng.std_normal() * std);
            weights.push(Param::new(weight));
            biases.push(Param::new(Matrix::zeros(1, fan_out)));
        }
        Self { weights, biases, dropout_p }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.weights[0].value.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.weights.last().expect("non-empty").value.cols()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.weights.iter().map(Param::len).sum::<usize>()
            + self.biases.iter().map(Param::len).sum::<usize>()
    }

    /// Applies the network to a batch `x` (`B × input_dim`), writing the
    /// output (`B × output_dim`) into `out` and the forward state into
    /// `trace`, both reshaped in place. Steady-state calls with a reused
    /// trace/output do not allocate.
    pub fn forward_into(
        &self,
        x: &Matrix,
        mode: &mut Mode<'_>,
        trace: &mut MlpTrace,
        out: &mut Matrix,
    ) {
        assert_eq!(x.cols(), self.input_dim(), "input width mismatch");
        let l = self.weights.len();
        let last = l - 1;
        trace.inputs.resize_with(l, Matrix::default);
        trace.dropout.resize_with(l, || None);
        trace.inputs[0].copy_from(x);
        for i in 0..last {
            self.debug_check_layer(i);
            let (head, tail) = trace.inputs.split_at_mut(i + 1);
            let (src, dst) = (&head[i], &mut tail[0]);
            src.affine_relu_into(&self.weights[i].value, &self.biases[i].value, dst);
            let mut masked = false;
            if self.dropout_p > 0.0 {
                if let Mode::Train(rng) = mode {
                    let keep = 1.0 - self.dropout_p;
                    let inv_keep = 1.0 / keep;
                    let mut mask = trace.dropout[i].take().unwrap_or_default();
                    mask.reshape_for_overwrite(dst.rows(), dst.cols());
                    // Generate and apply the mask in one fused pass. The keep
                    // test compares the draw's 53 significand bits against an
                    // integer threshold — decision-for-decision identical to
                    // `rng.unit() < keep` (pinned by a DetRng test) while
                    // skipping unit()'s int→float conversion per activation.
                    let thresh = (keep * (1u64 << 53) as f64).ceil() as u64;
                    for (mv, dv) in mask.data_mut().iter_mut().zip(dst.data_mut()) {
                        let k = if rng.bits64() >> 11 < thresh { inv_keep } else { 0.0 };
                        *mv = k;
                        *dv *= k;
                    }
                    trace.dropout[i] = Some(mask);
                    masked = true;
                }
            }
            if !masked {
                trace.dropout[i] = None;
            }
        }
        self.debug_check_layer(last);
        trace.inputs[last].affine_into(&self.weights[last].value, &self.biases[last].value, out);
    }

    /// Applies the network to a batch `x` (`B × input_dim`).
    ///
    /// Returns the output (`B × output_dim`) and the trace for `backward`.
    /// Allocating convenience wrapper over [`Mlp::forward_into`].
    pub fn forward(&self, x: &Matrix, mode: &mut Mode<'_>) -> (Matrix, MlpTrace) {
        let mut trace = MlpTrace::default();
        let mut out = Matrix::default();
        self.forward_into(x, mode, &mut trace, &mut out);
        (out, trace)
    }

    /// Writes each layer's transposed weight matrix into `out` (reusing
    /// allocations). Feed the result to [`Mlp::backward_with_wt`] to share
    /// one set of transposes across every backward pass between two
    /// parameter updates instead of re-materialising them per call.
    pub fn transpose_weights_into(&self, out: &mut Vec<Matrix>) {
        out.resize_with(self.weights.len(), Matrix::default);
        for (t, p) in out.iter_mut().zip(&self.weights) {
            p.value.transpose_into(t);
        }
    }

    /// Back-propagates `grad_out` (`B × output_dim`) through the traced
    /// application without touching the network: parameter gradients
    /// *accumulate* into `grads` (shape them with [`MlpGrads::prepare`]),
    /// scratch comes from `ws`, and the input-batch gradient lands in `dx`.
    /// Steady-state calls with a warm workspace do not allocate.
    pub fn backward_with(
        &self,
        trace: &MlpTrace,
        grad_out: &Matrix,
        grads: &mut MlpGrads,
        ws: &mut Workspace,
        dx: &mut Matrix,
    ) {
        self.backward_impl(trace, grad_out, Some(grads), ws, dx, None);
    }

    /// [`Mlp::backward_with`] with caller-provided weight transposes (from
    /// [`Mlp::transpose_weights_into`]), for hot loops that run many backward
    /// passes against frozen parameters.
    pub fn backward_with_wt(
        &self,
        trace: &MlpTrace,
        grad_out: &Matrix,
        grads: &mut MlpGrads,
        ws: &mut Workspace,
        dx: &mut Matrix,
        wts: &[Matrix],
    ) {
        assert_eq!(wts.len(), self.weights.len(), "transpose cache/network mismatch");
        self.backward_impl(trace, grad_out, Some(grads), ws, dx, Some(wts));
    }

    /// [`Mlp::backward_with_wt`] without a gradient sink: only the
    /// input-batch gradient `dx` is computed. The parameter-gradient
    /// products (`xᵀ·g`, the input transposes they need, the bias row sums)
    /// are skipped, and since `dx` never reads them it is bit-identical to
    /// the full pass's. This is the solver's ∂prediction/∂input path.
    pub fn backward_input_with_wt(
        &self,
        trace: &MlpTrace,
        grad_out: &Matrix,
        ws: &mut Workspace,
        dx: &mut Matrix,
        wts: &[Matrix],
    ) {
        assert_eq!(wts.len(), self.weights.len(), "transpose cache/network mismatch");
        self.backward_impl(trace, grad_out, None, ws, dx, Some(wts));
    }

    /// The one backward loop. With `grads == None` it runs the input
    /// gradient chain alone (gating and `g·Wᵀ`), never the weight-gradient
    /// products.
    fn backward_impl(
        &self,
        trace: &MlpTrace,
        grad_out: &Matrix,
        mut grads: Option<&mut MlpGrads>,
        ws: &mut Workspace,
        dx: &mut Matrix,
        wts: Option<&[Matrix]>,
    ) {
        let l = self.weights.len();
        assert_eq!(trace.inputs.len(), l, "trace/network mismatch");
        if let Some(sink) = &grads {
            assert_eq!(sink.weights.len(), l, "grads/network mismatch");
        }
        let last = l - 1;
        let mut g = ws.take(grad_out.rows(), grad_out.cols());
        g.copy_from(grad_out);
        for i in (0..l).rev() {
            if i < last {
                // ReLU gate from the sign of the stored post-activation,
                // fused with the dropout mask in a single pass over `g`.
                if let Some(mask) = &trace.dropout[i] {
                    let it = g
                        .data_mut()
                        .iter_mut()
                        .zip(trace.inputs[i + 1].data().iter().zip(mask.data()));
                    for (gv, (&av, &mv)) in it {
                        *gv = if av <= 0.0 { 0.0 } else { *gv * mv };
                    }
                } else {
                    for (gv, &av) in g.data_mut().iter_mut().zip(trace.inputs[i + 1].data()) {
                        if av <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                }
            }
            if let Some(sink) = grads.as_deref_mut() {
                // dW += xᵀ × g. Materialising the (small) transposes routes
                // both gradient products through the tiled, sparsity-skipping
                // matmul kernel instead of rank-1 sweeps over the whole output.
                let x = &trace.inputs[i];
                let mut xt = ws.take(x.cols(), x.rows());
                x.transpose_into(&mut xt);
                xt.matmul_acc(&g, &mut sink.weights[i]);
                ws.give(xt);
                g.sum_rows_acc(&mut sink.biases[i]);
            }
            // dx = g × Wᵀ — the gated `g` is far sparser than the weights.
            let w = &self.weights[i].value;
            let mut wt_scratch: Option<Matrix> = None;
            let wt: &Matrix = match wts {
                Some(ts) => &ts[i],
                None => {
                    let mut t = ws.take(w.cols(), w.rows());
                    w.transpose_into(&mut t);
                    &*wt_scratch.insert(t)
                }
            };
            if i > 0 {
                let mut gp = ws.take(g.rows(), w.rows());
                g.matmul_into(wt, &mut gp);
                std::mem::swap(&mut g, &mut gp);
                ws.give(gp);
            } else {
                g.matmul_into(wt, dx);
            }
            if let Some(t) = wt_scratch {
                ws.give(t);
            }
        }
        ws.give(g);
    }

    /// Back-propagates `grad_out` through the traced application,
    /// accumulating parameter gradients into the params and returning the
    /// input-batch gradient (allocating wrapper over
    /// [`Mlp::backward_with`]).
    pub fn backward(&mut self, trace: &MlpTrace, grad_out: &Matrix) -> Matrix {
        let mut grads = MlpGrads::zeroed_for(self);
        let mut ws = Workspace::new();
        let mut dx = Matrix::default();
        self.backward_with(trace, grad_out, &mut grads, &mut ws, &mut dx);
        self.accumulate_grads(&grads);
        dx
    }

    /// Adds an external gradient sink into the params' own gradients (the
    /// ordered-reduction step of data-parallel training).
    pub fn accumulate_grads(&mut self, grads: &MlpGrads) {
        for (p, g) in self.weights.iter_mut().zip(&grads.weights) {
            p.accumulate(g);
        }
        for (p, g) in self.biases.iter_mut().zip(&grads.biases) {
            p.accumulate(g);
        }
    }

    /// Mutable references to every parameter, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.weights.iter_mut().chain(self.biases.iter_mut()).collect()
    }

    /// Visits every parameter (same order as [`Mlp::params_mut`]) without
    /// collecting references into a `Vec` — the allocation-free path for
    /// `Adam::begin_step` + `Adam::update` loops.
    pub fn for_each_param_mut(&mut self, mut f: impl FnMut(&mut Param)) {
        for p in self.weights.iter_mut() {
            f(p);
        }
        for p in self.biases.iter_mut() {
            f(p);
        }
    }

    /// Debug-build poison check for layer `i`'s weights and biases. Panics
    /// naming the first poisoned layer, so corruption is caught where it
    /// lives rather than at the final loss. Free in release builds; never
    /// allocates unless it fails.
    #[inline]
    fn debug_check_layer(&self, i: usize) {
        if cfg!(debug_assertions) {
            for &v in self.weights[i].value.data() {
                assert!(v.is_finite(), "poisoned weight in layer {i}: {v} is not finite");
            }
            for &v in self.biases[i].value.data() {
                assert!(v.is_finite(), "poisoned bias in layer {i}: {v} is not finite");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    fn finite_diff_check(widths: &[usize], seed: u64) {
        let mut rng = DetRng::new(seed);
        let mlp = Mlp::new(widths, 0.0, &mut rng);
        let x = Matrix::from_fn(3, widths[0], |r, c| 0.3 * (r as f64) - 0.2 * (c as f64) + 0.1);

        // Loss = sum of outputs; analytic input gradient via backward.
        let (y, trace) = mlp.forward(&x, &mut Mode::Eval);
        let ones = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        let mut mlp_mut = mlp.clone();
        let gx = mlp_mut.backward(&trace, &ones);

        // Numeric gradient.
        let eps = 1e-6;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let (yp, _) = mlp.forward(&xp, &mut Mode::Eval);
                let (ym, _) = mlp.forward(&xm, &mut Mode::Eval);
                let num =
                    (yp.data().iter().sum::<f64>() - ym.data().iter().sum::<f64>()) / (2.0 * eps);
                let ana = gx.get(r, c);
                assert!(
                    (num - ana).abs() < 1e-5 * (1.0 + num.abs()),
                    "input grad mismatch at ({r},{c}): {num} vs {ana}"
                );
            }
        }

        // Parameter gradient check on the first weight.
        let mut mlp2 = mlp.clone();
        let (_, trace2) = mlp2.forward(&x, &mut Mode::Eval);
        mlp2.backward(&trace2, &ones);
        let ana_w = mlp2.weights[0].grad.clone();
        for (r, c) in [(0, 0), (widths[0] - 1, 0)] {
            let orig = mlp.weights[0].value.get(r, c);
            let mut mp = mlp.clone();
            mp.weights[0].value.set(r, c, orig + eps);
            let mut mm = mlp.clone();
            mm.weights[0].value.set(r, c, orig - eps);
            let (yp, _) = mp.forward(&x, &mut Mode::Eval);
            let (ym, _) = mm.forward(&x, &mut Mode::Eval);
            let num = (yp.data().iter().sum::<f64>() - ym.data().iter().sum::<f64>()) / (2.0 * eps);
            let ana = ana_w.get(r, c);
            assert!(
                (num - ana).abs() < 1e-5 * (1.0 + num.abs()),
                "weight grad mismatch at ({r},{c}): {num} vs {ana}"
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        finite_diff_check(&[2, 20, 20, 1], 5);
        finite_diff_check(&[4, 8, 3], 6);
    }

    #[test]
    fn reused_trace_and_workspace_do_not_allocate_in_steady_state() {
        let mut rng = DetRng::new(42);
        let mlp = Mlp::new(&[4, 16, 16, 1], 0.25, &mut rng);
        let x = Matrix::from_fn(8, 4, |r, c| 0.1 * (r as f64) - 0.05 * (c as f64));
        let mut drop_rng = DetRng::new(1);
        let mut trace = MlpTrace::default();
        let mut out = Matrix::default();
        let mut grads = MlpGrads::zeroed_for(&mlp);
        let mut ws = Workspace::new();
        let mut dx = Matrix::default();
        let dy = Matrix::from_fn(8, 1, |_, _| 1.0);
        // Warm up, then confirm the workspace serves takes from its pool.
        for _ in 0..3 {
            mlp.forward_into(&x, &mut Mode::Train(&mut drop_rng), &mut trace, &mut out);
            grads.prepare(&mlp);
            mlp.backward_with(&trace, &dy, &mut grads, &mut ws, &mut dx);
        }
        let (_, allocated_warm) = ws.stats();
        for _ in 0..5 {
            mlp.forward_into(&x, &mut Mode::Train(&mut drop_rng), &mut trace, &mut out);
            grads.prepare(&mlp);
            mlp.backward_with(&trace, &dy, &mut grads, &mut ws, &mut dx);
        }
        let (reused, allocated) = ws.stats();
        assert_eq!(allocated, allocated_warm, "steady state never allocates scratch");
        assert!(reused >= 5 * 3, "takes are served from the pool ({reused} reuses)");
    }

    #[test]
    fn backward_with_matches_backward() {
        let mut rng = DetRng::new(13);
        let mut mlp = Mlp::new(&[3, 12, 12, 2], 0.0, &mut rng);
        let x = Matrix::from_fn(5, 3, |r, c| (r as f64 - 2.0) * 0.3 + c as f64 * 0.1);
        let dy = Matrix::from_fn(5, 2, |r, c| if (r + c) % 2 == 0 { 1.0 } else { -0.5 });
        let (_, trace) = mlp.forward(&x, &mut Mode::Eval);
        let dx_old = mlp.backward(&trace, &dy);
        let expected: Vec<Matrix> = mlp.weights.iter().map(|p| p.grad.clone()).collect();
        let mut grads = MlpGrads::zeroed_for(&mlp);
        let mut ws = Workspace::new();
        let mut dx_new = Matrix::default();
        mlp.backward_with(&trace, &dy, &mut grads, &mut ws, &mut dx_new);
        assert_eq!(dx_old.data(), dx_new.data(), "input gradients bit-identical");
        for (e, g) in expected.iter().zip(&grads.weights) {
            assert_eq!(e.data(), g.data(), "weight gradients bit-identical");
        }
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = DetRng::new(7);
        let mut mlp = Mlp::new(&[2, 16, 1], 0.0, &mut rng);
        let mut opt = Adam::new(0.01);
        // y = 3a - 2b + 1
        let xs = Matrix::from_fn(64, 2, |r, c| {
            let t = r as f64 / 64.0;
            if c == 0 {
                t
            } else {
                1.0 - 2.0 * t
            }
        });
        let ys = Matrix::from_fn(64, 1, |r, _| 3.0 * xs.get(r, 0) - 2.0 * xs.get(r, 1) + 1.0);
        let mut last_loss = f64::INFINITY;
        for _ in 0..800 {
            let (pred, trace) = mlp.forward(&xs, &mut Mode::Eval);
            let diff = pred.add(&ys.scale(-1.0));
            last_loss = diff.norm().powi(2) / 64.0;
            mlp.backward(&trace, &diff.scale(2.0 / 64.0));
            opt.step(&mut mlp.params_mut());
        }
        assert!(last_loss < 1e-3, "loss {last_loss}");
    }

    #[test]
    fn dropout_zeroes_activations_in_training_only() {
        let mut rng = DetRng::new(8);
        let mlp = Mlp::new(&[4, 64, 1], 0.5, &mut rng);
        let x = Matrix::from_fn(1, 4, |_, c| c as f64 + 1.0);
        let mut drop_rng = DetRng::new(9);
        let (y1, _) = mlp.forward(&x, &mut Mode::Train(&mut drop_rng));
        let (y2, _) = mlp.forward(&x, &mut Mode::Eval);
        let (y3, _) = mlp.forward(&x, &mut Mode::Eval);
        assert_eq!(y2.data(), y3.data(), "eval is deterministic");
        assert_ne!(y1.data(), y2.data(), "dropout perturbs training output");
    }

    #[test]
    fn shapes_and_param_counts() {
        let mut rng = DetRng::new(10);
        let mlp = Mlp::new(&[3, 20, 20, 1], 0.25, &mut rng);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 1);
        assert_eq!(mlp.num_params(), 3 * 20 + 20 + 20 * 20 + 20 + 20 + 1);
        let x = Matrix::zeros(5, 3);
        let (y, _) = mlp.forward(&x, &mut Mode::Eval);
        assert_eq!((y.rows(), y.cols()), (5, 1));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn input_width_is_checked() {
        let mut rng = DetRng::new(11);
        let mlp = Mlp::new(&[3, 4, 1], 0.0, &mut rng);
        let x = Matrix::zeros(1, 5);
        let _ = mlp.forward(&x, &mut Mode::Eval);
    }
}
