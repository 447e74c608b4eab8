//! The MPNN + readout latency prediction model (§3.4, Figure 9).
//!
//! ## Stacked-node compute layout
//!
//! φ and γ share weights across nodes, so instead of applying them once per
//! node as n small `B × F` matmuls, the forward pass vertically stacks the
//! per-node batches into one `(n·B) × F` matrix (node `i`'s batch occupying
//! rows `i·B .. (i+1)·B`) and runs each network **once** per layer. Message
//! aggregation, the `[x ‖ msg]` concatenation, and the gradient scatter all
//! become contiguous row-block copies/adds on the stacked matrices. Because
//! every kernel processes rows independently with a fixed reduction order,
//! stacked predictions and input gradients are bit-identical to the
//! per-node formulation (the equivalence tests below assert this).
//!
//! ## Deterministic data-parallel training
//!
//! `train_step` shards the mini-batch into fixed `CHUNK_ROWS`-row chunks
//! — a partition that does **not** depend on the worker count — draws each
//! chunk's dropout seed from the training RNG in chunk order on the calling
//! thread, fans the chunks out over `std::thread::scope` workers
//! (round-robin by chunk index), and then reduces the per-chunk gradient
//! sinks into the parameters in ascending chunk order. Every float is
//! therefore produced by the same operation sequence regardless of thread
//! count: training is bit-for-bit run-to-run *and* thread-count invariant.

use std::cell::RefCell;

use graf_nn::{Adam, AsymmetricHuber, Matrix, Mlp, MlpGrads, MlpTrace, Mode, Workspace};
use graf_sim::rng::DetRng;

use crate::graph::GraphSpec;
use crate::net::{assert_kept, LatencyNet};

/// Rows per training shard. Fixed (never derived from the thread count) so
/// the chunk partition — and with it every floating-point reduction order —
/// is identical for any number of workers.
const CHUNK_ROWS: usize = 64;

/// Architecture hyper-parameters (§4 defaults).
#[derive(Clone, Debug)]
pub struct GnnConfig {
    /// Features per node (workload, quota → 2).
    pub feature_dim: usize,
    /// Message vector width.
    pub msg_dim: usize,
    /// Node-embedding width.
    pub embed_dim: usize,
    /// Hidden width of the φ/γ MLPs ("two hidden layers with 20 hidden
    /// units", §4).
    pub hidden: usize,
    /// Hidden width of the readout FC ("two hidden layers with 120 hidden
    /// units", §4).
    pub readout_hidden: usize,
    /// Dropout probability (Table 1: 0.25).
    pub dropout: f64,
}

impl Default for GnnConfig {
    fn default() -> Self {
        Self {
            feature_dim: 2,
            msg_dim: 20,
            embed_dim: 20,
            hidden: 20,
            readout_hidden: 120,
            dropout: 0.25,
        }
    }
}

/// The five shared-weight networks. Split out of [`MicroserviceGnn`] so the
/// training fan-out can share them immutably (`&GnnNets` is `Sync`) while
/// each worker owns its mutable scratch.
#[derive(Clone)]
struct GnnNets {
    phi1: Mlp,
    gamma1: Mlp,
    phi2: Mlp,
    gamma2: Mlp,
    readout: Mlp,
}

/// Per-shard gradient sinks, one [`MlpGrads`] per network.
#[derive(Default)]
struct GnnGrads {
    phi1: MlpGrads,
    gamma1: MlpGrads,
    phi2: MlpGrads,
    gamma2: MlpGrads,
    readout: MlpGrads,
}

impl GnnGrads {
    /// Shapes every sink for `nets` (reusing allocations) and zeroes them.
    fn prepare(&mut self, nets: &GnnNets) {
        self.phi1.prepare(&nets.phi1);
        self.gamma1.prepare(&nets.gamma1);
        self.phi2.prepare(&nets.phi2);
        self.gamma2.prepare(&nets.gamma2);
        self.readout.prepare(&nets.readout);
    }
}

/// Reusable forward/backward state for one batch shard: traces, stacked
/// activations, a scratch-buffer pool, and the gradient sinks (shaped by
/// training only: the eval pass's stay empty). Steady-state passes through a
/// warm `GnnPass` do not touch the heap.
#[derive(Default)]
struct GnnPass {
    ws: Workspace,
    t_phi1: MlpTrace,
    t_gamma1: MlpTrace,
    t_phi2: MlpTrace,
    t_gamma2: MlpTrace,
    t_read: MlpTrace,
    /// Node-stacked input features, `(n·B) × F`.
    xs: Matrix,
    /// Readout input, `B × (n·embed)`.
    read_in: Matrix,
    /// Predictions, `B × 1`.
    y: Matrix,
    /// Output gradient fed to backward, `B × 1`.
    dy: Matrix,
    /// Node-stacked input gradient, `(n·B) × F`.
    dx_stacked: Matrix,
    /// Input gradient in batch layout, `B × (n·F)`.
    dx: Matrix,
    grads: GnnGrads,
    /// This shard's (already batch-weighted) loss contribution.
    loss: f64,
}

/// Cached per-layer weight transposes for every net. One refresh serves
/// every backward pass until the next parameter update — all shards of a
/// training step, and every gradient call of a solver run — instead of each
/// backward re-materialising the transposes itself.
#[derive(Default)]
struct NetWts {
    phi1: Vec<Matrix>,
    gamma1: Vec<Matrix>,
    phi2: Vec<Matrix>,
    gamma2: Vec<Matrix>,
    readout: Vec<Matrix>,
    /// False whenever the parameters may have changed since the last refresh.
    valid: bool,
}

impl NetWts {
    fn refresh(&mut self, nets: &GnnNets) {
        if self.valid {
            return;
        }
        nets.phi1.transpose_weights_into(&mut self.phi1);
        nets.gamma1.transpose_weights_into(&mut self.gamma1);
        nets.phi2.transpose_weights_into(&mut self.phi2);
        nets.gamma2.transpose_weights_into(&mut self.gamma2);
        nets.readout.transpose_weights_into(&mut self.readout);
        self.valid = true;
    }
}

/// Mutable per-model scratch, behind a `RefCell` so eval-mode entry points
/// (`predict` takes `&self`) can reuse buffers too. Never shared across
/// threads: workers each get their own [`GnnPass`] out of `chunks`.
#[derive(Default)]
struct GnnScratch {
    /// Pass used by the eval forward and the kept-trace input gradient.
    eval: GnnPass,
    /// Row count of the retained eval forward (0 = no valid trace).
    kept_rows: usize,
    /// One pass per training shard.
    chunks: Vec<GnnPass>,
    /// Per-chunk dropout seeds, drawn in chunk order on the calling thread.
    seeds: Vec<u64>,
    /// Weight transposes shared by every backward between parameter updates.
    wts: NetWts,
}

/// The paper's latency prediction model: two message-passing steps over the
/// microservice graph, then a fully connected readout over the flattened node
/// embeddings.
pub struct MicroserviceGnn {
    graph: GraphSpec,
    cfg: GnnConfig,
    nets: GnnNets,
    threads: usize,
    scratch: RefCell<GnnScratch>,
}

impl Clone for MicroserviceGnn {
    fn clone(&self) -> Self {
        Self {
            graph: self.graph.clone(),
            cfg: self.cfg.clone(),
            nets: self.nets.clone(),
            threads: self.threads,
            scratch: RefCell::new(GnnScratch::default()),
        }
    }
}

/// Copies rows `r0..r1` of the batch-layout `x` (`B × (n·f)`) into the
/// node-stacked layout (`(n·(r1-r0)) × f`, node `i`'s rows contiguous).
fn stack_nodes(x: &Matrix, r0: usize, r1: usize, n: usize, f: usize, out: &mut Matrix) {
    let b = r1 - r0;
    debug_assert_eq!(x.cols(), n * f);
    out.reshape_for_overwrite(n * b, f);
    for i in 0..n {
        for r in 0..b {
            let src = &x.row(r0 + r)[i * f..(i + 1) * f];
            out.row_mut(i * b + r).copy_from_slice(src);
        }
    }
}

/// Inverse of [`stack_nodes`]: `(n·B) × d` stacked → `B × (n·d)` batch layout.
fn unstack_nodes(s: &Matrix, n: usize, out: &mut Matrix) {
    let d = s.cols();
    let b = s.rows() / n;
    debug_assert_eq!(s.rows(), n * b);
    out.reshape_for_overwrite(b, n * d);
    for i in 0..n {
        for r in 0..b {
            let src = s.row(i * b + r);
            out.row_mut(r)[i * d..(i + 1) * d].copy_from_slice(src);
        }
    }
}

/// Message aggregation on the stacked layout: node `i`'s message rows are
/// the sum of its parents' φ-output row blocks, added in parent order.
fn gather_messages(graph: &GraphSpec, b: usize, phi_out: &Matrix, msg: &mut Matrix) {
    msg.reshape_zeroed(phi_out.rows(), phi_out.cols());
    for i in 0..graph.num_nodes() {
        for &p in graph.parents(i) {
            for r in 0..b {
                let src = phi_out.row(p as usize * b + r);
                for (v, &s) in msg.row_mut(i * b + r).iter_mut().zip(src) {
                    *v += s;
                }
            }
        }
    }
}

/// Gradient scatter adjoint to [`gather_messages`]: child `i`'s message
/// gradient (columns `f..` of `d_gin`) accumulates into each parent's
/// φ-output gradient rows, iterated in the same child-then-parent order as
/// the per-node formulation.
fn scatter_msg_grads(
    graph: &GraphSpec,
    b: usize,
    f: usize,
    d_gin: &Matrix,
    d_phi_out: &mut Matrix,
) {
    let m = d_phi_out.cols();
    for i in 0..graph.num_nodes() {
        for &p in graph.parents(i) {
            for r in 0..b {
                let src = &d_gin.row(i * b + r)[f..f + m];
                for (v, &s) in d_phi_out.row_mut(p as usize * b + r).iter_mut().zip(src) {
                    *v += s;
                }
            }
        }
    }
}

/// `out = src[:, from..from+width]` (reshaped in place).
fn copy_cols_window(src: &Matrix, from: usize, width: usize, out: &mut Matrix) {
    out.reshape_for_overwrite(src.rows(), width);
    for r in 0..src.rows() {
        out.row_mut(r).copy_from_slice(&src.row(r)[from..from + width]);
    }
}

/// `dst += src[:, from..from+dst.cols()]`.
fn add_cols_window(src: &Matrix, from: usize, dst: &mut Matrix) {
    let w = dst.cols();
    for r in 0..dst.rows() {
        let s = &src.row(r)[from..from + w];
        for (v, &x) in dst.row_mut(r).iter_mut().zip(s) {
            *v += x;
        }
    }
}

/// Stacked forward pass over rows `r0..r1` of `x`, leaving predictions in
/// `pass.y` and the traces needed by [`backward_stacked`] in `pass`.
#[expect(clippy::too_many_arguments, reason = "one chunk's borrowed inputs and its scratch")]
fn forward_stacked(
    nets: &GnnNets,
    graph: &GraphSpec,
    cfg: &GnnConfig,
    x: &Matrix,
    r0: usize,
    r1: usize,
    mode: &mut Mode<'_>,
    pass: &mut GnnPass,
) {
    let n = graph.num_nodes();
    let (f, m, e) = (cfg.feature_dim, cfg.msg_dim, cfg.embed_dim);
    let b = r1 - r0;
    assert_eq!(x.cols(), n * f, "input width must be num_nodes × feature_dim");
    stack_nodes(x, r0, r1, n, f, &mut pass.xs);

    // Step 1: φ₁ over the raw features, aggregate, γ₁ on [x ‖ msg].
    let mut phi_out = pass.ws.take(n * b, m);
    nets.phi1.forward_into(&pass.xs, mode, &mut pass.t_phi1, &mut phi_out);
    let mut msg = pass.ws.take(n * b, m);
    gather_messages(graph, b, &phi_out, &mut msg);
    pass.ws.give(phi_out);
    let mut gin = pass.ws.take(n * b, f + m);
    Matrix::hcat_into(&[&pass.xs, &msg], &mut gin);
    pass.ws.give(msg);
    let mut e1 = pass.ws.take(n * b, e);
    nets.gamma1.forward_into(&gin, mode, &mut pass.t_gamma1, &mut e1);
    pass.ws.give(gin);

    // Step 2: φ₂ over the step-1 embeddings, aggregate, γ₂ on [x ‖ msg].
    let mut phi2_out = pass.ws.take(n * b, m);
    nets.phi2.forward_into(&e1, mode, &mut pass.t_phi2, &mut phi2_out);
    pass.ws.give(e1);
    let mut msg2 = pass.ws.take(n * b, m);
    gather_messages(graph, b, &phi2_out, &mut msg2);
    pass.ws.give(phi2_out);
    let mut gin2 = pass.ws.take(n * b, f + m);
    Matrix::hcat_into(&[&pass.xs, &msg2], &mut gin2);
    pass.ws.give(msg2);
    let mut e2 = pass.ws.take(n * b, e);
    nets.gamma2.forward_into(&gin2, mode, &mut pass.t_gamma2, &mut e2);
    pass.ws.give(gin2);

    // Readout over the flattened embeddings.
    unstack_nodes(&e2, n, &mut pass.read_in);
    pass.ws.give(e2);
    nets.readout.forward_into(&pass.read_in, mode, &mut pass.t_read, &mut pass.y);
}

/// Stacked backward pass for the forward recorded in `pass` (output gradient
/// in `pass.dy`). With `grads` (prepared first) it is the training pass:
/// parameter gradients accumulate there, and the input gradient, which
/// training never reads, is not formed — φ₁ skips its `g·W₀ᵀ` product and
/// the feature columns are neither gathered nor unstacked. Without `grads`
/// it is the solver pass: the input gradient lands in `pass.dx`
/// (`B × (n·F)`) and no parameter-gradient product runs. The networks are
/// untouched either way.
fn backward_stacked(
    nets: &GnnNets,
    graph: &GraphSpec,
    cfg: &GnnConfig,
    wts: &NetWts,
    pass: &mut GnnPass,
    mut grads: Option<&mut GnnGrads>,
) {
    let n = graph.num_nodes();
    let (f, m, e) = (cfg.feature_dim, cfg.msg_dim, cfg.embed_dim);
    let b = pass.dy.rows();
    let input_grad = grads.is_none();

    // Readout.
    let mut d_read_in = pass.ws.take(b, n * e);
    nets.readout.backward(
        &pass.t_read,
        &pass.dy,
        grads.as_deref_mut().map(|g| &mut g.readout),
        &mut pass.ws,
        Some(&mut d_read_in),
        &wts.readout,
    );
    let mut d_e2 = pass.ws.take(n * b, e);
    stack_nodes(&d_read_in, 0, b, n, e, &mut d_e2);
    pass.ws.give(d_read_in);

    // Step 2 backward.
    let mut d_gin2 = pass.ws.take(n * b, f + m);
    nets.gamma2.backward(
        &pass.t_gamma2,
        &d_e2,
        grads.as_deref_mut().map(|g| &mut g.gamma2),
        &mut pass.ws,
        Some(&mut d_gin2),
        &wts.gamma2,
    );
    pass.ws.give(d_e2);
    if input_grad {
        copy_cols_window(&d_gin2, 0, f, &mut pass.dx_stacked);
    }
    let mut d_phi2_out = pass.ws.take(n * b, m);
    d_phi2_out.data_mut().fill(0.0);
    scatter_msg_grads(graph, b, f, &d_gin2, &mut d_phi2_out);
    pass.ws.give(d_gin2);
    let mut d_e1 = pass.ws.take(n * b, e);
    nets.phi2.backward(
        &pass.t_phi2,
        &d_phi2_out,
        grads.as_deref_mut().map(|g| &mut g.phi2),
        &mut pass.ws,
        Some(&mut d_e1),
        &wts.phi2,
    );
    pass.ws.give(d_phi2_out);

    // Step 1 backward.
    let mut d_gin1 = pass.ws.take(n * b, f + m);
    nets.gamma1.backward(
        &pass.t_gamma1,
        &d_e1,
        grads.as_deref_mut().map(|g| &mut g.gamma1),
        &mut pass.ws,
        Some(&mut d_gin1),
        &wts.gamma1,
    );
    pass.ws.give(d_e1);
    if input_grad {
        add_cols_window(&d_gin1, 0, &mut pass.dx_stacked);
    }
    let mut d_phi1_out = pass.ws.take(n * b, m);
    d_phi1_out.data_mut().fill(0.0);
    scatter_msg_grads(graph, b, f, &d_gin1, &mut d_phi1_out);
    pass.ws.give(d_gin1);
    // φ₁'s input is the raw features: training needs only its parameter
    // gradients, the solver only its input gradient.
    let mut d_x_phi = input_grad.then(|| pass.ws.take(n * b, f));
    nets.phi1.backward(
        &pass.t_phi1,
        &d_phi1_out,
        grads.map(|g| &mut g.phi1),
        &mut pass.ws,
        d_x_phi.as_mut(),
        &wts.phi1,
    );
    if let Some(d_x_phi) = d_x_phi {
        pass.dx_stacked.add_assign(&d_x_phi);
        pass.ws.give(d_x_phi);
        unstack_nodes(&pass.dx_stacked, n, &mut pass.dx);
    }
    pass.ws.give(d_phi1_out);
}

impl MicroserviceGnn {
    /// Creates a model for `graph` with He-initialized weights from `rng`.
    pub fn new(graph: GraphSpec, cfg: GnnConfig, rng: &mut DetRng) -> Self {
        let n = graph.num_nodes();
        assert!(n > 0, "graph must have nodes");
        let f = cfg.feature_dim;
        let phi1 = Mlp::new(&[f, cfg.hidden, cfg.hidden, cfg.msg_dim], 0.0, rng);
        let gamma1 = Mlp::new(&[f + cfg.msg_dim, cfg.hidden, cfg.hidden, cfg.embed_dim], 0.0, rng);
        let phi2 = Mlp::new(&[cfg.embed_dim, cfg.hidden, cfg.hidden, cfg.msg_dim], 0.0, rng);
        let gamma2 = Mlp::new(&[f + cfg.msg_dim, cfg.hidden, cfg.hidden, cfg.embed_dim], 0.0, rng);
        let readout = Mlp::new(
            &[n * cfg.embed_dim, cfg.readout_hidden, cfg.readout_hidden, 1],
            cfg.dropout,
            rng,
        );
        Self {
            graph,
            cfg,
            nets: GnnNets { phi1, gamma1, phi2, gamma2, readout },
            threads: 1,
            scratch: RefCell::new(GnnScratch::default()),
        }
    }

    /// The message-passing graph.
    pub fn graph(&self) -> &GraphSpec {
        &self.graph
    }

    /// Visits every parameter read-only, in the optimizer's order.
    pub fn for_each_param(&self, mut f: impl FnMut(&graf_nn::Param)) {
        self.nets.phi1.for_each_param(&mut f);
        self.nets.gamma1.for_each_param(&mut f);
        self.nets.phi2.for_each_param(&mut f);
        self.nets.gamma2.for_each_param(&mut f);
        self.nets.readout.for_each_param(&mut f);
    }

    /// Visits every parameter across the five networks in a fixed order,
    /// without collecting references into a `Vec` (the allocation-free
    /// optimizer path — pair with `Adam::begin_step` + `Adam::update`).
    fn for_each_param_mut(&mut self, mut f: impl FnMut(&mut graf_nn::Param)) {
        self.nets.phi1.for_each_param_mut(&mut f);
        self.nets.gamma1.for_each_param_mut(&mut f);
        self.nets.phi2.for_each_param_mut(&mut f);
        self.nets.gamma2.for_each_param_mut(&mut f);
        self.nets.readout.for_each_param_mut(&mut f);
    }
}

impl LatencyNet for MicroserviceGnn {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn feature_dim(&self) -> usize {
        self.cfg.feature_dim
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "chunk gradients fold in ascending chunk index, so the step is thread-count-invariant"
    )]
    fn train_step(
        &mut self,
        x: &Matrix,
        y: &[f64],
        loss: &AsymmetricHuber,
        opt: &mut Adam,
        rng: &mut DetRng,
    ) -> f64 {
        assert_eq!(x.rows(), y.len(), "batch size mismatch");
        let b = x.rows();
        let n_chunks = b.div_ceil(CHUNK_ROWS).max(1);
        let mut scratch = std::mem::take(self.scratch.get_mut());
        scratch.kept_rows = 0; // parameters are about to change: kept trace is stale
        scratch.seeds.clear();
        for _ in 0..n_chunks {
            scratch.seeds.push(rng.uniform_u64(0, u64::MAX));
        }
        if scratch.chunks.len() < n_chunks {
            scratch.chunks.resize_with(n_chunks, GnnPass::default);
        }
        {
            let (nets, graph, cfg) = (&self.nets, &self.graph, &self.cfg);
            let threads = self.threads.clamp(1, n_chunks);
            let GnnScratch { seeds, chunks, wts, .. } = &mut scratch;
            wts.refresh(nets);
            let seeds = &*seeds;
            let wts = &*wts;
            let run = |pass: &mut GnnPass, ci: usize| {
                let r0 = ci * CHUNK_ROWS;
                let r1 = (r0 + CHUNK_ROWS).min(b);
                let mut drop_rng = DetRng::new(seeds[ci]);
                forward_stacked(nets, graph, cfg, x, r0, r1, &mut Mode::Train(&mut drop_rng), pass);
                // The chunk loss/gradient are means over the chunk; weight by
                // chunk_size/batch_size so the reduced step equals one full-
                // batch step.
                let frac = (r1 - r0) as f64 / b as f64;
                pass.dy.reshape_zeroed(r1 - r0, 1);
                let chunk_loss = loss.batch_into(pass.y.data(), &y[r0..r1], pass.dy.data_mut());
                for g in pass.dy.data_mut() {
                    *g *= frac;
                }
                pass.loss = chunk_loss * frac;
                // The sink leaves the pass for the call, so both can be
                // borrowed mutably; taking an unshaped default allocates
                // nothing.
                let mut grads = std::mem::take(&mut pass.grads);
                grads.prepare(nets);
                backward_stacked(nets, graph, cfg, wts, pass, Some(&mut grads));
                pass.grads = grads;
            };
            if threads <= 1 {
                for (ci, pass) in chunks[..n_chunks].iter_mut().enumerate() {
                    run(pass, ci);
                }
            } else {
                let mut buckets: Vec<Vec<(usize, &mut GnnPass)>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (ci, pass) in chunks[..n_chunks].iter_mut().enumerate() {
                    buckets[ci % threads].push((ci, pass));
                }
                let run = &run;
                std::thread::scope(|s| {
                    for bucket in buckets {
                        s.spawn(move || {
                            for (ci, pass) in bucket {
                                run(pass, ci);
                            }
                        });
                    }
                });
            }
        }
        // Ordered reduction: chunk gradients fold into the parameters in
        // ascending chunk index, so the sum is identical for any thread count.
        let mut total = 0.0;
        for pass in &scratch.chunks[..n_chunks] {
            total += pass.loss;
            self.nets.phi1.accumulate_grads(&pass.grads.phi1);
            self.nets.gamma1.accumulate_grads(&pass.grads.gamma1);
            self.nets.phi2.accumulate_grads(&pass.grads.phi2);
            self.nets.gamma2.accumulate_grads(&pass.grads.gamma2);
            self.nets.readout.accumulate_grads(&pass.grads.readout);
        }
        // Split step across the five networks: no `Vec<&mut Param>` temporary.
        opt.begin_step();
        self.for_each_param_mut(|p| opt.update(p));
        // Parameters just changed: the transpose cache is stale.
        scratch.wts.valid = false;
        *self.scratch.get_mut() = scratch;
        total
    }

    fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    fn predict_keep_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;
        forward_stacked(
            &self.nets,
            &self.graph,
            &self.cfg,
            x,
            0,
            x.rows(),
            &mut Mode::Eval,
            &mut sc.eval,
        );
        sc.kept_rows = x.rows();
        out.clear();
        out.extend_from_slice(sc.eval.y.data());
    }

    fn grad_from_kept_into(&mut self, x: &Matrix, dx: &mut Matrix) {
        let sc = self.scratch.get_mut();
        let (b, f) = (sc.kept_rows, self.cfg.feature_dim);
        // The kept batch, node-stacked: node `c / f`'s rows are contiguous.
        assert_kept(b, x, |r, c| sc.eval.xs.get(c / f * b + r, c % f));
        // Input gradient only: no parameter gradient is computed, so the
        // eval pass's sinks are never shaped or zeroed.
        sc.eval.dy.reshape_zeroed(b, 1);
        sc.eval.dy.data_mut().fill(1.0);
        sc.wts.refresh(&self.nets);
        backward_stacked(&self.nets, &self.graph, &self.cfg, &sc.wts, &mut sc.eval, None);
        dx.copy_from(&sc.eval.dx);
    }

    fn scratch_stats(&self) -> (u64, u64) {
        let sc = self.scratch.borrow();
        let (mut reused, mut allocated) = sc.eval.ws.stats();
        for c in &sc.chunks {
            let (r, a) = c.ws.stats();
            reused += r;
            allocated += a;
        }
        (reused, allocated)
    }

    fn boxed_clone(&self) -> Box<dyn LatencyNet + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph(n: usize) -> GraphSpec {
        let edges: Vec<(u16, u16)> = (0..n as u16 - 1).map(|i| (i, i + 1)).collect();
        GraphSpec::from_edges(n, &edges)
    }

    fn small_cfg() -> GnnConfig {
        GnnConfig { msg_dim: 6, embed_dim: 6, hidden: 8, readout_hidden: 16, ..Default::default() }
    }

    /// The per-node formulation's forward state: each node's features, the
    /// per-node traces of φ₁, γ₁, φ₂ and γ₂, the readout trace and the
    /// predictions.
    struct PerNode {
        t_phi1: Vec<MlpTrace>,
        t_gamma1: Vec<MlpTrace>,
        t_phi2: Vec<MlpTrace>,
        t_gamma2: Vec<MlpTrace>,
        t_read: MlpTrace,
        y: Matrix,
    }

    /// The original per-node formulation, reimplemented over the same MLP
    /// kernels: φ/γ applied once per node on `B × F` column windows, messages
    /// summed per node, readout on the horizontal concatenation. The stacked
    /// path must reproduce it bit-for-bit.
    fn per_node_forward(gnn: &MicroserviceGnn, x: &Matrix) -> PerNode {
        let (n, f, m) = (gnn.graph.num_nodes(), gnn.cfg.feature_dim, gnn.cfg.msg_dim);
        let mut xs = vec![Matrix::default(); n];
        for (i, xi) in xs.iter_mut().enumerate() {
            copy_cols_window(x, i * f, f, xi);
        }
        let apply = |net: &Mlp, input: &Matrix| {
            let (mut out, mut trace) = (Matrix::default(), MlpTrace::default());
            net.forward_into(input, &mut Mode::Eval, &mut trace, &mut out);
            (out, trace)
        };
        // One message-passing step: φ on every node's state, messages summed
        // over parents, γ on `[x_i ‖ msg_i]`.
        let step = |phi: &Mlp, gamma: &Mlp, state: &[Matrix]| {
            let (phi_out, t_phi): (Vec<Matrix>, Vec<MlpTrace>) =
                state.iter().map(|s| apply(phi, s)).unzip();
            let mut gin = Matrix::default();
            let (out, t_gamma): (Vec<Matrix>, Vec<MlpTrace>) = (0..n)
                .map(|i| {
                    let mut msg = Matrix::zeros(x.rows(), m);
                    for &p in gnn.graph.parents(i) {
                        msg.add_assign(&phi_out[p as usize]);
                    }
                    Matrix::hcat_into(&[&xs[i], &msg], &mut gin);
                    apply(gamma, &gin)
                })
                .unzip();
            (out, t_phi, t_gamma)
        };
        let (e1, t_phi1, t_gamma1) = step(&gnn.nets.phi1, &gnn.nets.gamma1, &xs);
        let (e2, t_phi2, t_gamma2) = step(&gnn.nets.phi2, &gnn.nets.gamma2, &e1);
        let mut read_in = Matrix::default();
        Matrix::hcat_into(&e2.iter().collect::<Vec<_>>(), &mut read_in);
        let (y, t_read) = apply(&gnn.nets.readout, &read_in);
        PerNode { t_phi1, t_gamma1, t_phi2, t_gamma2, t_read, y }
    }

    /// Per-node backward (the original node loop), returning the input
    /// gradient for `dy = 1`. Every network application runs the full
    /// `Mlp::backward`: parameter gradients into a sink as well as `dx`.
    fn per_node_grad_input(gnn: &MicroserviceGnn, x: &Matrix) -> Matrix {
        let (n, f) = (gnn.graph.num_nodes(), gnn.cfg.feature_dim);
        let (e, m, batch) = (gnn.cfg.embed_dim, gnn.cfg.msg_dim, x.rows());
        let fwd = per_node_forward(gnn, x);
        let back = |net: &Mlp, trace: &MlpTrace, grad_out: &Matrix| {
            let (mut wts, mut grads, mut dx) = (Vec::new(), MlpGrads::default(), Matrix::default());
            net.transpose_weights_into(&mut wts);
            grads.prepare(net);
            let ws = &mut Workspace::new();
            net.backward(trace, grad_out, Some(&mut grads), ws, Some(&mut dx), &wts);
            dx
        };
        // One message-passing step backward: γ per node, its feature columns
        // into `dx` and its message columns into each parent's φ-output
        // gradient, then φ per node.
        let mut dx = vec![Matrix::zeros(batch, f); n];
        let mut window = Matrix::default();
        let mut step_back =
            |phi: &Mlp, gamma: &Mlp, t_phi: &[MlpTrace], t_gamma: &[MlpTrace], d_out: &[Matrix]| {
                let mut d_phi_out = vec![Matrix::zeros(batch, m); n];
                for i in 0..n {
                    let d_gin = back(gamma, &t_gamma[i], &d_out[i]);
                    copy_cols_window(&d_gin, 0, f, &mut window);
                    dx[i].add_assign(&window);
                    copy_cols_window(&d_gin, f, m, &mut window);
                    for &p in gnn.graph.parents(i) {
                        d_phi_out[p as usize].add_assign(&window);
                    }
                }
                (0..n).map(|j| back(phi, &t_phi[j], &d_phi_out[j])).collect::<Vec<_>>()
            };
        let nets = &gnn.nets;
        let d_read_in = back(&nets.readout, &fwd.t_read, &Matrix::from_fn(batch, 1, |_, _| 1.0));
        let mut d_e2 = vec![Matrix::default(); n];
        for (i, d) in d_e2.iter_mut().enumerate() {
            copy_cols_window(&d_read_in, i * e, e, d);
        }
        let d_e1 = step_back(&nets.phi2, &nets.gamma2, &fwd.t_phi2, &fwd.t_gamma2, &d_e2);
        let d_x_phi1 = step_back(&nets.phi1, &nets.gamma1, &fwd.t_phi1, &fwd.t_gamma1, &d_e1);
        for (d, g) in dx.iter_mut().zip(&d_x_phi1) {
            d.add_assign(g);
        }
        let mut out = Matrix::default();
        Matrix::hcat_into(&dx.iter().collect::<Vec<_>>(), &mut out);
        out
    }

    #[test]
    fn forward_shapes() {
        let mut rng = DetRng::new(1);
        let gnn = MicroserviceGnn::new(chain_graph(4), small_cfg(), &mut rng);
        let x = Matrix::from_fn(5, 8, |r, c| (r + c) as f64 * 0.1);
        let y = gnn.predict(&x);
        assert_eq!(y.len(), 5);
        assert_eq!(gnn.num_nodes(), 4);
    }

    #[test]
    fn stacked_forward_is_bit_identical_to_per_node() {
        let mut rng = DetRng::new(21);
        let graph = GraphSpec::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let gnn = MicroserviceGnn::new(graph, small_cfg(), &mut rng);
        let x = Matrix::from_fn(7, 10, |r, c| 0.13 * (r as f64) - 0.07 * (c as f64) + 0.05);
        let reference = per_node_forward(&gnn, &x).y.data().to_vec();
        let stacked = gnn.predict(&x);
        assert_eq!(stacked, reference, "stacked predictions are bit-identical");
    }

    #[test]
    fn stacked_backward_is_bit_identical_to_per_node() {
        let mut rng = DetRng::new(22);
        let graph = GraphSpec::from_edges(6, &[(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (3, 5)]);
        let mut gnn = MicroserviceGnn::new(graph, small_cfg(), &mut rng);
        let x = Matrix::from_fn(4, 12, |r, c| 0.05 * (c as f64) - 0.11 * (r as f64) + 0.02);
        let reference = per_node_grad_input(&gnn, &x);
        let stacked = gnn.grad_input(&x);
        assert_eq!(stacked.data(), reference.data(), "input gradients are bit-identical");
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = DetRng::new(2);
        let mut gnn = MicroserviceGnn::new(
            GraphSpec::from_edges(3, &[(0, 1), (0, 2), (1, 2)]),
            small_cfg(),
            &mut rng,
        );
        let x = Matrix::from_fn(2, 6, |r, c| 0.2 * (r as f64) + 0.1 * (c as f64) - 0.15);
        let ana = gnn.grad_input(&x);
        let eps = 1e-6;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let yp: f64 = gnn.predict(&xp).iter().sum();
                let ym: f64 = gnn.predict(&xm).iter().sum();
                let num = (yp - ym) / (2.0 * eps);
                let a = ana.get(r, c);
                assert!(
                    (num - a).abs() < 1e-4 * (1.0 + num.abs()),
                    "grad mismatch at ({r},{c}): num {num} vs ana {a}"
                );
            }
        }
    }

    #[test]
    fn message_passing_propagates_parent_information() {
        // In a 0→1 chain, node 0's features must influence the prediction
        // through messages even if readout weights for node 0's own embedding
        // were zero; weaker but sufficient check: perturbing the *parent*
        // feature changes the output.
        let mut rng = DetRng::new(3);
        let gnn = MicroserviceGnn::new(chain_graph(2), small_cfg(), &mut rng);
        let x0 = Matrix::row_vector(vec![0.5, 0.5, 0.5, 0.5]);
        let mut x1 = x0.clone();
        x1.set(0, 0, 0.9); // parent workload changes
        let y0 = gnn.predict(&x0)[0];
        let y1 = gnn.predict(&x1)[0];
        assert!((y0 - y1).abs() > 1e-9, "parent features must matter");
    }

    #[test]
    fn training_reduces_loss_on_synthetic_target() {
        // Target: latency = 1 + 3·w₀/(r₀+0.5) + 2·w₁/(r₁+0.5) — a convex
        // queueing-ish function of (workload, quota) features.
        let mut rng = DetRng::new(4);
        let graph = chain_graph(2);
        let mut gnn = MicroserviceGnn::new(graph, small_cfg(), &mut rng);
        let mut data_rng = DetRng::new(5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..256 {
            let w0 = data_rng.uniform(0.1, 1.0);
            let r0 = data_rng.uniform(0.2, 1.0);
            let w1 = data_rng.uniform(0.1, 1.0);
            let r1 = data_rng.uniform(0.2, 1.0);
            xs.push(vec![w0, r0, w1, r1]);
            ys.push(1.0 + 3.0 * w0 / (r0 + 0.5) + 2.0 * w1 / (r1 + 0.5));
        }
        let x = Matrix::from_fn(256, 4, |r, c| xs[r][c]);
        let loss = AsymmetricHuber::default();
        let mut opt = Adam::new(3e-3);
        let mut train_rng = DetRng::new(6);
        let first = gnn.eval_loss(&x, &ys, &loss);
        for _ in 0..300 {
            gnn.train_step(&x, &ys, &loss, &mut opt, &mut train_rng);
        }
        let last = gnn.eval_loss(&x, &ys, &loss);
        assert!(last < first * 0.35, "training must cut loss substantially: {first} → {last}");
    }

    /// Gradient check on a Social-Network-shaped graph (fan-out + rejoin).
    #[test]
    fn input_gradient_matches_fd_on_fanout_graph() {
        let mut rng = DetRng::new(12);
        let graph = GraphSpec::from_edges(6, &[(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (3, 5)]);
        let mut gnn = MicroserviceGnn::new(graph, small_cfg(), &mut rng);
        let x = Matrix::from_fn(1, 12, |_, c| 0.07 * (c as f64) - 0.3);
        let ana = gnn.grad_input(&x);
        let eps = 1e-6;
        for c in 0..12 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let num = (gnn.predict(&xp)[0] - gnn.predict(&xm)[0]) / (2.0 * eps);
            let a = ana.get(0, c);
            assert!(
                (num - a).abs() < 1e-4 * (1.0 + num.abs()),
                "fan-out grad mismatch at col {c}: {num} vs {a}"
            );
        }
    }

    #[test]
    fn deterministic_training_given_seeds() {
        let run = || {
            let mut rng = DetRng::new(40);
            let mut gnn = MicroserviceGnn::new(chain_graph(3), small_cfg(), &mut rng);
            let x = Matrix::from_fn(32, 6, |r, c| ((r * 3 + c) % 7) as f64 * 0.1);
            let y: Vec<f64> = (0..32).map(|r| 1.0 + (r % 5) as f64).collect();
            let loss = AsymmetricHuber::default();
            let mut opt = Adam::new(1e-3);
            let mut tr = DetRng::new(41);
            for _ in 0..20 {
                gnn.train_step(&x, &y, &loss, &mut opt, &mut tr);
            }
            gnn.predict(&x)
        };
        assert_eq!(run(), run(), "training is bit-for-bit deterministic");
    }

    #[test]
    fn parallel_training_is_thread_count_invariant() {
        // 160 rows → 3 fixed 64-row chunks (64/64/32), regardless of the
        // worker count: results must be bit-identical for 1 vs 4 threads.
        let train = |threads: usize| {
            let mut rng = DetRng::new(50);
            let mut gnn = MicroserviceGnn::new(chain_graph(3), small_cfg(), &mut rng);
            gnn.set_threads(threads);
            let x = Matrix::from_fn(160, 6, |r, c| ((r * 5 + c) % 11) as f64 * 0.07 - 0.2);
            let y: Vec<f64> = (0..160).map(|r| 1.0 + (r % 7) as f64 * 0.5).collect();
            let loss = AsymmetricHuber::default();
            let mut opt = Adam::new(1e-3);
            let mut tr = DetRng::new(51);
            for _ in 0..10 {
                gnn.train_step(&x, &y, &loss, &mut opt, &mut tr);
            }
            gnn.predict(&x)
        };
        assert_eq!(train(1), train(4), "serial and parallel training are bit-identical");
    }

    #[test]
    fn solver_fast_path_matches_grad_input() {
        let mut rng = DetRng::new(60);
        let mut gnn = MicroserviceGnn::new(chain_graph(3), small_cfg(), &mut rng);
        let x = Matrix::from_fn(1, 6, |_, c| 0.1 * (c as f64) + 0.05);
        let slow = gnn.grad_input(&x);
        let pred = gnn.predict(&x); // retains the trace
        let mut fast = Matrix::default();
        gnn.grad_from_kept_into(&x, &mut fast);
        assert_eq!(slow.data(), fast.data(), "kept-trace gradient matches the fresh one");
        assert_eq!(pred, gnn.predict(&x), "gradient extraction leaves predictions unchanged");
    }

    #[test]
    fn grad_input_leaves_params_clean() {
        let mut rng = DetRng::new(7);
        let mut gnn = MicroserviceGnn::new(chain_graph(2), small_cfg(), &mut rng);
        let x = Matrix::from_fn(1, 4, |_, c| 0.1 * c as f64 + 0.2);
        let before = gnn.predict(&x);
        let _ = gnn.grad_input(&x);
        // A subsequent train step must start from zero accumulated grads:
        // run a no-op-ish check that predictions are unchanged by grad_input.
        let after = gnn.predict(&x);
        assert_eq!(before, after);
    }

    #[test]
    fn scratch_stats_report_reuse_after_warmup() {
        let mut rng = DetRng::new(70);
        let mut gnn = MicroserviceGnn::new(chain_graph(3), small_cfg(), &mut rng);
        let x = Matrix::from_fn(32, 6, |r, c| (r + c) as f64 * 0.03);
        let y: Vec<f64> = (0..32).map(|r| 1.0 + r as f64 * 0.1).collect();
        let loss = AsymmetricHuber::default();
        let mut opt = Adam::new(1e-3);
        let mut tr = DetRng::new(71);
        for _ in 0..3 {
            gnn.train_step(&x, &y, &loss, &mut opt, &mut tr);
        }
        let (_, allocated_warm) = gnn.scratch_stats();
        for _ in 0..5 {
            gnn.train_step(&x, &y, &loss, &mut opt, &mut tr);
        }
        let (reused, allocated) = gnn.scratch_stats();
        assert_eq!(allocated, allocated_warm, "steady-state training allocates no scratch");
        assert!(reused > 0, "warm buffers are reused");
    }

    fn eval_sinks_unallocated(gnn: &mut MicroserviceGnn) -> bool {
        let g = &gnn.scratch.get_mut().eval.grads;
        [&g.phi1, &g.gamma1, &g.phi2, &g.gamma2, &g.readout].iter().all(|s| s.is_unallocated())
    }

    #[test]
    fn input_only_backward_dx_is_bit_identical_to_the_full_backward() {
        let graphs = [
            chain_graph(3),
            GraphSpec::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
            GraphSpec::from_edges(6, &[(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (3, 5)]),
        ];
        for (gi, graph) in graphs.into_iter().enumerate() {
            // The small shapes take the narrow kernels, the paper's shapes
            // the wide readout path with its tail tiles.
            for cfg in [small_cfg(), GnnConfig::default()] {
                let mut rng = DetRng::new(80 + gi as u64);
                let mut gnn = MicroserviceGnn::new(graph.clone(), cfg, &mut rng);
                let cols = gnn.num_nodes() * gnn.feature_dim();
                for batch in [1, 5] {
                    let x = Matrix::from_fn(batch, cols, |r, c| {
                        0.09 * c as f64 - 0.13 * r as f64 + if c % 2 == 0 { 0.4 } else { 0.1 }
                    });
                    let (mut pred, mut dx) = (Vec::new(), Matrix::default());
                    gnn.predict_keep_into(&x, &mut pred);
                    gnn.grad_from_kept_into(&x, &mut dx);
                    assert!(eval_sinks_unallocated(&mut gnn), "the solver path shapes no sink");

                    // The stacked training backward forms no input gradient,
                    // so the full backward here is the per-node one: every
                    // `Mlp::backward` computes parameter and input gradients.
                    let full = per_node_grad_input(&gnn, &x);
                    let full: Vec<u64> = full.data().iter().map(|v| v.to_bits()).collect();
                    let input_only: Vec<u64> = dx.data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(input_only, full, "graph {gi}, batch {batch}");
                }
            }
        }
    }

    #[test]
    fn solver_path_never_shapes_the_eval_gradient_sinks() {
        let mut rng = DetRng::new(90);
        let graph = GraphSpec::from_edges(6, &[(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (3, 5)]);
        let mut gnn = MicroserviceGnn::new(graph, GnnConfig::default(), &mut rng);
        let (mut pred, mut dx) = (Vec::new(), Matrix::default());
        for i in 0..50 {
            let x = Matrix::from_fn(1, 12, |_, c| 0.05 * (c + i % 7) as f64 + 0.1);
            gnn.predict_keep_into(&x, &mut pred);
            gnn.grad_from_kept_into(&x, &mut dx);
        }
        assert!(eval_sinks_unallocated(&mut gnn), "eval gradient sinks hold no allocation");
    }

    #[test]
    #[should_panic(expected = "needs a predict_keep_into of the same batch first")]
    fn kept_gradient_after_a_training_step_panics() {
        let mut rng = DetRng::new(100);
        let mut gnn = MicroserviceGnn::new(chain_graph(3), small_cfg(), &mut rng);
        let x = Matrix::from_fn(4, 6, |r, c| ((r + c) % 5) as f64 * 0.2);
        let _ = gnn.predict(&x);
        let (loss, mut opt) = (AsymmetricHuber::default(), Adam::new(1e-2));
        gnn.train_step(&x, &[1.0; 4], &loss, &mut opt, &mut rng);
        gnn.grad_from_kept_into(&x, &mut Matrix::default());
    }

    // The bit-for-bit batch check exists in debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the kept forward read another batch")]
    fn kept_gradient_of_another_row_panics() {
        let mut rng = DetRng::new(101);
        let mut gnn = MicroserviceGnn::new(chain_graph(3), small_cfg(), &mut rng);
        let x = Matrix::from_fn(1, 6, |_, c| c as f64 * 0.1);
        let _ = gnn.predict(&x);
        let mut other = x.clone();
        other.set(0, 5, 0.25);
        gnn.grad_from_kept_into(&other, &mut Matrix::default());
    }
}
