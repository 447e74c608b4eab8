//! The configuration solver (§3.5).
//!
//! Solves eq. (5)'s problem — the cheapest per-service CPU quotas `r` whose
//! predicted p99 `L̂(w, r)` meets the SLO, inside the Algorithm-1 box — by
//! differentiating the *trained latency prediction model* with respect to
//! its quota inputs. The paper's synchronous, lightweight solve (3.4–6.8 s
//! on their testbed; about a millisecond here since the model is small).
//!
//! The descent has two regimes, and nothing but the data selects between them:
//!
//! * **Until an evaluation violates the SLO** the loss
//!   `Σᵢ rᵢ + ρ·max(0, L̂−SLO)/SLO` has gradient 1 in every coordinate, and the
//!   iterates are the fixed-`lr` Adam walk down from the top of the box,
//!   projected into the box after every step and stopped when
//!   `|ΔLoss| < TOL`. None of that reads the model: the walk only asks, at
//!   each point, whether the prediction meets the SLO. So the solver computes
//!   this *pre-wall path* first and evaluates only where the answer depends
//!   on it — the path's end, which is the answer when it is feasible (one
//!   evaluation for a loose solve), else the top of the box, then a
//!   bisection for the step on which the path crosses from feasible to
//!   infeasible (`find_crossing`). The wall walk starts there in exactly the
//!   state a point-by-point walk would have reached. When feasibility
//!   changes once along the path, the common case, the result is bit-for-bit
//!   that of the point-by-point walk, and a loose solve's that of the plain
//!   Adam descent this file started as — which keeps every seeded result
//!   downstream stable. When it changes more than once, the bisection may
//!   meet the wall at a later crossing than the first; the answer is still
//!   the best feasible iterate evaluated (`tests/solver_wall.rs` checks both
//!   cases against the point-by-point walk).
//! * **From the first infeasible evaluation on** the hinge's gradient is kept
//!   away from Adam. Fed to it, one kick of size
//!   `ρ/SLO·|∂L̂/∂r|·quota_div ≫ 1` sits in the first moment for ≈ 20 steps and
//!   carries the iterate far back into the feasible side, the inflated second
//!   moment then damps the walk down, and the cycle repeats every ≈ 130
//!   iterations: `|ΔLoss| < TOL` cannot fire, the solve runs to `max_iters`,
//!   and the answer is whichever phase of the saw-tooth the cap cuts off
//!   (DESIGN.md §2 has the measurements). Instead the walk *closes in on the
//!   wall*: a feasible iterate steps every quota down by the current step
//!   size; an infeasible one takes the min-norm (Newton) step back onto the
//!   model's linearised wall, and — when it was reached from a feasible
//!   iterate — adds one step *along* that wall, in the direction that lowers
//!   `Σ r` fastest (`Walk::wall_step`). The lowest-total feasible iterate is
//!   kept with its evaluation; when `PATIENCE` (6) steps in a row fail to
//!   improve on it the step size halves and the walk restarts from it,
//!   without evaluating it again. The solve ends when the step falls below
//!   `lr / STEP_FLOOR` (`lr / 64`) or no quota can move — a rule in quota
//!   space, not loss space — which also ends an unreachable SLO after tens of
//!   evaluations instead of `max_iters` backward passes.
//!
//! The result is always the lowest-total feasible iterate that was evaluated
//! (the lowest-violation one when none was feasible), and [`SolveResult`]
//! says which rule ended the solve and whether the wall was ever active.
//!
//! The optimization runs in scaled space (quotas divided by the feature
//! scaler's divisor, latency normalized by the SLO), which keeps ρ meaningful
//! across applications.

use graf_nn::Adam;

use crate::latency_model::LatencyModel;
use crate::sample_collector::Bounds;

/// Wall walk: evaluations in a row without a new best iterate before the step
/// size halves and the walk restarts from the best iterate. One excursion is
/// a crossing, up to three restoration steps and a feasible landing.
const PATIENCE: usize = 6;
/// Wall walk: the solve has converged once the step size is below
/// `lr / STEP_FLOOR`.
const STEP_FLOOR: f64 = 64.0;
/// Wall walk: a feasible iterate replaces the best one only if it lowers the
/// total by this fraction of the step size — less is zig-zagging in place.
const MIN_GAIN: f64 = 1.0 / 16.0;
/// Wall walk: restoration aims this far inside the wall (relative latency, at
/// the full step size), so that an exact landing on the linearised wall
/// counts as feasible.
const WALL_MARGIN: f64 = 1e-3;

/// Penalty coefficient ρ of eq. (5), applied to the normalized violation in
/// the reported loss. The wall walk restores feasibility by the model's own
/// gradient, so no step is scaled by it.
pub const RHO: f64 = 40.0;
/// Before the SLO wall is touched: stop when `|Loss_t − Loss_{t−1}|` falls
/// below this.
pub const TOL: f64 = 1e-6;
/// Minimum points of the pre-wall path before the tolerance check applies.
pub const MIN_ITERS: usize = 25;

/// Solver hyper-parameters.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Adam learning rate in scaled-quota space; also the wall walk's initial
    /// and largest step size.
    pub lr: f64,
    /// Hard cap on walk steps: points of the pre-wall path, evaluated or
    /// not, plus steps of the wall walk.
    pub max_iters: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self { lr: 0.02, max_iters: 1500 }
    }
}

/// The rule that ended a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// The wall was never touched and `|ΔLoss| < TOL`: the walk sits on the
    /// floor of the box.
    Tolerance,
    /// The wall walk's step fell below `lr / 64`, or no quota could move, with
    /// a feasible iterate in hand.
    WallConverged,
    /// The same quota-space rule, but no evaluated iterate met the SLO: the
    /// SLO is unreachable inside the box as the model sees it.
    PinnedInfeasible,
    /// `max_iters` walk steps were taken. Steps, not evaluations: every
    /// point of the pre-wall path counts, evaluated or not, so a capped solve
    /// ends where a point-by-point walk would have.
    Cap,
}

impl Stop {
    /// Stable lower-case name, as written to the solver and controller spans.
    pub fn as_str(self) -> &'static str {
        match self {
            Stop::Tolerance => "tolerance",
            Stop::WallConverged => "wall_converged",
            Stop::PinnedInfeasible => "pinned_infeasible",
            Stop::Cap => "cap",
        }
    }
}

/// A solved resource configuration.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Optimal per-service quotas, millicores.
    pub quotas_mc: Vec<f64>,
    /// Predicted p99 at the solution, ms.
    pub predicted_ms: f64,
    /// Model evaluations used. The walk takes more steps than this: the
    /// pre-wall path's points that the bisection skips, and every restart
    /// from the best iterate, cost none.
    pub iterations: usize,
    /// Loss at the solution (scaled space).
    pub loss: f64,
    /// Which rule ended the solve.
    pub stop: Stop,
    /// Whether any evaluated iterate violated the SLO, i.e. whether the SLO —
    /// rather than the Algorithm-1 floor — shaped the answer.
    pub wall_active: bool,
}

/// Finds the minimal-total-CPU configuration satisfying the latency SLO.
///
/// `workloads` are the per-service workloads from the workload analyzer;
/// `slo_ms` the target; `bounds` the Algorithm-1 box. The solve starts from
/// the upper bounds (the most feasible point of the box) and walks downhill.
///
/// Quickstart — fit a tiny model on a synthetic latency surface, then solve:
///
/// ```
/// use graf_core::{
///     solve, Bounds, FeatureScaler, LatencyModel, NetKind, Sample, SolverConfig, TrainConfig,
/// };
/// use graf_sim::rng::DetRng;
///
/// // Two chained services; p99 rises as quota approaches the workload.
/// let mut rng = DetRng::new(7);
/// let mut samples = Vec::new();
/// for _ in 0..80 {
///     let w = rng.uniform(20.0, 100.0);
///     let quotas = vec![rng.uniform(150.0, 1500.0), rng.uniform(400.0, 2800.0)];
///     let p99 = 2.0
///         + 1200.0 / (quotas[0] - w).max(15.0)
///         + 3600.0 / (quotas[1] - 3.0 * w).max(15.0);
///     samples.push(Sample { api_rates: vec![w], workloads: vec![w, w], quotas_mc: quotas, p99_ms: p99 });
/// }
/// let scaler = FeatureScaler::fit(
///     samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
/// );
/// let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
/// let split = ds.split(0.8, 0.1, 2);
/// let mut model =
///     LatencyModel::new(NetKind::Gnn, &[(0, 1)], 2, scaler, split.train.label_mean(), 5);
/// model.train(&split, &TrainConfig { epochs: 8, evals: 2, ..Default::default() });
///
/// let bounds = Bounds { lower: vec![150.0, 400.0], upper: vec![1500.0, 2800.0] };
/// let r = solve(&mut model, &[60.0, 60.0], 25.0, &bounds, &SolverConfig::default());
/// assert!(r.iterations > 0 && r.predicted_ms.is_finite());
/// for (q, (&l, &h)) in r.quotas_mc.iter().zip(bounds.lower.iter().zip(&bounds.upper)) {
///     assert!(*q >= l && *q <= h, "solution stays inside the Algorithm-1 box");
/// }
/// ```
pub fn solve(
    model: &mut LatencyModel,
    workloads: &[f64],
    slo_ms: f64,
    bounds: &Bounds,
    cfg: &SolverConfig,
) -> SolveResult {
    solve_observed(model, workloads, slo_ms, bounds, cfg, &graf_obs::Obs::disabled())
}

/// [`solve`] with telemetry: records a `graf.solver.solve` span (model
/// evaluations, pre-wall path length and crossing, stop rule, whether the
/// wall was active, loss, SLO violation, predicted latency; wall-clock
/// duration) and the `graf.solver.iterations` counter. Identical numerics —
/// telemetry never feeds back into the descent.
pub fn solve_observed(
    model: &mut LatencyModel,
    workloads: &[f64],
    slo_ms: f64,
    bounds: &Bounds,
    cfg: &SolverConfig,
    obs: &graf_obs::Obs,
) -> SolveResult {
    let mut span = obs.span("graf.solver.solve");
    let n = workloads.len();
    assert_eq!(n, model.num_services(), "one workload per service");
    assert_eq!(n, bounds.lower.len());
    assert!(slo_ms > 0.0);

    let lo: Vec<f64> = bounds.lower.iter().map(|&v| model.scaler.scale_quota(v)).collect();
    let hi: Vec<f64> = bounds.upper.iter().map(|&v| model.scaler.scale_quota(v)).collect();

    // Buffers hoisted out of the walk, carved from one allocation: the
    // iterate, the bisection's probe, the best iterate so far and the model's
    // gradient there, the quotas in millicores, and the wall step with its
    // free-coordinate mask. Each evaluation is one fused forward through the
    // model, plus a backward only when the iterate is infeasible (reusing the
    // retained forward trace).
    let mut scratch = vec![0.0; 7 * n];
    let (x, rest) = scratch.split_at_mut(n);
    let (probe, rest) = rest.split_at_mut(n);
    let (best, rest) = rest.split_at_mut(n);
    let (best_grad, rest) = rest.split_at_mut(n);
    let (quotas_mc, rest) = rest.split_at_mut(n);
    let (step, free) = rest.split_at_mut(n);
    let grad = Vec::with_capacity(n);
    let mut eval = Eval { model, workloads, slo_ms, quotas_mc, grad, count: 0 };

    // The pre-wall path p_0 = hi, p_1, …, p_{len−1}: until an evaluation
    // violates the SLO the iterates are the fixed-`lr` Adam walk, and its end
    // rule reads only their totals, so the whole path is known before the
    // model is asked anything. `x` ends at its last point.
    x.copy_from_slice(&hi);
    let mut path = AdamPath::new(cfg.lr);
    let (mut path_len, mut stop) = (0, Stop::Cap);
    let mut prev_total = f64::INFINITY;
    for j in 0..cfg.max_iters {
        path_len = j + 1;
        // With no violation yet the loss is the total.
        let total: f64 = x.iter().sum();
        if path_len >= MIN_ITERS && (prev_total - total).abs() < TOL {
            stop = Stop::Tolerance;
            break;
        }
        if path_len < cfg.max_iters {
            prev_total = total;
            path.advance(x, &lo, &hi);
        }
    }

    // The best iterate: lowest total among the feasible ones, else lowest
    // violation, with its evaluation cached. Starts as the top of the box,
    // unevaluated.
    best.copy_from_slice(&hi);
    let (mut best_total, mut best_violation) = (f64::INFINITY, f64::INFINITY);
    let (mut best_pred, mut best_infeasible) = (f64::NAN, false);
    // The evaluation of `x` when it is already known (its gradient, when
    // infeasible, already in `eval.grad`).
    let mut known: Option<(f64, bool)> = None;
    let mut crossing = None;
    let mut was_feasible = false;
    if path_len > 0 {
        let (pred, infeasible) = eval.at(x);
        if infeasible {
            let (c, c_pred, low_pred) =
                find_crossing(&mut eval, path_len, cfg.lr, pred, x, best, probe, &lo, &hi);
            match low_pred {
                // A point-by-point walk's state on meeting the wall at p_c:
                // the best iterate is p_{c−1}, and the step into the wall was
                // taken from a feasible iterate.
                Some(low_pred) => {
                    (best_total, best_violation, best_pred) = (best.iter().sum(), 0.0, low_pred);
                    was_feasible = true;
                }
                // The top of the box already misses the SLO: `best` is p_0,
                // as yet no improvement, but its evaluation is the one at hand.
                None => {
                    (best_pred, best_infeasible) = (c_pred, true);
                    best_grad.copy_from_slice(&eval.grad);
                }
            }
            known = Some((c_pred, true));
            crossing = Some(c);
        } else {
            // Feasible at its end: the walk never meets the wall.
            best.copy_from_slice(x);
            (best_total, best_violation, best_pred) = (x.iter().sum(), 0.0, pred);
        }
    }

    // The wall walk from the crossing. `max_iters` bounds its steps as if
    // every point of the path before it had been evaluated.
    let wall_active = crossing.is_some();
    let mut walk = Walk { lo: &lo, hi: &hi, max_step: cfg.lr, step, free };
    let (mut radius, mut stale) = (cfg.lr, 0);
    if let Some(c) = crossing {
        stop = Stop::Cap;
        for _ in c..cfg.max_iters {
            let (pred, infeasible) = match known.take() {
                Some(evaluated) => evaluated,
                None => eval.at(x),
            };
            // NaN for a NaN prediction, which then never counts as an improvement.
            let violation = if infeasible { (pred - slo_ms) / slo_ms } else { 0.0 };
            let total: f64 = x.iter().sum();
            let improved = if infeasible {
                violation < best_violation
            } else {
                best_violation > 0.0 || total < best_total - MIN_GAIN * radius
            };
            if improved {
                best.copy_from_slice(x);
                (best_total, best_violation) = (total, violation);
                (best_pred, best_infeasible) = (pred, infeasible);
                if infeasible {
                    best_grad.copy_from_slice(&eval.grad);
                }
                stale = 0;
            } else {
                stale += 1;
                if stale >= PATIENCE {
                    // This step size no longer pays: halve it and walk again
                    // from the best iterate, whose evaluation is cached.
                    radius *= 0.5;
                    if radius * STEP_FLOOR < cfg.lr {
                        stop = Stop::WallConverged;
                        break;
                    }
                    x.copy_from_slice(best);
                    if best_infeasible {
                        eval.grad.copy_from_slice(best_grad);
                    }
                    known = Some((best_pred, best_infeasible));
                    stale = 0;
                    was_feasible = false;
                    continue;
                }
            }
            let moved = if infeasible {
                // `grad` is d pred_ms / d r_mc; the walk wants d violation /
                // d r_scaled, and d r_mc / d r_scaled = quota_div.
                let to_scaled = eval.model.scaler.quota_div / slo_ms;
                eval.grad.iter_mut().for_each(|g| *g *= to_scaled);
                walk.wall_step(x, &eval.grad, violation, radius, was_feasible)
            } else {
                walk.descend(x, radius)
            };
            was_feasible = !infeasible;
            if moved == 0.0 {
                // Every coordinate that wants to move is pinned to the box.
                stop = Stop::WallConverged;
                break;
            }
        }
        if stop == Stop::WallConverged && best_violation > 0.0 {
            stop = Stop::PinnedInfeasible;
        }
    }
    let iterations = eval.count;

    let scaler = model.scaler;
    let quotas_mc: Vec<f64> = best.iter().map(|&v| scaler.unscale_quota(v)).collect();
    // The best iterate was evaluated on these very quotas; only a solve
    // allowed no step at all returns the top of the box unevaluated.
    let predicted_ms =
        if path_len > 0 { best_pred } else { model.predict_ms(workloads, &quotas_mc) };
    debug_assert_eq!(
        predicted_ms.to_bits(),
        model.predict_ms(workloads, &quotas_mc).to_bits(),
        "the cached prediction is the model's"
    );
    let best_loss = best_total + RHO * best_violation;
    if span.is_recording() {
        span.attr("iterations", iterations).attr("path_len", path_len);
        if let Some(c) = crossing {
            span.attr("crossing", c);
        }
        span.attr("stop", stop.as_str())
            .attr("wall_active", wall_active)
            .attr("loss", best_loss)
            .attr("predicted_ms", predicted_ms)
            .attr("violation", (predicted_ms - slo_ms).max(0.0) / slo_ms)
            .attr("quota_total_mc", quotas_mc.iter().sum::<f64>());
        obs.counter_add("graf.solver.iterations", &[], iterations as u64);
    }
    SolveResult { quotas_mc, predicted_ms, iterations, loss: best_loss, stop, wall_active }
}

/// One model evaluation per call, counted: the prediction at a scaled
/// iterate and whether it violates the SLO, with the gradient of the
/// prediction when it does.
struct Eval<'a> {
    model: &'a mut LatencyModel,
    workloads: &'a [f64],
    slo_ms: f64,
    /// The iterate in millicores.
    quotas_mc: &'a mut [f64],
    /// d pred_ms / d r_mc at the last infeasible evaluation.
    grad: Vec<f64>,
    count: usize,
}

impl Eval<'_> {
    fn at(&mut self, x: &[f64]) -> (f64, bool) {
        self.count += 1;
        for (q, &v) in self.quotas_mc.iter_mut().zip(x) {
            *q = self.model.scaler.unscale_quota(v);
        }
        self.model.predict_ms_with_grad(self.workloads, self.quotas_mc, self.slo_ms, &mut self.grad)
    }
}

/// The pre-wall walk's optimizer: fixed-`lr` Adam on the loss `Σ r`, whose
/// gradient is 1 in every coordinate. Every coordinate's moments are
/// therefore the same two scalars, one [`Adam::delta`] per step moves them
/// all, and a copy replays the walk from any point of its path.
#[derive(Clone, Copy)]
struct AdamPath {
    opt: Adam,
    m: f64,
    v: f64,
}

impl AdamPath {
    fn new(lr: f64) -> Self {
        Self { opt: Adam::new(lr), m: 0.0, v: 0.0 }
    }

    /// Steps `x` to the next point of the path: the Adam step, projected
    /// into the box `[lo, hi]`.
    fn advance(&mut self, x: &mut [f64], lo: &[f64], hi: &[f64]) {
        self.opt.begin_step();
        let d = self.opt.delta(1.0, &mut self.m, &mut self.v);
        for ((v, &l), &h) in x.iter_mut().zip(lo).zip(hi) {
            *v = (*v + d).clamp(l, h);
        }
    }
}

/// Bisects the pre-wall path `p_0 … p_{len−1}` for the step on which it
/// meets the SLO wall, given that its end, in `x`, is infeasible with
/// prediction `end_pred` (gradient in `eval.grad`), and that `best` holds
/// `p_0`.
///
/// Returns `(c, pred(p_c), pred(p_{c−1}))`: `p_c`, infeasible, is left in
/// `x` with its gradient in `eval.grad`, and for `c > 0` the feasible
/// `p_{c−1}` in `best` (`None` for `c = 0`). When feasibility changes once
/// along the path, `c` is its first infeasible point — where a
/// point-by-point walk meets the wall. `p_0` is tried first, so an SLO that the top of the box
/// already misses costs one evaluation rather than a bisection.
#[expect(
    clippy::too_many_arguments,
    reason = "works in place on the hoisted buffers of `solve_observed`"
)]
fn find_crossing(
    eval: &mut Eval,
    len: usize,
    lr: f64,
    end_pred: f64,
    x: &mut [f64],
    best: &mut [f64],
    probe: &mut [f64],
    lo: &[f64],
    hi: &[f64],
) -> (usize, f64, Option<f64>) {
    let (mut c, mut c_pred) = (len - 1, end_pred);
    if c == 0 {
        return (0, c_pred, None);
    }
    let (top_pred, infeasible) = eval.at(best);
    if infeasible {
        x.copy_from_slice(best);
        return (0, top_pred, None);
    }
    // Invariant: p_low is feasible and in `best`, p_c infeasible and in `x`.
    let (mut low, mut low_path, mut low_pred) = (0, AdamPath::new(lr), top_pred);
    while c - low > 1 {
        let mid = low + (c - low) / 2;
        probe.copy_from_slice(best);
        let mut path = low_path;
        for _ in low..mid {
            path.advance(probe, lo, hi);
        }
        let (pred, infeasible) = eval.at(probe);
        if infeasible {
            (c, c_pred) = (mid, pred);
            x.copy_from_slice(probe);
        } else {
            (low, low_path, low_pred) = (mid, path, pred);
            best.copy_from_slice(probe);
        }
    }
    (c, c_pred, Some(low_pred))
}

/// The Algorithm-1 box in scaled space and the scratch the wall walk steps in.
struct Walk<'a> {
    lo: &'a [f64],
    hi: &'a [f64],
    /// The largest step size, `cfg.lr`.
    max_step: f64,
    step: &'a mut [f64],
    /// 1.0 for a coordinate the step may move, 0.0 for one dropped from it.
    free: &'a mut [f64],
}

impl Walk<'_> {
    /// Moves `x` by `self.step`, projected into the box; returns the largest
    /// coordinate move.
    fn apply(&self, x: &mut [f64]) -> f64 {
        let mut moved = 0.0f64;
        for (i, v) in x.iter_mut().enumerate() {
            let next = (*v + self.step[i]).clamp(self.lo[i], self.hi[i]);
            moved = moved.max((next - *v).abs());
            *v = next;
        }
        moved
    }

    /// The step from a feasible iterate: every quota down by `radius`.
    fn descend(&mut self, x: &mut [f64], radius: f64) -> f64 {
        self.step.fill(-radius);
        self.apply(x)
    }

    /// The step from an infeasible iterate `x` with normalized violation `c`
    /// and gradient `g = ∂c/∂x`: the sum of
    ///
    /// * the *restoration*, the min-norm move onto the linearised wall,
    ///   `−(c + margin)/(g·g) · g`, aimed [`WALL_MARGIN`] inside it, and
    /// * when `along` is set, the *slide*, the direction of steepest descent
    ///   of `Σ x` inside the linearised wall, `−(1 − (1·g)/(g·g) · g)`, scaled
    ///   so its largest coordinate moves by `radius`,
    ///
    /// both over the free coordinates only — one at a bound of the box that
    /// the step would push outward is dropped and the step recomputed. No
    /// coordinate moves by more than `2·radius` (at most `max_step`).
    fn wall_step(&mut self, x: &mut [f64], g: &[f64], c: f64, radius: f64, along: bool) -> f64 {
        let margin = WALL_MARGIN * radius / self.max_step;
        let cap = (2.0 * radius).min(self.max_step);
        self.free.fill(1.0);
        loop {
            let (mut gg, mut g1) = (0.0, 0.0);
            for (&g, &f) in g.iter().zip(self.free.iter()) {
                gg += f * g * g;
                g1 += f * g;
            }
            if gg == 0.0 {
                return 0.0;
            }
            let mut slide_max = 0.0f64;
            for ((s, &g), &f) in self.step.iter_mut().zip(g).zip(self.free.iter()) {
                *s = -f * (1.0 - g1 / gg * g);
                slide_max = slide_max.max(s.abs());
            }
            // A slide direction this small is rounding noise around a point
            // that already balances the free gradients; normalising it would
            // invent a direction.
            let slide = if along && slide_max > 1e-9 { radius / slide_max } else { 0.0 };
            let restore = (c + margin) / gg;
            let mut step_max = 0.0f64;
            for ((s, &g), &f) in self.step.iter_mut().zip(g).zip(self.free.iter()) {
                *s = slide * *s - f * restore * g;
                step_max = step_max.max(s.abs());
            }
            let shrink = if step_max > cap { cap / step_max } else { 1.0 };
            let mut dropped = false;
            for (i, &v) in x.iter().enumerate() {
                let s = self.step[i] * shrink;
                self.step[i] = s;
                let outward = (v <= self.lo[i] && s < 0.0) || (v >= self.hi[i] && s > 0.0);
                if outward && self.free[i] == 1.0 {
                    self.free[i] = 0.0;
                    dropped = true;
                }
            }
            if !dropped {
                return self.apply(x);
            }
        }
    }
}

/// §6's "Integer Optimization for instances scaling" extension: refine a
/// continuous solution into instance counts better than plain `ceil`.
///
/// The paper rounds every quota up to a whole number of instances (eq. 7),
/// over-provisioning by up to one CPU unit per microservice, and notes that
/// integer optimization could reclaim that slack. Full integer programming is
/// NP-hard; this refinement runs a greedy descent over instance counts:
/// starting from the `ceil` solution, repeatedly remove the single instance
/// whose removal keeps the model's predicted latency within the SLO, until no
/// removal survives. Each step queries the trained model once, so the
/// refinement costs `O(total instances × services)` predictions.
///
/// Returns per-service instance counts and the predicted latency at the
/// refined configuration.
///
/// `bounds` are the Algorithm-1 quota bounds: refinement never drops a
/// service below `ceil(lower/unit)` instances — below the box the model has
/// never seen data and extrapolates blindly into the starvation region.
pub fn integer_refine(
    model: &LatencyModel,
    workloads: &[f64],
    continuous_mc: &[f64],
    bounds: &Bounds,
    cpu_unit_mc: f64,
    slo_ms: f64,
) -> (Vec<usize>, f64) {
    assert!(cpu_unit_mc > 0.0);
    let n = continuous_mc.len();
    let ceil = |q: f64| (q / cpu_unit_mc).ceil() as usize;
    let floor: Vec<usize> = bounds.lower.iter().map(|&l| ceil(l).max(1)).collect();
    let candidates = continuous_mc.iter().zip(&floor);
    let mut counts: Vec<usize> = candidates.map(|(&q, &f)| ceil(q).max(f)).collect();
    // One quota buffer for every candidate, and `predict_ms` runs on the
    // model's reused scratch: no candidate allocates.
    let mut quotas: Vec<f64> = counts.iter().map(|&k| k as f64 * cpu_unit_mc).collect();
    let mut pred = model.predict_ms(workloads, &quotas);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if counts[i] <= floor[i] {
                continue;
            }
            quotas[i] = (counts[i] - 1) as f64 * cpu_unit_mc;
            let p = model.predict_ms(workloads, &quotas);
            quotas[i] = counts[i] as f64 * cpu_unit_mc;
            if p <= slo_ms && best.is_none_or(|(_, bp)| p < bp) {
                best = Some((i, p));
            }
        }
        match best {
            Some((i, p)) => {
                counts[i] -= 1;
                quotas[i] = counts[i] as f64 * cpu_unit_mc;
                pred = p;
            }
            None => break,
        }
    }
    (counts, pred)
}

/// Evaluates the solver loss surface at a given configuration — used by the
/// Figure-12 heat-map bench.
pub fn loss_at(model: &LatencyModel, workloads: &[f64], quotas_mc: &[f64], slo_ms: f64) -> f64 {
    let pred = model.predict_ms(workloads, quotas_mc);
    let total: f64 = quotas_mc.iter().map(|&q| model.scaler.scale_quota(q)).sum();
    total + RHO * (pred - slo_ms).max(0.0) / slo_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureScaler;
    use crate::latency_model::{NetKind, TrainConfig};
    use crate::sample_collector::Sample;
    use graf_sim::rng::DetRng;

    /// Trains a small model on a synthetic convex latency surface and returns
    /// it with its bounds.
    fn trained_model(seed: u64) -> (LatencyModel, Bounds, Vec<f64>) {
        let mut rng = DetRng::new(seed);
        let works = [1.0, 3.0];
        // Per-service quota ranges as Algorithm 1 would produce them: the
        // lower bound keeps the single service's own latency under the SLO,
        // excluding the hyperbolic starvation corner the model never trains
        // on (§3.7).
        let ranges = [(150.0, 1500.0), (400.0, 2800.0)];
        let mut samples = Vec::new();
        for _ in 0..700 {
            let w = rng.uniform(20.0, 100.0);
            let quotas: Vec<f64> = ranges.iter().map(|&(lo, hi)| rng.uniform(lo, hi)).collect();
            let mut p99 = 2.0;
            for i in 0..2 {
                let offered = w * works[i];
                let head = (quotas[i] - offered).max(15.0);
                p99 += 1200.0 * works[i] / head + works[i];
            }
            samples.push(Sample {
                api_rates: vec![w],
                workloads: vec![w, w],
                quotas_mc: quotas,
                p99_ms: p99 * rng.lognormal_mean_cv(1.0, 0.05),
            });
        }
        let scaler = FeatureScaler::fit(
            samples.iter().map(|s| (s.workloads.as_slice(), s.quotas_mc.as_slice())),
        );
        let ds = LatencyModel::dataset_from_samples(&scaler, &samples);
        let split = ds.split(0.8, 0.1, 2);
        let mut model =
            LatencyModel::new(NetKind::Gnn, &[(0, 1)], 2, scaler, split.train.label_mean(), seed);
        let cfg = TrainConfig { epochs: 80, evals: 10, ..Default::default() };
        model.train(&split, &cfg);
        let bounds = Bounds { lower: vec![150.0, 400.0], upper: vec![1500.0, 2800.0] };
        (model, bounds, vec![60.0, 60.0])
    }

    #[test]
    fn solver_stays_in_bounds_and_meets_predicted_slo() {
        let (mut model, bounds, w) = trained_model(3);
        let res = solve(&mut model, &w, 120.0, &bounds, &SolverConfig::default());
        for i in 0..2 {
            assert!(
                res.quotas_mc[i] >= bounds.lower[i] - 1e-6
                    && res.quotas_mc[i] <= bounds.upper[i] + 1e-6,
                "quota {i} within bounds: {:?}",
                res.quotas_mc
            );
        }
        assert!(
            res.predicted_ms <= 120.0 * 1.15,
            "solution approximately satisfies the SLO: {res:?}"
        );
        // A loose SLO: the walk ends on the floor of the box without meeting
        // the wall, and only that end is evaluated.
        assert_eq!((res.stop, res.wall_active, res.iterations), (Stop::Tolerance, false, 1));
    }

    #[test]
    fn tighter_slo_costs_more_cpu() {
        let (mut model, bounds, w) = trained_model(4);
        // The box's lower corner sits near ~28 ms predicted at this load, so
        // both SLOs below are binding and discriminate.
        let loose = solve(&mut model, &w, 25.0, &bounds, &SolverConfig::default());
        let tight = solve(&mut model, &w, 12.0, &bounds, &SolverConfig::default());
        let sum = |r: &SolveResult| r.quotas_mc.iter().sum::<f64>();
        assert!(
            sum(&tight) > sum(&loose),
            "tight SLO {:?} must use more CPU than loose {:?}",
            tight.quotas_mc,
            loose.quotas_mc
        );
    }

    #[test]
    fn higher_workload_costs_more_cpu() {
        let (mut model, bounds, _) = trained_model(5);
        let low = solve(&mut model, &[30.0, 30.0], 18.0, &bounds, &SolverConfig::default());
        let high = solve(&mut model, &[90.0, 90.0], 18.0, &bounds, &SolverConfig::default());
        let sum = |r: &SolveResult| r.quotas_mc.iter().sum::<f64>();
        assert!(sum(&high) > sum(&low), "{:?} vs {:?}", high.quotas_mc, low.quotas_mc);
    }

    #[test]
    fn heavier_service_gets_more_cpu() {
        // Service 1 does 3× the work of service 0 in the synthetic surface.
        let (mut model, bounds, w) = trained_model(6);
        let res = solve(&mut model, &w, 15.0, &bounds, &SolverConfig::default());
        assert!(
            res.quotas_mc[1] > res.quotas_mc[0],
            "solver shifts CPU to the bottleneck: {:?}",
            res.quotas_mc
        );
    }

    #[test]
    fn unreachable_slo_saturates_at_upper_bounds() {
        let (mut model, bounds, w) = trained_model(7);
        let cfg = SolverConfig::default();
        let res = solve(&mut model, &w, 0.5, &bounds, &cfg);
        // With an impossible 0.5 ms SLO every step is a restoration step:
        // quotas stay pinned high in the box instead of descending to the
        // floor, and the solve ends on the quota-space rule long before the
        // cap instead of paying `max_iters` backward passes.
        assert_eq!((res.stop, res.wall_active), (Stop::PinnedInfeasible, true), "{res:?}");
        assert!(res.iterations < cfg.max_iters / 5, "{} iterations", res.iterations);
        for i in 0..2 {
            let mid = 0.5 * (bounds.lower[i] + bounds.upper[i]);
            assert!(
                res.quotas_mc[i] > mid,
                "quota {i} stays in the upper half of the box: {:?}",
                res.quotas_mc
            );
        }
    }

    #[test]
    fn integer_refine_never_exceeds_ceil_and_meets_predicted_slo() {
        let (mut model, bounds, w) = trained_model(9);
        let res = solve(&mut model, &w, 16.0, &bounds, &SolverConfig::default());
        let unit = 100.0;
        let ceil_counts: Vec<usize> =
            res.quotas_mc.iter().map(|q| (q / unit).ceil() as usize).collect();
        let (counts, pred) = integer_refine(&model, &w, &res.quotas_mc, &bounds, unit, 16.0);
        for i in 0..counts.len() {
            let floor = (bounds.lower[i] / unit).ceil() as usize;
            assert!(
                counts[i] <= ceil_counts[i].max(floor),
                "refine only removes: {counts:?} vs {ceil_counts:?}"
            );
            assert!(counts[i] >= floor, "never below the Algorithm-1 floor");
        }
        assert!(
            pred <= 16.0 * 1.0001 || counts == ceil_counts,
            "refined config predicted in SLO: {pred}"
        );
    }

    #[test]
    fn integer_refine_reclaims_slack_when_slo_is_loose() {
        let (model, bounds, w) = trained_model(10);
        // A deliberately over-provisioned continuous solution with a loose
        // SLO: the greedy pass must strip whole instances.
        let continuous = vec![900.0, 1900.0];
        let (counts, pred) = integer_refine(&model, &w, &continuous, &bounds, 100.0, 60.0);
        let total: usize = counts.iter().sum();
        assert!(total < 9 + 19, "instances removed: {counts:?}");
        assert!(pred <= 60.0);
    }

    #[test]
    fn loss_surface_matches_solve_objective() {
        let (model, _, w) = trained_model(8);
        let l1 = loss_at(&model, &w, &[500.0, 1500.0], 100.0);
        let l2 = loss_at(&model, &w, &[2500.0, 2500.0], 100.0);
        assert!(l1.is_finite() && l2.is_finite());
        // Overprovisioning beyond need raises the resource term.
        assert!(l2 > l1 || l1 > 0.0);
    }
}
