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
//!   `|ΔLoss| < tol`. A solve whose SLO is met at the bottom of the box never
//!   leaves this regime; its iterates, iteration count and result are
//!   bit-for-bit those of the plain Adam descent this file started as, which
//!   is what keeps every seeded result downstream of a loose solve stable.
//! * **From the first infeasible evaluation on** the hinge's gradient is kept
//!   away from Adam. Fed to it, one kick of size
//!   `ρ/SLO·|∂L̂/∂r|·quota_div ≫ 1` sits in the first moment for ≈ 20 steps and
//!   carries the iterate far back into the feasible side, the inflated second
//!   moment then damps the walk down, and the cycle repeats every ≈ 130
//!   iterations: `|ΔLoss| < tol` cannot fire, the solve runs to `max_iters`,
//!   and the answer is whichever phase of the saw-tooth the cap cuts off
//!   (DESIGN.md §2 has the measurements). Instead the walk *closes in on the
//!   wall*: a feasible iterate steps every quota down by the current step
//!   size; an infeasible one takes the min-norm (Newton) step back onto the
//!   model's linearised wall, and — when it was reached from a feasible
//!   iterate — adds one step *along* that wall, in the direction that lowers
//!   `Σ r` fastest (`Walk::wall_step`). The lowest-total feasible iterate is
//!   kept; when `PATIENCE` (6) evaluations in a row fail to improve on it the
//!   step size halves and the walk restarts from it. The solve ends when the
//!   step falls below `lr / STEP_FLOOR` (`lr / 64`) or no quota can move — a
//!   rule in quota space, not loss space — which also ends an unreachable SLO
//!   after tens of iterations instead of `max_iters` backward passes.
//!
//! The result is always the lowest-total feasible iterate that was evaluated
//! (the lowest-violation one when none was feasible), and [`SolveResult`]
//! says which rule ended the solve and whether the wall was ever active.
//!
//! The optimization runs in scaled space (quotas divided by the feature
//! scaler's divisor, latency normalized by the SLO), which keeps ρ meaningful
//! across applications.

use graf_nn::{Adam, Matrix, Param};

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

/// Solver hyper-parameters.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Penalty coefficient ρ of eq. (5), applied to the normalized violation
    /// in the reported loss. The wall walk restores feasibility by the
    /// model's own gradient, so no step is scaled by it.
    pub rho: f64,
    /// Adam learning rate in scaled-quota space; also the wall walk's initial
    /// and largest step size.
    pub lr: f64,
    /// Before the SLO wall is touched: stop when `|Loss_t − Loss_{t−1}|` falls
    /// below this.
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Minimum iterations before the tolerance check applies.
    pub min_iters: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self { rho: 40.0, lr: 0.02, tol: 1e-6, max_iters: 1500, min_iters: 25 }
    }
}

/// The rule that ended a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// The wall was never touched and `|ΔLoss| < tol`: the walk sits on the
    /// floor of the box.
    Tolerance,
    /// The wall walk's step fell below `lr / 64`, or no quota could move, with
    /// a feasible iterate in hand.
    WallConverged,
    /// The same quota-space rule, but no evaluated iterate met the SLO: the
    /// SLO is unreachable inside the box as the model sees it.
    PinnedInfeasible,
    /// `max_iters` evaluations were spent.
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
    /// Model evaluations (descent iterations) used.
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

/// [`solve`] with telemetry: records a `graf.solver.solve` span (iterations,
/// stop rule, whether the wall was active, loss, SLO violation, predicted
/// latency; wall-clock duration) and the `graf.solver.iterations` counter.
/// Identical numerics — telemetry never feeds back into the descent.
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

    // graf-lint: allow(hot-alloc, one-time setup before the descent loop)
    let lo: Vec<f64> = bounds.lower.iter().map(|&v| model.scaler.scale_quota(v)).collect();
    // graf-lint: allow(hot-alloc, one-time setup before the descent loop)
    let hi: Vec<f64> = bounds.upper.iter().map(|&v| model.scaler.scale_quota(v)).collect();

    // Variables: scaled quotas, starting from the top of the box.
    // graf-lint: allow(hot-alloc, one-time setup before the descent loop)
    let mut r = Param::new(Matrix::row_vector(hi.clone()));
    let mut opt = Adam::new(cfg.lr);

    // Per-iteration buffers hoisted out of the descent loop, carved from one
    // allocation: the quotas in millicores, the best iterate so far, and the
    // wall step with its free-coordinate mask. Each pass is one fused forward
    // through the model, plus a backward only when the iterate is infeasible
    // (reusing the retained forward trace).
    // graf-lint: allow(hot-alloc, hoisted buffer reused every iteration)
    let mut scratch = vec![0.0; 4 * n];
    let (quotas_mc, rest) = scratch.split_at_mut(n);
    let (best, rest) = rest.split_at_mut(n);
    let (step, free) = rest.split_at_mut(n);
    let mut walk = Walk { lo: &lo, hi: &hi, max_step: cfg.lr, step, free };
    // graf-lint: allow(hot-alloc, hoisted buffer reused every iteration)
    let mut grad: Vec<f64> = Vec::with_capacity(n);

    // The best iterate: lowest total among the feasible ones, else lowest
    // violation. Starts as the top of the box, unevaluated.
    best.copy_from_slice(&hi);
    let (mut best_total, mut best_violation) = (f64::INFINITY, f64::INFINITY);
    let mut prev_loss = f64::INFINITY;
    let mut iterations = 0;
    let mut stop = Stop::Cap;
    // Wall walk state: current step size, evaluations since `best` last
    // changed, and whether the previous evaluation was feasible.
    let mut wall_active = false;
    let mut radius = cfg.lr;
    let mut stale = 0;
    let mut was_feasible = false;
    for it in 0..cfg.max_iters {
        iterations = it + 1;
        for (q, &v) in quotas_mc.iter_mut().zip(r.value.data()) {
            *q = model.scaler.unscale_quota(v);
        }
        let (pred, infeasible) =
            model.predict_ms_with_grad(workloads, quotas_mc, slo_ms, &mut grad);
        // NaN for a NaN prediction, which then never counts as an improvement.
        let violation = if infeasible { (pred - slo_ms) / slo_ms } else { 0.0 };
        let total: f64 = r.value.data().iter().sum();

        wall_active |= infeasible;
        if !wall_active {
            // The wall has never been touched: d/dr_scaled [Σ r_scaled] = 1,
            // stepped by Adam and projected into the Algorithm-1 box.
            best.copy_from_slice(r.value.data());
            (best_total, best_violation) = (total, violation);
            for i in 0..n {
                r.grad.set(0, i, 1.0);
            }
            opt.step(&mut [&mut r]);
            for i in 0..n {
                let v = r.value.get(0, i).clamp(lo[i], hi[i]);
                r.value.set(0, i, v);
            }
            // With no violation yet the loss is the total.
            if it + 1 >= cfg.min_iters && (prev_loss - total).abs() < cfg.tol {
                stop = Stop::Tolerance;
                break;
            }
            prev_loss = total;
            was_feasible = true;
            continue;
        }

        let improved = if infeasible {
            violation < best_violation
        } else {
            best_violation > 0.0 || total < best_total - MIN_GAIN * radius
        };
        let x = r.value.data_mut();
        if improved {
            best.copy_from_slice(x);
            (best_total, best_violation) = (total, violation);
            stale = 0;
        } else {
            stale += 1;
            if stale >= PATIENCE {
                // This step size no longer pays: halve it and walk again
                // from the best iterate.
                radius *= 0.5;
                if radius * STEP_FLOOR < cfg.lr {
                    stop = Stop::WallConverged;
                    break;
                }
                x.copy_from_slice(best);
                stale = 0;
                was_feasible = false;
                continue;
            }
        }
        let moved = if infeasible {
            // `grad` is d pred_ms / d r_mc; the walk wants d violation /
            // d r_scaled, and d r_mc / d r_scaled = quota_div.
            let to_scaled = model.scaler.quota_div / slo_ms;
            grad.iter_mut().for_each(|g| *g *= to_scaled);
            walk.wall_step(x, &grad, violation, radius, was_feasible)
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

    let scaler = model.scaler;
    // graf-lint: allow(hot-alloc, result construction after the loop exits)
    let quotas_mc: Vec<f64> = best.iter().map(|&v| scaler.unscale_quota(v)).collect();
    let predicted_ms = model.predict_ms(workloads, &quotas_mc);
    let best_loss = best_total + cfg.rho * best_violation;
    if span.is_recording() {
        span.attr("iterations", iterations)
            .attr("stop", stop.as_str())
            .attr("wall_active", wall_active)
            .attr("loss", best_loss)
            .attr("predicted_ms", predicted_ms)
            .attr("violation", (predicted_ms - slo_ms).max(0.0) / slo_ms)
            .attr("quota_total_mc", quotas_mc.iter().sum::<f64>());
        obs.counter_add("graf.solver.iterations", &[], iterations as u64);
    }
    SolveResult { quotas_mc, predicted_ms, iterations, loss: best_loss, stop, wall_active }
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
    let floor: Vec<usize> =
        bounds.lower.iter().map(|&l| (l / cpu_unit_mc).ceil().max(1.0) as usize).collect();
    let mut counts: Vec<usize> = continuous_mc
        .iter()
        .zip(&floor)
        .map(|(&q, &f)| ((q / cpu_unit_mc).ceil() as usize).max(f))
        .collect();
    let quotas = |c: &[usize]| c.iter().map(|&k| k as f64 * cpu_unit_mc).collect::<Vec<f64>>();
    let mut pred = model.predict_ms(workloads, &quotas(&counts));
    loop {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if counts[i] <= floor[i] {
                continue;
            }
            counts[i] -= 1;
            let p = model.predict_ms(workloads, &quotas(&counts));
            counts[i] += 1;
            if p <= slo_ms && best.is_none_or(|(_, bp)| p < bp) {
                best = Some((i, p));
            }
        }
        match best {
            Some((i, p)) => {
                counts[i] -= 1;
                pred = p;
            }
            None => break,
        }
    }
    (counts, pred)
}

/// Evaluates the solver loss surface at a given configuration — used by the
/// Figure-12 heat-map bench.
pub fn loss_at(
    model: &LatencyModel,
    workloads: &[f64],
    quotas_mc: &[f64],
    slo_ms: f64,
    rho: f64,
) -> f64 {
    let pred = model.predict_ms(workloads, quotas_mc);
    let total: f64 = quotas_mc.iter().map(|&q| model.scaler.scale_quota(q)).sum();
    total + rho * (pred - slo_ms).max(0.0) / slo_ms
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
        assert!(res.iterations >= 25);
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
        let l1 = loss_at(&model, &w, &[500.0, 1500.0], 100.0, 40.0);
        let l2 = loss_at(&model, &w, &[2500.0, 2500.0], 100.0, 40.0);
        assert!(l1.is_finite() && l2.is_finite());
        // Overprovisioning beyond need raises the resource term.
        assert!(l2 > l1 || l1 > 0.0);
    }
}
