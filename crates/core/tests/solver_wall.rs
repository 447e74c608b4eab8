//! Properties of the configuration solver at an active SLO wall, against a
//! brute-force oracle.
//!
//! The models are the 2-service synthetic surface of the solver's unit tests,
//! trained per seed; the oracle is a 201 × 201 grid search over the
//! Algorithm-1 box (200 steps per axis), which is global where the solver is
//! local. Grid points are feasible points, so the grid optimum can only be
//! dearer than the true one: the tolerance is one-sided.

use graf_core::{
    solve, solve_observed, Bounds, FeatureScaler, LatencyModel, NetKind, Sample, SolveResult,
    SolverConfig, Stop, TrainConfig,
};
use graf_obs::{Obs, Value};
use graf_sim::rng::DetRng;

/// Per-service work of the synthetic surface; service 1 is 3× heavier.
const WORKS: [f64; 2] = [1.0, 3.0];
const RANGES: [(f64, f64); 2] = [(150.0, 1500.0), (400.0, 2800.0)];
const LOAD: [f64; 2] = [60.0, 60.0];
/// Grid steps per axis.
const GRID: usize = 200;
/// Rungs of the SLO ladder, tightest first.
const RUNGS: usize = 14;

fn trained_model(seed: u64) -> (LatencyModel, Bounds) {
    trained_with_bump(seed, 0.0)
}

/// The synthetic surface plus a latency bump of `bump_ms` across the middle
/// of the box (total quota ≈ 2 600 mc): with a bump the path down from the top
/// of the box can meet the SLO wall, leave it and meet it again.
fn trained_with_bump(seed: u64, bump_ms: f64) -> (LatencyModel, Bounds) {
    let mut rng = DetRng::new(seed);
    let mut samples = Vec::new();
    for _ in 0..700 {
        let w = rng.uniform(20.0, 100.0);
        let quotas: Vec<f64> = RANGES.iter().map(|&(lo, hi)| rng.uniform(lo, hi)).collect();
        let mut p99 = 2.0;
        for i in 0..2 {
            let head = (quotas[i] - w * WORKS[i]).max(15.0);
            p99 += 1200.0 * WORKS[i] / head + WORKS[i];
        }
        let t = (quotas[0] + quotas[1] - 2600.0) / 350.0;
        p99 += bump_ms * (-t * t).exp();
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
    model.train(&split, &TrainConfig { epochs: 80, evals: 10, ..Default::default() });
    let bounds = Bounds {
        lower: RANGES.iter().map(|r| r.0).collect(),
        upper: RANGES.iter().map(|r| r.1).collect(),
    };
    (model, bounds)
}

/// The model's prediction at every grid point, and the grid's quota axes.
struct Oracle {
    pred: Vec<f64>,
    axes: [Vec<f64>; 2],
}

impl Oracle {
    fn new(model: &LatencyModel, bounds: &Bounds) -> Self {
        let axis = |k: usize| -> Vec<f64> {
            let (lo, hi) = (bounds.lower[k], bounds.upper[k]);
            (0..=GRID).map(|i| lo + (hi - lo) * i as f64 / GRID as f64).collect()
        };
        let axes = [axis(0), axis(1)];
        let mut pred = Vec::with_capacity((GRID + 1) * (GRID + 1));
        for &q0 in &axes[0] {
            for &q1 in &axes[1] {
                pred.push(model.predict_ms(&LOAD, &[q0, q1]));
            }
        }
        Self { pred, axes }
    }

    /// Lowest total quota among the grid points predicted within `slo_ms`.
    fn cheapest_within(&self, slo_ms: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (i, &q0) in self.axes[0].iter().enumerate() {
            for (j, &q1) in self.axes[1].iter().enumerate() {
                if self.pred[i * (GRID + 1) + j] <= slo_ms && best.is_none_or(|b| q0 + q1 < b) {
                    best = Some(q0 + q1);
                }
            }
        }
        best
    }

    fn floor_ms(&self) -> f64 {
        self.pred[0]
    }

    fn top_ms(&self) -> f64 {
        self.pred[self.pred.len() - 1]
    }
}

fn total(r: &SolveResult) -> f64 {
    r.quotas_mc.iter().sum()
}

fn bits(r: &SolveResult) -> (Vec<u64>, u64, u64, usize, Stop, bool) {
    (
        r.quotas_mc.iter().map(|q| q.to_bits()).collect(),
        r.predicted_ms.to_bits(),
        r.loss.to_bits(),
        r.iterations,
        r.stop,
        r.wall_active,
    )
}

/// `(model seed, allowed excess over the grid optimum)`. Seed 6 is kept in on
/// purpose: at one rung its wall has a 100 mc long stretch along which the
/// total is flat to 0.1 % before it falls again, and a walk that only accepts
/// improvements stops at the near end, 3.8 % above the grid's global optimum.
const SEEDS: [(u64, f64); 8] =
    [(3, 0.02), (4, 0.02), (5, 0.02), (6, 0.05), (7, 0.02), (8, 0.02), (9, 0.02), (10, 0.02)];

#[test]
fn wall_solves_match_the_grid_oracle_over_an_slo_ladder() {
    let cfg = SolverConfig::default();
    for (seed, slack) in SEEDS {
        let (mut model, bounds) = trained_model(seed);
        let oracle = Oracle::new(&model, &bounds);
        // From below anything reachable to above the floor of the box.
        let (tight, loose) = (0.9 * oracle.top_ms(), 1.1 * oracle.floor_ms());
        let mut previous_total = f64::INFINITY;
        for k in 0..RUNGS {
            let slo = tight + (loose - tight) * k as f64 / (RUNGS - 1) as f64;
            let r = solve(&mut model, &LOAD, slo, &bounds, &cfg);
            let ctx = format!("seed {seed} slo {slo:.2}: {r:?}");

            assert_ne!(r.stop, Stop::Cap, "the solve converged: {ctx}");
            if oracle.top_ms() <= slo {
                assert!(r.predicted_ms <= slo, "feasible whenever the top of the box is: {ctx}");
            } else {
                assert_eq!(r.stop, Stop::PinnedInfeasible, "{ctx}");
            }
            if let Some(grid_total) = oracle.cheapest_within(slo) {
                assert!(
                    total(&r) <= grid_total * (1.0 + slack),
                    "total {:.1} within {slack} of the grid optimum {grid_total:.1}: {ctx}",
                    total(&r)
                );
            }
            assert!(
                total(&r) <= previous_total,
                "total does not rise as the SLO loosens ({previous_total:.1} before): {ctx}"
            );
            previous_total = total(&r);

            let again = solve(&mut model, &LOAD, slo, &bounds, &cfg);
            assert_eq!(bits(&r), bits(&again), "two identical calls, identical bits: {ctx}");
        }
    }
}

/// Count-based convergence gate: no clock involved, so it cannot flake and it
/// cannot pass by accident on a fast box. At the parent of this test's
/// introduction every one of these solves ran to `max_iters`.
#[test]
fn every_wall_solve_of_a_forty_slo_sweep_stops_within_a_fifth_of_the_cap() {
    let cfg = SolverConfig::default();
    let (mut model, bounds) = trained_model(3);
    let floor = model.predict_ms(&LOAD, &bounds.lower);
    let top = model.predict_ms(&LOAD, &bounds.upper);
    for k in 0..40 {
        let slo = top + (floor - top) * (k as f64 + 0.5) / 40.0;
        let r = solve(&mut model, &LOAD, slo, &bounds, &cfg);
        assert!(r.wall_active, "an SLO between top and floor is binding: slo {slo:.2} {r:?}");
        assert_eq!(r.stop, Stop::WallConverged, "slo {slo:.2} {r:?}");
        assert!(
            r.iterations < cfg.max_iters / 5,
            "slo {slo:.2}: {} iterations of a cap of {}",
            r.iterations,
            cfg.max_iters
        );
        assert!(r.predicted_ms <= slo, "slo {slo:.2} {r:?}");
    }
}

/// While the hinge has never been active the descent is the fixed-`lr` Adam
/// walk of every earlier revision: quotas, loss and prediction below were
/// captured at the parent commit (6904ac8) with its solver, which evaluated
/// every point of the walk — 45 and 25 evaluations, the walk's length. Its
/// end is now the one point evaluated.
#[test]
fn loose_solves_reproduce_the_parent_commits_bits() {
    let (mut model, bounds) = trained_model(3);

    let (r, path_len, crossing) = solve_traced(&mut model, 40.0, &bounds);
    assert_eq!((r.stop, r.wall_active), (Stop::Tolerance, false));
    assert_eq!((r.iterations, path_len, crossing), (1, 45, None));
    assert_eq!(r.quotas_mc, vec![150.0, 400.0]);
    assert_eq!(r.loss.to_bits(), 0x3fc9_2dba_5e54_1881, "loss {}", r.loss);
    assert_eq!(r.predicted_ms.to_bits(), 0x403b_50a9_f4a4_7be9, "predicted {}", r.predicted_ms);

    // A box so shallow that the floor is reached before `min_iters`.
    let shallow = Bounds { lower: vec![1300.0, 2500.0], upper: bounds.upper.clone() };
    let (r, path_len, crossing) = solve_traced(&mut model, 120.0, &shallow);
    assert_eq!((r.stop, r.wall_active), (Stop::Tolerance, false));
    assert_eq!((r.iterations, path_len, crossing), (1, 25, None));
    assert_eq!(r.quotas_mc, vec![1300.0, 2500.0]);
    assert_eq!(r.loss.to_bits(), 0x3ff5_bec3_dd1a_1529, "loss {}", r.loss);
}

/// A default-config solve at `LOAD` with the pre-wall path's length and
/// crossing as its `graf.solver.solve` span records them.
fn solve_traced(
    model: &mut LatencyModel,
    slo: f64,
    bounds: &Bounds,
) -> (SolveResult, u64, Option<u64>) {
    let obs = Obs::enabled();
    let r = solve_observed(model, &LOAD, slo, bounds, &SolverConfig::default(), &obs);
    let events = obs.events();
    let [span] = events.as_slice() else { panic!("one solver span: {events:?}") };
    let attr = |key: &str| {
        span.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| match v {
            Value::U64(v) => *v,
            other => panic!("{key} is a count: {other:?}"),
        })
    };
    (r, attr("path_len").expect("path_len is always recorded"), attr("crossing"))
}

/// The solver as it was before the pre-wall walk was bisected: it steps the
/// fixed-`lr` Adam path down from the top of the box one evaluation at a
/// time until one violates the SLO, then walks the wall, re-evaluating the
/// best iterate on every restart. Kept here as the reference the bisecting
/// solver is checked against; `iterations` counts its evaluations.
mod reference {
    use graf_core::solver::{MIN_ITERS, RHO, TOL};
    use graf_core::{Bounds, LatencyModel, SolveResult, SolverConfig, Stop};
    use graf_nn::{Adam, Matrix, Param};

    const PATIENCE: usize = 6;
    const STEP_FLOOR: f64 = 64.0;
    const MIN_GAIN: f64 = 1.0 / 16.0;
    const WALL_MARGIN: f64 = 1e-3;

    fn scaled(model: &LatencyModel, q: &[f64]) -> Vec<f64> {
        q.iter().map(|&v| model.scaler.scale_quota(v)).collect()
    }

    fn unscaled(model: &LatencyModel, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| model.scaler.unscale_quota(v)).collect()
    }

    /// The pre-wall path `p_0 = hi … p_{len−1}` and whether each point meets
    /// the SLO, stepped exactly as the linear walk steps it.
    pub fn path_feasibility(
        model: &LatencyModel,
        workloads: &[f64],
        slo_ms: f64,
        bounds: &Bounds,
        cfg: &SolverConfig,
    ) -> Vec<bool> {
        let (lo, hi) = (scaled(model, &bounds.lower), scaled(model, &bounds.upper));
        let mut r = Param::new(Matrix::row_vector(hi.clone()));
        let mut opt = Adam::new(cfg.lr);
        let mut prev_loss = f64::INFINITY;
        let mut feasible = Vec::new();
        for it in 0..cfg.max_iters {
            feasible.push(model.predict_ms(workloads, &unscaled(model, r.value.data())) <= slo_ms);
            let total: f64 = r.value.data().iter().sum();
            for i in 0..lo.len() {
                r.grad.set(0, i, 1.0);
            }
            opt.begin_step();
            opt.update(&mut r);
            for i in 0..lo.len() {
                let v = r.value.get(0, i).clamp(lo[i], hi[i]);
                r.value.set(0, i, v);
            }
            if it + 1 >= MIN_ITERS && (prev_loss - total).abs() < TOL {
                break;
            }
            prev_loss = total;
        }
        feasible
    }

    pub fn solve(
        model: &mut LatencyModel,
        workloads: &[f64],
        slo_ms: f64,
        bounds: &Bounds,
        cfg: &SolverConfig,
    ) -> SolveResult {
        let n = workloads.len();
        let (lo, hi) = (scaled(model, &bounds.lower), scaled(model, &bounds.upper));
        let mut r = Param::new(Matrix::row_vector(hi.clone()));
        let mut opt = Adam::new(cfg.lr);
        let mut walk =
            Walk { lo: &lo, hi: &hi, max_step: cfg.lr, step: vec![0.0; n], free: vec![0.0; n] };
        let mut grad = Vec::new();
        let mut best = hi.clone();
        let (mut best_total, mut best_violation) = (f64::INFINITY, f64::INFINITY);
        let mut prev_loss = f64::INFINITY;
        let (mut iterations, mut stop) = (0, Stop::Cap);
        let (mut wall_active, mut was_feasible) = (false, false);
        let (mut radius, mut stale) = (cfg.lr, 0);
        for it in 0..cfg.max_iters {
            iterations = it + 1;
            let quotas_mc = unscaled(model, r.value.data());
            let (pred, infeasible) =
                model.predict_ms_with_grad(workloads, &quotas_mc, slo_ms, &mut grad);
            let violation = if infeasible { (pred - slo_ms) / slo_ms } else { 0.0 };
            let total: f64 = r.value.data().iter().sum();

            wall_active |= infeasible;
            if !wall_active {
                best.copy_from_slice(r.value.data());
                (best_total, best_violation) = (total, violation);
                for i in 0..n {
                    r.grad.set(0, i, 1.0);
                }
                opt.begin_step();
                opt.update(&mut r);
                for i in 0..n {
                    let v = r.value.get(0, i).clamp(lo[i], hi[i]);
                    r.value.set(0, i, v);
                }
                if it + 1 >= MIN_ITERS && (prev_loss - total).abs() < TOL {
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
                    radius *= 0.5;
                    if radius * STEP_FLOOR < cfg.lr {
                        stop = Stop::WallConverged;
                        break;
                    }
                    x.copy_from_slice(&best);
                    stale = 0;
                    was_feasible = false;
                    continue;
                }
            }
            let moved = if infeasible {
                let to_scaled = model.scaler.quota_div / slo_ms;
                grad.iter_mut().for_each(|g| *g *= to_scaled);
                walk.wall_step(x, &grad, violation, radius, was_feasible)
            } else {
                walk.descend(x, radius)
            };
            was_feasible = !infeasible;
            if moved == 0.0 {
                stop = Stop::WallConverged;
                break;
            }
        }
        if stop == Stop::WallConverged && best_violation > 0.0 {
            stop = Stop::PinnedInfeasible;
        }
        let quotas_mc = unscaled(model, &best);
        let predicted_ms = model.predict_ms(workloads, &quotas_mc);
        let loss = best_total + RHO * best_violation;
        SolveResult { quotas_mc, predicted_ms, iterations, loss, stop, wall_active }
    }

    struct Walk<'a> {
        lo: &'a [f64],
        hi: &'a [f64],
        max_step: f64,
        step: Vec<f64>,
        free: Vec<f64>,
    }

    impl Walk<'_> {
        fn apply(&self, x: &mut [f64]) -> f64 {
            let mut moved = 0.0f64;
            for (i, v) in x.iter_mut().enumerate() {
                let next = (*v + self.step[i]).clamp(self.lo[i], self.hi[i]);
                moved = moved.max((next - *v).abs());
                *v = next;
            }
            moved
        }

        fn descend(&mut self, x: &mut [f64], radius: f64) -> f64 {
            self.step.fill(-radius);
            self.apply(x)
        }

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
}

/// Whether the path is feasible down to some point and infeasible from
/// there on: the one shape of path a bisection reads exactly.
fn monotone(path: &[bool]) -> bool {
    path.windows(2).all(|w| w[0] || !w[1])
}

/// Solves at `slo` with the bisecting solver and with the linear-walk
/// reference, and checks the one against the other:
///
/// * the reported prediction is the model's own at the reported quotas, and
///   the span's `path_len` the length of the reference's pre-wall path;
/// * where that path is feasible down to some point and infeasible from
///   there on, quotas, prediction, loss, stop rule and wall flag are
///   bit-identical, the span's `crossing` is the path's first infeasible
///   point, and the bisection costs at most `⌈log₂ len⌉ + 1` evaluations
///   more than the linear walk — at most one more when the top of the box
///   already misses the SLO;
/// * otherwise the bisection may meet the wall at another crossing, and the
///   two wall walks are not comparable step for step: the answer must still
///   be feasible, and no dearer than the reference's by more than 0.1 %.
///
/// Returns whether the path was monotone.
fn check_against_reference(model: &mut LatencyModel, bounds: &Bounds, slo: f64, ctx: &str) -> bool {
    let cfg = SolverConfig::default();
    let (r, path_len, crossing) = solve_traced(model, slo, bounds);
    let want = reference::solve(model, &LOAD, slo, bounds, &cfg);
    let path = reference::path_feasibility(model, &LOAD, slo, bounds, &cfg);
    let ctx = format!("{ctx} slo {slo:.3} path {path:?}:\n  got  {r:?}\n  want {want:?}");
    assert_eq!(path_len, path.len() as u64, "the span records the path's length: {ctx}");
    assert_eq!(
        r.predicted_ms.to_bits(),
        model.predict_ms(&LOAD, &r.quotas_mc).to_bits(),
        "the reported prediction is the model's at the reported quotas: {ctx}"
    );
    if monotone(&path) {
        let answer = |r: &SolveResult| {
            let (quotas, predicted, loss, _, stop, wall) = bits(r);
            (quotas, predicted, loss, stop, wall)
        };
        assert_eq!(answer(&r), answer(&want), "monotone path, identical answer: {ctx}");
        let first_infeasible = path.iter().position(|&feasible| !feasible);
        assert_eq!(crossing, first_infeasible.map(|c| c as u64), "where the wall is met: {ctx}");
        let extra =
            if path[0] { path.len().next_power_of_two().trailing_zeros() as usize } else { 0 };
        assert!(
            r.iterations <= want.iterations + extra + 1,
            "{} evaluations against the linear walk's {}: {ctx}",
            r.iterations,
            want.iterations
        );
    } else {
        assert!(r.predicted_ms <= slo, "feasible: {ctx}");
        assert!(total(&r) <= total(&want) * 1.001, "within 0.1 % of the reference: {ctx}");
    }
    monotone(&path)
}

/// The bisected pre-wall walk against the linear one it replaced, over the
/// trained models × an SLO ladder from below the top of the box
/// (unreachable) through binding to above its floor (loose).
#[test]
fn bisected_solves_match_the_linear_walk_reference() {
    let (mut unreachable, mut binding, mut loose) = (0, 0, 0);
    for (seed, _) in SEEDS {
        let (mut model, bounds) = trained_model(seed);
        let top = model.predict_ms(&LOAD, &bounds.upper);
        let floor = model.predict_ms(&LOAD, &bounds.lower);
        for k in 0..16 {
            let slo = 0.5 * top + (1.3 * floor - 0.5 * top) * k as f64 / 15.0;
            check_against_reference(&mut model, &bounds, slo, &format!("seed {seed}"));
            match slo {
                s if s < top => unreachable += 1,
                s if s < floor => binding += 1,
                _ => loose += 1,
            }
        }
    }
    assert!(unreachable > 0 && binding > 0 && loose > 0, "{unreachable} {binding} {loose}");
}

/// A surface with a latency bump across the middle of the box, so the path
/// down from the top meets the wall, leaves it and meets it again: the
/// bisection then need not find the crossing the linear walk stops at.
#[test]
fn a_path_that_meets_the_wall_more_than_once_still_gets_a_feasible_answer() {
    let (mut model, bounds) = trained_with_bump(1, 20.0);
    let top = model.predict_ms(&LOAD, &bounds.upper);
    let floor = model.predict_ms(&LOAD, &bounds.lower);
    let mut non_monotone = 0;
    for k in 0..16 {
        let slo = top + (floor - top) * k as f64 / 15.0;
        if !check_against_reference(&mut model, &bounds, slo, "bump") {
            non_monotone += 1;
        }
    }
    assert!(non_monotone > 0, "the bump makes some path meet the wall more than once");
}
