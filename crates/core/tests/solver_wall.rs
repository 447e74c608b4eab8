//! Properties of the configuration solver at an active SLO wall, against a
//! brute-force oracle.
//!
//! The models are the 2-service synthetic surface of the solver's unit tests,
//! trained per seed; the oracle is a 201 × 201 grid search over the
//! Algorithm-1 box (200 steps per axis), which is global where the solver is
//! local. Grid points are feasible points, so the grid optimum can only be
//! dearer than the true one: the tolerance is one-sided.

use graf_core::{
    solve, Bounds, FeatureScaler, LatencyModel, NetKind, Sample, SolveResult, SolverConfig, Stop,
    TrainConfig,
};
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
/// walk of every earlier revision: iterations, quotas, loss and prediction
/// below were captured at the parent commit (6904ac8) with its solver.
#[test]
fn loose_solves_reproduce_the_parent_commits_bits() {
    let cfg = SolverConfig::default();
    let (mut model, bounds) = trained_model(3);

    let r = solve(&mut model, &LOAD, 40.0, &bounds, &cfg);
    assert_eq!((r.stop, r.wall_active), (Stop::Tolerance, false));
    assert_eq!(r.iterations, 45);
    assert_eq!(r.quotas_mc, vec![150.0, 400.0]);
    assert_eq!(r.loss.to_bits(), 0x3fc9_2dba_5e54_1881, "loss {}", r.loss);
    assert_eq!(r.predicted_ms.to_bits(), 0x403b_50a9_f4a4_7be9, "predicted {}", r.predicted_ms);

    // A box so shallow that the floor is reached before `min_iters`.
    let shallow = Bounds { lower: vec![1300.0, 2500.0], upper: bounds.upper.clone() };
    let r = solve(&mut model, &LOAD, 120.0, &shallow, &cfg);
    assert_eq!((r.stop, r.wall_active), (Stop::Tolerance, false));
    assert_eq!(r.iterations, 25);
    assert_eq!(r.quotas_mc, vec![1300.0, 2500.0]);
    assert_eq!(r.loss.to_bits(), 0x3ff5_bec3_dd1a_1529, "loss {}", r.loss);
}
