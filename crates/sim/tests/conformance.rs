//! Queueing-theory conformance: `World` checked against closed forms.
//!
//! The determinism pins and the queue-level differential tests compare the
//! simulator with itself. These tests compare it with theory, through the
//! public API only:
//!
//! * M/G/1-PS mean response `S/(1−ρ)`. Processor sharing is insensitive to
//!   the service-time distribution, so one formula covers deterministic
//!   (cv = 0) and lognormal (cv = 0.5, 1, 2) work, at two quotas;
//! * a two-station tandem: the sum of the stations' `S_i/(1−ρ_i)`;
//! * Little's law end to end: time-averaged `in_flight()` equals λ·W;
//! * fork-join: the mean lies in `[max_i E T_i, Σ_i E T_i]`;
//! * the per-job cap's plateau: `n` jobs injected together finish at exactly
//!   `work / min(quota/n, 1000 mc)`.
//!
//! Every world has `base_us = 0`, one instance per service, Poisson arrivals
//! drawn from `DetRng::exp`, no client timeout and no tracing, and is drained
//! before it is measured. A single seed at ρ = 0.8 lands 10–15 % off the
//! theory, so each statistical check asserts on the mean pooled over `SEEDS`
//! (total latency over total count), with a band set from the measured spread
//! of such pooled means (see `PS_BAND`).

use graf_sim::rng::DetRng;
use graf_sim::{
    ApiId, ApiSpec, AppTopology, CallNode, ServiceId, ServiceSpec, SimConfig, SimTime, World,
};

/// Seeds every statistical check pools over.
const SEEDS: std::ops::Range<u64> = 0..10;

/// Expected arrivals per seed in a statistical run.
const REQUESTS: f64 = 12_000.0;

/// `(ρ, relative band)` of the M/G/1-PS checks: three standard deviations of
/// the noisiest cell's pooled mean (cv = 2), measured over eight disjoint
/// 10-seed sets (seeds 0–79): 0.66 %, 1.33 % and 2.57 % at ρ = 0.3, 0.6 and
/// 0.8. The other cells scatter half as much or less.
const PS_BAND: [(f64, f64); 3] = [(0.3, 0.02), (0.6, 0.04), (0.8, 0.08)];

/// A world with one instance of `quotas_mc[s]` millicores per service `s`.
fn world(topo: &AppTopology, quotas_mc: &[f64], seed: u64) -> World {
    // No CPU-usage queries here: one checkpoint cell keeps the account small.
    let cfg = SimConfig {
        trace_sample: 0.0,
        request_timeout_us: None,
        cpu_checkpoint_us: u64::MAX,
        ..SimConfig::default()
    };
    let mut w = World::new(topo.clone(), cfg, seed);
    for (s, &q) in quotas_mc.iter().enumerate() {
        w.add_instances(ServiceId(s as u16), 1, q, SimTime::ZERO);
    }
    w
}

/// Injects Poisson arrivals of API 0 at `rate` per second over
/// `[0, horizon_us)`. Returns how many.
fn inject_poisson(w: &mut World, rate: f64, horizon_us: f64, seed: u64) -> u64 {
    let mut rng = DetRng::new(seed ^ 0xc0f0);
    let (mut t, mut n) = (0.0, 0);
    loop {
        t += rng.exp(1e6 / rate);
        if t >= horizon_us {
            return n;
        }
        w.inject(ApiId(0), SimTime(t as u64));
        n += 1;
    }
}

/// One seed's run, drained: total latency (µs), request count and, when
/// `grid_us` is set, the mean of `in_flight()` sampled every `grid_us` over
/// the arrival horizon.
struct Run {
    latency_us: f64,
    requests: u64,
    horizon_us: f64,
    mean_in_flight: f64,
}

fn run(topo: &AppTopology, quotas_mc: &[f64], rate: f64, seed: u64, grid_us: Option<u64>) -> Run {
    let horizon_us = REQUESTS / rate * 1e6;
    let mut w = world(topo, quotas_mc, seed);
    let requests = inject_poisson(&mut w, rate, horizon_us, seed);
    let mut mean_in_flight = f64::NAN;
    if let Some(step) = grid_us {
        let (mut sum, mut samples) = (0.0, 0u64);
        let mut t = step;
        while (t as f64) <= horizon_us {
            w.run_until(SimTime(t));
            sum += w.in_flight() as f64;
            samples += 1;
            t += step;
        }
        mean_in_flight = sum / samples as f64;
    }
    w.run_to_quiescence(SimTime((horizon_us + 600e6) as u64));
    assert_eq!(w.in_flight(), 0, "seed {seed}: the run drained");
    let done = w.drain_completions();
    assert_eq!(done.len() as u64, requests, "seed {seed}: every request completed");
    let latency_us = done.iter().map(|c| c.latency_us() as f64).sum();
    Run { latency_us, requests, horizon_us, mean_in_flight }
}

/// Mean response (µs) pooled over `SEEDS`.
fn pooled_mean_us(topo: &AppTopology, quotas_mc: &[f64], rate: f64) -> f64 {
    let (mut latency, mut requests) = (0.0, 0u64);
    for seed in SEEDS {
        let r = run(topo, quotas_mc, rate, seed, None);
        latency += r.latency_us;
        requests += r.requests;
    }
    latency / requests as f64
}

/// A chain of services `0 → 1 → …`, each `(work_ms, cv)`, with no per-hop
/// overhead.
fn chain(services: &[(f64, f64)]) -> AppTopology {
    let specs = services
        .iter()
        .enumerate()
        .map(|(i, &(work, cv))| ServiceSpec::new(&format!("s{i}"), work, 0).cv(cv))
        .collect();
    let mut tree = CallNode::new(services.len() as u16 - 1);
    for s in (0..services.len() as u16 - 1).rev() {
        tree = CallNode::new(s).call(tree);
    }
    AppTopology::new("chain", specs, vec![ApiSpec::new("get", tree)])
}

/// Mean PS response `S/(1−ρ)` in µs of a station serving `work_ms` of
/// full-core demand on `quota_mc` at `rate` per second.
fn ps_mean_us(work_ms: f64, quota_mc: f64, rate: f64) -> f64 {
    let s_us = work_ms * 1e3 * 1000.0 / quota_mc;
    let rho = rate * s_us / 1e6;
    assert!(rho < 1.0, "ρ = {rho} is unstable");
    s_us / (1.0 - rho)
}

/// M/G/1-PS at utilisation `rho`: every cv and quota cell is pooled over
/// `SEEDS` and must land within the band of `S/(1−ρ)`.
fn check_mg1_ps(rho: f64) {
    let band = PS_BAND.iter().find(|b| b.0 == rho).expect("a band for every ρ").1;
    const WORK_MS: f64 = 2.5;
    let mut report = String::new();
    let mut failed = false;
    for cv in [0.0, 0.5, 1.0, 2.0] {
        for quota in [500.0, 1000.0] {
            let s_us = WORK_MS * 1e6 / quota;
            let rate = rho * 1e6 / s_us;
            let want = ps_mean_us(WORK_MS, quota, rate);
            let got = pooled_mean_us(&chain(&[(WORK_MS, cv)]), &[quota], rate);
            let err = got / want - 1.0;
            failed |= err.abs() > band;
            report += &format!(
                "  cv {cv:>3} quota {quota:>4} mc: {:8.1} µs vs S/(1−ρ) {:8.1} µs ({:+.2} %)\n",
                got,
                want,
                100.0 * err
            );
        }
    }
    assert!(!failed, "M/G/1-PS at ρ = {rho} outside ±{} %:\n{report}", 100.0 * band);
}

#[test]
fn mg1_ps_mean_response_at_rho_0_3() {
    check_mg1_ps(0.3);
}

#[test]
fn mg1_ps_mean_response_at_rho_0_6() {
    check_mg1_ps(0.6);
}

#[test]
fn mg1_ps_mean_response_at_rho_0_8() {
    check_mg1_ps(0.8);
}

/// The tandem of `tandem_response_is_the_sum_of_station_means` and
/// `littles_law_holds_end_to_end`: a 1.5 ms station on a full core
/// (ρ = 0.225) feeding a 2 ms station on half a core (ρ = 0.6), at 150/s.
fn tandem() -> (AppTopology, [f64; 2], f64) {
    (chain(&[(1.5, 1.0), (2.0, 0.5)]), [1000.0, 500.0], 150.0)
}

/// Mean responses add along a chain (the departures of a PS station are
/// again Poisson, and means add whatever the correlation). The 3 % band is
/// three standard deviations (0.86 %) over the eight seed sets of `PS_BAND`.
#[test]
fn tandem_response_is_the_sum_of_station_means() {
    let (topo, quotas, rate) = tandem();
    let want = ps_mean_us(1.5, quotas[0], rate) + ps_mean_us(2.0, quotas[1], rate);
    let got = pooled_mean_us(&topo, &quotas, rate);
    let err = got / want - 1.0;
    assert!(err.abs() <= 0.03, "tandem {got:.1} µs vs Σ S_i/(1−ρ_i) {want:.1} µs ({err:+.4})");
}

/// `L = λ·W` over the whole world: the time average of `in_flight()` on a
/// 1 ms grid equals the arrival rate times the mean response. Pooled over
/// seeds, `λ·W` is the total response time over the total horizon. This is a
/// sample-path identity up to the grid and the requests still in flight at
/// the horizon: over the eight seed sets of `PS_BAND` the two sides differed
/// by at most 0.03 %, so the band is 0.1 %.
#[test]
fn littles_law_holds_end_to_end() {
    let (topo, quotas, rate) = tandem();
    let (mut l_sum, mut latency, mut horizon) = (0.0, 0.0, 0.0);
    for seed in SEEDS {
        let r = run(&topo, &quotas, rate, seed, Some(1_000));
        l_sum += r.mean_in_flight;
        latency += r.latency_us;
        horizon += r.horizon_us;
    }
    let l = l_sum / SEEDS.count() as f64;
    let lambda_w = latency / horizon;
    let err = l / lambda_w - 1.0;
    assert!(err.abs() <= 0.001, "L = {l:.4} vs λW = {lambda_w:.4} ({err:+.4})");
}

/// A negligible root fans out to two identical ρ = 0.6 branches in parallel:
/// the response is the root's plus the slower branch's, so its mean lies
/// between the larger branch mean and the sum of both.
#[test]
fn fork_join_mean_lies_between_max_and_sum_of_branches() {
    let specs = vec![
        ServiceSpec::new("root", 0.001, 0).cv(0.0),
        ServiceSpec::new("left", 2.0, 0),
        ServiceSpec::new("right", 2.0, 0),
    ];
    let tree = CallNode::new(0).then(vec![CallNode::new(1), CallNode::new(2)]);
    let topo = AppTopology::new("fork-join", specs, vec![ApiSpec::new("get", tree)]);
    let (quotas, rate) = ([1000.0, 500.0, 500.0], 150.0);
    let root = ps_mean_us(0.001, quotas[0], rate);
    let branch = [ps_mean_us(2.0, quotas[1], rate), ps_mean_us(2.0, quotas[2], rate)];
    let lo = root + branch[0].max(branch[1]);
    let hi = root + branch[0] + branch[1];
    let got = pooled_mean_us(&topo, &quotas, rate);
    assert!(lo <= got && got <= hi, "fork-join {got:.1} µs outside [{lo:.1}, {hi:.1}] µs");
}

/// `n` jobs of 10 core-ms injected together share the quota equally, each
/// capped at one core (1000 mc), so all finish at exactly
/// `work / min(quota/n, 1000 mc)`: a flat 10 ms while `quota ≥ n × 1000`.
#[test]
fn per_job_cap_plateau_is_exact() {
    let topo = chain(&[(10.0, 0.0)]);
    // (quota mc, jobs, response µs)
    let cases = [
        (4000.0, 1, 10_000),
        (4000.0, 2, 10_000),
        (4000.0, 4, 10_000),
        (4000.0, 8, 20_000),
        (4000.0, 16, 40_000),
        (2000.0, 1, 10_000),
        (2000.0, 4, 20_000),
        (1000.0, 1, 10_000),
        (1000.0, 2, 20_000),
        (500.0, 1, 20_000),
    ];
    for (quota, n, want) in cases {
        let mut w = world(&topo, &[quota], 1);
        for _ in 0..n {
            w.inject(ApiId(0), SimTime::ZERO);
        }
        w.run_to_quiescence(SimTime::from_secs(1.0));
        let got: Vec<u64> = w.drain_completions().iter().map(|c| c.latency_us()).collect();
        assert_eq!(got, vec![want; n], "{n} jobs on {quota} mc");
    }
}
