//! Synthetic Azure-Functions-style invocation series.
//!
//! The paper replays AzurePublicDatasetV2 — per-minute function invocation
//! counts — by spawning "the appropriate number of user threads at every
//! minute" (§5.3, Figure 20). The dataset itself is proprietary-hosted bulk
//! data we do not ship; this module synthesizes a series with the same
//! qualitative features the experiment depends on: minute granularity, a
//! diurnal envelope, short bursts, noise, and a sharp drop late in the window
//! (the paper's Figure 20 shows a collapse around t = 1500 s that exposes the
//! HPA's slow 5-minute scale-down).

use graf_sim::rng::DetRng;

/// Amplitude of the slow (diurnal-like) oscillation, fraction of the mean.
const SWING: f64 = 0.35;
/// Multiplicative noise std (lognormal).
const NOISE: f64 = 0.10;
/// Probability per minute of a burst.
const BURST_PROB: f64 = 0.08;
/// Burst multiplier.
const BURST_SCALE: f64 = 1.35;

/// Parameters of the synthetic series.
#[derive(Clone, Debug)]
pub struct AzureParams {
    /// Mean user count around which the series oscillates.
    pub mean_users: f64,
    /// Period of the slow oscillation, in minutes.
    pub period_min: f64,
    /// Minute at which a sharp drop occurs (`None` to disable).
    pub drop_at_min: Option<usize>,
    /// Fraction of load remaining after the drop.
    pub drop_to: f64,
}

impl Default for AzureParams {
    fn default() -> Self {
        Self {
            mean_users: 55.0,
            period_min: 18.0,
            drop_at_min: Some(25), // ≈ 1500 s into a 1900 s replay
            drop_to: 0.45,
        }
    }
}

/// Generates a deterministic per-minute user-count series of length `minutes`.
pub fn azure_series(params: &AzureParams, minutes: usize, seed: u64) -> Vec<u32> {
    assert!(params.mean_users > 0.0);
    let mut rng = DetRng::new(seed);
    let mut out = Vec::with_capacity(minutes);
    for m in 0..minutes {
        let phase = (m as f64 / params.period_min) * std::f64::consts::TAU;
        let envelope = 1.0 + SWING * phase.sin();
        let noise = rng.lognormal_mean_cv(1.0, NOISE);
        let burst = if rng.chance(BURST_PROB) { BURST_SCALE } else { 1.0 };
        let dropped = match params.drop_at_min {
            Some(d) if m >= d => params.drop_to,
            _ => 1.0,
        };
        let v = params.mean_users * envelope * noise * burst * dropped;
        out.push(v.round().max(1.0) as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_is_deterministic() {
        let p = AzureParams::default();
        assert_eq!(azure_series(&p, 60, 1), azure_series(&p, 60, 1));
        assert_ne!(azure_series(&p, 60, 1), azure_series(&p, 60, 2));
    }

    #[test]
    fn series_has_requested_length_and_positive_values() {
        let p = AzureParams::default();
        let s = azure_series(&p, 32, 9);
        assert_eq!(s.len(), 32);
        assert!(s.iter().all(|&v| v >= 1));
    }

    #[test]
    fn drop_reduces_load() {
        let p = AzureParams { drop_at_min: Some(10), drop_to: 0.3, ..Default::default() };
        let s = azure_series(&p, 20, 3);
        let before: f64 = s[..10].iter().map(|&v| v as f64).sum::<f64>() / 10.0;
        let after: f64 = s[10..].iter().map(|&v| v as f64).sum::<f64>() / 10.0;
        assert!(after < before * 0.6, "before {before}, after {after}");
    }

    #[test]
    fn swing_produces_variation() {
        // Twenty periods, so noise and bursts average out: the minutes near
        // the envelope's crest carry about (1 + 0.83 SWING) / (1 - 0.83 SWING)
        // ≈ 1.8 times the load of those near its trough.
        let p = AzureParams { drop_at_min: None, ..Default::default() };
        let s = azure_series(&p, 360, 4);
        let mean_where = |crest: bool| {
            let picked: Vec<f64> = (0..s.len())
                .filter(|&m| {
                    let sin = (m as f64 / p.period_min * std::f64::consts::TAU).sin();
                    if crest {
                        sin > 0.5
                    } else {
                        sin < -0.5
                    }
                })
                .map(|m| s[m] as f64)
                .collect();
            picked.iter().sum::<f64>() / picked.len() as f64
        };
        let (crest, trough) = (mean_where(true), mean_where(false));
        assert!(crest / trough > 1.5, "diurnal swing visible: {trough}..{crest}");
    }
}
