//! Direct probes: time one public function in a tight loop.

use std::time::Instant;

use crate::rec::Recorder;
use crate::stats::median;

/// Seconds per call of `f`: `samples` spans of `calls` back-to-back calls
/// each, after one unrecorded warm-up sample; the median sample wins.
pub fn per_call_s(
    rec: &Recorder,
    layer: &'static str,
    name: &'static str,
    calls: usize,
    samples: usize,
    mut f: impl FnMut(),
) -> f64 {
    for _ in 0..calls {
        f();
    }
    let per_sample: Vec<f64> = (0..samples)
        .map(|_| {
            rec.span(layer, name, |n| {
                *n = calls as u64;
                let t0 = Instant::now();
                for _ in 0..calls {
                    f();
                }
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    median(&per_sample) / calls as f64
}
