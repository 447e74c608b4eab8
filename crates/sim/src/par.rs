//! The one index-claiming worker pool: the sample collector's probes and
//! `graf-exp all`'s experiments both fan out through [`fan_out`].
//!
//! Determinism is the caller's half of the contract — `f(idx)` may depend on
//! `idx` and on shared read-only state, never on which worker runs it or on
//! what ran before — and index order on return is this module's half, so a
//! result assembled from the returned vector is the same for every width.

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates `f(0), …, f(n - 1)` on `min(threads.max(1), n)` workers — the
/// caller and scoped helper threads — that claim indices from a shared
/// counter. Values come back in index order, whichever worker ran them; a
/// panic in `f` reaches the caller as itself.
#[expect(
    clippy::disallowed_methods,
    reason = "the one worker pool: results come back in index order for any width"
)]
pub fn fan_out<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::AcqRel);
            if idx >= n {
                break mine;
            }
            mine.push((idx, f(idx)));
        }
    };
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.max(1).min(n)).map(|_| scope.spawn(worker)).collect();
        // The caller works too: its probes allocate from the heap the rest of
        // the pipeline already grew, not from one more per-thread arena.
        let mut claimed = worker();
        for helper in helpers {
            claimed.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        claimed
    });
    claimed.sort_unstable_by_key(|&(idx, _)| idx);
    claimed.into_iter().map(|(_, value)| value).collect()
}

/// The message of a caught panic (`"?"` when the payload is not a string),
/// for callers that turn a panicking index into that index's error.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or(payload.downcast_ref::<&str>().copied()).unwrap_or("?")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two workers are forced to hold interleaved indices (`[0, 2]` and
    /// `[1]`), so no join order yields index order by accident.
    #[test]
    fn fan_out_returns_values_in_index_order() {
        use std::sync::Barrier;
        let (both_claimed, two_claimed) = (Barrier::new(2), Barrier::new(2));
        let out = fan_out(3, 2, |idx| {
            // 0 and 1 meet, so they sit on different workers; 1 then stays
            // put until the worker that had 0 has come back for 2.
            if idx < 2 {
                both_claimed.wait();
            }
            if idx > 0 {
                two_claimed.wait();
            }
            idx * 10
        });
        assert_eq!(out, [0, 10, 20]);
    }

    #[test]
    fn fan_out_spawns_no_more_workers_than_indices() {
        assert_eq!(fan_out(0, 4, |idx| idx), [0usize; 0]);
        assert_eq!(fan_out(2, 0, |idx| idx), [0, 1]);
        // One thread per requested worker could not be spawned.
        assert_eq!(fan_out(3, usize::MAX, |idx| idx), [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "probe 2 failed")]
    fn a_panicking_probe_surfaces_its_own_message() {
        fan_out(4, 2, |idx| assert!(idx != 2, "probe {idx} failed"));
    }
}
