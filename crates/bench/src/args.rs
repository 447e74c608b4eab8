//! The flags `graf-exp` parses once, whichever subcommand runs.

use std::num::NonZeroUsize;

/// The flags of `graf-exp`, taken by every experiment and by `all`; any other
/// flag is an error naming it.
///
/// * `--seed <u64>` — base RNG seed (default 7).
/// * `--paper-scale` — raise sample counts/epochs toward the published
///   configuration (slower, closer to the paper's statistical power).
/// * `--samples <n>` — override the training-sample count (positive).
/// * `--quick` — shrink everything for a fast smoke run.
/// * `--threads <n>` — worker threads for data-parallel training (results
///   are bit-identical for any value; default 1).
/// * `--telemetry <path>` — enable the graf-obs telemetry layer: dump the
///   JSONL event log (every control tick's decision included) to `path` and
///   print the summary table at exit.
/// * `--chaos <class>` — restrict chaos-aware experiments (`chaos_matrix`) to
///   one fault class of `graf_chaos::CATALOG` (`trace_drop`, `metric_nan`,
///   `metric_stale`, `stale_model`, `creation_fail`, `slow_start`,
///   `latency_spike`, or `none`); all classes run when unset, and any other
///   name is an error.
#[derive(Clone, Debug)]
pub struct Args {
    /// Base RNG seed.
    pub seed: u64,
    /// Use paper-scale sample counts and epochs.
    pub paper_scale: bool,
    /// Optional explicit sample-count override.
    pub samples: Option<usize>,
    /// Fast smoke-run mode.
    pub quick: bool,
    /// JSONL telemetry dump path (telemetry stays disabled when unset).
    pub telemetry: Option<String>,
    /// Training worker threads (deterministic for any value; 1 = serial).
    pub threads: Option<usize>,
    /// Fault-class filter for chaos-aware experiments (None = all classes).
    pub chaos: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            seed: 7,
            paper_scale: false,
            samples: None,
            quick: false,
            telemetry: None,
            threads: None,
            chaos: None,
        }
    }
}

impl Args {
    /// Parses the flags of subcommand `cmd` (an experiment, `all` or `list`);
    /// the error names the offending flag and `cmd`.
    pub fn from_args(cmd: &str, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        fn number<T: std::str::FromStr>(v: Option<String>, what: &str) -> Result<T, String> {
            v.and_then(|v| v.parse().ok()).ok_or_else(|| what.to_string())
        }
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => out.seed = number(it.next(), "--seed needs a u64 value")?,
                "--paper-scale" => out.paper_scale = true,
                "--quick" => out.quick = true,
                "--samples" => {
                    let n: NonZeroUsize = number(it.next(), "--samples needs a positive integer")?;
                    out.samples = Some(n.get());
                }
                "--threads" => {
                    let n: NonZeroUsize = number(it.next(), "--threads needs a positive integer")?;
                    out.threads = Some(n.get());
                }
                "--telemetry" => {
                    out.telemetry = Some(it.next().ok_or("--telemetry needs a file path")?);
                }
                "--chaos" => {
                    let class = it.next().ok_or("--chaos needs a fault-class name")?;
                    if !graf_chaos::CATALOG.contains(&class.as_str()) {
                        let known = graf_chaos::CATALOG.join(", ");
                        return Err(format!("unknown --chaos class {class:?}; known: {known}"));
                    }
                    out.chaos = Some(class);
                }
                other => return Err(format!("unknown flag {other} for `{cmd}`")),
            }
        }
        Ok(out)
    }

    /// A telemetry handle honoring `--telemetry`: enabled when a dump path
    /// was given, disabled (all no-ops) otherwise. An unwritable path is an
    /// error now, not after the experiment ran.
    pub fn obs(&self) -> Result<graf_obs::Obs, String> {
        match &self.telemetry {
            Some(path) => {
                std::fs::File::create(path)
                    .map_err(|e| format!("cannot write telemetry to {path}: {e}"))?;
                Ok(graf_obs::Obs::enabled())
            }
            None => Ok(graf_obs::Obs::disabled()),
        }
    }

    /// Picks a value by scale: `quick` < default < `paper`.
    pub fn scaled(&self, quick: usize, normal: usize, paper: usize) -> usize {
        if self.quick {
            quick
        } else if self.paper_scale {
            paper
        } else {
            normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_for(cmd: &str, s: &[&str]) -> Result<Args, String> {
        Args::from_args(cmd, s.iter().map(|v| v.to_string()))
    }

    fn parse(s: &[&str]) -> Args {
        parse_for("all", s).unwrap()
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.seed, 7);
        assert!(!a.paper_scale && !a.quick);
        assert_eq!(a.samples, None);
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--seed", "99", "--paper-scale", "--samples", "1234"]);
        assert_eq!(a.seed, 99);
        assert!(a.paper_scale);
        assert_eq!(a.samples, Some(1234));
    }

    #[test]
    fn telemetry_flag_takes_a_path_and_enables_obs() {
        let off = parse(&[]);
        assert_eq!(off.telemetry, None);
        assert!(!off.obs().unwrap().is_enabled());
        let on = parse(&["--telemetry", "/tmp/t.jsonl"]);
        assert_eq!(on.telemetry.as_deref(), Some("/tmp/t.jsonl"));
        assert!(on.obs().unwrap().is_enabled());
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        assert_eq!(parse(&[]).threads, None);
        assert_eq!(parse(&["--threads", "3"]).threads, Some(3));
        let caught = std::panic::catch_unwind(|| parse(&["--threads", "0"]));
        assert!(caught.is_err(), "--threads 0 must be rejected");
    }

    #[test]
    fn samples_flag_parses_and_rejects_zero() {
        assert_eq!(parse(&["--samples", "5"]).samples, Some(5));
        let err = "--samples needs a positive integer";
        assert_eq!(parse_for("fig21_22_surge_comparison", &["--samples", "0"]).unwrap_err(), err);
    }

    #[test]
    fn chaos_flag_takes_a_catalog_class_and_rejects_any_other() {
        assert_eq!(parse(&[]).chaos, None);
        for &class in graf_chaos::CATALOG {
            assert_eq!(parse(&["--chaos", class]).chaos.as_deref(), Some(class));
        }
        let err = parse_for("chaos_matrix", &["--chaos", "trace-drop"]).unwrap_err();
        assert!(err.contains("unknown --chaos class \"trace-drop\""), "{err}");
        assert!(err.contains("trace_drop") && err.contains("latency_spike"), "lists the classes");
    }

    #[test]
    fn scaled_picks_by_mode() {
        assert_eq!(parse(&["--quick"]).scaled(1, 2, 3), 1);
        assert_eq!(parse(&[]).scaled(1, 2, 3), 2);
        assert_eq!(parse(&["--paper-scale"]).scaled(1, 2, 3), 3);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse(&["--frobnicate"]);
    }

    #[test]
    #[should_panic(expected = "cannot write telemetry")]
    fn unwritable_telemetry_path_fails_before_the_run() {
        parse(&["--telemetry", "/nonexistent-dir/t.jsonl"]).obs().unwrap();
    }

    #[test]
    fn a_flag_on_the_wrong_subcommand_is_rejected_by_name() {
        // The flags of the deleted sweep and of its revision history are
        // unknown to every subcommand.
        let gone = [
            "--grid",
            "--out",
            "--workers",
            "--history",
            "--rev",
            "--gate",
            "--threshold",
            "--strict",
        ];
        for flag in gone {
            let err = parse_for("fig17_slo_targeting", &[flag, "x"]).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag} for `fig17")), "{err}");
        }
    }
}
