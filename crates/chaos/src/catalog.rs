//! The named fault catalog: one canonical parameterization per fault class.
//!
//! Experiment harnesses address faults by their stable names (the same names
//! [`FaultKind::name`] reports) so a fault class can be a CLI flag value
//! (`graf-exp chaos_matrix --chaos <class>`). The parameterizations here are
//! the chaos-matrix severities: hard enough that a policy difference shows,
//! survivable enough that the ladder's graceful path stays measurable.

use graf_sim::time::SimDuration;
use graf_sim::topology::ServiceId;

use crate::spec::FaultKind;

/// Every catalog name, in table order. `"none"` is the explicit no-fault
/// cell: it keeps the baseline row in the chaos matrix's report.
pub const CATALOG: &[&str] = &[
    "none",
    "trace_drop",
    "metric_nan",
    "metric_stale",
    "stale_model",
    "creation_fail",
    "slow_start",
    "latency_spike",
];

/// Resolves a catalog name to its canonical fault set. `hot_service` is the
/// service a `latency_spike` lands on (harnesses point it at the hottest
/// service of the topology under test). Returns `None` for unknown names;
/// `"none"` resolves to an empty set.
pub fn named_faults(name: &str, hot_service: ServiceId) -> Option<Vec<FaultKind>> {
    let faults = match name {
        "none" => vec![],
        "trace_drop" => vec![FaultKind::TraceDrop { drop_prob: 0.75 }],
        "metric_nan" => vec![FaultKind::MetricNan],
        "metric_stale" => {
            vec![FaultKind::MetricStale { delay: SimDuration::from_secs(60.0) }]
        }
        "stale_model" => vec![FaultKind::StaleModel],
        "creation_fail" => vec![FaultKind::CreationFail { prob: 1.0 }],
        "slow_start" => vec![FaultKind::SlowStart { factor: 4.0 }],
        "latency_spike" => {
            vec![FaultKind::LatencySpike { service: hot_service, factor: 3.0 }]
        }
        _ => return None,
    };
    Some(faults)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_name_resolves() {
        for name in CATALOG {
            let faults = named_faults(name, ServiceId(2)).unwrap_or_else(|| {
                panic!("catalog name {name:?} does not resolve");
            });
            if *name == "none" {
                assert!(faults.is_empty());
            } else {
                assert_eq!(faults.len(), 1);
                assert_eq!(faults[0].name(), *name, "name round-trips through FaultKind::name");
            }
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(named_faults("bogus", ServiceId(0)).is_none());
    }

    #[test]
    fn latency_spike_targets_the_requested_service() {
        let faults = named_faults("latency_spike", ServiceId(5)).unwrap();
        assert!(matches!(faults[0], FaultKind::LatencySpike { service: ServiceId(5), .. }));
    }
}
