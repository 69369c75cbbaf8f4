//! The metric names the benchmark prints, with their units. These lists
//! and `BENCHMARK.json` at the repository root must name the same metrics;
//! a test keeps them in step.

/// Printed with `--trace 0`, for every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_mean_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Printed with `--trace 1`, for every workload. A layer the workload does
/// not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sim.system / sim.engine
    ("sim.system.new_s", "s"),
    ("sim.system.begin_s", "s"),
    ("sim.system.run_until_s", "s"),
    ("sim.system.run_until_calls", "count"),
    ("sim.system.finish_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.system.movements", "count"),
    ("sim.system.deliveries", "count"),
    ("sim.system.max_carts_in_flight", "count"),
    ("sim.system.track_busy_frac", "ratio"),
    ("sim.system.useful_delivery_ratio", "ratio"),
    ("sim.faults.cart_stalls", "count"),
    ("sim.faults.repressurisations", "count"),
    ("sim.faults.dock_crashes", "count"),
    ("sim.faults.redeliveries", "count"),
    ("sim.integrity.shards_scanned", "count"),
    ("sim.integrity.reshipped", "count"),
    // sim.checkpoint
    ("sim.checkpoint.cycles", "count"),
    ("sim.checkpoint.capture_s", "s"),
    ("sim.checkpoint.encode_s", "s"),
    ("sim.checkpoint.decode_s", "s"),
    ("sim.checkpoint.resume_s", "s"),
    ("sim.checkpoint.json_bytes", "B"),
    ("sim.checkpoint.encode_mib_per_s", "MiB/s"),
    ("sim.checkpoint.decode_mib_per_s", "MiB/s"),
    ("sim.checkpoint.pause_p50_us", "us"),
    ("sim.checkpoint.pause_p99_us", "us"),
    ("sim.checkpoint.pause_samples", "count"),
    // sim.arrivals
    ("sim.arrivals.arrivals", "count"),
    ("sim.arrivals.gen_s", "s"),
    ("sim.arrivals.ns_per_arrival", "ns"),
    // sched.scheduler (admission and service_queue run inside try_run)
    ("sched.scheduler.requests", "count"),
    ("sched.scheduler.new_s", "s"),
    ("sched.scheduler.submit_s", "s"),
    ("sched.scheduler.run_s", "s"),
    ("sched.scheduler.ns_per_request", "ns"),
    ("sched.scheduler.track_utilisation", "ratio"),
    // sched.admission
    ("sched.admission.offered", "count"),
    ("sched.admission.admitted", "count"),
    ("sched.admission.rejected", "count"),
    ("sched.admission.shed", "count"),
    ("sched.admission.admit_ratio", "ratio"),
    ("sched.admission.deadline_hit_ratio", "ratio"),
    // the cart round trip inside sched.scheduler
    ("sched.round_trip.deliveries", "count"),
    ("sched.round_trip.redeliveries", "count"),
    ("sched.round_trip.reshipments", "count"),
    ("sched.round_trip.dock_crashes", "count"),
    ("sched.round_trip.abandoned", "count"),
    ("sched.round_trip.useful_ratio", "ratio"),
    // obs
    ("obs.metrics_tax_frac", "ratio"),
    ("obs.snapshot_export_s", "s"),
    // self time per layer, per traced pass
    ("sim.system.self_s", "s"),
    ("sim.checkpoint.self_s", "s"),
    ("sim.arrivals.self_s", "s"),
    ("sched.placement.self_s", "s"),
    ("sched.scheduler.self_s", "s"),
    ("obs.self_s", "s"),
    ("bench.self_s", "s"),
    // the benchmark's own checks
    ("bench.layer_coverage_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.traced_passes", "count"),
    ("bench.tax_pairs", "count"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhl_obs::json::{parse, JsonValue};
    use std::collections::BTreeSet;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
            assert!(seen.insert(*name), "metric {name} listed twice");
        }
        assert!(!valid_name("sim system"));
        assert!(!valid_name(""));
    }

    /// `BENCHMARK.json` lists exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = parse(&text).expect("BENCHMARK.json parses");
        for (key, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(JsonValue::Array(rows)) = root.get(key) else {
                panic!("BENCHMARK.json has no {key} array");
            };
            let listed: Vec<(String, String)> = rows
                .iter()
                .map(|r| {
                    let field = |f: &str| match r.get(f) {
                        Some(JsonValue::String(s)) => s.clone(),
                        other => panic!("{key} row field {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed, printed, "{key} in BENCHMARK.json");
        }
    }
}
