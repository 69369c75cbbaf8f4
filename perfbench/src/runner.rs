//! The two measurement modes.
//!
//! - **End to end** (`--trace 0`): untraced passes back to back for the
//!   run's duration; timings are medians over passes.
//! - **Traced** (`--trace 1`): first traced and untraced passes in
//!   alternating pairs (per-layer times come from the traced ones, the
//!   tracing overhead from the pairs), then metrics-on and metrics-off
//!   passes in alternating pairs for the observability tax.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, peak_rss_mib, quantile, ratio};
use crate::trace::Tracer;
use crate::workload::{pass, Counts, Pass, Workload};

/// Every run measures at least this many passes, however short.
const MIN_PASSES: usize = 3;
/// Set-ups run on their own after each pass, besides the pass's own.
const EXTRA_SETUPS: usize = 4;

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// What one run prints.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The digest every successful pass's simulated outputs agreed on.
    pub digest: Option<u64>,
    /// `(name, unit, value)` in the order of the metric list.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Runs passes and keeps the failure tally and the output digest.
struct Runner<'a, W: Workload> {
    w: &'a W,
    tr: Tracer,
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl<'a, W: Workload> Runner<'a, W> {
    fn new(w: &'a W) -> Self {
        Self {
            w,
            tr: Tracer::new(),
            attempted: 0,
            failed: 0,
            digest: None,
        }
    }

    /// One pass; `None` if it failed. A pass whose outputs digest
    /// differently from the first pass's fails: the same inputs must give
    /// bit-identical simulated outputs.
    fn pass(&mut self, traced: bool, metrics_on: bool) -> Option<Pass> {
        match pass(self.w, &mut self.tr, traced, metrics_on) {
            Ok(p) => {
                self.attempted += p.ops;
                if *self.digest.get_or_insert(p.digest) != p.digest {
                    self.failed += p.ops;
                    eprintln!("pass failed: simulated outputs differ from the first pass");
                    return None;
                }
                Some(p)
            }
            Err(f) => {
                self.attempted += f.ops;
                self.failed += f.ops;
                eprintln!("pass failed: {}", f.reason);
                None
            }
        }
    }

    fn report(self, metrics: Vec<(&'static str, &'static str, f64)>) -> (Report, Tracer) {
        let report = Report {
            attempted: self.attempted,
            failed: self.failed,
            digest: self.digest,
            metrics,
        };
        (report, self.tr)
    }
}

/// `values` in the order of `list`; a listed metric the run did not
/// produce reads 0.
fn in_order(
    list: &[(&'static str, &'static str)],
    mut values: BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let out = list
        .iter()
        .map(|&(name, unit)| (name, unit, values.remove(name).unwrap_or(0.0)))
        .collect();
    assert!(
        values.is_empty(),
        "metrics missing from the metric list: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    out
}

/// The end-to-end run: `--trace 0`.
pub fn end_to_end<W: Workload>(w: &W, seconds: f64) -> (Report, Tracer) {
    let mut r = Runner::new(w);
    let start = Instant::now();
    // Warm-up: caches, allocator pools and lazy set-up settle before timing.
    r.pass(false, true);

    // Host times are put at the calibration kernel's nominal speed, by the
    // kernel samples taken around each pass (see `calib`).
    let mut speed = calib::Speed::new();
    speed.sample();
    // Per pass: (run time at its midpoint, set-up s, timed s, work, mean
    // operation latency µs). Each pass is followed by a few set-ups on
    // their own, so `setup_s` has many samples spread over the run.
    let mut passes_at = Vec::new();
    let mut setup_at = Vec::new();
    let mut passes = 0;
    while passes < MIN_PASSES || secs_since(start) < seconds {
        passes += 1;
        let at = speed.now();
        if let Some(p) = r.pass(false, true) {
            let mid = (at + speed.now()) / 2.0;
            let op_us = ratio(p.latencies_us.iter().sum(), p.latencies_us.len() as f64);
            passes_at.push((mid, p.setup_s, p.timed_s, p.work, op_us));
        }
        for _ in 0..EXTRA_SETUPS {
            let at = speed.now();
            let t = Instant::now();
            let input = w.setup(&mut r.tr);
            setup_at.push((at, secs_since(t)));
            drop(input);
        }
        speed.sample_if_due();
    }
    speed.sample();

    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut op_us = Vec::new();
    let mut raw_setup = Vec::new();
    let mut raw_rates = Vec::new();
    for &(at, s) in &setup_at {
        raw_setup.push(s);
        setup.push(s * speed.scale_at(at));
    }
    for &(at, setup_s, timed_s, work, op) in &passes_at {
        let scale = speed.scale_at(at);
        raw_setup.push(setup_s);
        raw_rates.push(ratio(work as f64, timed_s));
        setup.push(setup_s * scale);
        rates.push(ratio(work as f64, timed_s * scale));
        op_us.push(op * scale);
    }
    eprintln!(
        "raw {{\"setup_s\": {}, \"throughput_per_s\": {}, \"kernel_us\": {}}}",
        median(&mut raw_setup),
        median(&mut raw_rates),
        speed.median_s() * 1e6
    );

    let values = BTreeMap::from([
        ("setup_s", median(&mut setup)),
        ("throughput_per_s", median(&mut rates)),
        ("op_mean_us", median(&mut op_us)),
        ("peak_rss_mib", peak_rss_mib()),
    ]);
    let metrics = in_order(END_TO_END, values);
    r.report(metrics)
}

/// The traced run: `--trace 1`.
pub fn traced<W: Workload>(w: &W, seconds: f64) -> (Report, Tracer) {
    let mut r = Runner::new(w);
    let start = Instant::now();
    r.pass(false, true);

    // Traced and untraced passes in pairs, alternating which goes first.
    let mut overhead = Vec::new();
    let mut pauses = Vec::new();
    let mut counts = Counts::new();
    let mut traced_passes = 0u32;
    let mut pair = 0;
    while pair < MIN_PASSES || secs_since(start) < seconds / 2.0 {
        let order = [pair % 2 == 0, pair % 2 == 1];
        pair += 1;
        let [a, b] = order.map(|traced| (traced, r.pass(traced, true)));
        for (traced, p) in [&a, &b] {
            if let (true, Some(p)) = (traced, p) {
                traced_passes += 1;
                counts.clone_from(&p.counts);
            }
        }
        if let ((_, Some(pa)), (_, Some(pb))) = (&a, &b) {
            let (t, u) = if a.0 { (pa, pb) } else { (pb, pa) };
            overhead.push(t.wall_s / u.wall_s);
            pauses.extend(pa.latencies_us.iter().chain(&pb.latencies_us));
        }
    }

    // Metrics-on and metrics-off passes in pairs, alternating order.
    let mut tax = Vec::new();
    let mut pair = 0;
    while pair < MIN_PASSES || secs_since(start) < seconds {
        let order = [pair % 2 == 0, pair % 2 == 1];
        pair += 1;
        let [a, b] = order.map(|on| (on, r.pass(false, on)));
        if let ((_, Some(pa)), (_, Some(pb))) = (&a, &b) {
            let (on, off) = if a.0 { (pa, pb) } else { (pb, pa) };
            tax.push(on.timed_s / off.timed_s);
        }
    }

    let mut values = layer_values(&r.tr, &counts, f64::from(traced_passes));
    if counts.get("sim.checkpoint.cycles").copied().unwrap_or(0.0) > 0.0 {
        values.insert("sim.checkpoint.pause_samples", pauses.len() as f64);
        values.insert("sim.checkpoint.pause_p50_us", quantile(&mut pauses, 0.5));
        values.insert("sim.checkpoint.pause_p99_us", quantile(&mut pauses, 0.99));
    }
    values.insert("bench.trace_overhead_frac", median(&mut overhead) - 1.0);
    values.insert("obs.metrics_tax_frac", median(&mut tax) - 1.0);
    values.insert("bench.traced_passes", f64::from(traced_passes));
    values.insert("bench.tax_pairs", tax.len() as f64);
    let metrics = in_order(PER_LAYER, values);
    r.report(metrics)
}

/// Per-layer values from the recorded spans (averaged per traced pass)
/// and the counts of the last traced pass.
fn layer_values(tr: &Tracer, counts: &Counts, passes: f64) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> = counts.clone();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let spans = tr.by_name();
    let total_ns = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| spans.get(n))
            .map(|&(ns, _)| ns as f64)
            .sum()
    };
    let per_pass_s = |names: &[&str]| ratio(total_ns(names) * 1e-9, passes);

    for (metric, span) in [
        ("sim.system.new_s", "sim.system.new"),
        ("sim.system.begin_s", "sim.system.begin"),
        ("sim.system.run_until_s", "sim.system.run_until"),
        ("sim.system.finish_s", "sim.system.finish"),
        ("sim.checkpoint.capture_s", "sim.checkpoint.capture"),
        ("sim.checkpoint.encode_s", "sim.checkpoint.encode"),
        ("sim.checkpoint.decode_s", "sim.checkpoint.decode"),
        ("sim.checkpoint.resume_s", "sim.checkpoint.resume"),
        ("sim.arrivals.gen_s", "sim.arrivals.generate"),
        ("sched.scheduler.new_s", "sched.scheduler.new"),
        ("sched.scheduler.submit_s", "sched.scheduler.submit"),
        ("sched.scheduler.run_s", "sched.scheduler.run"),
        ("obs.snapshot_export_s", "obs.snapshot_export"),
    ] {
        v.insert(metric, per_pass_s(&[span]));
    }
    let calls = spans.get("sim.system.run_until").map_or(0, |&(_, n)| n);
    v.insert("sim.system.run_until_calls", ratio(calls as f64, passes));
    v.insert(
        "sim.engine.ns_per_event",
        ratio(
            total_ns(&["sim.system.run_until"]),
            count("sim.engine.events") * passes,
        ),
    );
    let json_mib = count("sim.checkpoint.json_bytes") * count("sim.checkpoint.cycles") * passes
        / (1024.0 * 1024.0);
    for (metric, span) in [
        ("sim.checkpoint.encode_mib_per_s", "sim.checkpoint.encode"),
        ("sim.checkpoint.decode_mib_per_s", "sim.checkpoint.decode"),
    ] {
        v.insert(metric, ratio(json_mib, total_ns(&[span]) * 1e-9));
    }
    v.insert(
        "sim.arrivals.ns_per_arrival",
        ratio(
            total_ns(&["sim.arrivals.generate"]),
            count("sim.arrivals.arrivals") * passes,
        ),
    );
    v.insert(
        "sched.scheduler.ns_per_request",
        ratio(
            total_ns(&["sched.scheduler.submit", "sched.scheduler.run"]),
            count("sched.scheduler.requests") * passes,
        ),
    );

    let self_ns = tr.self_ns_by_layer();
    let all_ns: u64 = self_ns.values().sum();
    for (layer, &ns) in &self_ns {
        let metric = match *layer {
            "sim.system" => "sim.system.self_s",
            "sim.checkpoint" => "sim.checkpoint.self_s",
            "sim.arrivals" => "sim.arrivals.self_s",
            "sched.placement" => "sched.placement.self_s",
            "sched.scheduler" => "sched.scheduler.self_s",
            "obs" => "obs.self_s",
            "bench" => "bench.self_s",
            other => panic!("span layer {other} has no self-time metric"),
        };
        v.insert(metric, ratio(ns as f64 * 1e-9, passes));
    }
    let bench_ns = self_ns.get("bench").copied().unwrap_or(0);
    v.insert(
        "bench.layer_coverage_frac",
        ratio(all_ns.saturating_sub(bench_ns) as f64, all_ns as f64),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::valid_name;
    use crate::serve::{ServeClosed, ServeOpen};
    use crate::sim::{BulkFleet, CkptResume};

    fn check_report(report: &Report, list: &[(&str, &str)]) {
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= MIN_PASSES as u64);
        assert!(report.digest.is_some());
        let names: Vec<_> = report.metrics.iter().map(|m| m.0).collect();
        let listed: Vec<_> = list.iter().map(|m| m.0).collect();
        assert_eq!(names, listed);
        for (name, _, value) in &report.metrics {
            assert!(valid_name(name));
            assert!(value.is_finite(), "{name} = {value}");
        }
    }

    fn both_modes<W: Workload>(w: &W) -> BTreeMap<&'static str, f64> {
        let (e2e, _) = end_to_end(w, 0.0);
        check_report(&e2e, END_TO_END);
        for (name, _, value) in &e2e.metrics {
            assert!(*value > 0.0, "end-to-end {name} must never be 0");
        }
        let (layers, tr) = traced(w, 0.0);
        check_report(&layers, PER_LAYER);
        assert_eq!(layers.digest, e2e.digest, "digest repeats across runs");
        assert!(!tr.spans().is_empty());
        layers.metrics.iter().map(|m| (m.0, m.2)).collect()
    }

    #[test]
    fn bulk_fleet_runs_in_both_modes() {
        let v = both_modes(&BulkFleet::small(1));
        assert!(v["sim.engine.events"] > 0.0);
        assert!(v["sim.system.run_until_s"] > 0.0);
        assert_eq!(v["sim.checkpoint.cycles"], 0.0);
    }

    #[test]
    fn ckpt_resume_runs_in_both_modes() {
        let v = both_modes(&CkptResume::small(1).unwrap());
        assert!(v["sim.checkpoint.cycles"] > 0.0);
        assert!(v["sim.checkpoint.pause_p99_us"] > 0.0);
        assert!(v["sim.checkpoint.json_bytes"] > 0.0);
    }

    #[test]
    fn serve_open_runs_in_both_modes() {
        let v = both_modes(&ServeOpen::small(1));
        assert!(v["sched.admission.offered"] > 0.0);
        assert!(v["sched.scheduler.run_s"] > 0.0);
        assert_eq!(v["sim.engine.events"], 0.0);
    }

    #[test]
    fn serve_closed_runs_in_both_modes() {
        let v = both_modes(&ServeClosed::small(1));
        assert!(v["sched.round_trip.deliveries"] > 0.0);
        assert_eq!(v["sched.admission.offered"], 0.0);
    }

    /// A workload whose outcome is corrupted after the program returned it:
    /// every pass must count as failed.
    struct Corrupted(BulkFleet);

    impl Workload for Corrupted {
        type Input = <BulkFleet as Workload>::Input;
        type Outcome = <BulkFleet as Workload>::Outcome;

        fn setup(&self, tr: &mut Tracer) -> Result<Self::Input, String> {
            self.0.setup(tr)
        }

        fn run(
            &self,
            input: Self::Input,
            metrics_on: bool,
            tr: &mut Tracer,
        ) -> crate::workload::Timed<Self::Outcome> {
            let mut timed = self.0.run(input, metrics_on, tr);
            if let Ok(o) = &mut timed.outcome {
                crate::sim::tests::corrupt(o);
            }
            timed
        }

        fn check(&self, o: &Self::Outcome) -> Result<(), String> {
            self.0.check(o)
        }

        fn work(&self, o: &Self::Outcome) -> u64 {
            self.0.work(o)
        }

        fn snapshot<'b>(&self, o: &'b Self::Outcome) -> &'b dhl_obs::MetricsSnapshot {
            self.0.snapshot(o)
        }

        fn digest(&self, o: &Self::Outcome) -> u64 {
            self.0.digest(o)
        }

        fn counts(&self, o: &Self::Outcome, c: &mut Counts) {
            self.0.counts(o, c);
        }
    }

    #[test]
    fn a_corrupted_outcome_counts_as_failed() {
        let (report, _) = end_to_end(&Corrupted(BulkFleet::small(2)), 0.0);
        assert!(report.attempted > 0);
        assert_eq!(report.failed, report.attempted);
    }
}
