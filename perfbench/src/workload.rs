//! The contract every workload implements, and the pass that drives one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dhl_obs::MetricsSnapshot;

use crate::trace::Tracer;

/// Per-layer counts a workload reads off its outcome, keyed by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// What the timed phase of one pass returns.
pub struct Timed<O> {
    pub outcome: Result<O, String>,
    /// Host time of the timed phase, seconds.
    pub timed_s: f64,
    /// Top-level operations attempted: one mission, one serve run, or one
    /// checkpoint cycle each.
    pub ops: u64,
    /// Host latency of each operation, µs.
    pub latencies_us: Vec<f64>,
}

/// One workload: built from a seed, it sets up its inputs, runs a timed
/// phase on them, and checks what the program returned.
pub trait Workload {
    type Input;
    type Outcome;

    /// Everything before the timed phase: config, placement, the simulator
    /// or scheduler, and the arrival stream.
    fn setup(&self, tr: &mut Tracer) -> Result<Self::Input, String>;

    /// The timed phase. `metrics_on = false` turns the library's metric
    /// recording off before the clock starts.
    fn run(&self, input: Self::Input, metrics_on: bool, tr: &mut Tracer) -> Timed<Self::Outcome>;

    /// The output check; an `Err` fails every operation of the pass.
    fn check(&self, outcome: &Self::Outcome) -> Result<(), String>;

    /// Units of work the timed phase did: simulated events or requests.
    fn work(&self, outcome: &Self::Outcome) -> u64;

    /// The observability snapshot the program returned with its outcome.
    fn snapshot<'a>(&self, outcome: &'a Self::Outcome) -> &'a MetricsSnapshot;

    /// A digest of every simulated statistic in the outcome.
    fn digest(&self, outcome: &Self::Outcome) -> u64;

    /// Per-layer counts read off the outcome.
    fn counts(&self, outcome: &Self::Outcome, counts: &mut Counts);
}

/// A successful pass: setup, timed phase, snapshot export and check.
pub struct Pass {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Host time of the whole pass, seconds.
    pub wall_s: f64,
    pub work: u64,
    pub ops: u64,
    pub latencies_us: Vec<f64>,
    pub digest: u64,
    pub counts: Counts,
}

/// A failed pass: how many operations it attempted, and why it failed.
pub struct Failure {
    pub ops: u64,
    pub reason: String,
}

/// Runs one pass of `w` under a `bench.op` root span. A panic inside the
/// library fails the pass like an `Err` does.
pub fn pass<W: Workload>(
    w: &W,
    tr: &mut Tracer,
    traced: bool,
    metrics_on: bool,
) -> Result<Pass, Failure> {
    tr.set_enabled(traced);
    let start = Instant::now();
    tr.open("bench.op");
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<Pass, Failure> {
        let fail = |ops: u64| move |reason: String| Failure { ops, reason };
        let input = w.setup(tr).map_err(fail(1))?;
        let setup_s = start.elapsed().as_secs_f64();
        let timed = w.run(input, metrics_on, tr);
        let ops = timed.ops.max(1);
        let outcome = timed.outcome.map_err(fail(ops))?;
        tr.span("obs.snapshot_export", || {
            black_box(w.snapshot(&outcome).to_ndjson());
        });
        w.check(&outcome).map_err(fail(ops))?;
        let mut counts = Counts::new();
        w.counts(&outcome, &mut counts);
        Ok(Pass {
            setup_s,
            timed_s: timed.timed_s,
            wall_s: 0.0,
            work: w.work(&outcome),
            ops,
            latencies_us: timed.latencies_us,
            digest: w.digest(&outcome),
            counts,
        })
    }));
    tr.close_all();
    let wall_s = start.elapsed().as_secs_f64();
    match result {
        Ok(Ok(p)) => Ok(Pass { wall_s, ..p }),
        Ok(Err(f)) => Err(f),
        Err(_) => Err(Failure {
            ops: 1,
            reason: "the pass panicked".into(),
        }),
    }
}
