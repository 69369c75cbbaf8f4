//! The two scheduler workloads: `serve_open` (admission and the service
//! queue) and `serve_closed` (the closed-loop round trip with every fault
//! stream on).

use std::time::Instant;

use dhl_obs::MetricsSnapshot;
use dhl_sched::{
    AdmissionSpec, DatasetId, DockRecoveryAwareness, FaultAwareness, IntegrityAwareness,
    OverloadPolicy, Placement, Policy, Priority, ScheduleOutcome, Scheduler, TenantId,
    TransferRequest,
};
use dhl_sim::{Arrival, ArrivalGenerator, ArrivalSpec, DockControllerFaultSpec, SimConfig};
use dhl_storage::datasets;
use dhl_units::Seconds;

use crate::stats::{derive_seed, ratio, Digest};
use crate::trace::Tracer;
use crate::workload::{Counts, Timed, Workload};

const ARRIVAL_SALT: u64 = 0x5E2_0001;
const ADMISSION_SALT: u64 = 0x5E2_0002;
const LOSS_SALT: u64 = 0x5E2_0003;
const RESHIP_SALT: u64 = 0x5E2_0004;
const DOCK_SALT: u64 = 0x5E2_0005;

/// One cart round trip on the paper-default single track (2 × 8.6 s): the
/// track serves at most one single-cart request per this many seconds.
const ROUND_TRIP_S: f64 = 17.2;

/// The priority classes cycle through the arrival stream.
fn priority(i: usize) -> Priority {
    match i % 3 {
        0 => Priority::Background,
        1 => Priority::Normal,
        _ => Priority::Urgent,
    }
}

/// Every simulated statistic of a schedule, bit for bit.
fn outcome_digest(o: &ScheduleOutcome) -> u64 {
    let mut d = Digest::new();
    d.f64(o.makespan.value())
        .f64(o.total_energy.value())
        .f64(o.track_utilisation);
    for r in &o.completed {
        d.u64(r.id.0)
            .f64(r.started.value())
            .f64(r.delivered.value())
            .f64(r.completed.value())
            .u64(r.deliveries)
            .f64(r.energy.value())
            .u64(r.redeliveries)
            .u64(r.reshipments)
            .u64(r.abandoned)
            .u64(r.dock_crashes);
    }
    if let Some(a) = &o.admission {
        d.u64(a.offered)
            .u64(a.admitted)
            .u64(a.served)
            .u64(a.rejected_queue_full)
            .u64(a.rejected_deadline)
            .u64(a.rejected_backpressure)
            .u64(a.shed)
            .u64(a.degraded)
            .u64(a.retries)
            .u64(a.abandoned_shards)
            .u64(a.deadline_hits)
            .u64(a.deadline_misses)
            .f64(a.delivered_bytes)
            .f64(a.goodput_bytes_per_s);
        for id in a.rejected_ids.iter().chain(&a.shed_ids) {
            d.u64(id.0);
        }
        for t in &a.tenants {
            d.u64(u64::from(t.tenant.0))
                .u64(t.offered)
                .u64(t.admitted)
                .u64(t.served)
                .u64(t.rejected)
                .u64(t.shed)
                .u64(t.deadline_hits)
                .u64(t.deadline_misses)
                .f64(t.delivered_bytes);
        }
    }
    d.finish()
}

/// `sched.scheduler` and round-trip counts of a schedule over `requests`
/// submitted requests.
fn outcome_counts(o: &ScheduleOutcome, requests: usize, c: &mut Counts) {
    c.insert("sched.scheduler.requests", requests as f64);
    c.insert("sched.scheduler.track_utilisation", o.track_utilisation);
    let sum = |f: fn(&dhl_sched::RequestOutcome) -> u64| -> f64 {
        o.completed.iter().map(f).sum::<u64>() as f64
    };
    let deliveries = sum(|r| r.deliveries);
    let redeliveries = sum(|r| r.redeliveries);
    let reshipments = sum(|r| r.reshipments);
    let abandoned = sum(|r| r.abandoned);
    c.insert("sched.round_trip.deliveries", deliveries);
    c.insert("sched.round_trip.redeliveries", redeliveries);
    c.insert("sched.round_trip.reshipments", reshipments);
    c.insert("sched.round_trip.dock_crashes", sum(|r| r.dock_crashes));
    c.insert("sched.round_trip.abandoned", abandoned);
    c.insert(
        "sched.round_trip.useful_ratio",
        ratio(
            deliveries,
            deliveries + redeliveries + reshipments + abandoned,
        ),
    );
}

/// The scheduler's input: the scheduler itself, the generated arrivals,
/// and the datasets requests name.
pub struct ServeInput {
    sched: Scheduler,
    arrivals: Vec<Arrival>,
    small: DatasetId,
    big: DatasetId,
}

pub struct ServeOutcome {
    outcome: ScheduleOutcome,
    arrivals: Vec<Arrival>,
}

/// Builds placement, scheduler (via `configure`) and arrival stream.
fn serve_setup(
    tr: &mut Tracer,
    spec: &ArrivalSpec,
    count: usize,
    configure: impl FnOnce(Scheduler) -> Scheduler,
) -> Result<ServeInput, String> {
    let cfg = SimConfig::paper_default();
    let (placement, small, big) = tr.span("sched.placement.store", || {
        let mut p = Placement::new(cfg.cart_capacity);
        let small = p.store(datasets::laion_5b()); // 1 cart
        let big = p.store(datasets::common_crawl()); // 36 carts
        (p, small, big)
    });
    let sched = tr
        .span("sched.scheduler.new", || {
            Scheduler::new(cfg, placement).map(configure)
        })
        .map_err(|e| e.to_string())?;
    let arrivals = tr.span("sim.arrivals.generate", || {
        ArrivalGenerator::new(spec).take(count).collect::<Vec<_>>()
    });
    Ok(ServeInput {
        sched,
        arrivals,
        small,
        big,
    })
}

/// Submits one request per arrival and runs the scheduler: the timed
/// phase of both serve workloads. `big_every` = k sends every k-th request
/// for the 36-cart dataset (0: never).
fn serve_run(
    input: ServeInput,
    metrics_on: bool,
    big_every: usize,
    tr: &mut Tracer,
) -> Timed<ServeOutcome> {
    let ServeInput {
        mut sched,
        arrivals,
        small,
        big,
    } = input;
    if !metrics_on {
        sched.set_metrics_enabled(false);
    }
    let start = Instant::now();
    tr.span("sched.scheduler.submit", || {
        for (i, a) in arrivals.iter().enumerate() {
            let dataset = if big_every > 0 && i % big_every == 0 {
                big
            } else {
                small
            };
            let mut req =
                TransferRequest::new(dataset, 1, priority(i), a.at).with_tenant(TenantId(a.tenant));
            if let Some(deadline) = a.deadline {
                req = req.with_deadline(deadline);
            }
            sched.submit(req);
        }
    });
    let outcome = tr.span("sched.scheduler.run", || sched.try_run());
    let timed_s = start.elapsed().as_secs_f64();
    tr.span("sched.scheduler.drop", || drop(sched));
    Timed {
        outcome: outcome
            .map(|outcome| ServeOutcome { outcome, arrivals })
            .map_err(|e| e.to_string()),
        timed_s,
        ops: 1,
        latencies_us: vec![timed_s * 1e6],
    }
}

/// `serve_open`: open-loop Poisson arrivals over 64 tenants at 3.5x track
/// capacity with deadlines, deadline-aware admission, `PriorityFifo`, and
/// rejection at a 65,536-deep pending bound. No fault streams.
pub struct ServeOpen {
    seed: u64,
    arrivals: usize,
}

impl ServeOpen {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            arrivals: 25_000,
        }
    }

    /// A scaled-down stream of the same shape, for tests.
    #[cfg(test)]
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            arrivals: 5_000,
        }
    }

    fn arrival_spec(&self) -> ArrivalSpec {
        ArrivalSpec::poisson(
            3.5 / ROUND_TRIP_S,
            Seconds::new(1e15),
            derive_seed(self.seed, ARRIVAL_SALT),
        )
        .with_tenants(64)
        .with_deadlines(Seconds::new(1e5), 0.5)
    }

    fn admission(&self) -> AdmissionSpec {
        AdmissionSpec {
            max_pending_global: 1 << 16,
            max_pending_per_tenant: 1 << 16,
            policy: OverloadPolicy::Reject,
            deadline_aware: true,
            seed: derive_seed(self.seed, ADMISSION_SALT),
            ..AdmissionSpec::default()
        }
    }
}

impl Workload for ServeOpen {
    type Input = ServeInput;
    type Outcome = ServeOutcome;

    fn setup(&self, tr: &mut Tracer) -> Result<ServeInput, String> {
        let admission = self.admission();
        serve_setup(tr, &self.arrival_spec(), self.arrivals, |s| {
            s.with_policy(Policy::PriorityFifo)
                .with_admission(admission)
        })
    }

    fn run(&self, input: ServeInput, metrics_on: bool, tr: &mut Tracer) -> Timed<ServeOutcome> {
        serve_run(input, metrics_on, 0, tr)
    }

    fn check(&self, o: &ServeOutcome) -> Result<(), String> {
        let a = o
            .outcome
            .admission
            .as_ref()
            .ok_or("open-loop run returned no admission report")?;
        let fail = |what: &str| Err(format!("admission accounting: {what}"));
        if a.offered != o.arrivals.len() as u64 {
            return fail("offered != requests submitted");
        }
        if a.offered != a.admitted + a.rejected() {
            return fail("offered != admitted + rejected");
        }
        if a.admitted != a.served + a.shed {
            return fail("admitted != served + shed");
        }
        if o.outcome.completed.len() as u64 != a.served {
            return fail("completed rows != served");
        }
        let total = |f: fn(&dhl_sched::TenantSlo) -> u64| a.tenants.iter().map(f).sum::<u64>();
        if total(|t| t.offered) != a.offered
            || total(|t| t.admitted) != a.admitted
            || total(|t| t.rejected) != a.rejected()
            || total(|t| t.served) != a.served
            || total(|t| t.shed) != a.shed
        {
            return fail("per-tenant rows do not sum to the totals");
        }
        Ok(())
    }

    fn work(&self, o: &ServeOutcome) -> u64 {
        o.arrivals.len() as u64
    }

    fn snapshot<'a>(&self, o: &'a ServeOutcome) -> &'a MetricsSnapshot {
        &o.outcome.metrics
    }

    fn digest(&self, o: &ServeOutcome) -> u64 {
        outcome_digest(&o.outcome)
    }

    fn counts(&self, o: &ServeOutcome, c: &mut Counts) {
        outcome_counts(&o.outcome, o.arrivals.len(), c);
        c.insert("sim.arrivals.arrivals", o.arrivals.len() as f64);
        if let Some(a) = &o.outcome.admission {
            c.insert("sched.admission.offered", a.offered as f64);
            c.insert("sched.admission.admitted", a.admitted as f64);
            c.insert("sched.admission.rejected", a.rejected() as f64);
            c.insert("sched.admission.shed", a.shed as f64);
            c.insert(
                "sched.admission.admit_ratio",
                ratio(a.admitted as f64, a.offered as f64),
            );
            c.insert("sched.admission.deadline_hit_ratio", a.deadline_hit_ratio());
        }
    }
}

/// `serve_closed`: a closed-loop batch with no admission spec; one request
/// in 7 is the 36-cart Common Crawl dataset, `ShortestJobFirst`, and loss,
/// verify/reship and dock-controller-crash awareness all on.
pub struct ServeClosed {
    seed: u64,
    requests: usize,
}

impl ServeClosed {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            requests: 100_000,
        }
    }

    /// A scaled-down batch of the same shape, for tests.
    #[cfg(test)]
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            requests: 2_000,
        }
    }

    fn arrival_spec(&self) -> ArrivalSpec {
        // Six carts per request on average (6/7 x 1 + 1/7 x 36): offer
        // twice what the track can carry.
        ArrivalSpec::poisson(
            2.0 / (6.0 * ROUND_TRIP_S),
            Seconds::new(1e15),
            derive_seed(self.seed, ARRIVAL_SALT),
        )
    }

    fn configure(&self, sched: Scheduler) -> Scheduler {
        let cfg = SimConfig::paper_default();
        sched
            .with_policy(Policy::ShortestJobFirst)
            .with_faults(FaultAwareness {
                loss_probability: 0.02,
                max_attempts: 6,
                seed: derive_seed(self.seed, LOSS_SALT),
                downtime: Vec::new(),
            })
            .with_integrity(IntegrityAwareness {
                reshipment_probability: 0.01,
                verify_time: Seconds::new(3.0),
                max_attempts: 6,
                seed: derive_seed(self.seed, RESHIP_SALT),
            })
            .with_dock_recovery(DockRecoveryAwareness::from_spec(
                &DockControllerFaultSpec::journal_replay(),
                cfg.cart_capacity,
                derive_seed(self.seed, DOCK_SALT),
            ))
    }
}

impl Workload for ServeClosed {
    type Input = ServeInput;
    type Outcome = ServeOutcome;

    fn setup(&self, tr: &mut Tracer) -> Result<ServeInput, String> {
        serve_setup(tr, &self.arrival_spec(), self.requests, |s| {
            self.configure(s)
        })
    }

    fn run(&self, input: ServeInput, metrics_on: bool, tr: &mut Tracer) -> Timed<ServeOutcome> {
        serve_run(input, metrics_on, 7, tr)
    }

    fn check(&self, o: &ServeOutcome) -> Result<(), String> {
        if o.outcome.admission.is_some() {
            return Err("closed-loop run returned an admission report".into());
        }
        let mut seen = vec![false; o.arrivals.len()];
        for r in &o.outcome.completed {
            let idx = usize::try_from(r.id.0).unwrap_or(usize::MAX);
            let Some(slot) = seen.get_mut(idx) else {
                return Err(format!("unknown request id {}", r.id.0));
            };
            if std::mem::replace(slot, true) {
                return Err(format!("request {} completed twice", r.id.0));
            }
            if r.delivered < o.arrivals[idx].at {
                return Err(format!("request {} delivered before it arrived", r.id.0));
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("request {missing} never completed"));
        }
        Ok(())
    }

    fn work(&self, o: &ServeOutcome) -> u64 {
        o.arrivals.len() as u64
    }

    fn snapshot<'a>(&self, o: &'a ServeOutcome) -> &'a MetricsSnapshot {
        &o.outcome.metrics
    }

    fn digest(&self, o: &ServeOutcome) -> u64 {
        outcome_digest(&o.outcome)
    }

    fn counts(&self, o: &ServeOutcome, c: &mut Counts) {
        outcome_counts(&o.outcome, o.arrivals.len(), c);
        c.insert("sim.arrivals.arrivals", o.arrivals.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_small<W: Workload>(w: &W) -> W::Outcome {
        let mut tr = Tracer::new();
        let input = w.setup(&mut tr).unwrap();
        let o = w.run(input, true, &mut tr).outcome.unwrap();
        w.check(&o).unwrap();
        o
    }

    #[test]
    fn open_check_rejects_broken_admission_accounting() {
        let w = ServeOpen::small(5);
        let mut o = run_small(&w);
        o.outcome.admission.as_mut().unwrap().admitted += 1;
        assert!(w.check(&o).is_err());
    }

    #[test]
    fn closed_check_rejects_a_missing_request() {
        let w = ServeClosed::small(5);
        let mut o = run_small(&w);
        o.outcome.completed.pop();
        assert!(w.check(&o).is_err());
    }
}
