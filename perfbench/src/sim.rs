//! The two simulator workloads: `bulk_fleet` (engine and system) and
//! `ckpt_resume` (the checkpoint codec).

use std::time::Instant;

use dhl_obs::MetricsSnapshot;
use dhl_sim::{
    BulkTransferReport, Checkpoint, DhlSystem, EndpointId, EndpointSpec, FaultSpec, IntegritySpec,
    ReliabilitySpec, SimConfig,
};
use dhl_units::{Bytes, Metres, Seconds};

use crate::stats::{derive_seed, ratio, Digest};
use crate::trace::Tracer;
use crate::workload::{Counts, Timed, Workload};

const RELIABILITY_SALT: u64 = 0x5E1_0001;
const INTEGRITY_SALT: u64 = 0x5E1_0002;

/// The seeded fault, reliability and integrity streams both simulator
/// workloads run with. The fault stream is derived from the reliability
/// seed inside the simulator.
fn with_faults(mut cfg: SimConfig, seed: u64) -> SimConfig {
    cfg.faults = Some(FaultSpec::stress());
    cfg.reliability = Some(ReliabilitySpec {
        seed: derive_seed(seed, RELIABILITY_SALT),
        ..ReliabilitySpec::typical()
    });
    cfg.integrity = Some(IntegritySpec {
        seed: derive_seed(seed, INTEGRITY_SALT),
        ..IntegritySpec::typical()
    });
    cfg
}

fn shards(cfg: &SimConfig, demands: &[(EndpointId, Bytes)]) -> u64 {
    demands
        .iter()
        .map(|(_, b)| b.div_ceil(cfg.cart_capacity))
        .sum()
}

/// Every simulated statistic of a mission report, bit for bit.
fn report_digest(r: &BulkTransferReport) -> u64 {
    let mut d = Digest::new();
    d.f64(r.completion_time.value())
        .u64(r.delivered.as_u64())
        .u64(r.deliveries)
        .u64(r.movements)
        .f64(r.total_energy.value())
        .f64(r.average_power.value())
        .f64(r.embodied_bandwidth.value())
        .u64(u64::from(r.max_carts_in_flight))
        .u64(r.events_processed)
        .u64(r.ssd_failures)
        .u64(r.data_loss_events);
    for &(ep, n) in &r.deliveries_by_endpoint {
        d.u64(ep as u64).u64(n);
    }
    for t in &r.track_busy_time {
        d.f64(t.value());
    }
    let rel = &r.reliability;
    d.u64(rel.redeliveries)
        .f64(rel.retry_time.value())
        .f64(rel.goodput.value())
        .f64(rel.throughput.value())
        .u64(rel.cart_stalls)
        .u64(rel.connector_replacements)
        .u64(rel.repressurisations)
        .u64(rel.dock_controller_crashes)
        .f64(rel.dock_recovery_time.value());
    for t in rel.track_downtime.iter().chain(&rel.dock_downtime) {
        d.f64(t.value());
    }
    let int = &r.integrity;
    d.u64(int.shards_scanned)
        .u64(int.shards_corrupted)
        .u64(int.shards_reconstructed)
        .u64(int.deliveries_verified)
        .u64(int.deliveries_reshipped)
        .f64(int.verification_time.value())
        .f64(int.reconstruction_time.value())
        .f64(int.verification_energy.value());
    d.finish()
}

/// The `sim.system`, `sim.engine`, `sim.faults` and `sim.integrity` counts
/// of a mission that requested `shards` cart loads.
fn report_counts(r: &BulkTransferReport, shards: u64, c: &mut Counts) {
    c.insert("sim.engine.events", r.events_processed as f64);
    c.insert("sim.system.movements", r.movements as f64);
    c.insert("sim.system.deliveries", r.deliveries as f64);
    c.insert(
        "sim.system.max_carts_in_flight",
        f64::from(r.max_carts_in_flight),
    );
    c.insert("sim.system.track_busy_frac", r.peak_track_utilisation());
    c.insert(
        "sim.system.useful_delivery_ratio",
        ratio(shards as f64, r.deliveries as f64),
    );
    c.insert("sim.faults.cart_stalls", r.reliability.cart_stalls as f64);
    c.insert(
        "sim.faults.repressurisations",
        r.reliability.repressurisations as f64,
    );
    c.insert(
        "sim.faults.dock_crashes",
        r.reliability.dock_controller_crashes as f64,
    );
    c.insert("sim.faults.redeliveries", r.reliability.redeliveries as f64);
    c.insert(
        "sim.integrity.shards_scanned",
        r.integrity.shards_scanned as f64,
    );
    c.insert(
        "sim.integrity.reshipped",
        r.integrity.deliveries_reshipped as f64,
    );
}

/// `bulk_fleet`: one `run_multi_rack` mission over a 64-cart fleet, dual
/// track, 16 racks, stress faults, typical reliability and integrity, and
/// metrics on.
pub struct BulkFleet {
    seed: u64,
    carts: u32,
    racks: usize,
    per_rack: Bytes,
}

pub struct BulkInput {
    sys: DhlSystem,
    demands: Vec<(EndpointId, Bytes)>,
    shards: u64,
}

pub struct BulkOutcome {
    report: BulkTransferReport,
    requested: Bytes,
    shards: u64,
}

impl BulkFleet {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            carts: 64,
            racks: 16,
            per_rack: Bytes::from_petabytes(125.0),
        }
    }

    /// A scaled-down mission of the same shape, for tests.
    #[cfg(test)]
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            carts: 16,
            racks: 4,
            per_rack: Bytes::from_petabytes(4.0),
        }
    }

    fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.num_carts = self.carts;
        cfg.endpoints[0].docks = self.carts;
        let rack = cfg.endpoints.pop().expect("paper default has a rack");
        for i in 0..self.racks {
            cfg.endpoints.push(EndpointSpec {
                position: Metres::new(rack.position.value() + 50.0 * i as f64),
                ..rack
            });
        }
        cfg.dual_track = true;
        with_faults(cfg, self.seed)
    }
}

impl Workload for BulkFleet {
    type Input = BulkInput;
    type Outcome = BulkOutcome;

    fn setup(&self, tr: &mut Tracer) -> Result<BulkInput, String> {
        let cfg = self.config();
        let demands: Vec<_> = (1..=self.racks).map(|ep| (ep, self.per_rack)).collect();
        let shards = shards(&cfg, &demands);
        let sys = tr
            .span("sim.system.new", || DhlSystem::new(cfg))
            .map_err(|e| e.to_string())?;
        Ok(BulkInput {
            sys,
            demands,
            shards,
        })
    }

    fn run(&self, input: BulkInput, metrics_on: bool, tr: &mut Tracer) -> Timed<BulkOutcome> {
        let BulkInput {
            mut sys,
            demands,
            shards,
        } = input;
        if !metrics_on {
            sys.set_metrics_enabled(false);
        }
        let start = Instant::now();
        let report = tr
            .span("sim.system.begin", || sys.begin_multi_rack(&demands))
            .and_then(|()| {
                tr.span("sim.system.run_until", || {
                    sys.run_until(Seconds::new(f64::INFINITY))
                })
            })
            .map(|_| tr.span("sim.system.finish", || sys.finish()));
        let timed_s = start.elapsed().as_secs_f64();
        Timed {
            outcome: report.map_err(|e| e.to_string()).map(|report| BulkOutcome {
                report,
                requested: Bytes::new(demands.iter().map(|(_, b)| b.as_u64()).sum()),
                shards,
            }),
            timed_s,
            ops: 1,
            latencies_us: vec![timed_s * 1e6],
        }
    }

    fn check(&self, o: &BulkOutcome) -> Result<(), String> {
        if o.report.delivered != o.requested {
            return Err(format!(
                "delivered {} B of {} B requested",
                o.report.delivered.as_u64(),
                o.requested.as_u64()
            ));
        }
        if o.report.deliveries < o.shards {
            return Err(format!(
                "{} deliveries for {} shards",
                o.report.deliveries, o.shards
            ));
        }
        Ok(())
    }

    fn work(&self, o: &BulkOutcome) -> u64 {
        o.report.events_processed
    }

    fn snapshot<'a>(&self, o: &'a BulkOutcome) -> &'a MetricsSnapshot {
        &o.report.metrics
    }

    fn digest(&self, o: &BulkOutcome) -> u64 {
        report_digest(&o.report)
    }

    fn counts(&self, o: &BulkOutcome, c: &mut Counts) {
        report_counts(&o.report, o.shards, c);
    }
}

/// `ckpt_resume`: the paper-default 8-cart mission with stress faults and
/// integrity on, checkpointed every simulated minute, serialised, parsed,
/// and resumed in a fresh simulator. The final report must equal an
/// uninterrupted run of the same config and seed.
pub struct CkptResume {
    seed: u64,
    dataset: Bytes,
    interval: Seconds,
    shards: u64,
    reference: BulkTransferReport,
}

pub struct CkptInput {
    cfg: SimConfig,
    sys: DhlSystem,
}

pub struct CkptOutcome {
    report: BulkTransferReport,
    cycles: u64,
    json_bytes: u64,
}

impl CkptResume {
    /// Builds the workload and runs the uninterrupted reference mission.
    pub fn new(seed: u64) -> Result<Self, String> {
        Self::sized(seed, Bytes::from_petabytes(50.0))
    }

    /// A scaled-down mission of the same shape, for tests.
    #[cfg(test)]
    pub fn small(seed: u64) -> Result<Self, String> {
        Self::sized(seed, Bytes::from_petabytes(2.0))
    }

    fn sized(seed: u64, dataset: Bytes) -> Result<Self, String> {
        let cfg = with_faults(SimConfig::paper_default(), seed);
        let shards = dataset.div_ceil(cfg.cart_capacity);
        let reference = DhlSystem::new(cfg)
            .and_then(|mut sys| sys.run_bulk_transfer(dataset))
            .map_err(|e| format!("uninterrupted reference run: {e}"))?;
        Ok(Self {
            seed,
            dataset,
            interval: Seconds::new(60.0),
            shards,
            reference,
        })
    }

    /// Runs the mission, killing and resuming the simulator through JSON
    /// every `interval` of simulated time; each pause is pushed to
    /// `pauses` (µs) and its JSON size added to `json_bytes`.
    fn run_with_restarts(
        &self,
        cfg: &SimConfig,
        sys: &mut DhlSystem,
        tr: &mut Tracer,
        pauses: &mut Vec<f64>,
        json_bytes: &mut u64,
    ) -> Result<BulkTransferReport, String> {
        tr.span("sim.system.begin", || sys.begin_bulk_transfer(self.dataset))
            .map_err(|e| e.to_string())?;
        let mut limit = Seconds::ZERO;
        loop {
            limit += self.interval;
            let drained = tr
                .span("sim.system.run_until", || sys.run_until(limit))
                .map_err(|e| e.to_string())?;
            if drained {
                break;
            }
            let pause = Instant::now();
            let cp = tr.span("sim.checkpoint.capture", || sys.checkpoint());
            let json = tr.span("sim.checkpoint.encode", || cp.to_json());
            let decoded = tr
                .span("sim.checkpoint.decode", || Checkpoint::from_json(&json))
                .map_err(|e| e.to_string())?;
            let resumed = tr
                .span("sim.checkpoint.resume", || {
                    DhlSystem::resume(cfg.clone(), &decoded)
                })
                .map_err(|e| e.to_string())?;
            pauses.push(pause.elapsed().as_secs_f64() * 1e6);
            *json_bytes += json.len() as u64;
            let killed = std::mem::replace(sys, resumed);
            tr.span("sim.checkpoint.teardown", || {
                drop((killed, cp, json, decoded))
            });
        }
        Ok(tr.span("sim.system.finish", || sys.finish()))
    }
}

impl Workload for CkptResume {
    type Input = CkptInput;
    type Outcome = CkptOutcome;

    fn setup(&self, tr: &mut Tracer) -> Result<CkptInput, String> {
        let cfg = with_faults(SimConfig::paper_default(), self.seed);
        let sys = tr
            .span("sim.system.new", || DhlSystem::new(cfg.clone()))
            .map_err(|e| e.to_string())?;
        Ok(CkptInput { cfg, sys })
    }

    fn run(&self, input: CkptInput, metrics_on: bool, tr: &mut Tracer) -> Timed<CkptOutcome> {
        let CkptInput { cfg, mut sys } = input;
        if !metrics_on {
            sys.set_metrics_enabled(false);
        }
        let mut pauses = Vec::new();
        let mut json_bytes = 0;
        let start = Instant::now();
        let report = self.run_with_restarts(&cfg, &mut sys, tr, &mut pauses, &mut json_bytes);
        let timed_s = start.elapsed().as_secs_f64();
        let cycles = pauses.len() as u64;
        Timed {
            // A failed mission fails the cycle it broke in as well.
            ops: if report.is_ok() { cycles } else { cycles + 1 },
            outcome: report.map(|report| CkptOutcome {
                report,
                cycles,
                json_bytes,
            }),
            timed_s,
            latencies_us: pauses,
        }
    }

    fn check(&self, o: &CkptOutcome) -> Result<(), String> {
        if o.report != self.reference {
            return Err(format!(
                "resumed mission differs from the uninterrupted run \
                 (completion {} s vs {} s, events {} vs {})",
                o.report.completion_time.value(),
                self.reference.completion_time.value(),
                o.report.events_processed,
                self.reference.events_processed
            ));
        }
        if o.report.delivered != self.dataset {
            return Err("resumed mission did not deliver the whole dataset".into());
        }
        Ok(())
    }

    fn work(&self, o: &CkptOutcome) -> u64 {
        o.report.events_processed
    }

    fn snapshot<'a>(&self, o: &'a CkptOutcome) -> &'a MetricsSnapshot {
        &o.report.metrics
    }

    fn digest(&self, o: &CkptOutcome) -> u64 {
        // Not the JSON size: the checkpoint carries the metrics snapshot,
        // which is empty in metrics-off passes.
        Digest::new()
            .u64(report_digest(&o.report))
            .u64(o.cycles)
            .finish()
    }

    fn counts(&self, o: &CkptOutcome, c: &mut Counts) {
        report_counts(&o.report, self.shards, c);
        c.insert("sim.checkpoint.cycles", o.cycles as f64);
        c.insert(
            "sim.checkpoint.json_bytes",
            ratio(o.json_bytes as f64, o.cycles as f64),
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Takes one byte off the delivered total: the mission no longer
    /// delivered what was requested.
    pub(crate) fn corrupt(o: &mut BulkOutcome) {
        o.report.delivered = o.report.delivered.saturating_sub(Bytes::new(1));
    }

    #[test]
    fn bulk_check_rejects_short_delivery() {
        let w = BulkFleet::small(3);
        let mut tr = Tracer::new();
        let input = w.setup(&mut tr).unwrap();
        let mut o = w.run(input, true, &mut tr).outcome.unwrap();
        w.check(&o).unwrap();
        corrupt(&mut o);
        assert!(w.check(&o).is_err());
    }

    #[test]
    fn ckpt_check_rejects_a_diverged_resume() {
        let w = CkptResume::small(3).unwrap();
        let mut tr = Tracer::new();
        let input = w.setup(&mut tr).unwrap();
        let mut o = w.run(input, true, &mut tr).outcome.unwrap();
        w.check(&o).unwrap();
        o.report.movements += 1;
        assert!(w.check(&o).is_err());
    }
}
