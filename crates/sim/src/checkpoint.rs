//! Checkpoint/restore for crash-recoverable simulations.
//!
//! A [`Checkpoint`] is a point-in-time capture of everything a
//! [`DhlSystem`] needs to continue a run as if nothing happened: the
//! simulation clock, the pending event queue, every cart and delivery state
//! machine, wear counters, the RNG streams, the trace buffer, and the
//! deterministic metrics state. Resuming from a checkpoint and running to
//! completion produces **bit-identical** reports, traces, and
//! (deterministic) metrics to the uninterrupted run — the property the
//! replica engine's retry-with-resume and the kill-and-resume CI job build
//! on.
//!
//! Checkpoints serialize to JSON through [`dhl_obs::json`], the workspace's
//! zero-dependency codec. Exactness matters: `u64` counters ride the
//! codec's lossless `UInt` path, and `f64` times rely on Rust's
//! shortest-round-trip `Display` plus exact `str::parse::<f64>`, so a
//! decode(encode(x)) trip reproduces every bit.
//!
//! [`Checkpoint::to_json`] writes the text directly, without building a
//! [`JsonValue`] tree: every object's keys are written in ascending byte
//! order and every scalar and metric name through the codec's own
//! `write_f64`, `write_escaped` and integer `Display`, so the document is
//! byte for byte what serialising the equivalent tree gives. Parsing it and
//! re-serialising the tree therefore returns the same text, which the
//! tests check. Decoding goes through [`json::parse`].
//!
//! The configuration itself is *not* serialized — checkpoints are state,
//! not provenance. [`DhlSystem::resume`] takes the configuration separately
//! and refuses (with [`SimError::CheckpointMismatch`]) to marry a
//! checkpoint to a configuration other than the one it was captured under,
//! via an FNV-1a fingerprint over the configuration's debug form. A system
//! computes that fingerprint once, on its first checkpoint or resume, and
//! keeps it: a resumed system's later checkpoints reuse the value its
//! resume checked.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use dhl_obs::json::{self, JsonError, JsonValue};
use dhl_obs::{Histogram, MetricsRegistry, Stopwatch};
use dhl_rng::DeterministicRng;
use dhl_storage::{CartWear, DockingConnector};
use dhl_units::{Bytes, Joules, MetresPerSecond, Seconds};

use crate::config::SimConfig;
use crate::engine::EventQueue;
use crate::movement::MovementCost;
use crate::system::{
    ActiveMovement, CartLocation, DhlSystem, Direction, EndpointId, Ev, Mission, Movement,
    PendingVerify, RackDemand, SimError, TrackState,
};
use crate::trace::{Trace, TraceEvent, TraceEventKind, TraceSink};

/// Serialization format version; bumped when the JSON layout changes.
const FORMAT_VERSION: u64 = 2;

/// Every metric name the simulator records, so restoring a serialized
/// checkpoint can hand the registry the `&'static str` keys it requires
/// without leaking in the common case.
const METRIC_NAMES: &[&str] = &[
    "sim.events",
    "sim.completion_s",
    "sim.wall_time_s",
    "sim.sim_seconds_per_wall_second",
    "sim.events_per_wall_second",
    "sim.carts_launched",
    "sim.transit_s",
    "sim.queue_depth",
    "sim.deliveries",
    "sim.ssd_failures",
    "sim.data_loss_events",
    "sim.delivery_failures",
    "sim.redeliveries",
    "sim.cart_stalls",
    "sim.connector_replacements",
    "sim.repressurisations",
    "sim.dock_controller_crashes",
    "sim.dock_recovery_s",
    "sim.shards_scanned",
    "sim.verify_s",
    "sim.deliveries_verified",
    "sim.shards_corrupted",
    "sim.shards_reconstructed",
    "sim.reconstruction_s",
    "sim.deliveries_reshipped",
    "sim.events_clamped",
    "engine.events_processed",
];

fn intern_metric(name: &str) -> &'static str {
    METRIC_NAMES
        .iter()
        .copied()
        .find(|n| *n == name)
        .unwrap_or_else(|| Box::leak(name.to_owned().into_boxed_str()))
}

/// 64-bit FNV-1a over text written to it, so formatted output is hashed as
/// it is produced instead of being collected into a `String` first.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a over the configuration's debug representation: stable across
/// processes (unlike `DefaultHasher`) and sensitive to every field the
/// simulator reads, since they all appear in `Debug` output.
#[must_use]
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    let mut hash = Fnv1a::new();
    write!(hash, "{cfg:?}").expect("hashing cannot fail");
    hash.0
}

/// Portable per-cart state. Connector and wear objects are reduced to the
/// counters that define them — `resume` rebuilds the live objects from the
/// configuration plus these counters, which is exact because
/// [`DockingConnector::mate`] and [`CartWear::record_write`] are pure
/// accumulations.
#[derive(Clone, PartialEq, Debug)]
struct CartState {
    location: CartLocation,
    movement: Option<ActiveMovement>,
    trips: u64,
    connector_cycles: Option<u32>,
    wear_written: Option<u64>,
    matings: u32,
    verify: Option<PendingVerify>,
}

#[derive(Clone, PartialEq, Debug)]
struct TraceState {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

#[derive(Clone, PartialEq, Debug)]
struct HistogramState {
    count: u64,
    sum: f64,
    /// Raw minimum; `+∞` when the histogram is empty (encoded as `null`).
    min: f64,
    /// Raw maximum; `-∞` when the histogram is empty (encoded as `null`).
    max: f64,
    buckets: Vec<(u32, u64)>,
}

#[derive(Clone, PartialEq, Debug)]
struct MetricsState {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, HistogramState)>,
}

/// Fault-injection and integrity accounting captured mid-run.
#[derive(Clone, PartialEq, Debug, Default)]
struct Counters {
    ssd_failures: u64,
    data_loss_events: u64,
    redeliveries: u64,
    retry_time_s: f64,
    cart_stalls: u64,
    connector_replacements: u64,
    repressurisations: u64,
    dock_crashes: u64,
    dock_recovery_time_s: f64,
    dock_downtime: Vec<f64>,
    shards_scanned: u64,
    shards_corrupted: u64,
    shards_reconstructed: u64,
    deliveries_verified: u64,
    deliveries_reshipped: u64,
    verification_time_s: f64,
    reconstruction_time_s: f64,
    verification_energy_j: f64,
}

/// A point-in-time capture of a running [`DhlSystem`].
///
/// Obtained from [`DhlSystem::checkpoint`]; turned back into a live system
/// by [`DhlSystem::resume`]. Serializes losslessly to JSON via
/// [`Checkpoint::to_json`] / [`Checkpoint::from_json`].
#[derive(Clone, PartialEq, Debug)]
pub struct Checkpoint {
    fingerprint: u64,
    now: f64,
    next_seq: u64,
    events_processed: u64,
    events_clamped: u64,
    events_at_mission_start: u64,
    queue: Vec<(f64, u64, Ev)>,
    carts: Vec<CartState>,
    dock_used: Vec<u32>,
    tracks: Vec<TrackState>,
    pending: Vec<Movement>,
    redelivery_queue: Vec<(EndpointId, Bytes, u32)>,
    mission: Mission,
    wakeup_scheduled: bool,
    total_energy_j: f64,
    movements: u64,
    max_in_flight: u32,
    event_budget: u64,
    trace: Option<TraceState>,
    reliability_rng: Option<[u64; 4]>,
    fault_rng: Option<[u64; 4]>,
    integrity_rng: Option<[u64; 4]>,
    counters: Counters,
    abandoned: Option<(EndpointId, u32)>,
    watch_running: bool,
    metrics: Option<MetricsState>,
}

impl Checkpoint {
    /// Simulation time at which this checkpoint was captured.
    #[must_use]
    pub fn time(&self) -> Seconds {
        Seconds::new(self.now)
    }

    /// Events the engine had processed at capture time.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Fingerprint of the configuration this checkpoint belongs to.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl DhlSystem {
    /// Captures the complete simulation state at the current instant.
    ///
    /// The capture is non-destructive: the system keeps running
    /// afterwards, and resuming the checkpoint elsewhere replays the
    /// remainder of the run bit-identically.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: self.fingerprint(),
            now: self.queue.now().seconds(),
            next_seq: self.queue.next_seq(),
            events_processed: self.queue.events_processed(),
            events_clamped: self.queue.clamped(),
            events_at_mission_start: self.events_at_mission_start,
            queue: self
                .queue
                .pending_entries()
                .into_iter()
                .map(|(t, s, e)| (t.seconds(), s, *e))
                .collect(),
            carts: (0..self.carts.len())
                .map(|i| CartState {
                    location: self.carts.locations[i],
                    movement: self.carts.movements[i],
                    trips: self.carts.trips[i],
                    connector_cycles: self.carts.connectors[i]
                        .as_ref()
                        .map(DockingConnector::cycles_used),
                    wear_written: self.carts.wear[i].as_ref().map(|w| w.written().as_u64()),
                    matings: self.carts.matings[i],
                    verify: self.carts.verify[i],
                })
                .collect(),
            dock_used: self.dock_used.clone(),
            tracks: self.tracks.clone(),
            pending: self.pending.iter().copied().collect(),
            redelivery_queue: self.redelivery_queue.iter().copied().collect(),
            mission: self.mission.clone(),
            wakeup_scheduled: self.wakeup_scheduled,
            total_energy_j: self.total_energy.value(),
            movements: self.movements,
            max_in_flight: self.max_in_flight,
            event_budget: self.event_budget,
            trace: match &self.trace {
                TraceSink::Disabled => None,
                TraceSink::Buffered(t) => Some(TraceState {
                    events: t.events().to_vec(),
                    capacity: t.capacity(),
                    dropped: t.dropped(),
                }),
            },
            reliability_rng: self.reliability_rng.as_ref().map(DeterministicRng::state),
            fault_rng: self.fault_rng.as_ref().map(DeterministicRng::state),
            integrity_rng: self.integrity_rng.as_ref().map(DeterministicRng::state),
            counters: Counters {
                ssd_failures: self.ssd_failures,
                data_loss_events: self.data_loss_events,
                redeliveries: self.redeliveries,
                retry_time_s: self.retry_time_s,
                cart_stalls: self.cart_stalls,
                connector_replacements: self.connector_replacements,
                repressurisations: self.repressurisations,
                dock_crashes: self.dock_crashes,
                dock_recovery_time_s: self.dock_recovery_time_s,
                dock_downtime: self.dock_downtime.clone(),
                shards_scanned: self.shards_scanned,
                shards_corrupted: self.shards_corrupted,
                shards_reconstructed: self.shards_reconstructed,
                deliveries_verified: self.deliveries_verified,
                deliveries_reshipped: self.deliveries_reshipped,
                verification_time_s: self.verification_time_s,
                reconstruction_time_s: self.reconstruction_time_s,
                verification_energy_j: self.verification_energy.value(),
            },
            abandoned: self.abandoned,
            watch_running: self.run_watch.is_some(),
            metrics: if self.metrics.is_enabled() {
                Some(MetricsState {
                    counters: self
                        .metrics
                        .counters()
                        .map(|(n, v)| (n.to_string(), v))
                        .collect(),
                    gauges: self
                        .metrics
                        .gauges()
                        .map(|(n, v)| (n.to_string(), v))
                        .collect(),
                    histograms: self
                        .metrics
                        .histograms()
                        .map(|(n, h)| {
                            (
                                n.to_string(),
                                HistogramState {
                                    count: h.count(),
                                    sum: h.sum(),
                                    min: h.raw_min(),
                                    max: h.raw_max(),
                                    buckets: h.sparse_buckets(),
                                },
                            )
                        })
                        .collect(),
                })
            } else {
                None
            },
        }
    }

    /// Rebuilds a live system from a checkpoint, ready to continue the run.
    ///
    /// # Errors
    ///
    /// - [`SimError::Config`] if `cfg` fails validation.
    /// - [`SimError::CheckpointMismatch`] if `cfg` is not the configuration
    ///   the checkpoint was captured under.
    pub fn resume(cfg: SimConfig, cp: &Checkpoint) -> Result<Self, SimError> {
        let mut sys = Self::new(cfg)?;
        let actual = sys.fingerprint();
        if actual != cp.fingerprint {
            return Err(SimError::CheckpointMismatch {
                expected: cp.fingerprint,
                actual,
            });
        }
        sys.queue = EventQueue::from_entries(
            Seconds::new(cp.now),
            cp.next_seq,
            cp.events_processed,
            cp.queue.iter().map(|&(t, s, e)| (Seconds::new(t), s, e)),
        );
        sys.queue.set_clamped(cp.events_clamped);
        let connector_kind = sys
            .cfg
            .faults
            .as_ref()
            .and_then(|f| f.docking_connector.as_ref())
            .map(|c| c.kind);
        let endurance = sys.cfg.integrity.as_ref().map(|i| i.endurance.clone());
        let cart_capacity = sys.cfg.cart_capacity;
        let generation = sys.carts.begin_rebuild();
        for c in &cp.carts {
            let connector = match (connector_kind, c.connector_cycles) {
                (Some(kind), Some(cycles)) => {
                    let mut conn = DockingConnector::new(kind);
                    for _ in 0..cycles {
                        let _ = conn.mate();
                    }
                    Some(conn)
                }
                _ => None,
            };
            let wear = match (&endurance, c.wear_written) {
                (Some(endurance), Some(written)) => {
                    let mut wear = CartWear::new(endurance.clone(), cart_capacity);
                    wear.record_write(Bytes::new(written));
                    Some(wear)
                }
                _ => None,
            };
            sys.carts.push_cart(
                generation, c.location, c.movement, c.trips, connector, wear, c.matings, c.verify,
            );
        }
        sys.dock_used = cp.dock_used.clone();
        sys.tracks = cp.tracks.clone();
        sys.pending = cp.pending.iter().copied().collect();
        sys.redelivery_queue = cp.redelivery_queue.iter().copied().collect();
        sys.mission = cp.mission.clone();
        sys.wakeup_scheduled = cp.wakeup_scheduled;
        sys.total_energy = Joules::new(cp.total_energy_j);
        sys.movements = cp.movements;
        sys.max_in_flight = cp.max_in_flight;
        sys.event_budget = cp.event_budget;
        sys.trace = match &cp.trace {
            None => TraceSink::Disabled,
            Some(t) => {
                TraceSink::Buffered(Trace::from_parts(t.events.clone(), t.capacity, t.dropped))
            }
        };
        sys.reliability_rng = cp.reliability_rng.map(DeterministicRng::from_state);
        sys.fault_rng = cp.fault_rng.map(DeterministicRng::from_state);
        sys.integrity_rng = cp.integrity_rng.map(DeterministicRng::from_state);
        sys.ssd_failures = cp.counters.ssd_failures;
        sys.data_loss_events = cp.counters.data_loss_events;
        sys.redeliveries = cp.counters.redeliveries;
        sys.retry_time_s = cp.counters.retry_time_s;
        sys.cart_stalls = cp.counters.cart_stalls;
        sys.connector_replacements = cp.counters.connector_replacements;
        sys.repressurisations = cp.counters.repressurisations;
        sys.dock_crashes = cp.counters.dock_crashes;
        sys.dock_recovery_time_s = cp.counters.dock_recovery_time_s;
        sys.dock_downtime = cp.counters.dock_downtime.clone();
        sys.shards_scanned = cp.counters.shards_scanned;
        sys.shards_corrupted = cp.counters.shards_corrupted;
        sys.shards_reconstructed = cp.counters.shards_reconstructed;
        sys.deliveries_verified = cp.counters.deliveries_verified;
        sys.deliveries_reshipped = cp.counters.deliveries_reshipped;
        sys.verification_time_s = cp.counters.verification_time_s;
        sys.reconstruction_time_s = cp.counters.reconstruction_time_s;
        sys.verification_energy = Joules::new(cp.counters.verification_energy_j);
        sys.abandoned = cp.abandoned;
        sys.events_at_mission_start = cp.events_at_mission_start;
        sys.run_watch = cp.watch_running.then(Stopwatch::start);
        sys.metrics = match &cp.metrics {
            None => MetricsRegistry::disabled(),
            Some(m) => {
                let mut reg = MetricsRegistry::enabled();
                for (name, value) in &m.counters {
                    reg.set_counter(intern_metric(name), *value);
                }
                for (name, value) in &m.gauges {
                    reg.set_gauge(intern_metric(name), *value);
                }
                for (name, h) in &m.histograms {
                    reg.restore_histogram(
                        intern_metric(name),
                        Histogram::from_parts(h.count, h.sum, h.min, h.max, &h.buckets),
                    );
                }
                reg
            }
        };
        // The restored registry issued no ids: re-intern the handle bundle
        // so hot-path recording resumes against valid slots.
        sys.handles = crate::metrics::SimMetrics::register(&mut sys.metrics);
        Ok(sys)
    }
}

/// Why a serialized checkpoint failed to decode.
#[derive(Debug)]
pub enum CheckpointError {
    /// The JSON text itself was malformed.
    Json(JsonError),
    /// The JSON was well-formed but is not a checkpoint this version reads.
    Shape(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Json(e) => write!(f, "invalid checkpoint JSON: {e}"),
            Self::Shape(msg) => write!(f, "invalid checkpoint structure: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

fn bad(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Shape(msg.into())
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends checkpoint JSON text without building a [`JsonValue`] tree.
///
/// Objects are written key by key in ascending byte order — the order a
/// `BTreeMap<String, _>` iterates, and so the order
/// [`JsonValue::write_to`] emits — and every scalar and metric name goes
/// through the codec's own primitives, so the text is exactly what
/// serialising the equivalent tree would give. The format's own field
/// names need no escaping and are copied as they are.
struct Writer(String);

impl Writer {
    fn null(&mut self) {
        self.0.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.0.push_str(if v { "true" } else { "false" });
    }

    fn uint(&mut self, v: impl Into<u64>) {
        let _ = write!(self.0, "{}", v.into());
    }

    /// Non-finite values (empty-histogram min/max) encode as `null`; the
    /// field-specific decoders reinstate the correct infinity.
    fn num(&mut self, v: f64) {
        json::write_f64(&mut self.0, v);
    }

    fn str(&mut self, v: &str) {
        json::write_escaped(&mut self.0, v);
    }

    fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => f(self, v),
            None => self.null(),
        }
    }

    fn array<T>(&mut self, items: impl IntoIterator<Item = T>, mut f: impl FnMut(&mut Self, T)) {
        self.0.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            f(self, item);
        }
        self.0.push(']');
    }

    fn object<'k>(&mut self, f: impl FnOnce(&mut Fields<'_, 'k>)) {
        self.0.push('{');
        f(&mut Fields {
            w: self,
            last: None,
        });
        self.0.push('}');
    }
}

/// The members of one object being written by [`Writer::object`].
struct Fields<'w, 'k> {
    w: &'w mut Writer,
    last: Option<&'k str>,
}

impl<'k> Fields<'_, 'k> {
    /// Writes the separator before member `key` and remembers the key.
    fn advance(&mut self, key: &'k str) {
        debug_assert!(
            self.last < Some(key),
            "checkpoint keys out of order: {key:?} after {:?}",
            self.last
        );
        if self.last.is_some() {
            self.w.0.push(',');
        }
        self.last = Some(key);
    }

    /// Starts the member `key`, a field name of the format, which must sort
    /// after the previous member. Field names are plain identifiers, so
    /// their escaped form is the name in quotes, written as is.
    fn key(&mut self, key: &'static str) -> &mut Writer {
        self.advance(key);
        self.w.0.push('"');
        self.w.0.push_str(key);
        self.w.0.push_str("\":");
        self.w
    }

    /// Starts the member `name`, a metric name, which must sort after the
    /// previous member.
    fn name(&mut self, name: &'k str) -> &mut Writer {
        self.advance(name);
        json::write_escaped(&mut self.w.0, name);
        self.w.0.push(':');
        self.w
    }
}

impl Writer {
    fn ev(&mut self, ev: Ev) {
        let (tag, cart) = match ev {
            Ev::TryLaunch => ("try_launch", None),
            Ev::UndockDone { cart } => ("undock_done", Some(cart)),
            Ev::Arrived { cart } => ("arrived", Some(cart)),
            Ev::DockDone { cart } => ("dock_done", Some(cart)),
            Ev::VerifyDone { cart } => ("verify_done", Some(cart)),
            Ev::ProcessingDone { cart } => ("processing_done", Some(cart)),
        };
        self.object(|o| {
            if let Some(cart) = cart {
                o.key("cart").uint(cart as u64);
            }
            o.key("t").str(tag);
        });
    }

    fn location(&mut self, loc: CartLocation) {
        self.object(|o| match loc {
            CartLocation::Docked(ep) => {
                o.key("endpoint").uint(ep as u64);
                o.key("t").str("docked");
            }
            CartLocation::Moving { from, to } => {
                o.key("from").uint(from as u64);
                o.key("t").str("moving");
                o.key("to").uint(to as u64);
            }
        });
    }

    fn active_movement(&mut self, m: ActiveMovement) {
        self.object(|o| {
            o.key("attempt").uint(m.attempt);
            o.key("cost").object(|c| {
                c.key("energy").num(m.cost.energy.value());
                c.key("motion_time").num(m.cost.motion_time.seconds());
                c.key("speed").num(m.cost.speed.value());
                c.key("total_time").num(m.cost.total_time.seconds());
            });
            o.key("from").uint(m.from as u64);
            o.key("payload").uint(m.payload.as_u64());
            o.key("stalled").bool(m.stalled);
            o.key("to").uint(m.to as u64);
        });
    }

    fn cart(&mut self, c: &CartState) {
        self.object(|o| {
            o.key("connector_cycles")
                .opt(c.connector_cycles, Self::uint);
            o.key("location").location(c.location);
            o.key("matings").uint(c.matings);
            o.key("movement").opt(c.movement, Self::active_movement);
            o.key("trips").uint(c.trips);
            o.key("verify").opt(c.verify, |w, v| {
                w.object(|o| {
                    o.key("attempt").uint(v.attempt);
                    o.key("payload").uint(v.payload.as_u64());
                    o.key("shards").uint(v.shards);
                    o.key("to").uint(v.to as u64);
                    o.key("trip_time").num(v.trip_time.seconds());
                });
            });
            o.key("wear_written").opt(c.wear_written, Self::uint);
        });
    }

    fn track(&mut self, t: &TrackState) {
        self.object(|o| {
            o.key("blocked_by")
                .opt(t.blocked_by, |w, c| w.uint(c as u64));
            o.key("blocked_since").num(t.blocked_since);
            o.key("busy_accum").num(t.busy_accum);
            o.key("degraded_until").num(t.degraded_until);
            o.key("direction").opt(t.direction, |w, d| {
                w.str(match d {
                    Direction::Outbound => "out",
                    Direction::Inbound => "in",
                });
            });
            o.key("downtime_accum").num(t.downtime_accum);
            o.key("in_flight").uint(t.in_flight);
            o.key("last_launch").num(t.last_launch);
            o.key("last_update").num(t.last_update);
        });
    }

    fn movement(&mut self, m: &Movement) {
        self.object(|o| {
            o.key("attempt").uint(m.attempt);
            o.key("cart").uint(m.cart as u64);
            o.key("from").uint(m.from as u64);
            o.key("payload").uint(m.payload.as_u64());
            o.key("to").uint(m.to as u64);
        });
    }

    fn mission(&mut self, m: &Mission) {
        self.object(|o| {
            o.key("completion_time").opt(m.completion_time, Self::num);
            o.key("delivered").uint(m.delivered.as_u64());
            o.key("demands").array(&m.demands, |w, d| {
                w.object(|o| {
                    o.key("bytes_remaining").uint(d.bytes_remaining.as_u64());
                    o.key("deliveries_done").uint(d.deliveries_done);
                    o.key("endpoint").uint(d.endpoint as u64);
                });
            });
            o.key("done").uint(m.done);
            o.key("gross_delivered").uint(m.gross_delivered.as_u64());
            o.key("scheduled").uint(m.scheduled);
            o.key("total_deliveries").uint(m.total_deliveries);
        });
    }

    fn trace_kind(&mut self, kind: TraceEventKind) {
        self.object(|o| match kind {
            TraceEventKind::Launch { cart, from, to } => {
                o.key("cart").uint(cart as u64);
                o.key("from").uint(from as u64);
                o.key("t").str("launch");
                o.key("to").uint(to as u64);
            }
            TraceEventKind::EnterTube { cart } => {
                o.key("cart").uint(cart as u64);
                o.key("t").str("enter_tube");
            }
            TraceEventKind::BeginDock { cart } => {
                o.key("cart").uint(cart as u64);
                o.key("t").str("begin_dock");
            }
            TraceEventKind::Docked { cart, endpoint } => {
                o.key("cart").uint(cart as u64);
                o.key("endpoint").uint(endpoint as u64);
                o.key("t").str("docked");
            }
            TraceEventKind::ProcessingDone { cart } => {
                o.key("cart").uint(cart as u64);
                o.key("t").str("processing_done");
            }
            TraceEventKind::DeliveryFailed {
                cart,
                endpoint,
                attempt,
            } => {
                o.key("attempt").uint(attempt);
                o.key("cart").uint(cart as u64);
                o.key("endpoint").uint(endpoint as u64);
                o.key("t").str("delivery_failed");
            }
            TraceEventKind::VerifyStarted {
                cart,
                endpoint,
                shards,
            } => {
                o.key("cart").uint(cart as u64);
                o.key("endpoint").uint(endpoint as u64);
                o.key("shards").uint(shards);
                o.key("t").str("verify_started");
            }
            TraceEventKind::PayloadVerified {
                cart,
                endpoint,
                shards,
            } => {
                o.key("cart").uint(cart as u64);
                o.key("endpoint").uint(endpoint as u64);
                o.key("shards").uint(shards);
                o.key("t").str("payload_verified");
            }
            TraceEventKind::PayloadCorrupted {
                cart,
                endpoint,
                corrupted,
                attempt,
            } => {
                o.key("attempt").uint(attempt);
                o.key("cart").uint(cart as u64);
                o.key("corrupted").uint(corrupted);
                o.key("endpoint").uint(endpoint as u64);
                o.key("t").str("payload_corrupted");
            }
            TraceEventKind::ShardsReconstructed { cart, shards } => {
                o.key("cart").uint(cart as u64);
                o.key("shards").uint(shards);
                o.key("t").str("shards_reconstructed");
            }
            TraceEventKind::CartStalled { cart, track } => {
                o.key("cart").uint(cart as u64);
                o.key("t").str("cart_stalled");
                o.key("track").uint(track as u64);
            }
            TraceEventKind::DockControllerCrashed { cart, endpoint } => {
                o.key("cart").uint(cart as u64);
                o.key("endpoint").uint(endpoint as u64);
                o.key("t").str("dock_controller_crashed");
            }
            TraceEventKind::DockControllerRecovered {
                cart,
                endpoint,
                downtime,
            } => {
                o.key("cart").uint(cart as u64);
                o.key("downtime").num(downtime.seconds());
                o.key("endpoint").uint(endpoint as u64);
                o.key("t").str("dock_controller_recovered");
            }
            TraceEventKind::TrackRestored { track } => {
                o.key("t").str("track_restored");
                o.key("track").uint(track as u64);
            }
        });
    }

    fn rng(&mut self, state: [u64; 4]) {
        self.array(state, Self::uint);
    }

    fn counters(&mut self, c: &Counters) {
        self.object(|o| {
            o.key("cart_stalls").uint(c.cart_stalls);
            o.key("connector_replacements")
                .uint(c.connector_replacements);
            o.key("data_loss_events").uint(c.data_loss_events);
            o.key("deliveries_reshipped").uint(c.deliveries_reshipped);
            o.key("deliveries_verified").uint(c.deliveries_verified);
            o.key("dock_crashes").uint(c.dock_crashes);
            o.key("dock_downtime")
                .array(&c.dock_downtime, |w, s| w.num(*s));
            o.key("dock_recovery_time_s").num(c.dock_recovery_time_s);
            o.key("reconstruction_time_s").num(c.reconstruction_time_s);
            o.key("redeliveries").uint(c.redeliveries);
            o.key("repressurisations").uint(c.repressurisations);
            o.key("retry_time_s").num(c.retry_time_s);
            o.key("shards_corrupted").uint(c.shards_corrupted);
            o.key("shards_reconstructed").uint(c.shards_reconstructed);
            o.key("shards_scanned").uint(c.shards_scanned);
            o.key("ssd_failures").uint(c.ssd_failures);
            o.key("verification_energy_j").num(c.verification_energy_j);
            o.key("verification_time_s").num(c.verification_time_s);
        });
    }

    /// Metric entries are already in name order: the registry iterates
    /// them sorted, and decoding reads them from a `BTreeMap`.
    fn metrics(&mut self, m: &MetricsState) {
        self.object(|o| {
            o.key("counters").object(|o| {
                for (name, v) in &m.counters {
                    o.name(name).uint(*v);
                }
            });
            o.key("gauges").object(|o| {
                for (name, v) in &m.gauges {
                    o.name(name).num(*v);
                }
            });
            o.key("histograms").object(|o| {
                for (name, h) in &m.histograms {
                    o.name(name).object(|o| {
                        o.key("buckets").array(&h.buckets, |w, &(b, c)| {
                            w.array([u64::from(b), c], Self::uint);
                        });
                        o.key("count").uint(h.count);
                        o.key("max").num(h.max);
                        o.key("min").num(h.min);
                        o.key("sum").num(h.sum);
                    });
                }
            });
        });
    }
}

impl Checkpoint {
    /// Serializes the checkpoint to a deterministic JSON string.
    ///
    /// Keys are emitted in sorted order and every number takes the codec's
    /// lossless path, so equal checkpoints produce byte-equal JSON, and
    /// parsing the text and re-serialising it gives the same bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = Writer(String::new());
        w.object(|o| {
            o.key("abandoned").opt(self.abandoned, |w, (ep, attempts)| {
                w.object(|o| {
                    o.key("attempts").uint(attempts);
                    o.key("endpoint").uint(ep as u64);
                });
            });
            o.key("carts").array(&self.carts, Writer::cart);
            o.key("counters").counters(&self.counters);
            o.key("dock_used").array(&self.dock_used, |w, n| w.uint(*n));
            o.key("event_budget").uint(self.event_budget);
            o.key("events_at_mission_start")
                .uint(self.events_at_mission_start);
            o.key("events_clamped").uint(self.events_clamped);
            o.key("events_processed").uint(self.events_processed);
            o.key("fault_rng").opt(self.fault_rng, Writer::rng);
            o.key("fingerprint").uint(self.fingerprint);
            o.key("integrity_rng").opt(self.integrity_rng, Writer::rng);
            o.key("max_in_flight").uint(self.max_in_flight);
            o.key("metrics").opt(self.metrics.as_ref(), Writer::metrics);
            o.key("mission").mission(&self.mission);
            o.key("movements").uint(self.movements);
            o.key("next_seq").uint(self.next_seq);
            o.key("now").num(self.now);
            o.key("pending").array(&self.pending, Writer::movement);
            o.key("queue").array(&self.queue, |w, &(t, s, e)| {
                w.0.push('[');
                w.num(t);
                w.0.push(',');
                w.uint(s);
                w.0.push(',');
                w.ev(e);
                w.0.push(']');
            });
            o.key("redelivery_queue")
                .array(&self.redelivery_queue, |w, &(ep, bytes, attempt)| {
                    w.object(|o| {
                        o.key("attempt").uint(attempt);
                        o.key("endpoint").uint(ep as u64);
                        o.key("payload").uint(bytes.as_u64());
                    });
                });
            o.key("reliability_rng")
                .opt(self.reliability_rng, Writer::rng);
            o.key("total_energy_j").num(self.total_energy_j);
            o.key("trace").opt(self.trace.as_ref(), |w, t| {
                w.object(|o| {
                    o.key("capacity").uint(t.capacity as u64);
                    o.key("dropped").uint(t.dropped);
                    o.key("events").array(&t.events, |w, e| {
                        w.object(|o| {
                            o.key("kind").trace_kind(e.kind);
                            o.key("time").num(e.time.seconds());
                        });
                    });
                });
            });
            o.key("tracks").array(&self.tracks, Writer::track);
            o.key("version").uint(FORMAT_VERSION);
            o.key("wakeup_scheduled").bool(self.wakeup_scheduled);
            o.key("watch_running").bool(self.watch_running);
        });
        w.0
    }

    /// Parses a checkpoint previously produced by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Json`] on malformed JSON,
    /// [`CheckpointError::Shape`] when the structure is not a
    /// version-compatible checkpoint.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let root = json::parse(text)?;
        let version = req_u64(&root, "version")?;
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
            )));
        }
        Ok(Self {
            fingerprint: req_u64(&root, "fingerprint")?,
            now: req_f64(&root, "now")?,
            next_seq: req_u64(&root, "next_seq")?,
            events_processed: req_u64(&root, "events_processed")?,
            events_clamped: req_u64(&root, "events_clamped")?,
            events_at_mission_start: req_u64(&root, "events_at_mission_start")?,
            queue: req_array(&root, "queue")?
                .iter()
                .map(queue_entry_from_json)
                .collect::<Result<_, _>>()?,
            carts: req_array(&root, "carts")?
                .iter()
                .map(cart_from_json)
                .collect::<Result<_, _>>()?,
            dock_used: req_array(&root, "dock_used")?
                .iter()
                .map(|v| value_u32(v, "dock_used entry"))
                .collect::<Result<_, _>>()?,
            tracks: req_array(&root, "tracks")?
                .iter()
                .map(track_from_json)
                .collect::<Result<_, _>>()?,
            pending: req_array(&root, "pending")?
                .iter()
                .map(movement_from_json)
                .collect::<Result<_, _>>()?,
            redelivery_queue: req_array(&root, "redelivery_queue")?
                .iter()
                .map(|v| {
                    Ok((
                        req_usize(v, "endpoint")?,
                        Bytes::new(req_u64(v, "payload")?),
                        req_u32(v, "attempt")?,
                    ))
                })
                .collect::<Result<_, CheckpointError>>()?,
            mission: mission_from_json(req(&root, "mission")?)?,
            wakeup_scheduled: req_bool(&root, "wakeup_scheduled")?,
            total_energy_j: req_f64(&root, "total_energy_j")?,
            movements: req_u64(&root, "movements")?,
            max_in_flight: req_u32(&root, "max_in_flight")?,
            event_budget: req_u64(&root, "event_budget")?,
            trace: match req(&root, "trace")? {
                JsonValue::Null => None,
                t => Some(TraceState {
                    events: req_array(t, "events")?
                        .iter()
                        .map(trace_event_from_json)
                        .collect::<Result<_, _>>()?,
                    capacity: req_usize(t, "capacity")?,
                    dropped: req_u64(t, "dropped")?,
                }),
            },
            reliability_rng: rng_from_json(req(&root, "reliability_rng")?)?,
            fault_rng: rng_from_json(req(&root, "fault_rng")?)?,
            integrity_rng: rng_from_json(req(&root, "integrity_rng")?)?,
            counters: counters_from_json(req(&root, "counters")?)?,
            abandoned: match req(&root, "abandoned")? {
                JsonValue::Null => None,
                a => Some((req_usize(a, "endpoint")?, req_u32(a, "attempts")?)),
            },
            watch_running: req_bool(&root, "watch_running")?,
            metrics: match req(&root, "metrics")? {
                JsonValue::Null => None,
                m => Some(metrics_from_json(m)?),
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn req<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, CheckpointError> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field `{key}`")))
}

fn value_u64(v: &JsonValue, what: &str) -> Result<u64, CheckpointError> {
    v.as_u64()
        .ok_or_else(|| bad(format!("{what} is not a u64")))
}

fn value_f64(v: &JsonValue, what: &str) -> Result<f64, CheckpointError> {
    v.as_f64()
        .ok_or_else(|| bad(format!("{what} is not a number")))
}

fn value_u32(v: &JsonValue, what: &str) -> Result<u32, CheckpointError> {
    u32::try_from(value_u64(v, what)?).map_err(|_| bad(format!("{what} overflows u32")))
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, CheckpointError> {
    value_u64(req(v, key)?, key)
}

fn req_f64(v: &JsonValue, key: &str) -> Result<f64, CheckpointError> {
    value_f64(req(v, key)?, key)
}

fn req_u32(v: &JsonValue, key: &str) -> Result<u32, CheckpointError> {
    value_u32(req(v, key)?, key)
}

fn req_usize(v: &JsonValue, key: &str) -> Result<usize, CheckpointError> {
    usize::try_from(req_u64(v, key)?).map_err(|_| bad(format!("`{key}` overflows usize")))
}

fn req_bool(v: &JsonValue, key: &str) -> Result<bool, CheckpointError> {
    match req(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(bad(format!("`{key}` is not a boolean"))),
    }
}

fn req_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], CheckpointError> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| bad(format!("`{key}` is not an array")))
}

fn req_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, CheckpointError> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| bad(format!("`{key}` is not a string")))
}

fn opt_f64(v: &JsonValue, key: &str) -> Result<Option<f64>, CheckpointError> {
    match req(v, key)? {
        JsonValue::Null => Ok(None),
        n => Ok(Some(value_f64(n, key)?)),
    }
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, CheckpointError> {
    match req(v, key)? {
        JsonValue::Null => Ok(None),
        n => Ok(Some(value_u64(n, key)?)),
    }
}

fn ev_from_json(v: &JsonValue) -> Result<Ev, CheckpointError> {
    let tag = req_str(v, "t")?;
    if tag == "try_launch" {
        return Ok(Ev::TryLaunch);
    }
    let cart = req_usize(v, "cart")?;
    match tag {
        "undock_done" => Ok(Ev::UndockDone { cart }),
        "arrived" => Ok(Ev::Arrived { cart }),
        "dock_done" => Ok(Ev::DockDone { cart }),
        "verify_done" => Ok(Ev::VerifyDone { cart }),
        "processing_done" => Ok(Ev::ProcessingDone { cart }),
        other => Err(bad(format!("unknown event tag `{other}`"))),
    }
}

fn queue_entry_from_json(v: &JsonValue) -> Result<(f64, u64, Ev), CheckpointError> {
    let entry = v
        .as_array()
        .ok_or_else(|| bad("queue entry is not an array"))?;
    if entry.len() != 3 {
        return Err(bad("queue entry is not a [time, seq, event] triple"));
    }
    Ok((
        value_f64(&entry[0], "queue entry time")?,
        value_u64(&entry[1], "queue entry seq")?,
        ev_from_json(&entry[2])?,
    ))
}

fn location_from_json(v: &JsonValue) -> Result<CartLocation, CheckpointError> {
    match req_str(v, "t")? {
        "docked" => Ok(CartLocation::Docked(req_usize(v, "endpoint")?)),
        "moving" => Ok(CartLocation::Moving {
            from: req_usize(v, "from")?,
            to: req_usize(v, "to")?,
        }),
        other => Err(bad(format!("unknown cart location tag `{other}`"))),
    }
}

fn cost_from_json(v: &JsonValue) -> Result<MovementCost, CheckpointError> {
    Ok(MovementCost {
        speed: MetresPerSecond::new(req_f64(v, "speed")?),
        total_time: Seconds::new(req_f64(v, "total_time")?),
        motion_time: Seconds::new(req_f64(v, "motion_time")?),
        energy: Joules::new(req_f64(v, "energy")?),
    })
}

fn active_movement_from_json(v: &JsonValue) -> Result<ActiveMovement, CheckpointError> {
    Ok(ActiveMovement {
        from: req_usize(v, "from")?,
        to: req_usize(v, "to")?,
        payload: Bytes::new(req_u64(v, "payload")?),
        attempt: req_u32(v, "attempt")?,
        cost: cost_from_json(req(v, "cost")?)?,
        stalled: req_bool(v, "stalled")?,
    })
}

fn movement_from_json(v: &JsonValue) -> Result<Movement, CheckpointError> {
    Ok(Movement {
        cart: req_usize(v, "cart")?,
        from: req_usize(v, "from")?,
        to: req_usize(v, "to")?,
        payload: Bytes::new(req_u64(v, "payload")?),
        attempt: req_u32(v, "attempt")?,
    })
}

fn verify_from_json(v: &JsonValue) -> Result<PendingVerify, CheckpointError> {
    Ok(PendingVerify {
        to: req_usize(v, "to")?,
        payload: Bytes::new(req_u64(v, "payload")?),
        attempt: req_u32(v, "attempt")?,
        trip_time: Seconds::new(req_f64(v, "trip_time")?),
        shards: req_u64(v, "shards")?,
    })
}

fn cart_from_json(v: &JsonValue) -> Result<CartState, CheckpointError> {
    Ok(CartState {
        location: location_from_json(req(v, "location")?)?,
        movement: match req(v, "movement")? {
            JsonValue::Null => None,
            m => Some(active_movement_from_json(m)?),
        },
        trips: req_u64(v, "trips")?,
        connector_cycles: match req(v, "connector_cycles")? {
            JsonValue::Null => None,
            n => Some(value_u32(n, "connector_cycles")?),
        },
        wear_written: opt_u64(v, "wear_written")?,
        matings: req_u32(v, "matings")?,
        verify: match req(v, "verify")? {
            JsonValue::Null => None,
            p => Some(verify_from_json(p)?),
        },
    })
}

fn track_from_json(v: &JsonValue) -> Result<TrackState, CheckpointError> {
    Ok(TrackState {
        direction: match req(v, "direction")? {
            JsonValue::Null => None,
            d => Some(match d.as_str() {
                Some("out") => Direction::Outbound,
                Some("in") => Direction::Inbound,
                _ => return Err(bad("unknown track direction")),
            }),
        },
        in_flight: req_u32(v, "in_flight")?,
        last_launch: req_f64(v, "last_launch")?,
        busy_accum: req_f64(v, "busy_accum")?,
        last_update: req_f64(v, "last_update")?,
        blocked_by: match req(v, "blocked_by")? {
            JsonValue::Null => None,
            c => Some(
                usize::try_from(value_u64(c, "blocked_by")?)
                    .map_err(|_| bad("`blocked_by` overflows usize"))?,
            ),
        },
        blocked_since: req_f64(v, "blocked_since")?,
        downtime_accum: req_f64(v, "downtime_accum")?,
        degraded_until: req_f64(v, "degraded_until")?,
    })
}

fn mission_from_json(v: &JsonValue) -> Result<Mission, CheckpointError> {
    Ok(Mission {
        total_deliveries: req_u64(v, "total_deliveries")?,
        scheduled: req_u64(v, "scheduled")?,
        done: req_u64(v, "done")?,
        demands: req_array(v, "demands")?
            .iter()
            .map(|d| {
                Ok(RackDemand {
                    endpoint: req_usize(d, "endpoint")?,
                    bytes_remaining: Bytes::new(req_u64(d, "bytes_remaining")?),
                    deliveries_done: req_u64(d, "deliveries_done")?,
                })
            })
            .collect::<Result<_, CheckpointError>>()?,
        delivered: Bytes::new(req_u64(v, "delivered")?),
        gross_delivered: Bytes::new(req_u64(v, "gross_delivered")?),
        completion_time: opt_f64(v, "completion_time")?,
    })
}

fn trace_kind_from_json(v: &JsonValue) -> Result<TraceEventKind, CheckpointError> {
    match req_str(v, "t")? {
        "launch" => Ok(TraceEventKind::Launch {
            cart: req_usize(v, "cart")?,
            from: req_usize(v, "from")?,
            to: req_usize(v, "to")?,
        }),
        "enter_tube" => Ok(TraceEventKind::EnterTube {
            cart: req_usize(v, "cart")?,
        }),
        "begin_dock" => Ok(TraceEventKind::BeginDock {
            cart: req_usize(v, "cart")?,
        }),
        "docked" => Ok(TraceEventKind::Docked {
            cart: req_usize(v, "cart")?,
            endpoint: req_usize(v, "endpoint")?,
        }),
        "processing_done" => Ok(TraceEventKind::ProcessingDone {
            cart: req_usize(v, "cart")?,
        }),
        "delivery_failed" => Ok(TraceEventKind::DeliveryFailed {
            cart: req_usize(v, "cart")?,
            endpoint: req_usize(v, "endpoint")?,
            attempt: req_u32(v, "attempt")?,
        }),
        "verify_started" => Ok(TraceEventKind::VerifyStarted {
            cart: req_usize(v, "cart")?,
            endpoint: req_usize(v, "endpoint")?,
            shards: req_u64(v, "shards")?,
        }),
        "payload_verified" => Ok(TraceEventKind::PayloadVerified {
            cart: req_usize(v, "cart")?,
            endpoint: req_usize(v, "endpoint")?,
            shards: req_u64(v, "shards")?,
        }),
        "payload_corrupted" => Ok(TraceEventKind::PayloadCorrupted {
            cart: req_usize(v, "cart")?,
            endpoint: req_usize(v, "endpoint")?,
            corrupted: req_u64(v, "corrupted")?,
            attempt: req_u32(v, "attempt")?,
        }),
        "shards_reconstructed" => Ok(TraceEventKind::ShardsReconstructed {
            cart: req_usize(v, "cart")?,
            shards: req_u64(v, "shards")?,
        }),
        "cart_stalled" => Ok(TraceEventKind::CartStalled {
            cart: req_usize(v, "cart")?,
            track: req_usize(v, "track")?,
        }),
        "dock_controller_crashed" => Ok(TraceEventKind::DockControllerCrashed {
            cart: req_usize(v, "cart")?,
            endpoint: req_usize(v, "endpoint")?,
        }),
        "dock_controller_recovered" => Ok(TraceEventKind::DockControllerRecovered {
            cart: req_usize(v, "cart")?,
            endpoint: req_usize(v, "endpoint")?,
            downtime: Seconds::new(req_f64(v, "downtime")?),
        }),
        "track_restored" => Ok(TraceEventKind::TrackRestored {
            track: req_usize(v, "track")?,
        }),
        other => Err(bad(format!("unknown trace event tag `{other}`"))),
    }
}

fn trace_event_from_json(v: &JsonValue) -> Result<TraceEvent, CheckpointError> {
    Ok(TraceEvent {
        time: Seconds::new(req_f64(v, "time")?),
        kind: trace_kind_from_json(req(v, "kind")?)?,
    })
}

fn rng_from_json(v: &JsonValue) -> Result<Option<[u64; 4]>, CheckpointError> {
    match v {
        JsonValue::Null => Ok(None),
        _ => {
            let words = v
                .as_array()
                .ok_or_else(|| bad("RNG state is not an array"))?;
            if words.len() != 4 {
                return Err(bad("RNG state is not 4 words"));
            }
            let mut state = [0u64; 4];
            for (slot, word) in state.iter_mut().zip(words) {
                *slot = value_u64(word, "RNG state word")?;
            }
            Ok(Some(state))
        }
    }
}

fn counters_from_json(v: &JsonValue) -> Result<Counters, CheckpointError> {
    Ok(Counters {
        ssd_failures: req_u64(v, "ssd_failures")?,
        data_loss_events: req_u64(v, "data_loss_events")?,
        redeliveries: req_u64(v, "redeliveries")?,
        retry_time_s: req_f64(v, "retry_time_s")?,
        cart_stalls: req_u64(v, "cart_stalls")?,
        connector_replacements: req_u64(v, "connector_replacements")?,
        repressurisations: req_u64(v, "repressurisations")?,
        dock_crashes: req_u64(v, "dock_crashes")?,
        dock_recovery_time_s: req_f64(v, "dock_recovery_time_s")?,
        dock_downtime: req_array(v, "dock_downtime")?
            .iter()
            .map(|s| value_f64(s, "dock_downtime entry"))
            .collect::<Result<_, _>>()?,
        shards_scanned: req_u64(v, "shards_scanned")?,
        shards_corrupted: req_u64(v, "shards_corrupted")?,
        shards_reconstructed: req_u64(v, "shards_reconstructed")?,
        deliveries_verified: req_u64(v, "deliveries_verified")?,
        deliveries_reshipped: req_u64(v, "deliveries_reshipped")?,
        verification_time_s: req_f64(v, "verification_time_s")?,
        reconstruction_time_s: req_f64(v, "reconstruction_time_s")?,
        verification_energy_j: req_f64(v, "verification_energy_j")?,
    })
}

fn metric_entries<'a>(
    v: &'a JsonValue,
    key: &str,
) -> Result<&'a BTreeMap<String, JsonValue>, CheckpointError> {
    req(v, key)?
        .as_object()
        .ok_or_else(|| bad(format!("`{key}` is not an object")))
}

fn metrics_from_json(v: &JsonValue) -> Result<MetricsState, CheckpointError> {
    Ok(MetricsState {
        counters: metric_entries(v, "counters")?
            .iter()
            .map(|(name, val)| Ok((name.clone(), value_u64(val, name)?)))
            .collect::<Result<_, CheckpointError>>()?,
        gauges: metric_entries(v, "gauges")?
            .iter()
            .map(|(name, val)| Ok((name.clone(), value_f64(val, name)?)))
            .collect::<Result<_, CheckpointError>>()?,
        histograms: metric_entries(v, "histograms")?
            .iter()
            .map(|(name, val)| {
                let buckets = req_array(val, "buckets")?
                    .iter()
                    .map(|pair| {
                        let pair = pair
                            .as_array()
                            .ok_or_else(|| bad("histogram bucket is not a pair"))?;
                        if pair.len() != 2 {
                            return Err(bad("histogram bucket is not a [bucket, count] pair"));
                        }
                        Ok((
                            value_u32(&pair[0], "histogram bucket index")?,
                            value_u64(&pair[1], "histogram bucket count")?,
                        ))
                    })
                    .collect::<Result<_, CheckpointError>>()?;
                Ok((
                    name.clone(),
                    HistogramState {
                        count: req_u64(val, "count")?,
                        sum: req_f64(val, "sum")?,
                        // An empty histogram's raw bounds are the infinities
                        // the codec cannot carry; reinstate them from null.
                        min: opt_f64(val, "min")?.unwrap_or(f64::INFINITY),
                        max: opt_f64(val, "max")?.unwrap_or(f64::NEG_INFINITY),
                        buckets,
                    },
                ))
            })
            .collect::<Result<_, CheckpointError>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        DockControllerFaultSpec, DockRecoveryPolicy, FaultSpec, IntegritySpec, ReliabilitySpec,
    };
    use crate::report::BulkTransferReport;

    const PB2: f64 = 2.0;

    fn faulty_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec {
            seed: 7,
            ..ReliabilitySpec::typical()
        });
        cfg.faults = Some(FaultSpec::stress());
        cfg
    }

    fn integrity_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec {
            seed: 11,
            ..ReliabilitySpec::typical()
        });
        cfg.integrity = Some(IntegritySpec::typical());
        cfg
    }

    fn crashing_dock_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec {
            seed: 13,
            ..ReliabilitySpec::typical()
        });
        cfg.faults = Some(FaultSpec {
            dock_controller: Some(DockControllerFaultSpec {
                crash_probability_per_docking: 0.5,
                recovery: DockRecoveryPolicy::RebuildFromScan,
                ..DockControllerFaultSpec::journal_replay()
            }),
            ..FaultSpec::recovery_only()
        });
        cfg
    }

    /// Runs to completion uninterrupted; returns the report and trace.
    fn run_clean(cfg: &SimConfig, dataset: Bytes) -> (BulkTransferReport, Option<Trace>) {
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.enable_trace(1 << 14);
        sys.begin_bulk_transfer(dataset).expect("begin");
        let drained = sys.run_until(Seconds::new(f64::INFINITY)).expect("run");
        assert!(drained);
        let report = sys.finish();
        (report, sys.take_trace())
    }

    /// Runs to `checkpoint_at`, captures, resumes (optionally through JSON),
    /// and completes the run on the resumed system.
    fn run_with_checkpoint(
        cfg: &SimConfig,
        dataset: Bytes,
        checkpoint_at: Seconds,
        through_json: bool,
    ) -> (BulkTransferReport, Option<Trace>) {
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.enable_trace(1 << 14);
        sys.begin_bulk_transfer(dataset).expect("begin");
        let _ = sys.run_until(checkpoint_at).expect("run to checkpoint");
        let cp = sys.checkpoint();
        let cp = if through_json {
            Checkpoint::from_json(&cp.to_json()).expect("JSON roundtrip")
        } else {
            cp
        };
        drop(sys); // the "crash"
        let mut resumed = DhlSystem::resume(cfg.clone(), &cp).expect("resume");
        let drained = resumed
            .run_until(Seconds::new(f64::INFINITY))
            .expect("run after resume");
        assert!(drained);
        let report = resumed.finish();
        (report, resumed.take_trace())
    }

    /// Deterministic (non-wall-clock) metrics projection for comparisons.
    #[allow(clippy::type_complexity)]
    fn deterministic_metrics(r: &BulkTransferReport) -> (Vec<(String, u64)>, Vec<(String, f64)>) {
        let counters = r.metrics.counters.clone();
        let gauges = r
            .metrics
            .gauges
            .iter()
            .filter(|(n, _)| !n.contains("wall"))
            .cloned()
            .collect();
        (counters, gauges)
    }

    fn assert_resume_equivalent(cfg: &SimConfig, dataset: Bytes, checkpoint_at: f64) {
        let (clean, clean_trace) = run_clean(cfg, dataset);
        for through_json in [false, true] {
            let (resumed, resumed_trace) =
                run_with_checkpoint(cfg, dataset, Seconds::new(checkpoint_at), through_json);
            assert_eq!(
                clean, resumed,
                "report must be bit-identical (checkpoint at {checkpoint_at}s, json={through_json})"
            );
            assert_eq!(
                clean_trace, resumed_trace,
                "trace must be bit-identical (checkpoint at {checkpoint_at}s, json={through_json})"
            );
            assert_eq!(
                deterministic_metrics(&clean),
                deterministic_metrics(&resumed),
                "deterministic metrics must match (checkpoint at {checkpoint_at}s, json={through_json})"
            );
            assert_eq!(clean.integrity, resumed.integrity);
        }
    }

    /// Stress faults at hazards high enough that a 2 PB mission stalls
    /// carts and degrades the track, plus verify-on-dock.
    fn stress_integrity_config() -> SimConfig {
        let mut cfg = faulty_config();
        let faults = cfg.faults.as_mut().expect("stress faults");
        for p in [
            &mut faults
                .cart_stall
                .as_mut()
                .expect("stalls")
                .probability_per_movement,
            &mut faults
                .repressurisation
                .as_mut()
                .expect("leaks")
                .probability_per_movement,
        ] {
            *p = 0.25;
        }
        cfg.integrity = Some(IntegritySpec::typical());
        cfg
    }

    /// Captures a checkpoint of a 2 PB mission at `at` seconds.
    fn capture(cfg: SimConfig, trace: bool, metrics: bool, at: f64) -> Checkpoint {
        let mut sys = DhlSystem::new(cfg).expect("valid config");
        if trace {
            sys.enable_trace(1 << 10);
        }
        sys.set_metrics_enabled(metrics);
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(at)).expect("run");
        sys.checkpoint()
    }

    /// Length and FNV-1a of `to_json()` for fixed mid-run scenarios: they
    /// pin the byte format, so a change to any byte of it fails here.
    const GOLDEN_JSON: [(&str, usize, u64); 4] = [
        ("baseline", 2637, 0xfe5a_ff15_0fda_142e),
        ("stress_integrity_trace", 5033, 0xf909_1f4c_4926_2bf1),
        ("metrics_off", 2488, 0x3f6d_0cc7_df02_969a),
        ("dock_crash", 3632, 0xa8d6_7f0c_af5f_64cb),
    ];

    fn golden_checkpoints() -> [(&'static str, Checkpoint); 4] {
        [
            (
                "baseline",
                capture(SimConfig::paper_default(), false, true, 100.0),
            ),
            (
                "stress_integrity_trace",
                capture(stress_integrity_config(), true, true, 3_000.0),
            ),
            ("metrics_off", capture(faulty_config(), false, false, 300.0)),
            (
                "dock_crash",
                capture(crashing_dock_config(), false, true, 500.0),
            ),
        ]
    }

    #[test]
    fn checkpoint_json_matches_the_golden_pin() {
        let golden = golden_checkpoints();
        // Between them the scenarios reach every optional part of the format.
        let [(_, base), (_, stress), (_, off), (_, crash)] = &golden;
        assert!(base.trace.is_none() && base.metrics.is_some());
        assert!(stress.trace.as_ref().is_some_and(|t| !t.events.is_empty()));
        assert!(stress.counters.shards_scanned > 0 && stress.counters.cart_stalls > 0);
        assert!(stress.counters.repressurisations > 0);
        assert!(stress.carts.iter().any(|c| c.verify.is_some()));
        assert!(stress.carts.iter().any(|c| c.wear_written.is_some()));
        assert!(off.metrics.is_none() && off.fault_rng.is_some());
        assert!(crash.counters.dock_crashes > 0);
        let actual = golden.map(|(name, cp)| {
            let json = cp.to_json();
            let mut hash = Fnv1a::new();
            hash.write_str(&json).expect("hashing cannot fail");
            (name, json.len(), hash.0)
        });
        assert_eq!(actual, GOLDEN_JSON, "checkpoint JSON bytes changed");
    }

    #[test]
    fn json_is_a_canonical_fixed_point_at_randomized_times() {
        // Parsing into a tree and serialising that tree gives the text back
        // only if its object keys are sorted and unique and every scalar is
        // in the codec's one form: the encoder's output is exactly what the
        // tree serialiser writes.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for cfg in [faulty_config(), integrity_config(), crashing_dock_config()] {
            for _ in 0..8 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let at = (x >> 40) as f64 / 16.0; // 0 .. ~1048 s
                let cp = capture(cfg.clone(), x & 1 == 1, x & 2 == 2, at);
                let text = cp.to_json();
                let tree = json::parse(&text).expect("own output parses");
                assert_eq!(tree.to_json_string(), text, "not canonical at {at} s");
                assert_eq!(Checkpoint::from_json(&text).expect("decodes"), cp);
            }
        }
    }

    #[test]
    fn mutated_checkpoint_json_never_panics() {
        use dhl_rng::Rng;
        let base = capture(stress_integrity_config(), true, true, 3_000.0).to_json();
        let mut rng = DeterministicRng::seed_from_u64(0x00f0_22ed);
        let mut pick = |n: usize| rng.random_range_u64(0, n as u64) as usize;
        let boundary = |s: &str, mut at: usize| {
            while !s.is_char_boundary(at) {
                at -= 1;
            }
            at
        };
        // Structural bytes, number bytes, multi-byte UTF-8 and escape
        // fragments that leave the parser mid-escape or mid-character.
        const PIECES: [&str; 20] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "0", "9", "-", "e", ".", "n", "é", "✓",
            "\\é", "\\u00", "\\u00é", "\\u000é",
        ];
        let mut decoded = 0;
        for _ in 0..2_000 {
            let mut doc = base.clone();
            for _ in 0..=pick(3) {
                match pick(4) {
                    0 => {
                        let at = boundary(&doc, pick(doc.len() + 1));
                        doc.truncate(at);
                    }
                    1 if !doc.is_empty() => {
                        let at = pick(doc.len());
                        if doc.as_bytes()[at].is_ascii() {
                            doc.replace_range(at..=at, PIECES[pick(PIECES.len())]);
                        }
                    }
                    2 => {
                        let at = boundary(&doc, pick(doc.len() + 1));
                        doc.insert_str(at, PIECES[pick(PIECES.len())]);
                    }
                    _ => {
                        let from = boundary(&base, pick(base.len()));
                        let to = boundary(&base, (from + pick(64)).min(base.len()));
                        let at = boundary(&doc, pick(doc.len() + 1));
                        doc.insert_str(at, &base[from..to]);
                    }
                }
            }
            decoded += usize::from(Checkpoint::from_json(&doc).is_ok());
        }
        // Some mutants (a changed digit, a no-op splice) still decode, so
        // the loop reaches the field decoders, not only the parser.
        assert!(decoded > 0);
    }

    #[test]
    fn paper_default_fingerprint_is_pinned() {
        assert_eq!(
            config_fingerprint(&SimConfig::paper_default()),
            0xb955_f2a6_8d8c_4a4a
        );
    }

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let a = SimConfig::paper_default();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a));
        let mut b = SimConfig::paper_default();
        b.num_carts += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn baseline_resume_is_bit_identical_at_randomized_times() {
        let cfg = SimConfig::paper_default();
        // A cheap LCG stands in for property-test shrinking: spread capture
        // points across the whole run, including t=0 (nothing processed yet)
        // and far past completion (queue already drained).
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut times = vec![0.0, 1e9];
        for _ in 0..6 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            times.push((x >> 40) as f64 / 16.0); // 0 .. ~1048s
        }
        for t in times {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn faulty_resume_is_bit_identical() {
        let cfg = faulty_config();
        for t in [0.0, 33.3, 250.0, 777.7] {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn integrity_resume_is_bit_identical() {
        let cfg = integrity_config();
        for t in [15.0, 444.4] {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn dock_crash_resume_is_bit_identical() {
        let cfg = crashing_dock_config();
        for t in [9.9, 500.0] {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn mid_bucket_checkpoint_resumes_bit_identical() {
        // Capture instants chosen to fall strictly *between* event times of
        // the paper-default run (movements complete every 8.6 s), so the
        // calendar queue is caught mid-bucket: cursor advanced, current
        // bucket partially drained, later buckets still populated. The
        // serialized view must be the logical (time, seq) order, not the
        // bucket layout, for the resumed run to replay bit-identically.
        let cfg = SimConfig::paper_default();
        for t in [8.61, 17.3, 43.05, 300.2] {
            assert_resume_equivalent(&cfg, Bytes::from_petabytes(PB2), t);
        }
    }

    #[test]
    fn far_future_overflow_events_survive_checkpoint() {
        // An event far beyond the calendar window lives in the queue's
        // unsorted overflow tier. It must serialize, JSON round-trip, and
        // restore losslessly alongside the bucketed near-term events.
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(60.0)).expect("run");
        // A stray wakeup in the deep future (a no-op when nothing is
        // pending) — 1e9 s is ~11 500 days past any bucket window.
        sys.queue.schedule_at(Seconds::new(1e9), Ev::TryLaunch);
        let cp = sys.checkpoint();
        let decoded = Checkpoint::from_json(&cp.to_json()).expect("JSON roundtrip");
        assert_eq!(decoded, cp);
        let resumed = DhlSystem::resume(cfg.clone(), &decoded).expect("resume");
        assert_eq!(resumed.checkpoint(), cp);
        // The far-future event is still there and still pops last.
        let mut drained = DhlSystem::resume(cfg, &decoded).expect("resume");
        let _ = drained.run_until(Seconds::new(f64::INFINITY)).expect("run");
        assert!(drained.queue.is_empty());
        assert_eq!(drained.now(), Seconds::new(1e9));
    }

    #[test]
    fn clamp_counter_survives_checkpoint_and_json() {
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(30.0)).expect("run");
        sys.queue.set_clamped(5);
        let cp = sys.checkpoint();
        let decoded = Checkpoint::from_json(&cp.to_json()).expect("JSON roundtrip");
        let resumed = DhlSystem::resume(cfg, &decoded).expect("resume");
        assert_eq!(resumed.queue.clamped(), 5);
        assert_eq!(resumed.checkpoint(), cp);
    }

    #[test]
    fn checkpoint_of_resumed_system_is_idempotent() {
        let cfg = faulty_config();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.enable_trace(256);
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(120.0)).expect("run");
        let cp = sys.checkpoint();
        let resumed = DhlSystem::resume(cfg, &cp).expect("resume");
        assert_eq!(resumed.checkpoint(), cp);
    }

    #[test]
    fn json_roundtrip_is_exact_and_deterministic() {
        let cfg = integrity_config();
        let mut sys = DhlSystem::new(cfg).expect("valid config");
        sys.enable_trace(256);
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(60.0)).expect("run");
        let cp = sys.checkpoint();
        let text = cp.to_json();
        let decoded = Checkpoint::from_json(&text).expect("decode");
        assert_eq!(decoded, cp);
        // Equal checkpoints serialize to byte-equal JSON.
        assert_eq!(decoded.to_json(), text);
    }

    #[test]
    fn resume_rejects_a_different_configuration() {
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(50.0)).expect("run");
        let cp = sys.checkpoint();
        let mut other = SimConfig::paper_default();
        other.dock_time = Seconds::new(other.dock_time.seconds() + 1.0);
        match DhlSystem::resume(other, &cp) {
            Err(SimError::CheckpointMismatch { expected, actual }) => {
                assert_eq!(expected, cp.fingerprint());
                assert_ne!(expected, actual);
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(matches!(
            Checkpoint::from_json("not json"),
            Err(CheckpointError::Json(_))
        ));
        assert!(matches!(
            Checkpoint::from_json("{\"version\": 99}"),
            Err(CheckpointError::Shape(_))
        ));
        assert!(matches!(
            Checkpoint::from_json("{}"),
            Err(CheckpointError::Shape(_))
        ));
    }

    #[test]
    fn checkpoint_accessors_report_capture_state() {
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(100.0)).expect("run");
        let cp = sys.checkpoint();
        assert_eq!(cp.time(), sys.now());
        assert!(cp.events_processed() > 0);
        assert_eq!(cp.fingerprint(), config_fingerprint(&cfg));
    }

    #[test]
    fn disabled_metrics_and_trace_stay_disabled_across_resume() {
        let cfg = SimConfig::paper_default();
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.set_metrics_enabled(false);
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(100.0)).expect("run");
        let cp = sys.checkpoint();
        let mut resumed = DhlSystem::resume(cfg, &cp).expect("resume");
        assert!(!resumed.metrics().is_enabled());
        assert!(resumed.take_trace().is_none());
        let _ = resumed.run_until(Seconds::new(f64::INFINITY)).expect("run");
        let report = resumed.finish();
        assert!(report.metrics.counters.is_empty());
    }

    #[test]
    fn worn_connectors_and_wear_counters_survive_resume() {
        // Dock-controller crashes keep the fault RNG and energy paths hot;
        // integrity adds connector matings and NAND wear counters on top.
        let mut cfg = crashing_dock_config();
        cfg.integrity = Some(IntegritySpec::typical());
        cfg.validate().expect("valid test config");
        let mut sys = DhlSystem::new(cfg.clone()).expect("valid config");
        sys.begin_bulk_transfer(Bytes::from_petabytes(PB2))
            .expect("begin");
        let _ = sys.run_until(Seconds::new(400.0)).expect("run");
        let cp = sys.checkpoint();
        let resumed = DhlSystem::resume(cfg, &cp).expect("resume");
        assert_eq!(resumed.checkpoint(), cp);
    }
}
