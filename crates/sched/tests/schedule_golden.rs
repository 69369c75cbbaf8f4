//! Golden pin of the scheduler's serving timelines.
//!
//! 72 scenarios — 6 seeds × {`PriorityFifo`, `ShortestJobFirst`} × 6
//! variants spanning the closed loop (plain, and with loss, reshipment,
//! dock crashes and a downtime window) and the open loop (each overload
//! policy, dock backpressure, deadline-aware admission, and budgeted
//! backed-off retries) — are run to completion. Every field of each
//! [`ScheduleOutcome`] except the wall-clock `metrics` snapshot is hashed
//! (floats by their bit pattern), together with the availability tracker's
//! track and per-endpoint dock downtime and per-dataset transit load.
//!
//! The constants were captured from the two-copy closed/open-loop code
//! before it was collapsed onto one shared round-trip step, so any change to
//! draw order, timing arithmetic, or accounting shows up here as a hash
//! mismatch. A deliberate behaviour change must re-pin the table and say why.

use dhl_sched::admission::{AdmissionReport, AdmissionSpec, OverloadPolicy, RetryBudgetSpec};
use dhl_sched::placement::{DatasetId, Placement};
use dhl_sched::scheduler::{
    DockRecoveryAwareness, FaultAwareness, IntegrityAwareness, Policy, Priority, ScheduleOutcome,
    Scheduler, TransferRequest,
};
use dhl_sched::TenantId;
use dhl_sim::{EndpointKind, EndpointSpec, SimConfig};
use dhl_storage::datasets::{Dataset, DatasetKind};
use dhl_units::{Bytes, Metres, Seconds};

const SEEDS: [u64; 6] = [1, 7, 42, 1009, 104_729, 0xDEAD_BEEF];
const POLICIES: [Policy; 2] = [Policy::PriorityFifo, Policy::ShortestJobFirst];
const VARIANTS: [&str; 6] = [
    "closed_plain",
    "closed_faults",
    "open_reject_deadline",
    "open_shed_watermark",
    "open_degrade",
    "open_retries",
];

/// `GOLDEN[variant][policy][seed]`, indices as in the arrays above.
const GOLDEN: [[[u64; 6]; 2]; 6] = [
    [
        [
            0xc87e4a424f34a8a8,
            0xe162e27f8edfb9de,
            0x0f16618715c21e95,
            0xe37641bf8719b9c0,
            0x673db563427e4753,
            0x2e3bfe1ee0d71a0a,
        ],
        [
            0x9aba8c40cec84f57,
            0x3aa4dec7b36d80d1,
            0x8fbd07f23a8b72ff,
            0x620b3d15998b463c,
            0x605ce6c620f6733b,
            0xaf00d1422ae4ed79,
        ],
    ],
    [
        [
            0x9c95c10c4de265ec,
            0xca23c09bcfc6ccc9,
            0xabfa939a93613163,
            0x3c79c3b35d5a7b89,
            0x0b03094514260818,
            0x613953ba5d8d3ca8,
        ],
        [
            0xae56f4dfb44b0965,
            0xd890f6b6cfa0a85c,
            0x7f2b152968688fed,
            0x5768b284dc5f4e0f,
            0x12a5d234546b0dd6,
            0x7aab04e70180a2df,
        ],
    ],
    [
        [
            0xc5dd3a89f5b11252,
            0x10a73d9c9003397d,
            0x8e6d61f7298632e6,
            0x5824122843fae423,
            0xa96e11498fa50317,
            0xb501513668322300,
        ],
        [
            0x6e08c2719b879e7e,
            0xe2e699efe23e914c,
            0xc5fd05240e61901e,
            0xbe0e1381ec2030b3,
            0x2ded66fbfe2de05a,
            0x1c22d271ec949dc2,
        ],
    ],
    [
        [
            0x94e3f64c2e3ff379,
            0x4f13827c8a68df09,
            0x4fefe780d26db764,
            0x65128b682b01e5d5,
            0xacd0989409fbe6cc,
            0xbadd739e1c358d27,
        ],
        [
            0x195a33388cb2a5e4,
            0x24fc272f8d03ba19,
            0xbe87106d5fc863fc,
            0x8d34a0c1729cc60d,
            0x63162da0997294b8,
            0x1d157218221f1bbd,
        ],
    ],
    [
        [
            0x1825b8e48452bfc5,
            0x89be6409c0883d36,
            0x11b81f6784f8566a,
            0x30ae59b9d2a8727b,
            0xe858ed0686bf2c66,
            0x73b5c1fba534f73e,
        ],
        [
            0x2769c84ed5cecd88,
            0x67440e1555ce9734,
            0x1f10ecf9dc8f48ac,
            0xbc196cdd61de312c,
            0x4a8931ca36dd9ac3,
            0xdffed92520db6c92,
        ],
    ],
    [
        [
            0xd0332020d8bb642a,
            0x06726dabe8ebcbf2,
            0xc81ac5fc874485da,
            0xf6c256ceeed30d1c,
            0x489dd518752bd8e4,
            0xf39fcee1c34b5f5f,
        ],
        [
            0x3d83b4901feb5e41,
            0xe28d1cfb2d856a50,
            0x22c3264b7311408c,
            0xfd3aa249cab6df15,
            0x50284961b6a5e046,
            0xeb200efb00dd0aaf,
        ],
    ],
];

/// 64-bit FNV-1a: tiny, and stable across toolchains (unlike `std`'s
/// `DefaultHasher`, whose algorithm is unspecified).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn secs(&mut self, v: Seconds) {
        self.f64(v.seconds());
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The paper's library + 500 m rack, plus two farther racks with fewer
/// docks so routing, dock contention and the per-endpoint trip cache all
/// see more than one destination.
fn config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    for (position, docks) in [(1200.0, 2), (2500.0, 1)] {
        cfg.endpoints.push(EndpointSpec {
            position: Metres::new(position),
            docks,
            kind: EndpointKind::Rack,
        });
    }
    cfg
}

fn dataset(tb: f64) -> Dataset {
    Dataset {
        name: "golden".into(),
        size: Bytes::from_terabytes(tb),
        kind: DatasetKind::BigData,
    }
}

/// A seeded request stream: 1-, 3- and 8-cart datasets, every priority,
/// three racks, equal-arrival ties, dwell, four tenants, and deadlines on
/// about half the requests. Arrivals are dense enough to overload the
/// track, so the open-loop variants exercise their admission paths.
fn workload(seed: u64, placement: &mut Placement) -> Vec<TransferRequest> {
    let ids: Vec<DatasetId> = [100.0, 700.0, 2000.0]
        .into_iter()
        .map(|tb| placement.store(dataset(tb)))
        .collect();
    let mut rng = seed | 1;
    let mut arrival = 0.0f64;
    (0..48)
        .map(|_| {
            if !xorshift(&mut rng).is_multiple_of(4) {
                arrival += (xorshift(&mut rng) % 200) as f64 * 0.5;
            }
            let dataset = ids[(xorshift(&mut rng) % 3) as usize];
            let destination = 1 + (xorshift(&mut rng) % 3) as usize;
            let priority = match xorshift(&mut rng) % 3 {
                0 => Priority::Background,
                1 => Priority::Normal,
                _ => Priority::Urgent,
            };
            let mut req =
                TransferRequest::new(dataset, destination, priority, Seconds::new(arrival))
                    .with_dwell(Seconds::new((xorshift(&mut rng) % 3) as f64 * 20.0))
                    .with_tenant(TenantId((xorshift(&mut rng) % 4) as u32));
            if xorshift(&mut rng).is_multiple_of(2) {
                let slack = (xorshift(&mut rng) % 2000) as f64;
                req = req.with_deadline(Seconds::new(arrival + slack));
            }
            req
        })
        .collect()
}

fn with_faults(sched: Scheduler, seed: u64) -> Scheduler {
    sched
        .with_faults(FaultAwareness {
            loss_probability: 0.15,
            max_attempts: 3,
            seed: seed ^ 0x1111,
            downtime: vec![
                (Seconds::new(500.0), Seconds::new(900.0)),
                (Seconds::new(850.0), Seconds::new(1000.0)),
            ],
        })
        .with_integrity(IntegrityAwareness {
            reshipment_probability: 0.1,
            verify_time: Seconds::new(2.0),
            max_attempts: 3,
            seed: seed ^ 0x2222,
        })
        .with_dock_recovery(DockRecoveryAwareness {
            crash_probability_per_docking: 0.1,
            recovery_time: Seconds::new(45.0),
            seed: seed ^ 0x3333,
        })
}

fn run(variant: usize, policy: Policy, seed: u64) -> (ScheduleOutcome, Scheduler) {
    let mut placement = Placement::new(Bytes::from_terabytes(256.0));
    let requests = workload(seed, &mut placement);
    let mut sched = Scheduler::new(config(), placement)
        .unwrap()
        .with_policy(policy);
    let verify_only = IntegrityAwareness::verification_only(Seconds::new(2.0));
    sched = match variant {
        0 => sched,
        1 => with_faults(sched, seed),
        2 => sched
            .with_integrity(verify_only)
            .with_admission(AdmissionSpec {
                max_pending_global: 12,
                max_pending_per_tenant: 5,
                policy: OverloadPolicy::Reject,
                deadline_aware: true,
                seed,
                ..AdmissionSpec::default()
            }),
        3 => sched
            .with_integrity(verify_only)
            .with_admission(AdmissionSpec {
                max_pending_global: 8,
                max_pending_per_tenant: 4,
                policy: OverloadPolicy::ShedLowestPriority,
                dock_busy_watermark: 0.5,
                seed,
                ..AdmissionSpec::default()
            }),
        4 => sched
            .with_integrity(verify_only)
            .with_admission(AdmissionSpec {
                max_pending_global: 10,
                max_pending_per_tenant: 6,
                policy: OverloadPolicy::DegradeToBestEffort,
                deadline_aware: true,
                dock_busy_watermark: 0.75,
                seed,
                ..AdmissionSpec::default()
            }),
        _ => with_faults(sched, seed).with_admission(AdmissionSpec {
            max_pending_global: 32,
            max_pending_per_tenant: 16,
            policy: OverloadPolicy::Reject,
            retry: RetryBudgetSpec {
                max_attempts_per_request: 4,
                tokens_per_tenant: 2,
                backoff_base: Seconds::new(7.0),
                backoff_multiplier: 2.0,
                backoff_cap: Seconds::new(90.0),
                jitter_fraction: 0.3,
            },
            seed,
            ..AdmissionSpec::default()
        }),
    };
    for r in requests {
        sched.submit(r);
    }
    let out = sched.try_run().expect("golden scenarios are valid");
    (out, sched)
}

fn hash_report(h: &mut Fnv, r: &AdmissionReport) {
    for v in [
        r.offered,
        r.admitted,
        r.served,
        r.rejected_queue_full,
        r.rejected_deadline,
        r.rejected_backpressure,
        r.shed,
        r.degraded,
        r.retries,
        r.retry_tokens_exhausted,
        r.abandoned_shards,
        r.deadline_hits,
        r.deadline_misses,
    ] {
        h.u64(v);
    }
    h.f64(r.offered_bytes);
    h.f64(r.delivered_bytes);
    h.f64(r.goodput_bytes_per_s);
    for ids in [&r.rejected_ids, &r.shed_ids] {
        h.u64(ids.len() as u64);
        for id in ids {
            h.u64(id.0);
        }
    }
    h.u64(r.tenants.len() as u64);
    for t in &r.tenants {
        h.u64(u64::from(t.tenant.0));
        for v in [
            t.offered,
            t.admitted,
            t.served,
            t.rejected,
            t.shed,
            t.degraded,
            t.retries,
            t.abandoned_shards,
            t.deadline_hits,
            t.deadline_misses,
        ] {
            h.u64(v);
        }
        h.f64(t.delivered_bytes);
        let l = &t.latency;
        h.u64(l.count);
        for v in [l.mean, l.p50, l.p95, l.p99, l.max] {
            h.f64(v);
        }
    }
}

fn fingerprint(out: &ScheduleOutcome, sched: &Scheduler) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.completed.len() as u64);
    for o in &out.completed {
        h.u64(o.id.0);
        h.secs(o.started);
        h.secs(o.delivered);
        h.secs(o.completed);
        h.u64(o.deliveries);
        h.f64(o.energy.value());
        h.u64(o.redeliveries);
        h.u64(o.reshipments);
        h.u64(o.abandoned);
        h.u64(o.dock_crashes);
    }
    h.secs(out.makespan);
    h.f64(out.total_energy.value());
    h.f64(out.track_utilisation);
    match &out.admission {
        None => h.u64(0),
        Some(report) => {
            h.u64(1);
            hash_report(&mut h, report);
        }
    }
    let availability = sched.availability();
    h.secs(availability.total_track_downtime());
    for ep in 0..config().endpoints.len() {
        h.secs(availability.total_dock_downtime(ep));
    }
    for id in sched.placement().dataset_ids() {
        h.u64(availability.transit_count(id) as u64);
        h.secs(availability.total_transit_time(id));
    }
    h.0
}

#[test]
fn schedules_match_the_golden_pin() {
    let mut actual = [[[0u64; 6]; 2]; 6];
    let mut mismatches = Vec::new();
    for (v, variant) in VARIANTS.iter().enumerate() {
        for (p, &policy) in POLICIES.iter().enumerate() {
            for (s, &seed) in SEEDS.iter().enumerate() {
                let (out, sched) = run(v, policy, seed);
                let got = fingerprint(&out, &sched);
                actual[v][p][s] = got;
                if got != GOLDEN[v][p][s] {
                    mismatches.push(format!("{variant} {policy:?} seed {seed}"));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of 72 schedules differ from the golden pin: {mismatches:?}\nactual table:\n{actual:#018x?}",
        mismatches.len()
    );
}

/// The scenarios must actually reach the paths they claim to pin: losses,
/// reshipments, crashes and abandonment on the closed loop; rejections,
/// sheds, degradations, retries and token exhaustion on the open loop.
#[test]
fn golden_scenarios_exercise_every_path() {
    let mut closed = [0u64; 4];
    let mut open = AdmissionReport::default();
    for &policy in &POLICIES {
        for &seed in &SEEDS {
            let (out, _) = run(1, policy, seed);
            for o in &out.completed {
                closed[0] += o.redeliveries;
                closed[1] += o.reshipments;
                closed[2] += o.dock_crashes;
                closed[3] += o.abandoned;
            }
            for v in 2..6 {
                let (out, _) = run(v, policy, seed);
                let r = out.admission.expect("open loop reports admission");
                open.rejected_deadline += r.rejected_deadline;
                open.rejected_queue_full += r.rejected_queue_full;
                open.rejected_backpressure += r.rejected_backpressure;
                open.shed += r.shed;
                open.degraded += r.degraded;
                open.retries += r.retries;
                open.retry_tokens_exhausted += r.retry_tokens_exhausted;
            }
        }
    }
    assert!(
        closed.iter().all(|&c| c > 0),
        "closed-loop faults {closed:?}"
    );
    for (name, count) in [
        ("rejected_deadline", open.rejected_deadline),
        ("rejected_queue_full", open.rejected_queue_full),
        ("rejected_backpressure", open.rejected_backpressure),
        ("shed", open.shed),
        ("degraded", open.degraded),
        ("retries", open.retries),
        ("retry_tokens_exhausted", open.retry_tokens_exhausted),
    ] {
        assert!(count > 0, "no scenario reached {name}");
    }
}
