//! Chaos campaigns end-to-end: seeded fault plans against a real
//! ensemble, checkpointed recovery, and the degradation-aware scorecard
//! (paper §6 — faults/failures and network connectivity on a laptop).

use std::collections::BTreeMap;

use digibox_broker::QoS;
use digibox_core::campaign::Campaign;
use digibox_core::{AppEvent, Testbed, TestbedConfig};
use digibox_devices::{demo_room, full_catalog};
use digibox_model::Value;
use digibox_net::chaos::{FaultKind, FaultPlan, FaultSpec};
use digibox_net::SimDuration;
use digibox_trace::RecordKind;

fn mixed_plan() -> FaultPlan {
    FaultPlan::new("mixed", 40_000, 5_000)
        .with(FaultSpec {
            at_ms: 5_000,
            duration_ms: 3_000,
            jitter_ms: 2_000,
            kind: FaultKind::CrashDigi { digi: "O1".into() },
        })
        .with(FaultSpec {
            at_ms: 15_000,
            duration_ms: 5_000,
            jitter_ms: 1_000,
            kind: FaultKind::Partition { left: vec![0], right: vec![1] },
        })
        .with(FaultSpec {
            at_ms: 28_000,
            duration_ms: 5_000,
            jitter_ms: 2_000,
            kind: FaultKind::Degrade { loss: 0.15, extra_delay_ms: 10, extra_jitter_ms: 5 },
        })
}

#[test]
fn scorecard_digest_is_deterministic() {
    let campaign = Campaign::new(mixed_plan()).unwrap();
    let a = campaign.run_jobs(&[1, 2], 1, demo_room);
    let b = campaign.run_jobs(&[1, 2], 1, demo_room);
    assert_eq!(a.digest(), b.digest(), "same plan + seeds must give an identical scorecard");
    assert_eq!(a.to_json(), b.to_json());

    // a different seed takes a different trajectory (jittered windows,
    // different crash timing) — the digest must reflect that
    let c = campaign.run_jobs(&[3], 1, demo_room);
    assert_ne!(a.digest(), c.digest());
}

#[test]
fn restart_restores_checkpointed_model() {
    let mut tb = demo_room(7).unwrap();
    // drive the lamp on, then cross a checkpoint boundary (every 5 s by
    // default) so the "on" state lands in a snapshot
    tb.edit("L1", digibox_model::vmap! { "power" => "on" }).unwrap();
    tb.run_for(SimDuration::from_secs(6));
    let before = tb.check("L1").unwrap();
    assert_eq!(
        before.lookup(&"power.status".into()).and_then(Value::as_str),
        Some("on"),
        "lamp should be on before the crash"
    );

    tb.kill("L1").unwrap();
    tb.run_for(SimDuration::from_secs(3));

    // the supervisor restarted it from the checkpoint, not cold
    let restored_from_checkpoint = tb.log().records().iter().any(|r| {
        r.source == "L1"
            && matches!(
                &r.kind,
                RecordKind::Lifecycle { action, detail }
                    if action == "restarted" && detail == "from checkpoint"
            )
    });
    assert!(restored_from_checkpoint, "restart should restore the last checkpoint");
    let after = tb.check("L1").unwrap();
    assert_eq!(
        after.lookup(&"power.status".into()).and_then(Value::as_str),
        Some("on"),
        "restarted lamp must resume from its checkpointed state"
    );
}

#[test]
fn broker_crash_mid_qos2_handshake_is_exactly_once() {
    let mut tb = Testbed::ec2(
        2,
        full_catalog(),
        TestbedConfig { seed: 11, ..Default::default() },
    );
    let node = tb.broker_addr().node;
    let sub = tb.app_with_persistent_mqtt(node, "sub");
    let publisher = tb.app_with_persistent_mqtt(node, "pub");
    tb.run_for(SimDuration::from_millis(200));
    sub.borrow_mut().subscribe(tb.sim(), &[("chaos/t", QoS::ExactlyOnce)]);
    tb.run_for(SimDuration::from_millis(200));

    // three messages delivered while the broker is healthy...
    for i in 0..3 {
        let payload = format!("m{i}").into_bytes();
        publisher.borrow_mut().publish(tb.sim(), "chaos/t", payload, QoS::ExactlyOnce);
    }
    tb.run_for(SimDuration::from_secs(2));

    // ...then two more whose four-way handshakes the crash interrupts:
    // on the broker's own node 60 µs is enough for the PUBLISH legs to
    // land but not for the handshakes to finish (by ~200 µs both are
    // complete), so the broker dies holding half-open state.
    for i in 3..5 {
        let payload = format!("m{i}").into_bytes();
        publisher.borrow_mut().publish(tb.sim(), "chaos/t", payload, QoS::ExactlyOnce);
    }
    tb.run_for(SimDuration::from_micros(60));
    assert_eq!(publisher.borrow().unacked_publishes(), 2, "the crash must interrupt m3 and m4");
    tb.kill_broker(SimDuration::from_secs(3));
    assert!(tb.broker_down());

    // The subscriber is otherwise idle and would never notice the dead
    // broker; a heartbeat publish gives its transport traffic to time out
    // on, which triggers the persistent client's redial loop.
    sub.borrow_mut().publish(tb.sim(), "hb/sub", &b"ping"[..], QoS::AtLeastOnce);

    // Outage (3 s) + two retry-exhaustion cycles per client (~2.75 s
    // each: the first redial rides the stale transport stream) + the
    // resumed retransmits. 20 s is a comfortable envelope.
    tb.run_for(SimDuration::from_secs(20));
    assert!(!tb.broker_down(), "broker restarted by the scheduled rebind");

    let killed = tb.log().records().iter().any(|r| {
        r.source == "broker"
            && matches!(&r.kind, RecordKind::Lifecycle { action, .. } if action == "killed")
    });
    let restarted = tb.log().records().iter().any(|r| {
        r.source == "broker"
            && matches!(&r.kind, RecordKind::Lifecycle { action, .. } if action == "restarted")
    });
    assert!(killed, "broker kill should be logged");
    assert!(restarted, "broker restart should be logged");

    // Exactly once: every payload arrives, none twice — the interrupted
    // handshakes finish via DUP retransmit + packet-id dedup on the
    // sessions the fresh broker imported from the checkpoint store.
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for ev in sub.borrow_mut().poll_all() {
        if let AppEvent::Message { topic, payload } = ev {
            if topic == "chaos/t" {
                *counts.entry(String::from_utf8_lossy(&payload).into_owned()).or_default() += 1;
            }
        }
    }
    for i in 0..5 {
        let p = format!("m{i}");
        assert_eq!(
            counts.get(&p),
            Some(&1),
            "payload {p} must be delivered exactly once: {counts:?}"
        );
    }
    assert_eq!(counts.len(), 5, "no stray deliveries: {counts:?}");

    // both durable sessions resumed on the post-restart broker
    let broker = tb.broker();
    let stats = broker.borrow().stats().clone();
    assert!(
        stats.session_resumes >= 2,
        "both persistent clients should resume their sessions: {stats:?}"
    );
    assert_eq!(publisher.borrow().unacked_publishes(), 0, "all handshakes completed");
}

/// A campaign whose only fault is a broker-pod crash. Generous
/// convergence: after the rebind each client needs two retry-exhaustion
/// cycles (~5.5 s) before its redial lands, then the 5 s property
/// deadline on top.
fn broker_crash_plan() -> FaultPlan {
    FaultPlan::new("broker-crash", 45_000, 15_000).with(FaultSpec {
        at_ms: 5_000,
        duration_ms: 4_000,
        jitter_ms: 1_000,
        kind: FaultKind::CrashBroker,
    })
}

#[test]
fn broker_crash_campaign_is_clean_and_jobs_invariant() {
    let campaign = Campaign::new(broker_crash_plan()).unwrap();
    let a = campaign.run_jobs(&[1, 2], 1, demo_room);
    let b = campaign.run_jobs(&[1, 2], 2, demo_room);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "scorecard must be byte-identical across --jobs"
    );
    assert_eq!(a.digest(), b.digest());

    assert!(a.errors.is_empty(), "no seed may fail: {a:?}");
    for s in &a.per_seed {
        assert!(
            s.metrics.get("control.broker_restarts").copied().unwrap_or(0) >= 1,
            "the broker crash must actually happen (seed {}): {:?}",
            s.seed,
            s.metrics
        );
    }

    // exactly-once under chaos: once the broker is back and the ensemble
    // has had its convergence grace, the scene satisfies its properties
    assert_eq!(
        a.post_heal_violations(),
        0,
        "post-heal violations:\n{}",
        a.render()
    );
    assert!(a.clean());
}

#[test]
fn library_campaign_is_clean_post_heal() {
    let campaign = Campaign::new(mixed_plan()).unwrap();
    let scorecard = campaign.run_jobs(&[1, 2], 1, demo_room);

    // the faults really happened...
    let restarts: u64 =
        scorecard.per_seed.iter().flat_map(|s| s.restarts.values()).sum();
    assert!(restarts >= 2, "each seed should restart the crashed digi: {scorecard:?}");
    for s in &scorecard.per_seed {
        let worst =
            s.availability.values().cloned().fold(1.0_f64, f64::min);
        assert!(worst < 1.0, "the crashed digi should show downtime (seed {})", s.seed);
        assert!(s.checkpoints_taken > 0, "checkpoints should be taken (seed {})", s.seed);
    }

    // ...and yet after every window heals + convergence grace, the
    // ensemble settles: no hard failures
    assert_eq!(
        scorecard.post_heal_violations(),
        0,
        "post-heal violations:\n{}",
        scorecard.render()
    );
    assert!(scorecard.clean());
}
