//! Fault injection (paper §6: "hardware intricacies such as device
//! actuation delays, faults/failures, and network connectivity"): crashes,
//! restarts, node failures, lossy links, actuation failures.

use std::collections::BTreeMap;

use digibox_integration::{laptop, no_params};
use digibox_broker::QoS;
use digibox_core::{Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_model::Value;
use digibox_net::{LinkSpec, SimDuration};

#[test]
fn crashed_mock_fires_last_will_and_restarts() {
    // broker keep-alive replaces the old busy-loop (edit 12 times until
    // the dead endpoint exhausts transport retries): with a session
    // timeout set, the broker probes the silent session on its own.
    let mut tb = Testbed::laptop(
        full_catalog(),
        TestbedConfig {
            seed: 1,
            broker_session_timeout: Some(SimDuration::from_secs(2)),
            ..Default::default()
        },
    );
    tb.run("Lamp", "L1").unwrap();
    tb.run_for(SimDuration::from_secs(1));

    // a watcher app subscribed to last-wills, and a second app that will
    // die silently and never come back
    let node = tb.broker_addr().node;
    let watcher = tb.app_with_mqtt(node, "watcher");
    watcher.borrow_mut().subscribe(tb.sim(), &[("digibox/lwt/+", QoS::AtMostOnce)]);
    let mortal = tb.app_with_mqtt(node, "mortal");
    tb.run_for(SimDuration::from_millis(100));

    tb.kill("L1").unwrap();
    let mortal_addr = mortal.borrow().addr();
    tb.sim().unbind(mortal_addr);
    // timeout (2 s) + the probe's retransmits exhausting (~55×RTO) + margin
    tb.run_for(SimDuration::from_secs(8));

    let events = watcher.borrow_mut().poll_all();
    let lwt_seen = events.iter().any(|e| match e {
        digibox_core::AppEvent::Message { topic, .. } => topic == "digibox/lwt/L1",
        _ => false,
    });
    assert!(lwt_seen, "broker should publish the last-will of the crashed digi");
    let stats = tb.broker().borrow().stats().clone();
    // The supervisor restarts the lamp 500 ms after the crash, so its new
    // incarnation takes the session over (firing the will) before any
    // probe could give up on it. Nothing restarts `mortal`: only the
    // keep-alive can reap that session.
    assert_eq!(stats.wills_fired, 1, "{stats:?}");
    assert!(
        stats.session_takeovers >= 1,
        "the restarted lamp should take its session over: {stats:?}"
    );
    assert!(
        stats.sessions_expired >= 1,
        "keep-alive should have reaped the dead session: {stats:?}"
    );

    // and the control plane restarted it
    assert!(tb.check("L1").is_ok(), "digi restarted after crash");
    let restarts = tb.log().view().source("L1").tag("lifecycle").collect();
    assert!(
        restarts.iter().any(|r| matches!(
            &r.kind,
            digibox_trace::RecordKind::Lifecycle { action, .. } if action == "restarted"
        )),
        "restart should be logged"
    );
}

#[test]
fn scene_reconverges_after_child_restart() {
    let mut tb = laptop(2);
    tb.run_with("Occupancy", "O1", no_params(), true).unwrap();
    tb.run_with("Room", "R1", no_params(), false).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "R1").unwrap();
    tb.run_for(SimDuration::from_secs(5));

    tb.kill("O1").unwrap();
    tb.run_for(SimDuration::from_secs(5));
    // O1 is back, and the supervisor re-attached it to R1 on its own —
    // no operator intervention needed
    assert!(tb.check("O1").is_ok());
    assert!(
        tb.check("R1").unwrap().meta.attach.contains(&"O1".to_string()),
        "restarted child should be re-attached to its scene automatically"
    );
    tb.run_for(SimDuration::from_secs(10));
    let presence = tb
        .check("R1")
        .unwrap()
        .lookup(&"human_presence".into())
        .and_then(Value::as_bool)
        .unwrap();
    let triggered = tb
        .check("O1")
        .unwrap()
        .lookup(&"triggered".into())
        .and_then(Value::as_bool)
        .unwrap();
    assert_eq!(presence, triggered, "restarted sensor must re-sync with its room");
}

#[test]
fn lossy_network_does_not_break_coordination() {
    // inject loss on the loopback: every digi↔broker message risks a drop;
    // the reliable transport must hide it
    let mut tb = laptop(3);
    tb.sim().topology_mut().set_loopback(LinkSpec {
        base_delay: SimDuration::from_micros(25),
        jitter: SimDuration::from_micros(500),
        loss: 0.10,
        bandwidth_bps: 0,
    });
    tb.run_with("Occupancy", "O1", no_params(), true).unwrap();
    tb.run_with("Occupancy", "O2", no_params(), true).unwrap();
    tb.run("Room", "R1").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "R1").unwrap();
    tb.attach("O2", "R1").unwrap();
    tb.run_for(SimDuration::from_secs(30));

    // loss actually happened...
    assert!(tb.sim().stats().datagrams_lost > 0, "loss model should have dropped packets");
    // ...but the ensemble still converged
    let presence = tb
        .check("R1")
        .unwrap()
        .lookup(&"human_presence".into())
        .and_then(Value::as_bool)
        .unwrap();
    for s in ["O1", "O2"] {
        let t = tb.check(s).unwrap().lookup(&"triggered".into()).and_then(Value::as_bool).unwrap();
        assert_eq!(t, presence, "{s} out of sync despite reliable transport");
    }
}

#[test]
fn actuation_failure_is_observable() {
    // a flaky lock (fail_prob=1.0) never actuates; the model records it
    let mut tb = laptop(4);
    let mut params: BTreeMap<String, Value> = BTreeMap::new();
    params.insert("fail_prob".into(), Value::Float(1.0));
    tb.run_with("DoorLock", "D1", params, false).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.edit("D1", digibox_model::vmap! { "locked" => true }).unwrap();
    tb.run_for(SimDuration::from_secs(2));
    let model = tb.check("D1").unwrap();
    assert_eq!(model.status(&"locked".into()).unwrap().as_bool(), Some(false));
    assert_eq!(
        model.lookup(&"last_actuation".into()).unwrap().as_str(),
        Some("failed"),
        "the app can observe the failed actuation"
    );
}

#[test]
fn cluster_scale_survives_node_count_one() {
    // degenerate topology: everything on one node still works (the
    // laptop IS the cluster — the paper's premise)
    let mut tb = Testbed::ec2(1, full_catalog(), TestbedConfig { seed: 5, ..Default::default() });
    for i in 0..20 {
        tb.run_with("Occupancy", &format!("O{i}"), no_params(), true).unwrap();
    }
    tb.run("Room", "R1").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    for i in 0..20 {
        tb.attach(&format!("O{i}"), "R1").unwrap();
    }
    tb.run_for(SimDuration::from_secs(10));
    let presence = tb
        .check("R1")
        .unwrap()
        .lookup(&"human_presence".into())
        .and_then(Value::as_bool)
        .unwrap();
    for i in 0..20 {
        let t = tb
            .check(&format!("O{i}"))
            .unwrap()
            .lookup(&"triggered".into())
            .and_then(Value::as_bool)
            .unwrap();
        assert_eq!(t, presence);
    }
}

#[test]
fn node_failure_reschedules_to_survivor() {
    let mut tb = Testbed::ec2(2, full_catalog(), TestbedConfig { seed: 3, ..Default::default() });
    let lamps: Vec<String> = (0..6).map(|i| format!("L{i}")).collect();
    for name in &lamps {
        tb.run("Lamp", name).unwrap();
    }
    tb.run_for(SimDuration::from_secs(1));
    for name in &lamps {
        tb.edit(name, digibox_model::vmap! { "power" => "on" }).unwrap();
    }
    // past the first checkpoint (every 5 s), so each lamp is saved "on"
    tb.run_for(SimDuration::from_secs(5));
    let victim = tb.digi_addr("L0").unwrap().node;
    let on_victim: Vec<&String> =
        lamps.iter().filter(|n| tb.digi_addr(n).unwrap().node == victim).collect();
    assert!(on_victim.len() < lamps.len(), "spread placement used both nodes");

    let seq0 = tb.log().records().last().map(|r| r.seq);
    tb.fail_node(victim).unwrap();
    // the first restart backoff (500 ms) plus the container start
    tb.run_for(SimDuration::from_secs(3));
    let records = tb.log().since(seq0);
    for name in &lamps {
        let lifecycle: Vec<(&str, &str)> = records
            .iter()
            .filter(|r| &r.source == name)
            .filter_map(|r| match &r.kind {
                digibox_trace::RecordKind::Lifecycle { action, detail }
                    if action == "killed" || action == "restarted" =>
                {
                    Some((action.as_str(), detail.as_str()))
                }
                _ => None,
            })
            .collect();
        let node = tb.digi_addr(name).unwrap().node;
        if on_victim.contains(&name) {
            assert_eq!(lifecycle, [("killed", ""), ("restarted", "from checkpoint")], "{name}");
            assert_ne!(node, victim, "{name} restarted on the failed node");
        } else {
            assert!(lifecycle.is_empty(), "{name} on the survivor was restarted: {lifecycle:?}");
        }
        let power = tb.check(name).unwrap().lookup(&"power.status".into()).cloned();
        assert_eq!(power, Some(Value::from("on")), "{name} resumed its checkpointed state");
    }

    // Restored, the now-empty node is the least allocated one again.
    tb.restore_node(victim);
    tb.run("Lamp", "L6").unwrap();
    assert_eq!(tb.digi_addr("L6").unwrap().node, victim);
}

/// A `killed` or `restarted` lifecycle record's action and detail.
fn kill_or_restart(r: &digibox_trace::TraceRecord) -> Option<(&str, &str)> {
    match &r.kind {
        digibox_trace::RecordKind::Lifecycle { action, detail }
            if action == "killed" || action == "restarted" =>
        {
            Some((action.as_str(), detail.as_str()))
        }
        _ => None,
    }
}

#[test]
fn node_failure_restarts_a_pool_from_its_checkpoints() {
    let mut tb = Testbed::ec2(2, full_catalog(), TestbedConfig { seed: 3, ..Default::default() });
    let lamps: Vec<String> = (0..6).map(|i| format!("P{i}")).collect();
    let (pool, pool_addr) = tb.run_pool("Lamp", &lamps, no_params(), false).unwrap();
    let editor = tb.app_with_mqtt(tb.broker_addr().node, "editor");
    tb.run_for(SimDuration::from_secs(1));
    let intent = |tb: &mut Testbed, payload: &'static str| {
        for name in &lamps {
            let topic = format!("digibox/digi/{name}/intent");
            editor.borrow_mut().publish(tb.sim(), &topic, payload.as_bytes(), QoS::AtLeastOnce);
        }
    };
    intent(&mut tb, r#"{"power": "on"}"#);
    // past the first checkpoint (every 5 s), so each lamp is saved "on"
    tb.run_for(SimDuration::from_secs(5));
    for name in &lamps {
        let power = pool.borrow().model(name).unwrap().lookup(&"power.status".into()).cloned();
        assert_eq!(power, Some(Value::from("on")), "{name} was switched on");
    }

    let victim = pool_addr.node;
    let seq0 = tb.log().records().last().map(|r| r.seq);
    tb.fail_node(victim).unwrap();
    // An intent sent while the pool is down reaches no live digi.
    intent(&mut tb, r#"{"intensity": 0.5}"#);
    // the first restart backoff (500 ms) plus the container start
    tb.run_for(SimDuration::from_secs(3));
    assert!(!tb.sim().is_bound(pool_addr), "the failed node's pool is still bound");
    let records = tb.log().since(seq0);
    for name in &lamps {
        let mine: Vec<&digibox_trace::TraceRecord> =
            records.iter().filter(|r| &r.source == name).collect();
        let lives: Vec<(&str, &str)> = mine.iter().filter_map(|r| kill_or_restart(r)).collect();
        assert_eq!(lives, [("killed", ""), ("restarted", "from checkpoint")], "{name}");
        // Dead between the failure and the restart: nothing but the kill.
        let down: Vec<_> = mine
            .iter()
            .skip(1)
            .take_while(|r| kill_or_restart(r).is_none())
            .map(|r| &r.kind)
            .collect();
        assert!(down.is_empty(), "{name} wrote records while its pool was down: {down:?}");
        assert_ne!(tb.digi_addr(name).unwrap().node, victim, "{name} restarted on the failed node");
        let power = tb.check(name).unwrap().lookup(&"power.status".into()).cloned();
        assert_eq!(power, Some(Value::from("on")), "{name} resumed its checkpointed state");
    }
    assert_eq!(tb.digi_count(), lamps.len());
    let node = tb.digi_addr("P0").unwrap().node;
    assert_eq!(tb.pod_phase("P0").and_then(|p| p.node()), Some(node), "the pool's pod moved");
}

#[test]
fn pooled_child_rejoins_its_scene_after_its_pool_restarts() {
    let mut tb = laptop(6);
    let sensors: Vec<String> = (0..3).map(|i| format!("O{i}")).collect();
    tb.run_pool("Occupancy", &sensors, no_params(), true).unwrap();
    tb.run("Room", "R1").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    for name in &sensors {
        tb.attach(name, "R1").unwrap();
    }
    tb.run_for(SimDuration::from_secs(5));

    // A crash of one pooled digi takes its whole pool down.
    tb.kill("O1").unwrap();
    assert_eq!(tb.digi_count(), 1, "only the room survives its sensors' pool");
    assert!(tb.check("O0").is_err(), "a pooled digi is down with its pool");
    tb.run_for(SimDuration::from_secs(5));
    assert_eq!(tb.digi_count(), 4);
    let room = tb.check("R1").unwrap();
    assert_eq!(room.meta.attach, sensors, "the room lists its restarted sensors");
    tb.run_for(SimDuration::from_secs(10));
    let presence = tb
        .check("R1")
        .unwrap()
        .lookup(&"human_presence".into())
        .and_then(Value::as_bool)
        .unwrap();
    for name in &sensors {
        let t = tb.check(name).unwrap().lookup(&"triggered".into()).and_then(Value::as_bool);
        assert_eq!(t, Some(presence), "{name} out of sync with its room after the restart");
    }
}
