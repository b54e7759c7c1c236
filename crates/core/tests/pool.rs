//! Pooled (FaaS-style) execution: pooled digis behave like dedicated ones
//! from an application's point of view, at a fraction of the runtime cost.

use std::collections::BTreeMap;

use digibox_core::program::{DigiProgram, LoopCtx, SimCtx};
use digibox_core::{AppEvent, Catalog, FidelityMode, Testbed, TestbedConfig};
use digibox_model::{vmap, FieldKind, Schema, Value};
use digibox_net::SimDuration;
use digibox_orchestrator::PodPhase;

struct Counter;
impl DigiProgram for Counter {
    fn kind(&self) -> &str {
        "Counter"
    }
    fn version(&self) -> &str {
        "v1"
    }
    fn program_id(&self) -> &str {
        "test/counter"
    }
    fn schema(&self) -> Schema {
        Schema::new("Counter", "v1")
            .field("n", FieldKind::int())
            .field("limit", FieldKind::pair(FieldKind::int()))
    }
    fn on_loop(&mut self, ctx: &mut LoopCtx) {
        let n = ctx.model.lookup(&"n".into()).and_then(Value::as_int).unwrap_or(0);
        ctx.update(vmap! { "n" => n + 1 });
    }
    fn on_model(&mut self, ctx: &mut SimCtx) {
        if let Some(want) = ctx.intent("limit").cloned() {
            ctx.set_status("limit", want);
        }
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(|| Box::new(Counter)).unwrap();
    c
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("C{i}")).collect()
}

#[test]
fn pooled_digis_tick_and_publish() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (pool, _) = tb.run_pool("Counter", &names(10), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(5));
    let p = pool.borrow();
    assert_eq!(p.len(), 10);
    let stats = p.stats();
    assert!(stats.ticks_dispatched >= 30, "ticks: {}", stats.ticks_dispatched);
    // the wheel consolidates: far fewer wakeups than (cells × ticks)
    assert!(stats.wheel_wakeups <= stats.ticks_dispatched);
    for name in p.names() {
        let n = p.model(name).unwrap().lookup(&"n".into()).and_then(Value::as_int).unwrap();
        assert!(n >= 3, "{name} only ticked {n} times");
    }
    // the trace logged pooled digi events like any other digi's
    assert!(tb.log().view().source("C0").tag("event").count() >= 3);
}

#[test]
fn pooled_rest_api_is_indistinguishable() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (_pool, pool_addr) = tb.run_pool("Counter", &names(3), BTreeMap::new(), true).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    let app = tb.app(pool_addr.node);
    app.borrow_mut().get(tb.sim(), pool_addr, "/digi/C1/model");
    tb.run_for(SimDuration::from_millis(200));
    let events = app.borrow_mut().poll_all();
    let AppEvent::Response { status, body, .. } = &events[0] else {
        panic!("expected response, got {events:?}");
    };
    assert_eq!(*status, 200);
    let json = Value::from_json(body).unwrap();
    assert_eq!(json.get("meta").and_then(|m| m.get("name")).and_then(Value::as_str), Some("C1"));
    // unknown digi in the pool → 404
    app.borrow_mut().get(tb.sim(), pool_addr, "/digi/ghost/model");
    tb.run_for(SimDuration::from_millis(200));
    let events = app.borrow_mut().poll_all();
    assert!(matches!(events[0], AppEvent::Response { status: 404, .. }));
}

#[test]
fn pooled_intents_arrive_over_mqtt() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (pool, _) = tb.run_pool("Counter", &names(3), BTreeMap::new(), true).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    // publish an intent through the broker, exactly like `dbox edit`
    let app = tb.app_with_mqtt(tb.broker_addr().node, "editor");
    tb.run_for(SimDuration::from_millis(100));
    app.borrow_mut().publish(
        tb.sim(),
        "digibox/digi/C2/intent",
        &br#"{"limit": 99}"#[..],
        digibox_broker::QoS::AtLeastOnce,
    );
    tb.run_for(SimDuration::from_millis(500));
    let p = pool.borrow();
    let limit = p
        .model("C2")
        .unwrap()
        .status(&"limit".into())
        .unwrap()
        .as_int();
    assert_eq!(limit, Some(99));
    // only the addressed cell changed
    assert_eq!(
        p.model("C1").unwrap().status(&"limit".into()).unwrap().as_int(),
        Some(0)
    );
}

#[test]
fn pool_uses_one_broker_session_for_all_cells() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let sessions_before = tb.broker().borrow().session_count();
    let (_pool, _) = tb.run_pool("Counter", &names(50), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(2));
    let sessions_after = tb.broker().borrow().session_count();
    assert_eq!(
        sessions_after - sessions_before,
        1,
        "50 pooled digis must share one broker session"
    );
}

#[test]
fn pooled_checkpoints_snapshot_every_member() {
    // Periodic checkpoints off: only the manual `checkpoint_all` below
    // snapshots anything.
    let config = TestbedConfig { checkpoint_every: None, ..Default::default() };
    let mut tb = Testbed::laptop(catalog(), config);
    let (pool, _) = tb.run_pool("Counter", &names(5), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(3));
    tb.checkpoint_all();
    for name in ["C0", "C1", "C2", "C3", "C4"] {
        let info = tb.checkpoints().info(name).unwrap();
        assert!(info.revision > 0, "{name} checkpointed at revision 0");
        let n = pool.borrow().model(name).unwrap().lookup(&"n".into()).cloned();
        assert!(n.as_ref().and_then(Value::as_int) >= Some(2), "{name} only ticked to {n:?}");
        let saved = tb.checkpoints().restore(name).unwrap();
        assert_eq!(saved.get("n").cloned(), n, "{name}'s snapshot is its live model");
    }
}

#[test]
fn pooled_digis_resolve_by_name_and_refuse_stop() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (pool, pool_addr) = tb.run_pool("Counter", &names(5), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(2));
    assert_eq!(tb.digi_count(), 5);
    assert_eq!(tb.digi_names(), names(5));
    assert_eq!(tb.digi_addr("C2").unwrap(), pool_addr, "a pooled digi is served by its pool");
    let phase = tb.pod_phase("C2");
    assert_eq!(phase, Some(PodPhase::Running { node: pool_addr.node }));
    let n = |tb: &mut Testbed| tb.check("C2").unwrap().lookup(&"n".into()).and_then(Value::as_int);
    let before = n(&mut tb);
    assert_eq!(before, pool.borrow().model("C2").unwrap().lookup(&"n".into()).and_then(Value::as_int));

    // Nothing removes a cell from a live pool, so stopping one is refused
    // and the whole pool runs on.
    let err = tb.stop("C2").unwrap_err();
    assert_eq!(err.to_string(), "setup error: pooled digi \"C2\" cannot be stopped");
    tb.run_for(SimDuration::from_secs(2));
    assert!(n(&mut tb) > before, "the pool stopped ticking after a refused stop");
    assert_eq!(tb.digi_count(), 5);
    assert!(tb.check("ghost").is_err());
}

#[test]
fn a_crash_restarts_the_whole_pool_on_its_own_session() {
    let config = TestbedConfig { checkpoint_every: None, ..Default::default() };
    let mut tb = Testbed::laptop(catalog(), config);
    tb.run_pool("Counter", &names(3), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(2));
    tb.checkpoint_all();
    let n = |tb: &mut Testbed, name: &str| tb.check(name).unwrap().lookup(&"n".into()).cloned();
    let saved: Vec<_> = ["C0", "C2"].iter().map(|name| n(&mut tb, name)).collect();
    tb.run_for(SimDuration::from_secs(3));

    // A pooled digi's process is its pool's: all three go down together.
    tb.kill("C1").unwrap();
    assert_eq!(tb.digi_count(), 0);
    assert!(tb.check("C0").is_err());
    // Their names stay taken while the pool waits out its backoff.
    let err = tb.run("Counter", "C0").unwrap_err();
    assert_eq!(err.to_string(), "setup error: digi \"C0\" already running");
    // Restored from the checkpoint, not from where they were at the kill:
    // checked before the first tick after the restart.
    tb.run_for(SimDuration::from_millis(900));
    assert_eq!(tb.digi_count(), 3);
    assert_eq!(["C0", "C2"].iter().map(|name| n(&mut tb, name)).collect::<Vec<_>>(), saved);
    // Nothing publishes to the dead pool's topics, so only a takeover by
    // the restarted pool's session can end the dead one's.
    let broker = tb.broker().borrow();
    assert_eq!((broker.session_count(), broker.stats().session_takeovers), (1, 1));
}

#[test]
fn pooled_digis_resubscribe_after_broker_outage() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (pool, _) = tb.run_pool("Counter", &names(3), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    // Down for longer than the transport's give-up time: the pool's
    // session dies, and the restarted broker holds no subscription for it.
    tb.kill_broker(SimDuration::from_secs(5));
    tb.run_for(SimDuration::from_secs(12));
    assert!(!tb.broker_down());
    let app = tb.app_with_mqtt(tb.broker_addr().node, "editor");
    tb.run_for(SimDuration::from_millis(100));
    app.borrow_mut().publish(
        tb.sim(),
        "digibox/digi/C2/intent",
        &br#"{"limit": 99}"#[..],
        digibox_broker::QoS::AtLeastOnce,
    );
    tb.run_for(SimDuration::from_millis(500));
    let limit = pool.borrow().model("C2").unwrap().status(&"limit".into()).unwrap().as_int();
    assert_eq!(limit, Some(99), "intent published after the outage never reached the pool");
}

#[test]
fn pooled_meta_follows_fidelity_rules() {
    // run_pool sets models up exactly like run_with: device-centric mocks
    // are never managed, and physical fidelity is passed as a param.
    for fidelity in [FidelityMode::DeviceCentric, FidelityMode::Physical] {
        let config = TestbedConfig { fidelity, ..Default::default() };
        let mut tb = Testbed::laptop(catalog(), config);
        tb.run_with("Counter", "D1", BTreeMap::new(), true).unwrap();
        let (pool, _) = tb.run_pool("Counter", &["P1".to_string()], BTreeMap::new(), true).unwrap();
        tb.run_for(SimDuration::from_secs(1));
        let dedicated = tb.check("D1").unwrap().meta;
        let pooled = pool.borrow().model("P1").unwrap().meta.clone();
        assert_eq!(pooled.managed, dedicated.managed, "{fidelity:?}: managed");
        assert_eq!(pooled.params, dedicated.params, "{fidelity:?}: params");
    }
}
