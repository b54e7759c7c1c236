//! End-to-end tests of the core runtime: the paper's smart-building
//! walkthrough (Fig. 3–6) built from scratch with inline programs.

use std::collections::BTreeMap;

use digibox_core::program::{DigiProgram, LoopCtx, SimCtx};
use digibox_core::{
    AppClient, AppEvent, Catalog, Condition, FidelityMode, SceneProperty, Testbed, TestbedConfig,
};
use digibox_core::properties::DigiCondition;
use digibox_model::{vmap, FieldKind, Schema, Value};
use digibox_net::SimDuration;

/// The paper's mock occupancy sensor (Fig. 4, top).
struct Occupancy;

impl DigiProgram for Occupancy {
    fn kind(&self) -> &str {
        "Occupancy"
    }
    fn version(&self) -> &str {
        "v1"
    }
    fn program_id(&self) -> &str {
        "test/occupancy"
    }
    fn schema(&self) -> Schema {
        Schema::new("Occupancy", "v1").field("triggered", FieldKind::Bool)
    }
    fn on_loop(&mut self, ctx: &mut LoopCtx) {
        let motion = ctx.rng.coin(); // random.choice([True, False])
        ctx.update(vmap! { "triggered" => motion });
    }
    fn on_model(&mut self, _ctx: &mut SimCtx) {}
}

/// The paper's mock lamp (Fig. 4, bottom).
struct Lamp;

impl DigiProgram for Lamp {
    fn kind(&self) -> &str {
        "Lamp"
    }
    fn version(&self) -> &str {
        "v1"
    }
    fn program_id(&self) -> &str {
        "test/lamp"
    }
    fn schema(&self) -> Schema {
        Schema::new("Lamp", "v1")
            .field("power", FieldKind::pair(FieldKind::enumeration(["off", "on"])))
            .field("intensity", FieldKind::pair(FieldKind::float_range(0.0, 1.0)))
    }
    fn on_model(&mut self, ctx: &mut SimCtx) {
        if let Some(want) = ctx.intent("power").cloned() {
            ctx.set_status("power", want);
        }
        if ctx.status_str("power").as_deref() == Some("off") {
            ctx.set_status("intensity", 0.0);
        } else if let Some(want) = ctx.intent("intensity").cloned() {
            ctx.set_status("intensity", want);
        }
    }
}

/// The paper's room scene (Fig. 5, top): keeps occupancy sensors consistent
/// with human presence.
struct Room;

impl DigiProgram for Room {
    fn kind(&self) -> &str {
        "Room"
    }
    fn version(&self) -> &str {
        "v2"
    }
    fn program_id(&self) -> &str {
        "test/room"
    }
    fn is_scene(&self) -> bool {
        true
    }
    fn schema(&self) -> Schema {
        Schema::new("Room", "v2").field("human_presence", FieldKind::Bool)
    }
    fn on_loop(&mut self, ctx: &mut LoopCtx) {
        let presence = ctx.rng.coin();
        ctx.update(vmap! { "human_presence" => presence });
    }
    fn on_model(&mut self, ctx: &mut SimCtx) {
        let presence = ctx.field_bool("human_presence").unwrap_or(false);
        for occ in ctx.atts.of_type("Occupancy").into_iter().map(str::to_string).collect::<Vec<_>>() {
            ctx.atts.set(&occ, "triggered", presence);
        }
        for desk in ctx.atts.of_type("Underdesk").into_iter().map(str::to_string).collect::<Vec<_>>() {
            if !presence {
                ctx.atts.set(&desk, "triggered", false);
            }
        }
    }
}

/// The paper's building scene (Fig. 5, bottom): assigns humans to rooms.
struct Building;

impl DigiProgram for Building {
    fn kind(&self) -> &str {
        "Building"
    }
    fn version(&self) -> &str {
        "v3"
    }
    fn program_id(&self) -> &str {
        "test/building"
    }
    fn is_scene(&self) -> bool {
        true
    }
    fn schema(&self) -> Schema {
        Schema::new("Building", "v3").field("num_human", FieldKind::int_range(0, 100))
    }
    fn on_loop(&mut self, ctx: &mut LoopCtx) {
        let num = ctx.rng.range_i64(0, 3);
        ctx.update(vmap! { "num_human" => num });
    }
    fn on_model(&mut self, ctx: &mut SimCtx) {
        let rooms: Vec<String> =
            ctx.atts.of_type("Room").into_iter().map(str::to_string).collect();
        if rooms.is_empty() {
            return;
        }
        let num = ctx.field_i64("num_human").unwrap_or(0) as usize;
        // pick rooms for the humans (with replacement, like the paper);
        // the draw is derived from the model state so handler re-runs
        // converge instead of re-rolling forever
        let mut det = digibox_net::Prng::new(ctx.model.meta.seed() ^ num as u64);
        let mut picked = std::collections::BTreeSet::new();
        for _ in 0..num {
            if let Some(r) = det.choice(&rooms) {
                picked.insert(r.clone());
            }
        }
        for room in rooms {
            let presence = picked.contains(&room);
            ctx.atts.set(&room, "human_presence", presence);
        }
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(|| Box::new(Occupancy)).unwrap();
    c.register(|| Box::new(Lamp)).unwrap();
    c.register(|| Box::new(Room)).unwrap();
    c.register(|| Box::new(Building)).unwrap();
    c
}

fn laptop_testbed() -> Testbed {
    Testbed::laptop(catalog(), TestbedConfig::default())
}

#[test]
fn mock_generates_events_on_its_loop() {
    let mut tb = laptop_testbed();
    tb.run("Occupancy", "O1").unwrap();
    tb.run_for(SimDuration::from_secs(5));
    let digi = tb.digi("O1").unwrap();
    let stats = digi.borrow().cell("O1").unwrap().stats().clone();
    assert!(stats.loops_run >= 3, "loop ran {} times", stats.loops_run);
    assert!(stats.events_emitted >= 3);
    // trace has event records from O1
    let events = tb.log().view().source("O1").tag("event").count();
    assert!(events >= 3, "only {events} events logged");
}

#[test]
fn managed_mock_stays_quiet() {
    let mut tb = laptop_testbed();
    tb.run_with("Occupancy", "O1", BTreeMap::new(), true).unwrap();
    tb.run_for(SimDuration::from_secs(5));
    let digi = tb.digi("O1").unwrap();
    assert_eq!(digi.borrow().cell("O1").unwrap().stats().loops_run, 0);
}

#[test]
fn lamp_simulation_follows_intent_via_edit() {
    let mut tb = laptop_testbed();
    tb.run_with("Lamp", "L1", BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    // dbox edit L1: set power intent on, intensity 0.7
    tb.edit("L1", vmap! { "power" => "on", "intensity" => 0.7 }).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    let model = tb.check("L1").unwrap();
    assert_eq!(
        model.status(&"power".into()).unwrap().as_str(),
        Some("on"),
        "model: {model:?}"
    );
    assert_eq!(model.status(&"intensity".into()).unwrap().as_float(), Some(0.7));
    // turning power off forces intensity to 0 (Fig. 4 logic)
    tb.edit("L1", vmap! { "power" => "off" }).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    let model = tb.check("L1").unwrap();
    assert_eq!(model.status(&"intensity".into()).unwrap().as_float(), Some(0.0));
}

#[test]
fn scene_correlates_attached_sensors() {
    let mut tb = laptop_testbed();
    // managed sensors: the room drives them
    tb.run_with("Occupancy", "O1", BTreeMap::new(), true).unwrap();
    tb.run_with("Occupancy", "O2", BTreeMap::new(), true).unwrap();
    tb.run("Room", "MeetingRoom").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "MeetingRoom").unwrap();
    tb.attach("O2", "MeetingRoom").unwrap();
    // let several presence events flow through
    tb.run_for(SimDuration::from_secs(10));
    // after the run, both sensors must agree with the room's presence
    let presence = tb
        .check("MeetingRoom")
        .unwrap()
        .lookup(&"human_presence".into())
        .and_then(Value::as_bool)
        .unwrap();
    for sensor in ["O1", "O2"] {
        let triggered = tb
            .check(sensor)
            .unwrap()
            .lookup(&"triggered".into())
            .and_then(Value::as_bool)
            .unwrap();
        assert_eq!(triggered, presence, "{sensor} out of sync with room");
    }
}

#[test]
fn nested_scenes_building_drives_rooms() {
    let mut tb = laptop_testbed();
    tb.run_with("Occupancy", "O1", BTreeMap::new(), true).unwrap();
    tb.run_with("Room", "MeetingRoom", BTreeMap::new(), true).unwrap();
    tb.run_with("Room", "Kitchen", BTreeMap::new(), true).unwrap();
    tb.run("Building", "ConfCenter").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "MeetingRoom").unwrap();
    tb.attach("MeetingRoom", "ConfCenter").unwrap();
    tb.attach("Kitchen", "ConfCenter").unwrap();
    tb.run_for(SimDuration::from_secs(10));
    // rooms got presence assignments from the building
    let mr = tb.check("MeetingRoom").unwrap();
    assert!(mr.lookup(&"human_presence".into()).is_some());
    // the building generated num_human events
    let building_events = tb.log().view().source("ConfCenter").tag("event").count();
    assert!(building_events >= 5, "building generated {building_events} events");
    // sensor tracked its room
    let presence =
        mr.lookup(&"human_presence".into()).and_then(Value::as_bool).unwrap();
    let triggered = tb
        .check("O1")
        .unwrap()
        .lookup(&"triggered".into())
        .and_then(Value::as_bool)
        .unwrap();
    assert_eq!(triggered, presence);
}

#[test]
fn rest_get_returns_model() {
    let mut tb = laptop_testbed();
    tb.run("Lamp", "L1").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    let node = tb.digi_addr("L1").unwrap().node;
    let app: digibox_net::ServiceHandle<AppClient> = tb.app(node);
    let server = tb.digi_addr("L1").unwrap();
    app.borrow_mut().get(tb.sim(), server, "/model");
    tb.run_for(SimDuration::from_millis(100));
    let events = app.borrow_mut().poll_all();
    assert_eq!(events.len(), 1);
    let AppEvent::Response { status, body, latency, .. } = &events[0] else {
        panic!("expected a response, got {events:?}");
    };
    assert_eq!(*status, 200);
    assert!(*latency > SimDuration::ZERO);
    let json = Value::from_json(body).unwrap();
    let meta = json.get("meta").unwrap();
    assert_eq!(meta.get("type").and_then(Value::as_str), Some("Lamp"));
    assert!(json.get("fields").and_then(|f| f.get("power")).and_then(Value::as_map).is_some());
}

#[test]
fn rest_path_get_and_post_intent() {
    let mut tb = laptop_testbed();
    tb.run("Lamp", "L1").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    let server = tb.digi_addr("L1").unwrap();
    let app = tb.app(server.node);
    // POST /intent {"power": "on"}
    app.borrow_mut().post_json(tb.sim(), server, "/intent", r#"{"power":"on"}"#);
    tb.run_for(SimDuration::from_millis(500));
    // GET /model/power/status
    app.borrow_mut().get(tb.sim(), server, "/model/power/status");
    tb.run_for(SimDuration::from_millis(100));
    let events = app.borrow_mut().poll_all();
    let last = events.last().unwrap();
    let AppEvent::Response { status, body, .. } = last else {
        panic!("expected response");
    };
    assert_eq!(*status, 200);
    assert_eq!(body.as_ref(), b"\"on\"");
    // unknown path → 404
    app.borrow_mut().get(tb.sim(), server, "/model/nope");
    tb.run_for(SimDuration::from_millis(100));
    let events = app.borrow_mut().poll_all();
    assert!(matches!(events[0], AppEvent::Response { status: 404, .. }));
}

#[test]
fn property_violation_detected() {
    let mut tb = laptop_testbed();
    tb.run_with("Lamp", "L1", BTreeMap::new(), false).unwrap();
    tb.run_with("Occupancy", "O1", BTreeMap::new(), true).unwrap();
    tb.add_property(SceneProperty::never(
        "lamp-off-when-empty",
        vec![
            DigiCondition::new("L1", Condition::eq("power.status", "on")),
            DigiCondition::new("O1", Condition::eq("triggered", false)),
        ],
    ));
    tb.run_for(SimDuration::from_secs(1));
    // force the disallowed state: sensor untriggered (default) + lamp on
    tb.edit("L1", vmap! { "power" => "on" }).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    let violations = tb.violations();
    assert!(!violations.is_empty(), "violation not detected");
}

#[test]
fn device_centric_mode_breaks_correlation() {
    let config = TestbedConfig { fidelity: FidelityMode::DeviceCentric, ..Default::default() };
    let mut tb = Testbed::laptop(catalog(), config);
    tb.run_with("Occupancy", "O1", BTreeMap::new(), true).unwrap();
    tb.run_with("Occupancy", "O2", BTreeMap::new(), true).unwrap();
    tb.run("Room", "MeetingRoom").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "MeetingRoom").unwrap();
    tb.attach("O2", "MeetingRoom").unwrap();
    tb.run_for(SimDuration::from_secs(30));
    // In device-centric mode the sensors generate independently; over 30
    // ticks they must disagree at least once (probability of always
    // agreeing is ~2^-30).
    let o1_events = tb.log().view().source("O1").tag("event").collect();
    let o2_events = tb.log().view().source("O2").tag("event").collect();
    assert!(o1_events.len() >= 20);
    let disagreements = o1_events
        .iter()
        .zip(&o2_events)
        .filter(|(a, b)| {
            let va = match &a.kind {
                digibox_trace::RecordKind::Event { data } => data.get("triggered").cloned(),
                _ => None,
            };
            let vb = match &b.kind {
                digibox_trace::RecordKind::Event { data } => data.get("triggered").cloned(),
                _ => None,
            };
            va != vb
        })
        .count();
    assert!(disagreements > 0, "independent sensors never disagreed");
}

#[test]
fn stop_removes_digi_and_detaches() {
    let mut tb = laptop_testbed();
    tb.run_with("Occupancy", "O1", BTreeMap::new(), true).unwrap();
    tb.run("Room", "MeetingRoom").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "MeetingRoom").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.stop("O1").unwrap();
    assert!(tb.check("O1").is_err());
    let room = tb.check("MeetingRoom").unwrap();
    assert!(room.meta.attach.is_empty(), "room still references O1: {:?}", room.meta.attach);
    tb.run_for(SimDuration::from_secs(2)); // no panics from dangling traffic
}

#[test]
fn seeded_runs_are_identical() {
    let run = |seed: u64| {
        let mut tb = Testbed::laptop(catalog(), TestbedConfig { seed, ..Default::default() });
        tb.run("Occupancy", "O1").unwrap();
        tb.run("Room", "MeetingRoom").unwrap();
        tb.run_for(SimDuration::from_secs(1));
        tb.attach("O1", "MeetingRoom").unwrap();
        tb.run_for(SimDuration::from_secs(10));
        tb.log()
            .view()
            .tag("event")
            .collect()
            .iter()
            .map(|r| format!("{} {:?}", r.source, r.kind))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7), "same seed must reproduce the same event stream");
    assert_ne!(run(7), run(8), "different seeds should diverge");
}

#[test]
fn actuation_delay_defers_intent() {
    // a dedicated lamp and a pooled one honour the same delay
    for pooled in [false, true] {
        let mut tb = laptop_testbed();
        let params: BTreeMap<String, Value> =
            [("actuation_delay_ms".to_string(), Value::Int(2000))].into_iter().collect();
        if pooled {
            tb.run_pool("Lamp", &["L1".to_string()], params, false).unwrap();
        } else {
            tb.run_with("Lamp", "L1", params, false).unwrap();
        }
        tb.run_for(SimDuration::from_secs(1));
        tb.edit("L1", vmap! { "power" => "on" }).unwrap();
        // shortly after the edit the actuation hasn't landed yet
        tb.run_for(SimDuration::from_millis(500));
        let model_now = tb.check("L1").unwrap();
        assert_eq!(model_now.status(&"power".into()).unwrap().as_str(), Some("off"), "pooled={pooled}");
        // after the actuation delay it has
        tb.run_for(SimDuration::from_secs(3));
        let model_now = tb.check("L1").unwrap();
        assert_eq!(model_now.status(&"power".into()).unwrap().as_str(), Some("on"), "pooled={pooled}");
    }
}

#[test]
fn kill_restarts_with_fresh_state() {
    let mut tb = laptop_testbed();
    tb.run("Lamp", "L1").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.edit("L1", vmap! { "power" => "on" }).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    assert_eq!(tb.check("L1").unwrap().status(&"power".into()).unwrap().as_str(), Some("on"));
    tb.kill("L1").unwrap();
    assert!(tb.check("L1").is_err(), "killed digi gone until restart");
    tb.run_for(SimDuration::from_secs(3));
    // restarted with default (off) state, like a fresh container
    let model = tb.check("L1").unwrap();
    assert_eq!(model.status(&"power".into()).unwrap().as_str(), Some("off"));
}

#[test]
fn pod_names_clash_case_insensitively_and_through_backoff() {
    let mut tb = laptop_testbed();
    tb.run("Lamp", "L1").unwrap();
    // a digi's pod is named after its lowercased name
    let err = tb.run("Lamp", "l1").unwrap_err();
    assert_eq!(err.to_string(), "Pod/digi-l1 already exists");
    tb.run_for(SimDuration::from_secs(1));
    tb.kill("L1").unwrap();
    // the crashed pod's record persists through its restart backoff
    let err = tb.run("Lamp", "L1").unwrap_err();
    assert_eq!(err.to_string(), "Pod/digi-l1 already exists");
}
