//! `DigiCell` — the transport-independent core of one digi: model +
//! program + attachment mirror + logging, with all outbound messages
//! collected into an outbox instead of being sent directly.
//!
//! One host stores cells, by value in host order: [`crate::DigiPool`]. A
//! dedicated digi is a one-cell pool on its own session (the paper's
//! deployment model: every mock/scene is its own pod); a shared pool runs
//! many cells behind one service (the paper's §6 "efficient simulation"
//! question: FaaS-style consolidation, where idle digis cost no sessions
//! or timers of their own).

use digibox_model::json::{self, ToValue};
use digibox_model::{diff, Model, Patch, Path, Value};
use digibox_net::httpx::{Method, Request, Response};
use digibox_net::{Prng, SimTime};
use digibox_obs as obs;
use digibox_trace::{Direction, TraceLog};

use crate::atts::Atts;
use crate::program::{DigiProgram, LoopCtx, SimCtx};
use crate::topics;

/// Messages a cell wants published, collected per call.
#[derive(Debug, Default)]
pub struct Outbox {
    /// `(topic, payload, retain)` MQTT publications.
    pub messages: Vec<(String, Vec<u8>, bool)>,
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Outbox {
        Outbox::default()
    }

    fn publish(&mut self, topic: String, payload: Vec<u8>, retain: bool) {
        self.messages.push((topic, payload, retain));
    }
}

/// Per-cell counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellStats {
    /// `on_loop` invocations.
    pub loops_run: u64,
    /// One-shot events emitted on the event channel.
    pub events_emitted: u64,
    /// Model publications (only changed models publish).
    pub model_publishes: u64,
    /// Intents applied to the model.
    pub intents_applied: u64,
    /// Set-channel patches applied to this digi.
    pub set_patches_applied: u64,
    /// Set-channel patches this digi sent to attachments.
    pub set_patches_sent: u64,
    /// Scene simulation handler (`on_model`) invocations.
    pub sim_handler_runs: u64,
}

/// Pre-interned observability handles for one cell's handlers: the shared
/// `digi.on_loop`/`digi.on_model` frames plus a per-digi identity frame
/// (`Kind:name`), so folded stacks aggregate by handler kind first and
/// fan out per digi below it.
struct CellObs {
    on_loop: obs::CounterId,
    on_model: obs::CounterId,
    f_on_loop: obs::FrameId,
    f_on_model: obs::FrameId,
    f_self: obs::FrameId,
}

impl CellObs {
    fn new(kind: &str, name: &str) -> CellObs {
        CellObs {
            on_loop: obs::counter("digi.on_loop"),
            on_model: obs::counter("digi.on_model"),
            f_on_loop: obs::frame("digi.on_loop"),
            f_on_model: obs::frame("digi.on_model"),
            f_self: obs::frame(&format!("{kind}:{name}")),
        }
    }
}

/// The core state machine of one digi.
pub struct DigiCell {
    name: String,
    model: Model,
    program: Box<dyn DigiProgram>,
    atts: Atts,
    rng: Prng,
    log: TraceLog,
    last_published: Value,
    last_published_rev: u64,
    scene_logic_enabled: bool,
    generation_enabled: bool,
    stats: CellStats,
    obs: CellObs,
    started: bool,
}

impl DigiCell {
    /// Wrap a program and its model into a runnable cell.
    pub fn new(
        model: Model,
        program: Box<dyn DigiProgram>,
        rng: Prng,
        log: TraceLog,
        scene_logic_enabled: bool,
    ) -> DigiCell {
        let name = model.meta.name.clone();
        let fields = model.fields().clone();
        // Warm the path-intern table with this program's declared fields so
        // handler literals resolve to pre-parsed segments from the very
        // first invocation (registration-time resolution).
        for field in program.schema().fields.keys() {
            let _ = Path::interned(field);
        }
        let cell_obs = CellObs::new(program.kind(), &name);
        DigiCell {
            name,
            model,
            program,
            atts: Atts::new(),
            rng,
            log,
            last_published: fields,
            last_published_rev: 0,
            scene_logic_enabled,
            generation_enabled: true,
            stats: CellStats::default(),
            obs: cell_obs,
            started: false,
        }
    }

    /// The digi's instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The digi's type name.
    pub fn kind(&self) -> &str {
        self.program.kind()
    }

    /// Whether the program declares itself a scene.
    pub fn is_scene(&self) -> bool {
        self.program.is_scene()
    }

    /// The current model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> &CellStats {
        &self.stats
    }

    /// Enable/disable random event generation (ticks become no-ops).
    pub fn set_generation_enabled(&mut self, enabled: bool) {
        self.generation_enabled = enabled;
    }

    /// Flip the model's managed-mode flag.
    pub fn set_managed(&mut self, managed: bool) {
        self.model.meta.managed = managed;
    }

    /// The event-generation interval from `meta`.
    pub fn interval_ms(&self) -> u64 {
        self.model.meta.interval_ms()
    }

    /// Configured actuation delay (ms; 0 = immediate).
    pub fn actuation_delay_ms(&self) -> u64 {
        self.model.meta.param_int("actuation_delay_ms").unwrap_or(0).max(0) as u64
    }

    /// Program init + initial retained model publication.
    pub fn start(&mut self, now: SimTime, out: &mut Outbox) {
        self.log.lifecycle(now, &self.name, "started", self.program.program_id());
        self.program.init(&mut self.model);
        self.started = false;
        self.publish_model(now, out);
        self.started = true;
    }

    /// The topics this cell must be subscribed to for inbound traffic.
    pub fn command_topics(&self) -> [String; 2] {
        [topics::intent(&self.name), topics::set(&self.name)]
    }

    /// Attach a child: mirror it; returns the child-model topic to
    /// subscribe to.
    pub fn attach_child(&mut self, now: SimTime, child: &str, kind: &str) -> String {
        if !self.model.meta.attach.iter().any(|c| c == child) {
            self.model.meta.attach.push(child.to_string());
        }
        self.atts.attach(child, kind);
        self.log.lifecycle(now, &self.name, "attach", child);
        topics::model(child)
    }

    /// Detach a child; returns the topic to unsubscribe from.
    pub fn detach_child(&mut self, now: SimTime, child: &str) -> String {
        self.model.meta.attach.retain(|c| c != child);
        self.atts.detach(child);
        self.log.lifecycle(now, &self.name, "detach", child);
        topics::model(child)
    }

    /// Whether `child` is currently attached.
    pub fn has_child(&self, child: &str) -> bool {
        self.atts.contains(child)
    }

    /// One event-generation tick.
    pub fn tick(&mut self, now: SimTime, out: &mut Outbox) {
        if !self.generation_enabled || self.model.meta.managed {
            return;
        }
        self.stats.loops_run += 1;
        obs::inc(self.obs.on_loop);
        let mut ctx = LoopCtx { model: &mut self.model, rng: &mut self.rng, now, emitted: Vec::new() };
        {
            let _handler = obs::enter(self.obs.f_on_loop);
            let _digi = obs::enter(self.obs.f_self);
            self.program.on_loop(&mut ctx);
        }
        let emitted = ctx.emitted;
        for data in emitted {
            self.publish_event(now, data, out);
        }
        self.process(now, out);
    }

    fn publish_event(&mut self, now: SimTime, data: Value, out: &mut Outbox) {
        self.stats.events_emitted += 1;
        self.log.event(now, &self.name, data.clone());
        let payload = data.to_json().into_bytes();
        out.publish(topics::event(&self.name), payload, false);
    }

    /// Parse an intent payload into `(path, value)` updates.
    pub fn parse_intents(payload: &[u8]) -> Vec<(Path, Value)> {
        let Ok(value) = Value::from_json(payload) else {
            return Vec::new();
        };
        let Some(map) = value.as_map() else {
            return Vec::new();
        };
        // Intent keys are device field literals (a small closed set), so
        // interning amortizes the split across every request.
        map.iter().filter_map(|(k, v)| Path::interned(k).ok().map(|p| (p, v.clone()))).collect()
    }

    /// Apply intent updates (after any actuation delay handled by the host).
    pub fn apply_intents(&mut self, now: SimTime, updates: Vec<(Path, Value)>, out: &mut Outbox) {
        for (path, value) in updates {
            // Single-segment field names hit the interned (base → intent)
            // triple; deeper paths fall back to an explicit child join.
            let intent_path = match path.segments() {
                [field] => Path::interned_intent(field).unwrap_or_else(|_| path.child("intent")),
                _ => path.child("intent"),
            };
            let _ = self.model.set(&intent_path, value);
            self.stats.intents_applied += 1;
        }
        self.process(now, out);
    }

    /// Handle an inbound `set` patch from a parent scene.
    pub fn handle_set(&mut self, now: SimTime, payload: &[u8], out: &mut Outbox) {
        let Ok(patch) = json::decode::<Patch>(payload) else {
            return;
        };
        for op in &patch.ops {
            match op {
                digibox_model::PatchOp::Set { path, value } => {
                    let _ = self.model.set(path, value.clone());
                }
                digibox_model::PatchOp::Remove { path } => {
                    let _ = self.model.remove(path);
                }
            }
        }
        self.stats.set_patches_applied += 1;
        self.process(now, out);
    }

    /// Handle a child's published model (scenes only).
    pub fn observe_child(&mut self, now: SimTime, child: &str, payload: &[u8], out: &mut Outbox) {
        let Ok(child_model) = json::decode::<Model>(payload) else {
            return;
        };
        self.atts.observe(child, &child_model.meta.kind, child_model.fields().clone());
        self.process(now, out);
    }

    /// Log an inbound message against this cell.
    pub fn log_message_in(&self, now: SimTime, topic: &str, payload: &[u8]) {
        let value = Value::from_json(payload).unwrap_or(Value::Null);
        self.log.message(now, &self.name, Direction::Received, topic, value);
    }

    /// Run the simulation handler to fixpoint, emit child patches, publish
    /// the model if changed.
    pub fn process(&mut self, now: SimTime, out: &mut Outbox) {
        let run_sim = !self.program.is_scene() || self.scene_logic_enabled;
        if run_sim {
            for _ in 0..4 {
                let before = self.model.revision();
                self.stats.sim_handler_runs += 1;
                obs::inc(self.obs.on_model);
                let mut ctx = SimCtx {
                    model: &mut self.model,
                    atts: &mut self.atts,
                    rng: &mut self.rng,
                    now,
                    emitted: Vec::new(),
                };
                {
                    let _handler = obs::enter(self.obs.f_on_model);
                    let _digi = obs::enter(self.obs.f_self);
                    self.program.on_model(&mut ctx);
                }
                let emitted = ctx.emitted;
                for data in emitted {
                    self.publish_event(now, data, out);
                }
                if self.model.revision() == before {
                    break;
                }
            }
            for (child, patch) in self.atts.take_patches() {
                self.stats.set_patches_sent += 1;
                let patch = patch.to_value();
                let payload = patch.to_json().into_bytes();
                let topic = topics::set(&child);
                self.log.message(now, &self.name, Direction::Sent, &topic, patch);
                out.publish(topic, payload, false);
            }
        }
        self.publish_model(now, out);
    }

    fn publish_model(&mut self, now: SimTime, out: &mut Outbox) {
        if self.model.revision() == self.last_published_rev && self.started {
            return;
        }
        let patch = diff(&self.last_published, self.model.fields());
        if self.started && patch.is_empty() {
            self.last_published_rev = self.model.revision();
            return;
        }
        self.last_published = self.model.fields().clone();
        self.last_published_rev = self.model.revision();
        self.stats.model_publishes += 1;
        self.log.model_change(now, &self.name, patch, self.model.fields().clone());
        out.publish(topics::model(&self.name), json::encode(&self.model).into_bytes(), true);
    }

    /// Unconditionally publish the current model, bypassing the diff
    /// gate — used after an MQTT session is re-established, when the
    /// broker's retained copy may predate changes made while the session
    /// was down.
    pub fn republish_model(&mut self, _now: SimTime, out: &mut Outbox) {
        self.last_published = self.model.fields().clone();
        self.last_published_rev = self.model.revision();
        self.stats.model_publishes += 1;
        out.publish(topics::model(&self.name), json::encode(&self.model).into_bytes(), true);
    }

    /// Force the field tree (replay).
    pub fn force_fields(&mut self, now: SimTime, fields: Value, out: &mut Outbox) {
        let _ = self.model.set_fields(fields);
        self.process(now, out);
    }

    /// Serve one REST request against this cell (no timing — hosts add
    /// service overhead).
    pub fn route_http(&mut self, now: SimTime, req: &Request, out: &mut Outbox) -> Response {
        let segments = req.path_segments();
        // strip an optional `/digi/<name>` prefix (pool routing)
        let segments: Vec<&str> = match segments.as_slice() {
            ["digi", name, rest @ ..] if *name == self.name => rest.to_vec(),
            other => other.to_vec(),
        };
        match (req.method, segments.as_slice()) {
            (Method::Get, ["health"]) => Response::ok_json(r#"{"ok":true}"#.as_bytes().to_vec()),
            (Method::Get, ["model"]) => {
                Response::ok_json(json::encode(&self.model).into_bytes())
            }
            (Method::Get, ["model", rest @ ..]) => {
                let path_str = rest.join(".");
                match Path::parse(&path_str) {
                    Ok(p) => match p.lookup(self.model.fields()) {
                        Some(v) => Response::ok_json(v.to_json().into_bytes()),
                        None => Response::not_found(&format!("no field {path_str}")),
                    },
                    Err(e) => Response::bad_request(&e.to_string()),
                }
            }
            (Method::Post, ["intent"]) => {
                let updates = DigiCell::parse_intents(&req.body);
                self.apply_intents(now, updates, out);
                Response::new(204)
            }
            _ => Response::not_found("unknown route"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digibox_model::{vmap, FieldKind, Schema};

    struct Toggle;
    impl DigiProgram for Toggle {
        fn kind(&self) -> &str {
            "Toggle"
        }
        fn version(&self) -> &str {
            "v1"
        }
        fn program_id(&self) -> &str {
            "test/toggle"
        }
        fn schema(&self) -> Schema {
            Schema::new("Toggle", "v1")
                .field("on", FieldKind::pair(FieldKind::Bool))
                .field("ticks", FieldKind::int())
        }
        fn on_loop(&mut self, ctx: &mut LoopCtx) {
            let n = ctx.model.lookup(&"ticks".into()).and_then(Value::as_int).unwrap_or(0);
            ctx.update(vmap! { "ticks" => n + 1 });
        }
        fn on_model(&mut self, ctx: &mut SimCtx) {
            if let Some(want) = ctx.intent("on").cloned() {
                ctx.set_status("on", want);
            }
        }
    }

    fn cell() -> DigiCell {
        let p = Toggle;
        let model = p.schema().instantiate("T1");
        DigiCell::new(model, Box::new(p), Prng::new(1), TraceLog::new(), true)
    }

    #[test]
    fn start_publishes_initial_model() {
        let mut c = cell();
        let mut out = Outbox::new();
        c.start(SimTime::ZERO, &mut out);
        assert_eq!(out.messages.len(), 1);
        let (topic, _, retain) = &out.messages[0];
        assert_eq!(topic, "digibox/digi/T1/model");
        assert!(*retain);
    }

    #[test]
    fn tick_emits_event_and_model() {
        let mut c = cell();
        let mut out = Outbox::new();
        c.start(SimTime::ZERO, &mut out);
        out.messages.clear();
        c.tick(SimTime::ZERO, &mut out);
        let topics: Vec<&str> = out.messages.iter().map(|(t, _, _)| t.as_str()).collect();
        assert!(topics.contains(&"digibox/digi/T1/event"));
        assert!(topics.contains(&"digibox/digi/T1/model"));
        assert_eq!(c.stats().loops_run, 1);
    }

    #[test]
    fn managed_cell_does_not_tick() {
        let mut c = cell();
        c.set_managed(true);
        let mut out = Outbox::new();
        c.start(SimTime::ZERO, &mut out);
        out.messages.clear();
        c.tick(SimTime::ZERO, &mut out);
        assert!(out.messages.is_empty());
        assert_eq!(c.stats().loops_run, 0);
    }

    #[test]
    fn intent_updates_status_through_sim() {
        let mut c = cell();
        let mut out = Outbox::new();
        c.start(SimTime::ZERO, &mut out);
        let updates = DigiCell::parse_intents(br#"{"on": true}"#);
        c.apply_intents(SimTime::ZERO, updates, &mut out);
        assert_eq!(c.model().status(&"on".into()).unwrap().as_bool(), Some(true));
    }

    #[test]
    fn http_routing_with_and_without_pool_prefix() {
        let mut c = cell();
        let mut out = Outbox::new();
        c.start(SimTime::ZERO, &mut out);
        let direct = Request::new(Method::Get, "/model");
        assert_eq!(c.route_http(SimTime::ZERO, &direct, &mut out).status, 200);
        let pooled = Request::new(Method::Get, "/digi/T1/model");
        assert_eq!(c.route_http(SimTime::ZERO, &pooled, &mut out).status, 200);
        let wrong = Request::new(Method::Get, "/digi/OTHER/model");
        assert_eq!(c.route_http(SimTime::ZERO, &wrong, &mut out).status, 404);
    }

    #[test]
    fn set_patch_applies() {
        let mut c = cell();
        let mut out = Outbox::new();
        c.start(SimTime::ZERO, &mut out);
        let patch = Patch::new().set("ticks", 42);
        let payload = json::encode(&patch).into_bytes();
        c.handle_set(SimTime::ZERO, &payload, &mut out);
        assert_eq!(c.model().lookup(&"ticks".into()).unwrap().as_int(), Some(42));
    }
}
