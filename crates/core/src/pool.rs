//! `DigiPool` — the one host of [`DigiCell`]s. It owns the network
//! endpoint, the MQTT session, the REST API and all timing (loop ticks,
//! actuation delays, load-dependent service overhead) for the cells it
//! hosts. Two shapes of the same host cover the paper's two execution
//! models:
//!
//! * **A dedicated digi** ([`DigiPool::dedicated`]) hosts exactly one cell
//!   on the digi's own session — client id `digi/<name>`, with a
//!   last-will on [`topics::lwt`] so watchers learn about crashes. This is
//!   the paper's deployment model: every mock and scene is its own pod
//!   (§4). A one-cell host also serves unprefixed REST paths.
//! * **A shared pool** ([`DigiPool::new`]) is the FaaS executor of the
//!   paper's §6 open question:
//!
//!   > "an open question is how to make these large-scale simulations more
//!   > efficient, i.e., running a higher number of mocks/scenes with a fixed
//!   > amount of compute resource budget. E.g., given the event-driven
//!   > nature of IoT apps, whether/how we can leverage Function-as-a-Service
//!   > (FaaS) to run the simulator logic of mocks and scenes."
//!
//!   It hosts N cells behind **one** network endpoint and **one** MQTT
//!   session, invoking each cell's handlers only when its events are due
//!   or its messages arrive. Compared to one host per digi this removes
//!   the per-digi broker session and endpoint — the fixed-cost floor that
//!   dominates at thousands of mostly-idle mocks. The `e9_faas_pooling`
//!   bench quantifies the difference.
//!
//! ## Storage: one `Vec` in host order
//!
//! Cells live by value in one `Vec`, in the order they were hosted,
//! instead of a per-digi `Rc<RefCell<...>>` object graph; a sorted name
//! map gives each cell's index. Nothing removes a cell from a live host
//! (stopping a dedicated digi unbinds its whole host, a pooled digi cannot
//! be stopped, and a crash kills and restarts the whole host as one pod),
//! so an index held by a tick group or a pending actuation always names
//! the same cell. Checkpoints read each cell's `model.fields()` directly.
//!
//! ## Scheduling: one wheel entry per (interval, pool)
//!
//! Periodic ticks are driven by *tick groups*: the pool arms **one**
//! kernel-wheel timer per distinct loop interval and, when it fires, walks
//! the group's members in insertion order instead of keeping one wheel
//! entry per digi. At 100k mostly-idle mocks this turns 100k queue
//! entries into a handful. Cells hosted into an already-armed group adopt
//! the group's phase (they first tick at the group's next firing). A
//! session the broker lost is re-established at the next group firing,
//! before any cell ticks.
//!
//! Datagrams are handled one at a time, each pumped as it arrives: the
//! session acknowledges a message before its handler publishes, so the
//! send order (and every link-RNG draw) is the same for any host shape.
//!
//! Semantics are the same for both shapes: hosted digis publish/subscribe
//! the same topics and serve the same REST API (routed as
//! `/digi/<name>/...`), so applications and parent scenes cannot tell a
//! pooled mock from a dedicated one. Scenes can be pooled too, but the
//! intended use is large fleets of mocks (the paper's 1000-sensor
//! experiment).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap}; // hash maps for keyed lookup; `dbox audit` (DH0002) checks every iteration site
use std::rc::Rc;

use bytes::Bytes;

use digibox_broker::{ClientEvent, MqttConn, QoS};
use digibox_model::{Model, Path, Value};
use digibox_net::httpx::{Request, Response};
use digibox_net::transport::{ReliableEndpoint, TransportEvent};
use digibox_net::{
    Addr, Datagram, FxBuildHasher, Prng, Service, ServiceHandle, Sim, SimDuration, TimerToken,
};
use digibox_trace::TraceLog;

use crate::appclient::HTTP_TOKEN_SPACE;
use crate::cell::{DigiCell, Outbox};
use crate::program::DigiProgram;
use crate::topics;

/// The REST endpoint in `slot`, made on first use. Its timer counters
/// start at zero whenever it is made, so it arms the tokens an endpoint
/// made with its owner would have armed.
fn rest_endpoint(slot: &mut Option<Box<ReliableEndpoint>>, addr: Addr) -> &mut ReliableEndpoint {
    slot.get_or_insert_with(|| Box::new(ReliableEndpoint::new(addr).with_space(HTTP_TOKEN_SPACE)))
}

/// Tag bit for tick-group timers. Like the other tags below it leaves the
/// reliable-transport bit (1 << 63) clear, so no endpoint claims it. The
/// low bits carry the group's interval in ms.
const TICK_TOKEN_TAG: TimerToken = 1 << 59;
/// Tag bit for delayed HTTP responses (service overhead).
const RESPONSE_TOKEN_TAG: TimerToken = 1 << 60;
/// Tag bit for delayed intents (actuation latency).
const ACTUATION_TOKEN_TAG: TimerToken = 1 << 61;

/// Pool-level counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Digis currently hosted.
    pub cells: usize,
    /// Event-generation ticks dispatched to cells.
    pub ticks_dispatched: u64,
    /// Kernel timer wakeups taken by the pool (one per tick-group firing).
    pub wheel_wakeups: u64,
    /// REST requests served across all hosted digis.
    pub rest_requests: u64,
    /// MQTT messages routed into hosted cells.
    pub messages_in: u64,
}

/// A delayed intent: the cell it lands on and its field updates.
type PendingActuation = (usize, Vec<(Path, Value)>);

/// One tick group: every hosted cell sharing a loop interval, driven by a
/// single kernel-wheel entry.
struct TickGroup {
    interval_ms: u64,
    /// Indices into `DigiPool::cells`, in host order.
    members: Vec<usize>,
    /// Whether a wheel entry for this group is in flight.
    armed: bool,
}

/// The service hosting one digi (dedicated) or many (a FaaS-style pool).
pub struct DigiPool {
    addr: Addr,
    conn: MqttConn,
    /// The REST server side, made by the first datagram from a peer other
    /// than the broker: a host nobody sends requests to never has one.
    http: Option<Box<ReliableEndpoint>>,
    /// Last-will registered with every CONNECT (dedicated digis).
    will: Option<(String, Bytes)>,
    /// Hosted cells in host order.
    cells: Vec<DigiCell>,
    /// Name → index into `cells`, sorted (iteration order = digest order).
    ids: BTreeMap<String, usize>,
    /// One group per distinct loop interval (a handful); one wheel entry
    /// per armed group.
    tick_groups: Vec<TickGroup>,
    /// Whether `on_start` ran; cells hosted before it start with it.
    started: bool,
    service_overhead: SimDuration,
    overhead_rng: Prng,
    pending_actuations: HashMap<TimerToken, PendingActuation, FxBuildHasher>,
    next_actuation_token: u64,
    pending_responses: HashMap<TimerToken, (Addr, Bytes), FxBuildHasher>,
    next_response_token: u64,
    /// Set when the MQTT session died (transport exhausted retries to the
    /// broker, e.g. during a partition or a broker crash); the next tick
    /// re-connects and re-subscribes, so coordination resumes after a heal.
    reconnect_pending: bool,
    stats: PoolStats,
}

impl DigiPool {
    fn with_session(
        addr: Addr,
        conn: MqttConn,
        will: Option<(String, Bytes)>,
        service_overhead: SimDuration,
        overhead_rng: Prng,
    ) -> DigiPool {
        DigiPool {
            addr,
            conn,
            http: None,
            will,
            cells: Vec::new(),
            ids: BTreeMap::new(),
            tick_groups: Vec::new(),
            started: false,
            service_overhead,
            overhead_rng,
            pending_actuations: HashMap::default(),
            next_actuation_token: 0,
            pending_responses: HashMap::default(),
            next_response_token: 0,
            reconnect_pending: false,
            stats: PoolStats::default(),
        }
    }

    /// A shared pool at `addr` speaking MQTT to `broker` on one session
    /// with client id `id`, with per-message service overhead applied to
    /// REST responses.
    pub fn new(addr: Addr, broker: Addr, overhead: SimDuration, id: &str) -> ServiceHandle<Self> {
        let conn = MqttConn::new(addr, broker, id);
        let overhead_rng = Prng::new(addr.port as u64 ^ 0xF445);
        Rc::new(RefCell::new(DigiPool::with_session(addr, conn, None, overhead, overhead_rng)))
    }

    /// The host of the dedicated digi `name`, to hold that one digi: the
    /// session is the digi's own (client id `digi/<name>`, last-will on
    /// its `lwt` topic), and the service-overhead draws split off the
    /// digi's RNG stream `rng`.
    pub fn dedicated(
        addr: Addr,
        broker: Addr,
        service_overhead: SimDuration,
        name: &str,
        rng: &Prng,
    ) -> ServiceHandle<DigiPool> {
        let conn = MqttConn::new(addr, broker, &format!("digi/{name}"));
        let will = Some((topics::lwt(name), Bytes::from_static(b"offline")));
        let overhead_rng = rng.split_str("service-overhead");
        let mut pool = DigiPool::with_session(addr, conn, will, service_overhead, overhead_rng);
        // Room for exactly its one cell: a first `push` would reserve four.
        pool.cells.reserve_exact(1);
        Rc::new(RefCell::new(pool))
    }

    /// The pool's bound address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The client id of the host's MQTT session.
    pub(crate) fn session(&self) -> &str {
        self.conn.client_id()
    }

    /// Digis currently hosted.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the pool hosts no digis.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Counters, with the live cell count filled in.
    pub fn stats(&self) -> PoolStats {
        PoolStats { cells: self.cells.len(), ..self.stats.clone() }
    }

    /// Hosted digi names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.ids.keys().map(String::as_str).collect()
    }

    /// Hosted cells in name order.
    pub fn cells(&self) -> impl Iterator<Item = &DigiCell> {
        self.ids.values().map(|&i| &self.cells[i])
    }

    /// A hosted digi's current model, if hosted here.
    pub fn model(&self, name: &str) -> Option<&Model> {
        self.cell(name).map(DigiCell::model)
    }

    /// A hosted digi's cell, if hosted here.
    pub fn cell(&self, name: &str) -> Option<&DigiCell> {
        self.cells.get(*self.ids.get(name)?)
    }

    /// A hosted digi's cell for in-place switches (`managed`, event
    /// generation) that publish nothing.
    pub fn cell_mut(&mut self, name: &str) -> Option<&mut DigiCell> {
        self.cells.get_mut(*self.ids.get(name)?)
    }

    /// Overwrite a hosted digi's fields and reprocess (replay steps). The
    /// cell keeps its place and tick group; a changed model is
    /// republished. Returns `false` if not hosted here.
    pub fn force_fields(&mut self, sim: &mut Sim, name: &str, fields: Value) -> bool {
        let now = sim.now();
        let Some(cell) = self.cell_mut(name) else {
            return false;
        };
        let mut out = Outbox::new();
        cell.force_fields(now, fields, &mut out);
        self.flush(sim, out);
        true
    }

    /// Host a digi in this pool. `model` should be freshly instantiated
    /// from the program's schema (plus meta overrides). Before the pool
    /// binds, the cell waits for `on_start` (children can be attached
    /// meanwhile); afterwards it subscribes and announces through the live
    /// session at once.
    pub fn host(
        &mut self,
        sim: &mut Sim,
        model: Model,
        program: Box<dyn DigiProgram>,
        rng: Prng,
        log: TraceLog,
        scene_logic_enabled: bool,
    ) {
        let cell = DigiCell::new(model, program, rng, log, scene_logic_enabled);
        let i = self.cells.len();
        self.ids.insert(cell.name().to_string(), i);
        self.cells.push(cell);
        if self.started {
            self.start_cell(sim, i);
        }
    }

    /// Attach `child` to the hosted scene `parent` (the child may live
    /// anywhere; only the parent must be hosted here): mirror it and
    /// subscribe to its model topic. The child's retained model arrives
    /// and triggers coordination.
    pub fn attach_child(&mut self, sim: &mut Sim, parent: &str, child: &str, kind: &str) -> bool {
        let now = sim.now();
        let Some(cell) = self.cell_mut(parent) else {
            return false;
        };
        let topic = cell.attach_child(now, child, kind);
        self.conn.subscribe(sim, &[(&topic, QoS::AtMostOnce)]);
        true
    }

    /// Detach `child` from the hosted scene `parent`.
    pub fn detach_child(&mut self, sim: &mut Sim, parent: &str, child: &str) -> bool {
        let now = sim.now();
        let Some(cell) = self.cell_mut(parent) else {
            return false;
        };
        let topic = cell.detach_child(now, child);
        self.conn.unsubscribe(sim, &[&topic]);
        true
    }

    fn flush(&mut self, sim: &mut Sim, out: Outbox) {
        for (topic, payload, retain) in out.messages {
            self.conn.publish(sim, &topic, payload, QoS::AtMostOnce, retain);
        }
    }

    /// Subscribe a cell's command topics, then each attached child's model
    /// topic — the broker re-delivers retained child models on subscribe,
    /// which re-mirrors a scene after a session loss.
    fn subscribe_cell(&mut self, sim: &mut Sim, i: usize) {
        let cell = &self.cells[i];
        let [intent_topic, set_topic] = cell.command_topics();
        let children = cell.model().meta.attach.clone();
        self.conn.subscribe(
            sim,
            &[(&intent_topic, QoS::AtLeastOnce), (&set_topic, QoS::AtLeastOnce)],
        );
        for child in children {
            self.conn.subscribe(sim, &[(&topics::model(&child), QoS::AtMostOnce)]);
        }
    }

    /// Subscribe, run program init, publish the initial model and join the
    /// cell's tick group.
    fn start_cell(&mut self, sim: &mut Sim, i: usize) {
        self.subscribe_cell(sim, i);
        let now = sim.now();
        let cell = &mut self.cells[i];
        let mut out = Outbox::new();
        cell.start(now, &mut out);
        let interval = cell.interval_ms();
        self.flush(sim, out);
        self.join_tick_group(sim, i, interval);
    }

    /// Re-establish a session the broker lost: CONNECT again, resubscribe
    /// every cell, then republish every model unconditionally — the
    /// broker's retained copies may predate changes made while the
    /// session was down.
    fn reconnect(&mut self, sim: &mut Sim) {
        self.reconnect_pending = false;
        self.conn.connect(sim, self.will.clone());
        for i in 0..self.cells.len() {
            self.subscribe_cell(sim, i);
        }
        let now = sim.now();
        for i in 0..self.cells.len() {
            let mut out = Outbox::new();
            self.cells[i].republish_model(now, &mut out);
            self.flush(sim, out);
        }
    }

    /// Add a cell to the tick group for `interval_ms`, arming the group's
    /// single wheel entry if it isn't in flight. A cell joining an armed
    /// group adopts the group's phase.
    fn join_tick_group(&mut self, sim: &mut Sim, i: usize, interval_ms: u64) {
        let group = match self.tick_groups.iter().position(|g| g.interval_ms == interval_ms) {
            Some(g) => &mut self.tick_groups[g],
            None => {
                let group = TickGroup { interval_ms, members: Vec::new(), armed: false };
                self.tick_groups.push(group);
                self.tick_groups.last_mut().expect("pushed above")
            }
        };
        group.members.push(i);
        if !group.armed {
            group.armed = true;
            sim.set_timer(
                self.addr,
                SimDuration::from_millis(interval_ms),
                TICK_TOKEN_TAG | interval_ms,
            );
        }
    }

    /// A tick group's wheel entry fired: run every member's loop handler
    /// in host order, migrate cells whose programs changed their interval,
    /// and re-arm once.
    fn run_tick_group(&mut self, sim: &mut Sim, token: TimerToken) {
        let interval_ms = token & !TICK_TOKEN_TAG;
        let Some(g) = self.tick_groups.iter().position(|g| g.interval_ms == interval_ms) else {
            return;
        };
        self.stats.wheel_wakeups += 1;
        let mut members = std::mem::take(&mut self.tick_groups[g].members);
        let now = sim.now();
        let mut moved: Vec<(usize, u64)> = Vec::new();
        members.retain(|&i| {
            let cell = &mut self.cells[i];
            let mut out = Outbox::new();
            cell.tick(now, &mut out);
            let new_interval = cell.interval_ms();
            self.stats.ticks_dispatched += 1;
            self.flush(sim, out);
            if new_interval != interval_ms {
                moved.push((i, new_interval));
            }
            new_interval == interval_ms
        });
        let group = &mut self.tick_groups[g];
        group.members = members;
        if group.members.is_empty() {
            group.armed = false;
        } else {
            sim.set_timer(self.addr, SimDuration::from_millis(interval_ms), token);
        }
        for (i, interval) in moved {
            self.join_tick_group(sim, i, interval);
        }
    }

    fn handle_mqtt_message(&mut self, sim: &mut Sim, topic: &str, payload: &[u8]) {
        self.stats.messages_in += 1;
        let now = sim.now();
        let Some(digi) = topics::digi_of(topic) else {
            return;
        };
        let digi = digi.to_string();
        match topics::channel_of(topic) {
            Some("intent") => {
                let Some(&i) = self.ids.get(&digi) else {
                    return;
                };
                let cell = &mut self.cells[i];
                cell.log_message_in(now, topic, payload);
                let updates = DigiCell::parse_intents(payload);
                let delay_ms = cell.actuation_delay_ms();
                if delay_ms == 0 {
                    let mut out = Outbox::new();
                    cell.apply_intents(now, updates, &mut out);
                    self.flush(sim, out);
                } else {
                    // Hardware actuation latency (paper §6): the intent
                    // lands after the configured delay.
                    let token = ACTUATION_TOKEN_TAG | self.next_actuation_token;
                    self.next_actuation_token += 1;
                    self.pending_actuations.insert(token, (i, updates));
                    sim.set_timer(self.addr, SimDuration::from_millis(delay_ms), token);
                }
            }
            Some("set") => {
                let Some(cell) = self.cell_mut(&digi) else {
                    return;
                };
                cell.log_message_in(now, topic, payload);
                let mut out = Outbox::new();
                cell.handle_set(now, payload, &mut out);
                self.flush(sim, out);
            }
            Some("model") => {
                // fan the child model to every hosted scene mirroring it,
                // in name order
                let parents: Vec<usize> = self
                    .ids
                    .values()
                    .copied()
                    .filter(|&i| self.cells[i].has_child(&digi))
                    .collect();
                for i in parents {
                    let mut out = Outbox::new();
                    self.cells[i].observe_child(now, &digi, payload, &mut out);
                    self.flush(sim, out);
                }
            }
            _ => {}
        }
    }

    /// Serve the REST device API with load-dependent service time.
    fn handle_http(&mut self, sim: &mut Sim, peer: Addr, payload: &Bytes) {
        self.stats.rest_requests += 1;
        let response = match Request::decode(payload) {
            Ok(req) => {
                // `/digi/<name>/...` addresses a hosted cell; a one-cell
                // host serves every other path itself.
                let named = match req.path_segments().as_slice() {
                    ["digi", name, ..] => self.ids.get(*name).copied(),
                    _ => None,
                };
                let sole = if self.ids.len() == 1 { self.ids.values().next().copied() } else { None };
                match named.or(sole).map(|i| &mut self.cells[i]) {
                    Some(cell) => {
                        let mut out = Outbox::new();
                        let resp = cell.route_http(sim.now(), &req, &mut out);
                        self.flush(sim, out);
                        resp
                    }
                    None => Response::not_found("no such digi in this pool"),
                }
            }
            Err(e) => Response::bad_request(&e.to_string()),
        };
        let bytes = response.encode();
        if self.service_overhead == SimDuration::ZERO {
            rest_endpoint(&mut self.http, self.addr).send(sim, peer, bytes);
        } else {
            // Request-processing time grows with node load: a node crowded
            // with mock containers serves each request more slowly (the
            // effect behind the paper's 20 ms → 60 ms growth from the
            // 50-mock laptop to the 1000-mock cluster).
            let load = sim.node_load(self.addr.node) as f64;
            let factor = (1.0 + load / 64.0) * self.overhead_rng.range_f64(0.85, 1.25);
            let delay = SimDuration::from_nanos(
                (self.service_overhead.as_nanos() as f64 * factor) as u64,
            );
            let token = RESPONSE_TOKEN_TAG | self.next_response_token;
            self.next_response_token += 1;
            self.pending_responses.insert(token, (peer, bytes));
            sim.set_timer(self.addr, delay, token);
        }
    }

    fn pump(&mut self, sim: &mut Sim) {
        while let Some(ev) = self.conn.poll() {
            match ev {
                ClientEvent::Message { topic, payload, .. } => {
                    self.handle_mqtt_message(sim, &topic, &payload);
                }
                ClientEvent::BrokerLost => self.reconnect_pending = true,
                ClientEvent::Connected { .. }
                | ClientEvent::SubAck { .. }
                | ClientEvent::PubAck { .. }
                | ClientEvent::PubComp { .. } => {}
            }
        }
        while let Some(ev) = self.http.as_mut().and_then(|h| h.poll()) {
            match ev {
                TransportEvent::Delivered { peer, payload } => {
                    self.handle_http(sim, peer, &payload)
                }
                TransportEvent::PeerFailed { .. } => {}
            }
        }
    }
}

impl Service for DigiPool {
    fn on_start(&mut self, sim: &mut Sim) {
        self.started = true;
        self.conn.connect(sim, self.will.clone());
        for i in 0..self.cells.len() {
            self.start_cell(sim, i);
        }
    }

    fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
        if dg.src == self.conn.broker() {
            self.conn.on_datagram(sim, dg);
        } else {
            rest_endpoint(&mut self.http, self.addr).on_datagram(sim, dg);
        }
        self.pump(sim);
    }

    fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
        if self.conn.on_timer(sim, token) {
            self.pump(sim);
            return;
        }
        // No HTTP timer is armed before the endpoint exists.
        if self.http.as_mut().is_some_and(|h| h.on_timer(sim, token)) {
            self.pump(sim);
            return;
        }
        if token & TICK_TOKEN_TAG != 0 {
            if self.reconnect_pending {
                self.reconnect(sim);
            }
            self.run_tick_group(sim, token);
        } else if token & ACTUATION_TOKEN_TAG != 0 {
            let Some((i, updates)) = self.pending_actuations.remove(&token) else {
                return;
            };
            let mut out = Outbox::new();
            self.cells[i].apply_intents(sim.now(), updates, &mut out);
            self.flush(sim, out);
        } else if token & RESPONSE_TOKEN_TAG != 0 {
            if let Some((peer, bytes)) = self.pending_responses.remove(&token) {
                rest_endpoint(&mut self.http, self.addr).send(sim, peer, bytes);
            }
        }
    }
}
