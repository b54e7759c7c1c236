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
//! ## Storage: arena + slabs
//!
//! Cells live in a [`DigiArena`] — slabs addressed by a dense [`DigiId`]
//! (a packed slot index plus a generation tag, so a recycled slot
//! invalidates every stale handle) — instead of a per-digi
//! `Rc<RefCell<...>>` object graph. Checkpoints read each cell's
//! `model.fields()` directly.
//!
//! ## Scheduling: one wheel entry per (interval, pool)
//!
//! Periodic ticks are driven by *tick groups*: the pool arms **one**
//! kernel-wheel timer per distinct loop interval and, when it fires, walks
//! the group's members in insertion order — a dense run over the arena —
//! instead of keeping one wheel entry per digi. At 100k mostly-idle mocks
//! this turns 100k queue entries into a handful. Cells hosted into an
//! already-armed group adopt the group's phase (they first tick at the
//! group's next firing); stale members left behind by evictions are
//! skipped and compacted on the next firing. A session the broker lost is
//! re-established at the next group firing, before any cell ticks.
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
use digibox_net::{Addr, Datagram, Prng, Service, ServiceHandle, Sim, SimDuration, TimerToken};
use digibox_trace::TraceLog;

use crate::cell::{DigiCell, Outbox};
use crate::program::DigiProgram;
use crate::topics;

/// Tag bit for tick-group timers. Like the other tags below it leaves the
/// reliable-transport bit (1 << 63) clear, so no endpoint claims it. The
/// low bits carry the group's interval in ms.
const TICK_TOKEN_TAG: TimerToken = 1 << 59;
/// Tag bit for delayed HTTP responses (service overhead).
const RESPONSE_TOKEN_TAG: TimerToken = 1 << 60;
/// Tag bit for delayed intents (actuation latency).
const ACTUATION_TOKEN_TAG: TimerToken = 1 << 61;
/// Token space of the HTTP endpoint (the MQTT session uses space 1).
const HTTP_TOKEN_SPACE: u16 = 2;

// ---- arena -----------------------------------------------------------------

/// Bits of a [`DigiId`] spent on the slot index: 2^20 slots ≥ the
/// million-digi target.
const ID_SLOT_BITS: u32 = 20;
const ID_SLOT_MASK: u32 = (1 << ID_SLOT_BITS) - 1;
/// Remaining bits tag the generation; wraps after 4096 recycles of a slot.
const ID_GEN_MASK: u32 = (1 << (32 - ID_SLOT_BITS)) - 1;
/// Entries per slab: large enough for cache-dense scans. A slab grows
/// like any `Vec` up to this size, so a one-cell host stays small.
const SLAB_CAP: usize = 1024;

/// Dense generational handle into an [`Arena`]: a packed `(slot, gen)`
/// pair. The generation tag makes stale handles safe — after a slot is
/// recycled, ids from its previous life no longer resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DigiId(u32);

impl DigiId {
    fn pack(slot: u32, gen: u32) -> DigiId {
        debug_assert!(slot <= ID_SLOT_MASK);
        DigiId(slot | (gen << ID_SLOT_BITS))
    }

    /// The slab slot index (dense, recycled).
    pub fn slot(self) -> u32 {
        self.0 & ID_SLOT_MASK
    }

    /// The generation tag guarding against stale handles.
    pub fn generation(self) -> u32 {
        self.0 >> ID_SLOT_BITS
    }

    /// The packed raw id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

struct ArenaSlot<T> {
    gen: u32,
    value: Option<T>,
}

/// Slab-backed generational arena: values live in slabs of up to
/// `SLAB_CAP` entries that never move between slabs, slots are recycled LIFO, and every handle carries a generation
/// tag so a stale [`DigiId`] can never reach a recycled slot's new tenant.
pub struct Arena<T> {
    slabs: Vec<Vec<ArenaSlot<T>>>,
    free: Vec<u32>,
    next_slot: u32,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena { slabs: Vec::new(), free: Vec::new(), next_slot: 0, len: 0 }
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (live + free).
    pub fn capacity(&self) -> usize {
        self.next_slot as usize
    }

    fn slot_ref(&self, slot: u32) -> Option<&ArenaSlot<T>> {
        self.slabs.get(slot as usize / SLAB_CAP)?.get(slot as usize % SLAB_CAP)
    }

    fn slot_mut(&mut self, slot: u32) -> Option<&mut ArenaSlot<T>> {
        self.slabs.get_mut(slot as usize / SLAB_CAP)?.get_mut(slot as usize % SLAB_CAP)
    }

    /// Store a value, reusing the most recently freed slot if any.
    pub fn insert(&mut self, value: T) -> DigiId {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let s = self.slot_mut(slot).expect("free-listed slot exists");
            debug_assert!(s.value.is_none());
            s.value = Some(value);
            return DigiId::pack(slot, s.gen);
        }
        let slot = self.next_slot;
        assert!(slot <= ID_SLOT_MASK, "arena full: 2^{ID_SLOT_BITS} slots");
        self.next_slot += 1;
        if self.slabs.last().is_none_or(|s| s.len() == SLAB_CAP) {
            // Start at one slot so a one-cell host holds exactly one.
            self.slabs.push(Vec::with_capacity(1));
        }
        self.slabs
            .last_mut()
            .expect("slab pushed above")
            .push(ArenaSlot { gen: 0, value: Some(value) });
        DigiId::pack(slot, 0)
    }

    /// Remove and return the value behind `id`, bumping the slot's
    /// generation so `id` (and any copy of it) goes stale. `None` if the
    /// handle is already stale.
    pub fn remove(&mut self, id: DigiId) -> Option<T> {
        let s = self.slot_mut(id.slot())?;
        if s.gen != id.generation() || s.value.is_none() {
            return None;
        }
        let v = s.value.take();
        s.gen = (s.gen + 1) & ID_GEN_MASK;
        self.free.push(id.slot());
        self.len -= 1;
        v
    }

    /// Generation-checked read. `None` for stale or never-issued handles.
    pub fn get(&self, id: DigiId) -> Option<&T> {
        let s = self.slot_ref(id.slot())?;
        if s.gen != id.generation() {
            return None;
        }
        s.value.as_ref()
    }

    /// Generation-checked mutable read.
    pub fn get_mut(&mut self, id: DigiId) -> Option<&mut T> {
        let s = self.slot_mut(id.slot())?;
        if s.gen != id.generation() {
            return None;
        }
        s.value.as_mut()
    }

    /// Whether `id` still resolves.
    pub fn contains(&self, id: DigiId) -> bool {
        self.get(id).is_some()
    }

    /// Iterate live entries in slot (slab) order.
    pub fn iter(&self) -> impl Iterator<Item = (DigiId, &T)> {
        self.slabs.iter().enumerate().flat_map(|(si, slab)| {
            slab.iter().enumerate().filter_map(move |(i, s)| {
                let v = s.value.as_ref()?;
                Some((DigiId::pack((si * SLAB_CAP + i) as u32, s.gen), v))
            })
        })
    }
}

/// The pool's cell storage: a slab arena of [`DigiCell`]s.
pub type DigiArena = Arena<DigiCell>;

// ---- pool ------------------------------------------------------------------

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

/// One tick group: every hosted cell sharing a loop interval, driven by a
/// single kernel-wheel entry.
struct TickGroup {
    interval_ms: u64,
    /// Members in host order; stale ids are compacted on firing.
    members: Vec<DigiId>,
    /// Whether a wheel entry for this group is in flight.
    armed: bool,
}

/// The service hosting one digi (dedicated) or many (a FaaS-style pool).
pub struct DigiPool {
    addr: Addr,
    conn: MqttConn,
    http: ReliableEndpoint,
    /// Last-will registered with every CONNECT (dedicated digis).
    will: Option<(String, Bytes)>,
    arena: DigiArena,
    /// Name → id, sorted (iteration order = digest order).
    ids: BTreeMap<String, DigiId>,
    /// One group per distinct loop interval (a handful); one wheel entry
    /// per armed group.
    tick_groups: Vec<TickGroup>,
    /// Whether `on_start` ran; cells hosted before it start with it.
    started: bool,
    service_overhead: SimDuration,
    overhead_rng: Prng,
    pending_actuations: HashMap<TimerToken, (DigiId, Vec<(Path, Value)>)>,
    next_actuation_token: u64,
    pending_responses: HashMap<TimerToken, (Addr, Bytes)>,
    next_response_token: u64,
    /// Set when the MQTT session died (transport exhausted retries to the
    /// broker, e.g. during a partition or a broker crash); the next tick
    /// re-connects and re-subscribes, so coordination resumes after a heal.
    reconnect_pending: bool,
    broker_losses: u64,
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
            http: ReliableEndpoint::new(addr).with_space(HTTP_TOKEN_SPACE),
            will,
            arena: Arena::new(),
            ids: BTreeMap::new(),
            tick_groups: Vec::new(),
            started: false,
            service_overhead,
            overhead_rng,
            pending_actuations: HashMap::new(),
            next_actuation_token: 0,
            pending_responses: HashMap::new(),
            next_response_token: 0,
            reconnect_pending: false,
            broker_losses: 0,
            stats: PoolStats::default(),
        }
    }

    /// A shared pool at `addr` speaking MQTT to `broker` on one session,
    /// with per-message service overhead applied to REST responses.
    pub fn new(addr: Addr, broker: Addr, service_overhead: SimDuration) -> ServiceHandle<DigiPool> {
        let conn = MqttConn::new(addr, broker, &format!("pool/{addr}"));
        let overhead_rng = Prng::new(addr.port as u64 ^ 0xF445);
        Rc::new(RefCell::new(DigiPool::with_session(addr, conn, None, service_overhead, overhead_rng)))
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
        Rc::new(RefCell::new(DigiPool::with_session(addr, conn, will, service_overhead, overhead_rng)))
    }

    /// The pool's bound address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Digis currently hosted.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the pool hosts no digis.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Counters, with the live cell count filled in.
    pub fn stats(&self) -> PoolStats {
        PoolStats { cells: self.arena.len(), ..self.stats.clone() }
    }

    /// How many times the pool's broker session died and was re-created.
    pub fn broker_losses(&self) -> u64 {
        self.broker_losses
    }

    /// Hosted digi names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.ids.keys().map(String::as_str).collect()
    }

    /// Hosted cells in name order.
    pub fn cells(&self) -> impl Iterator<Item = &DigiCell> {
        self.ids.values().filter_map(|&id| self.arena.get(id))
    }

    /// The arena id of a hosted digi.
    pub fn id_of(&self, name: &str) -> Option<DigiId> {
        self.ids.get(name).copied()
    }

    /// A hosted digi's current model, if hosted here.
    pub fn model(&self, name: &str) -> Option<&Model> {
        self.cell(name).map(DigiCell::model)
    }

    /// A hosted digi's cell, if hosted here.
    pub fn cell(&self, name: &str) -> Option<&DigiCell> {
        self.arena.get(*self.ids.get(name)?)
    }

    /// A hosted digi's cell for in-place switches (`managed`, event
    /// generation) that publish nothing.
    pub fn cell_mut(&mut self, name: &str) -> Option<&mut DigiCell> {
        self.arena.get_mut(*self.ids.get(name)?)
    }

    /// Overwrite a hosted digi's fields and reprocess (replay steps,
    /// checkpoint restore). The cell keeps its slab slot and tick group;
    /// a changed model is republished. Returns `false` if not hosted here.
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
    /// session at once. Returns the arena id of the new cell.
    pub fn host(
        &mut self,
        sim: &mut Sim,
        model: Model,
        program: Box<dyn DigiProgram>,
        rng: Prng,
        log: TraceLog,
        scene_logic_enabled: bool,
    ) -> DigiId {
        let cell = DigiCell::new(model, program, rng, log, scene_logic_enabled);
        let name = cell.name().to_string();
        let id = self.arena.insert(cell);
        self.ids.insert(name, id);
        if self.started {
            self.start_cell(sim, id);
        }
        id
    }

    /// Remove a hosted digi. Its slab slot returns to the free list; any
    /// [`DigiId`] for it goes stale.
    pub fn evict(&mut self, sim: &mut Sim, name: &str) -> bool {
        let Some(id) = self.ids.remove(name) else {
            return false;
        };
        let Some(cell) = self.arena.remove(id) else {
            return false;
        };
        // The cell's tick-group entry goes stale with the id; it is
        // skipped and compacted at the group's next firing.
        let [intent_topic, set_topic] = cell.command_topics();
        self.conn.unsubscribe(sim, &[&intent_topic, &set_topic]);
        true
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

    /// Live cells in slot order (host order until a slot is recycled).
    fn slot_order(&self) -> Vec<DigiId> {
        self.arena.iter().map(|(id, _)| id).collect()
    }

    /// Subscribe a cell's command topics, then each attached child's model
    /// topic — the broker re-delivers retained child models on subscribe,
    /// which re-mirrors a scene after a session loss.
    fn subscribe_cell(&mut self, sim: &mut Sim, id: DigiId) {
        let Some(cell) = self.arena.get(id) else {
            return;
        };
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
    fn start_cell(&mut self, sim: &mut Sim, id: DigiId) {
        self.subscribe_cell(sim, id);
        let now = sim.now();
        let Some(cell) = self.arena.get_mut(id) else {
            return;
        };
        let mut out = Outbox::new();
        cell.start(now, &mut out);
        let interval = cell.interval_ms();
        self.flush(sim, out);
        self.join_tick_group(sim, id, interval);
    }

    /// Re-establish a session the broker lost: CONNECT again, resubscribe
    /// every cell, then republish every model unconditionally — the
    /// broker's retained copies may predate changes made while the
    /// session was down.
    fn reconnect(&mut self, sim: &mut Sim) {
        self.reconnect_pending = false;
        self.conn.connect(sim, self.will.clone());
        let ids = self.slot_order();
        for &id in &ids {
            self.subscribe_cell(sim, id);
        }
        let now = sim.now();
        for id in ids {
            if let Some(cell) = self.arena.get_mut(id) {
                let mut out = Outbox::new();
                cell.republish_model(now, &mut out);
                self.flush(sim, out);
            }
        }
    }

    /// Add a cell to the tick group for `interval_ms`, arming the group's
    /// single wheel entry if it isn't in flight. A cell joining an armed
    /// group adopts the group's phase.
    fn join_tick_group(&mut self, sim: &mut Sim, id: DigiId, interval_ms: u64) {
        let group = match self.tick_groups.iter().position(|g| g.interval_ms == interval_ms) {
            Some(i) => &mut self.tick_groups[i],
            None => {
                let group = TickGroup { interval_ms, members: Vec::new(), armed: false };
                self.tick_groups.push(group);
                self.tick_groups.last_mut().expect("pushed above")
            }
        };
        group.members.push(id);
        if !group.armed {
            group.armed = true;
            sim.set_timer(
                self.addr,
                SimDuration::from_millis(interval_ms),
                TICK_TOKEN_TAG | interval_ms,
            );
        }
    }

    /// A tick group's wheel entry fired: run every live member's loop
    /// handler in host order (a dense scan of the arena), compact stale
    /// ids, migrate cells whose programs changed their interval, and
    /// re-arm once.
    fn run_tick_group(&mut self, sim: &mut Sim, token: TimerToken) {
        let interval_ms = token & !TICK_TOKEN_TAG;
        let Some(g) = self.tick_groups.iter().position(|g| g.interval_ms == interval_ms) else {
            return;
        };
        let group = &mut self.tick_groups[g];
        self.stats.wheel_wakeups += 1;
        let mut members = std::mem::take(&mut group.members);
        let now = sim.now();
        let mut survivors = Vec::with_capacity(members.len());
        let mut moved: Vec<(DigiId, u64)> = Vec::new();
        for id in members.drain(..) {
            let Some(cell) = self.arena.get_mut(id) else {
                continue; // stale: evicted (and possibly recycled) since
            };
            let mut out = Outbox::new();
            cell.tick(now, &mut out);
            let new_interval = cell.interval_ms();
            self.stats.ticks_dispatched += 1;
            self.flush(sim, out);
            if new_interval == interval_ms {
                survivors.push(id);
            } else {
                moved.push((id, new_interval));
            }
        }
        let group = &mut self.tick_groups[g];
        // Merge defensively with anything hosted while we were running.
        survivors.append(&mut group.members);
        group.members = survivors;
        if group.members.is_empty() {
            group.armed = false;
        } else {
            sim.set_timer(self.addr, SimDuration::from_millis(interval_ms), token);
        }
        for (id, interval) in moved {
            self.join_tick_group(sim, id, interval);
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
                let Some(&id) = self.ids.get(&digi) else {
                    return;
                };
                let Some(cell) = self.arena.get_mut(id) else {
                    return;
                };
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
                    self.pending_actuations.insert(token, (id, updates));
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
                let parents: Vec<DigiId> = self
                    .ids
                    .values()
                    .copied()
                    .filter(|&id| self.arena.get(id).is_some_and(|c| c.has_child(&digi)))
                    .collect();
                for id in parents {
                    if let Some(cell) = self.arena.get_mut(id) {
                        let mut out = Outbox::new();
                        cell.observe_child(now, &digi, payload, &mut out);
                        self.flush(sim, out);
                    }
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
                match named.or(sole).and_then(|id| self.arena.get_mut(id)) {
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
            self.http.send(sim, peer, bytes);
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
                ClientEvent::BrokerLost => {
                    self.broker_losses += 1;
                    self.reconnect_pending = true;
                }
                ClientEvent::Connected { .. }
                | ClientEvent::SubAck { .. }
                | ClientEvent::PubAck { .. }
                | ClientEvent::PubComp { .. } => {}
            }
        }
        while let Some(ev) = self.http.poll() {
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
        for id in self.slot_order() {
            self.start_cell(sim, id);
        }
    }

    fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
        if dg.src == self.conn.broker() {
            self.conn.on_datagram(sim, dg);
        } else {
            self.http.on_datagram(sim, dg);
        }
        self.pump(sim);
    }

    fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
        if self.conn.on_timer(sim, token) {
            self.pump(sim);
            return;
        }
        if self.http.on_timer(sim, token) {
            self.pump(sim);
            return;
        }
        if token & TICK_TOKEN_TAG != 0 {
            if self.reconnect_pending {
                self.reconnect(sim);
            }
            self.run_tick_group(sim, token);
        } else if token & ACTUATION_TOKEN_TAG != 0 {
            let Some((id, updates)) = self.pending_actuations.remove(&token) else {
                return;
            };
            if let Some(cell) = self.arena.get_mut(id) {
                let mut out = Outbox::new();
                cell.apply_intents(sim.now(), updates, &mut out);
                self.flush(sim, out);
            }
        } else if token & RESPONSE_TOKEN_TAG != 0 {
            if let Some((peer, bytes)) = self.pending_responses.remove(&token) {
                self.http.send(sim, peer, bytes);
            }
        }
    }
}

#[cfg(test)]
mod arena_tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a: Arena<String> = Arena::new();
        let x = a.insert("x".into());
        let y = a.insert("y".into());
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(x).map(String::as_str), Some("x"));
        assert_eq!(a.get(y).map(String::as_str), Some("y"));
        assert_eq!(a.remove(x), Some("x".into()));
        assert_eq!(a.len(), 1);
        assert!(a.get(x).is_none());
        assert_eq!(a.remove(x), None, "double remove is stale");
    }

    #[test]
    fn stale_id_never_reaches_recycled_slot() {
        let mut a: Arena<u32> = Arena::new();
        let first = a.insert(1);
        a.remove(first);
        let second = a.insert(2);
        // LIFO recycling: same slot, new generation.
        assert_eq!(second.slot(), first.slot());
        assert_ne!(second.generation(), first.generation());
        assert!(!a.contains(first));
        assert!(a.get(first).is_none());
        assert!(a.get_mut(first).is_none());
        assert_eq!(a.remove(first), None);
        assert_eq!(a.get(second), Some(&2));
    }

    #[test]
    fn iter_walks_slots_in_order() {
        let mut a: Arena<u32> = Arena::new();
        let ids: Vec<DigiId> = (0..5).map(|i| a.insert(i)).collect();
        a.remove(ids[2]);
        let seen: Vec<(u32, u32)> = a.iter().map(|(id, &v)| (id.slot(), v)).collect();
        assert_eq!(seen, vec![(0, 0), (1, 1), (3, 3), (4, 4)]);
    }

    #[test]
    fn slabs_grow_without_moving_slots() {
        let mut a: Arena<usize> = Arena::new();
        let ids: Vec<DigiId> = (0..SLAB_CAP + 10).map(|i| a.insert(i)).collect();
        assert_eq!(a.capacity(), SLAB_CAP + 10);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(a.get(*id), Some(&i), "slot {} moved", id.slot());
        }
        assert_eq!(ids[SLAB_CAP].slot() as usize, SLAB_CAP, "second slab starts at SLAB_CAP");
    }

    /// Tiny deterministic PRNG driving one interleaving round;
    /// `arena_recycling_holds_under_any_interleaving` below widens the
    /// input space over seeded rounds.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    /// Reference-model check: interleaved spawn/kill/restart against a
    /// plain map keyed by raw id. No stale id may ever dereference, and a
    /// "restart" (kill + respawn) must land in the most recently freed
    /// slab slot (LIFO), exactly where checkpoint restore expects it.
    fn spawn_kill_restart_round(seed: u64, steps: u32) {
        let mut a: Arena<u64> = Arena::new();
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
        let mut live: Vec<(DigiId, u64)> = Vec::new();
        let mut dead: Vec<DigiId> = Vec::new();
        let mut stamp = 0u64;
        for _ in 0..steps {
            match rng.next() % 4 {
                0 | 1 => {
                    // spawn
                    stamp += 1;
                    let expected_slot = a
                        .free
                        .last()
                        .copied()
                        .unwrap_or(a.next_slot);
                    let id = a.insert(stamp);
                    assert_eq!(id.slot(), expected_slot, "LIFO slot reuse violated");
                    live.push((id, stamp));
                }
                2 if !live.is_empty() => {
                    // kill
                    let i = (rng.next() as usize) % live.len();
                    let (id, v) = live.swap_remove(i);
                    assert_eq!(a.remove(id), Some(v));
                    dead.push(id);
                }
                _ if !live.is_empty() => {
                    // restart: kill then respawn; must land in the slot
                    // just freed (how checkpoint restore finds its row)
                    let i = (rng.next() as usize) % live.len();
                    let (id, v) = live.swap_remove(i);
                    assert_eq!(a.remove(id), Some(v));
                    stamp += 1;
                    let re = a.insert(stamp);
                    assert_eq!(re.slot(), id.slot(), "restart must reuse the freed slot");
                    assert_ne!(re.generation(), id.generation());
                    dead.push(id);
                    live.push((re, stamp));
                }
                _ => {}
            }
            // Invariants after every step: every live id resolves to its
            // value, every dead id is stale.
            for &(id, v) in &live {
                assert_eq!(a.get(id), Some(&v), "live id failed to resolve");
            }
            for &id in &dead {
                assert!(a.get(id).is_none(), "stale id dereferenced");
            }
            assert_eq!(a.len(), live.len());
        }
    }

    #[test]
    fn randomized_spawn_kill_restart_interleavings() {
        for seed in 0..8 {
            spawn_kill_restart_round(seed, 600);
        }
    }

    #[test]
    fn arena_recycling_holds_under_any_interleaving() {
        digibox_net::for_each_seed(256, |rng| {
            spawn_kill_restart_round(rng.next_u64(), rng.range_u64(1, 400) as u32)
        });
    }
}
