//! The broker service: session management, subscription routing, retained
//! messages, last-will handling.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap}; // hash maps for keyed lookup; `dbox audit` (DH0002) checks every iteration site
use std::ops::Bound;
use std::rc::Rc;

use bytes::Bytes;
use digibox_obs as obs;

use digibox_net::transport::{ReliableEndpoint, TransportEvent};
use digibox_net::{
    Addr, Datagram, FxBuildHasher, Service, ServiceHandle, Sim, SimDuration, SimTime, TimerToken,
};

use crate::packet::{InFlight, Packet, PublishRef, QoS};
use crate::pidmap::PidMap;
use crate::topic::{literal_prefix, parse_share, validate_filter, validate_topic, TopicTrie};

/// Application publishes between `$SYS` refreshes (change-driven rather
/// than timer-driven so a quiesced testbed's event queue can drain).
const SYS_EVERY_PUBLISHES: u64 = 64;

/// Bound on distinct cached topics; IoT workloads publish to a small,
/// stable set of topics, so hitting this means a pathological workload —
/// just drop the whole cache rather than track per-entry age.
const ROUTE_CACHE_CAP: usize = 4096;

/// Timer token for the session keep-alive sweep. The reliable endpoint
/// only claims tokens with `RELIABLE_TIMER_BIT` (bit 63) set, so a small
/// constant is safely ours.
const SESSION_SWEEP_TOKEN: TimerToken = 1;

/// Broker counters (exposed for the scalability benchmarks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BrokerStats {
    /// Successful CONNECTs.
    pub connects: u64,
    /// PUBLISH packets received from clients.
    pub publishes_in: u64,
    /// PUBLISH packets fanned out to subscribers.
    pub publishes_out: u64,
    /// Topic filters subscribed (one per filter, not per packet).
    pub subscribes: u64,
    /// Retained messages delivered to new subscribers.
    pub retained_served: u64,
    /// Last-will messages published for dead sessions.
    pub wills_fired: u64,
    /// Packets dropped as undecodable.
    pub malformed: u64,
    /// Publishes routed via the cached subscriber set.
    pub route_cache_hits: u64,
    /// Publishes that had to walk the topic trie.
    pub route_cache_misses: u64,
    /// Keep-alive probes sent to idle sessions.
    pub probes_sent: u64,
    /// Sessions reaped because a keep-alive probe went unanswered.
    pub sessions_expired: u64,
    /// QoS 2 PUBLISH packets received (first receipts and DUPs alike).
    pub qos2_publishes_in: u64,
    /// QoS 2 broker→client deliveries whose PUBCOMP arrived.
    pub qos2_completed: u64,
    /// Re-received QoS 2 publishes suppressed by packet-id dedup.
    pub qos2_dup_dropped: u64,
    /// Persistent sessions resumed (CONNACK with `session_present`).
    pub session_resumes: u64,
    /// Live sessions displaced by a reconnect under the same client id.
    pub session_takeovers: u64,
    /// Messages handed to a `$share` group member (one per group per publish).
    pub shared_deliveries: u64,
}

/// Pre-interned observability handles for the broker's hot paths (see
/// `digibox_obs`): publish/route/retain counters and the span frames
/// nested under the kernel's dispatch spans.
struct ObsKeys {
    publish: obs::CounterId,
    route_hit: obs::CounterId,
    route_miss: obs::CounterId,
    retained_served: obs::CounterId,
    qos2_complete: obs::CounterId,
    qos2_dup: obs::CounterId,
    session_resume: obs::CounterId,
    shared_delivery: obs::CounterId,
    fanout: obs::HistogramId,
    f_publish: obs::FrameId,
    f_subscribe: obs::FrameId,
    f_retain: obs::FrameId,
}

impl ObsKeys {
    fn new() -> ObsKeys {
        ObsKeys {
            publish: obs::counter("broker.publishes"),
            route_hit: obs::counter("broker.route_cache_hits"),
            route_miss: obs::counter("broker.route_cache_misses"),
            retained_served: obs::counter("broker.retained_served"),
            qos2_complete: obs::counter("broker.qos2_completed"),
            qos2_dup: obs::counter("broker.qos2_dups_dropped"),
            session_resume: obs::counter("broker.session_resumes"),
            shared_delivery: obs::counter("broker.shared_deliveries"),
            fanout: obs::histogram("broker.route_fanout"),
            f_publish: obs::frame("broker.publish"),
            f_subscribe: obs::frame("broker.subscribe"),
            f_retain: obs::frame("broker.retain"),
        }
    }
}

/// One subscription entry in the trie: who gets the message, at what QoS,
/// and (for `$share/<group>/...` filters) which consumer group it belongs
/// to — shared entries compete round-robin instead of all receiving a copy.
#[derive(Debug, Clone, PartialEq)]
struct SubEntry {
    addr: Addr,
    qos: QoS,
    group: Option<Rc<str>>,
}

/// Durable state of one persistent (non-clean) session, as stashed across
/// disconnects and exported/imported around a broker restart
/// ([`Broker::export_sessions`] / [`Broker::import_sessions`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Client identifier — the durable session key.
    pub client_id: String,
    /// Granted subscriptions as `(filter, qos)`, in subscribe order.
    /// `$share/...` filters keep their full spelling.
    pub subscriptions: Vec<(String, QoS)>,
    /// Last-will message, if any.
    pub will: Option<(String, Bytes)>,
    /// Keep-alive interval from CONNECT, in seconds.
    pub keep_alive_secs: u16,
    /// Inbound QoS 2 packet ids received but not yet released (the
    /// receiver-side dedup set), sorted.
    pub inbound_rec: Vec<u16>,
    /// In-flight broker→client publishes, sorted by packet id.
    pub outbound: Vec<OutboundSnapshot>,
}

/// One in-flight broker→client publish inside a [`SessionSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct OutboundSnapshot {
    /// Packet id of the delivery.
    pub packet_id: u16,
    /// Destination topic.
    pub topic: String,
    /// Message bytes.
    pub payload: Bytes,
    /// Delivery QoS (1 or 2; QoS 0 deliveries are never tracked).
    pub qos: QoS,
    /// Retain flag as delivered.
    pub retain: bool,
    /// True when PUBREL went out and PUBCOMP is pending; false while the
    /// publish itself still awaits PUBACK/PUBREC.
    pub released: bool,
}

#[derive(Debug)]
struct Session {
    client_id: String,
    /// CONNECT's clean-session flag; when false the session is stashed
    /// (not destroyed) on disconnect and survives broker restarts.
    clean_session: bool,
    /// Keep-alive interval from CONNECT (persisted; the broker's own
    /// sweep uses the global `session_timeout`).
    keep_alive_secs: u16,
    /// Filters this session holds with their granted QoS (mirror of the
    /// trie, for cleanup and persistence).
    filters: Vec<(String, QoS)>,
    will: Option<(String, Bytes)>,
    /// Last time any packet arrived from this client.
    last_seen: SimTime,
    /// When the last keep-alive probe went out (cleared on any traffic).
    last_probe: Option<SimTime>,
    /// Inbound QoS 2 pids received but not released — publishes whose pid
    /// is already here are PUBREC'd again but not re-routed.
    inbound_rec: BTreeSet<u16>,
    /// In-flight broker→client QoS 1/2 deliveries, in pid order so
    /// resumption retransmits deterministically.
    outbound: PidMap<InFlight>,
}

impl Session {
    /// When this session next needs a probe: `timeout` past the last sign
    /// of life, where an outstanding probe also counts (so a session is
    /// probed at most once per timeout period while the transport decides).
    fn deadline(&self, timeout: SimDuration) -> SimTime {
        let seen = match self.last_probe {
            Some(p) if p > self.last_seen => p,
            _ => self.last_seen,
        };
        seen + timeout
    }
}

/// Freeze a live session's durable state (pid and BTree order keep the
/// snapshot's vectors sorted, hence byte-stable when serialized). Each
/// in-flight publish is decoded from the packet it was sent as; its
/// payload stays a window onto that packet.
fn snapshot_of(s: &Session) -> SessionSnapshot {
    SessionSnapshot {
        client_id: s.client_id.clone(),
        subscriptions: s.filters.clone(),
        will: s.will.clone(),
        keep_alive_secs: s.keep_alive_secs,
        inbound_rec: s.inbound_rec.iter().copied().collect(),
        outbound: s
            .outbound
            .iter()
            .map(|(pid, ob)| match Packet::decode_shared(&ob.packet) {
                Ok(Packet::Publish { topic, payload, qos, retain, .. }) => OutboundSnapshot {
                    packet_id: pid,
                    topic,
                    payload,
                    qos,
                    retain,
                    released: ob.released,
                },
                other => unreachable!("in-flight pid {pid} is not a stored PUBLISH: {other:?}"),
            })
            .collect(),
    }
}

/// Subscribers with their granted QoS.
type Subscribers = Vec<(Addr, QoS)>;

/// A topic's fully resolved delivery lists: direct subscribers (each gets
/// a copy) and `$share` groups (each group gets exactly one copy,
/// round-robin). Cached immutably per interned topic id; the rotation
/// counters live outside the cache on the broker itself.
#[derive(Debug)]
struct RouteSet {
    /// Deduped best-QoS direct subscribers, sorted by address.
    direct: Subscribers,
    /// Share groups sorted by name; members deduped best-QoS, sorted by
    /// address.
    shared: Vec<(Rc<str>, Subscribers)>,
}

/// Keep one `(addr, qos)` per address, at its highest qos, sorted by
/// address.
fn best_per_addr(mut subs: Subscribers) -> Subscribers {
    subs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    subs.dedup_by_key(|s| s.0);
    subs
}

/// The MQTT broker, bound at one address of the simulated network.
pub struct Broker {
    addr: Addr,
    ep: ReliableEndpoint,
    /// Live sessions by client address. Boxed, so a bucket is 16 bytes
    /// and the table's slack (up to half of it right after a resize, and
    /// both tables while it rehashes) costs pointers, not sessions.
    sessions: HashMap<Addr, Box<Session>, FxBuildHasher>,
    /// client id → live session address, for takeover detection without
    /// scanning the session map.
    client_index: BTreeMap<String, Addr>,
    /// Persistent sessions currently disconnected, keyed by client id.
    /// A non-clean CONNECT under the key resumes the entry; a clean one
    /// destroys it.
    stashed: BTreeMap<String, SessionSnapshot>,
    /// Client ids of the stashed sessions that hold a plain (non-`$share`)
    /// filter, the only ones offline queueing can add to. `stash` and
    /// `unstash` keep it in step with `stashed`.
    stash_subscribed: BTreeSet<String>,
    /// filter → subscription entries (address, granted qos, share group)
    subs: TopicTrie<SubEntry>,
    /// interned topic id → fully resolved delivery lists (deduped,
    /// best-qos, sorted) behind a refcounted snapshot, so a cache hit is
    /// two hash probes (topic → id, id → routes) and a refcount bump — no
    /// `String` key allocation on misses either. Valid only while
    /// `route_epoch` equals the trie's epoch; any
    /// subscribe/unsubscribe/session-end bumps the epoch and the next
    /// publish drops the whole cache (ids stay stable across epochs).
    route_cache: HashMap<u32, Rc<RouteSet>, FxBuildHasher>,
    route_epoch: u64,
    /// `$share` round-robin rotation counters, keyed by group name. Kept
    /// outside the immutable route cache: the counter advances per
    /// matching publish in arrival order, which is what makes shared
    /// fanout deterministic under a deterministic kernel.
    share_rr: BTreeMap<String, u64>,
    /// topic → retained (qos, payload). Topic keys are shared `Rc<str>`
    /// and payloads shared `Bytes`, so replaying retained state to a new
    /// subscriber clones refcounts, not bytes.
    retained: BTreeMap<Rc<str>, (QoS, Bytes)>,
    next_pid: u16,
    stats: BrokerStats,
    /// Idle-session expiry: when set, sessions quiet for this long get a
    /// keep-alive probe over the reliable transport; a dead or partitioned
    /// peer exhausts the transport's retries and is dropped (will fired).
    /// `None` (the default) disables the sweep entirely, so a quiesced
    /// testbed's event queue can still drain.
    session_timeout: Option<SimDuration>,
    sweep_armed: bool,
    obs: ObsKeys,
}

impl Broker {
    /// A broker bound (by the caller) at `addr`, with empty state.
    pub fn new(addr: Addr) -> ServiceHandle<Broker> {
        Rc::new(RefCell::new(Broker {
            addr,
            ep: ReliableEndpoint::new(addr),
            sessions: HashMap::default(),
            client_index: BTreeMap::new(),
            stashed: BTreeMap::new(),
            stash_subscribed: BTreeSet::new(),
            subs: TopicTrie::new(),
            route_cache: HashMap::default(),
            route_epoch: 0,
            share_rr: BTreeMap::new(),
            retained: BTreeMap::new(),
            next_pid: 1,
            stats: BrokerStats::default(),
            session_timeout: None,
            sweep_armed: false,
            obs: ObsKeys::new(),
        }))
    }

    /// Enable (or disable) idle-session expiry. The sweep timer arms on
    /// the next client connect. NOTE: while any session exists the sweep
    /// perpetually re-arms, so drive the sim with `run_for`/`run_until`
    /// rather than `run_to_completion` when a timeout is set.
    pub fn set_session_timeout(&mut self, timeout: Option<SimDuration>) {
        self.session_timeout = timeout;
    }

    /// The configured idle-session expiry, if any.
    pub fn session_timeout(&self) -> Option<SimDuration> {
        self.session_timeout
    }

    /// Datagram retransmissions performed by the broker's transport
    /// (chaos scorecards read this as "messages redelivered").
    pub fn transport_retransmits(&self) -> u64 {
        self.ep.retransmits()
    }

    /// Duplicate datagrams the broker's transport suppressed.
    pub fn transport_duplicates(&self) -> u64 {
        self.ep.duplicates()
    }

    /// The broker's own address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> &BrokerStats {
        &self.stats
    }

    /// Live client sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Persistent sessions currently disconnected but retained.
    pub fn stashed_count(&self) -> usize {
        self.stashed.len()
    }

    /// Export every persistent session — live and stashed — for
    /// checkpointing, sorted by client id. Clean sessions are connection-
    /// scoped and are not exported.
    pub fn export_sessions(&self) -> Vec<SessionSnapshot> {
        let mut out: Vec<SessionSnapshot> = self
            .sessions
            .values()
            .filter(|s| !s.clean_session)
            .map(|s| snapshot_of(s))
            .collect();
        out.extend(self.stashed.values().cloned());
        out.sort_by(|a, b| a.client_id.cmp(&b.client_id));
        out
    }

    /// Import persistent sessions (from a checkpoint taken by
    /// [`Broker::export_sessions`]) into the stash. They resume when their
    /// client reconnects with `clean_session = false`. The pid allocator
    /// is advanced past every imported in-flight id so new deliveries
    /// cannot collide with a half-finished handshake.
    ///
    /// A resumed session keeps each in-flight publish as its MQTT
    /// encoding, so its topic and payload must fit one PUBLISH packet (a
    /// topic of at most 65,535 bytes), as every exported one does.
    pub fn import_sessions(&mut self, snapshots: Vec<SessionSnapshot>) {
        for snap in snapshots {
            for ob in &snap.outbound {
                if ob.packet_id >= self.next_pid {
                    self.next_pid = ob.packet_id.checked_add(1).unwrap_or(1);
                }
            }
            self.stash(snap);
        }
    }

    /// Keep a persistent session's state until its client reconnects,
    /// replacing any stash entry under the same client id.
    fn stash(&mut self, snap: SessionSnapshot) {
        if snap.subscriptions.iter().any(|(f, _)| parse_share(f).is_none()) {
            self.stash_subscribed.insert(snap.client_id.clone());
        } else {
            self.stash_subscribed.remove(&snap.client_id);
        }
        self.stashed.insert(snap.client_id.clone(), snap);
    }

    /// Take a client's stashed session out of the stash.
    fn unstash(&mut self, client_id: &str) -> Option<SessionSnapshot> {
        self.stash_subscribed.remove(client_id);
        self.stashed.remove(client_id)
    }

    /// Application-level retained messages (excludes the broker's own
    /// `$SYS` entries).
    pub fn retained_count(&self) -> usize {
        // The keys starting with "$SYS" are exactly those in ["$SYS", "$SYT").
        let sys = self.retained.range::<str, _>((Bound::Included("$SYS"), Bound::Excluded("$SYT")));
        self.retained.len() - sys.count()
    }

    fn next_pid(&mut self) -> u16 {
        let pid = self.next_pid;
        self.next_pid = self.next_pid.checked_add(1).unwrap_or(1);
        pid
    }

    fn send_packet(&mut self, sim: &mut Sim, to: Addr, pkt: &Packet) {
        self.ep.send_with(sim, to, pkt.encoded_len(), |b| pkt.encode_into(b));
    }

    fn handle_packet(&mut self, sim: &mut Sim, from: Addr, pkt: Packet) {
        match pkt {
            Packet::Connect { client_id, flags } => {
                self.stats.connects += 1;
                // Takeover: the same client id live at another address —
                // the old connection is dropped (its will fires, spec
                // §3.1.4) and, for a persistent session, its state lands
                // in the stash where the new connection can resume it.
                if let Some(&old) = self.client_index.get(&client_id) {
                    if old != from {
                        self.stats.session_takeovers += 1;
                        self.drop_session(sim, old, true);
                    }
                }
                // A re-CONNECT over the same endpoint replaces the old
                // session (stashing it first when persistent, so a
                // non-clean reconnect resumes its own state).
                if self.sessions.contains_key(&from) {
                    self.drop_session(sim, from, false);
                }
                if flags.clean_session {
                    self.unstash(&client_id);
                }
                let resumed = !flags.clean_session && self.stashed.contains_key(&client_id);
                let mut session = Session {
                    client_id: client_id.clone(),
                    clean_session: flags.clean_session,
                    keep_alive_secs: flags.keep_alive_secs,
                    filters: Vec::new(),
                    will: flags.will,
                    last_seen: sim.now(),
                    last_probe: None,
                    inbound_rec: BTreeSet::new(),
                    outbound: PidMap::new(),
                };
                if resumed {
                    let snap = self.unstash(&client_id).expect("checked above");
                    session.filters = snap.subscriptions.clone();
                    session.inbound_rec = snap.inbound_rec.iter().copied().collect();
                    session.outbound = snap
                        .outbound
                        .into_iter()
                        .map(|ob| {
                            let packet = Packet::Publish {
                                dup: false,
                                qos: ob.qos,
                                retain: ob.retain,
                                topic: ob.topic,
                                packet_id: Some(ob.packet_id),
                                payload: ob.payload,
                            };
                            (
                                ob.packet_id,
                                InFlight { packet: packet.encode(), released: ob.released },
                            )
                        })
                        .collect();
                    for (filter, qos) in &snap.subscriptions {
                        self.insert_sub(from, filter, *qos);
                    }
                    self.stats.session_resumes += 1;
                    obs::inc(self.obs.session_resume);
                }
                self.client_index.insert(client_id, from);
                self.sessions.insert(from, Box::new(session));
                self.send_packet(sim, from, &Packet::ConnAck { session_present: resumed, code: 0 });
                if resumed {
                    self.retransmit_session(sim, from);
                }
                self.publish_sys(sim);
                self.maybe_arm_sweep(sim);
            }
            Packet::Publish { qos, retain, topic, packet_id, payload, .. } => {
                self.stats.publishes_in += 1;
                obs::inc(self.obs.publish);
                let _span = obs::enter(self.obs.f_publish);
                if !validate_topic(&topic) {
                    self.stats.malformed += 1;
                    return;
                }
                match qos {
                    QoS::AtMostOnce => {}
                    QoS::AtLeastOnce => {
                        if let Some(pid) = packet_id {
                            self.send_packet(sim, from, &Packet::PubAck { packet_id: pid });
                        }
                    }
                    QoS::ExactlyOnce => {
                        // Exactly-once ingress: route on *first* receipt
                        // of a pid only; every receipt (DUP retransmits
                        // included) is answered with PUBREC, and the pid
                        // stays in the dedup set until PUBREL clears it.
                        let Some(pid) = packet_id else {
                            self.stats.malformed += 1;
                            return;
                        };
                        self.stats.qos2_publishes_in += 1;
                        let first = self
                            .sessions
                            .get_mut(&from)
                            .is_none_or(|s| s.inbound_rec.insert(pid));
                        self.send_packet(sim, from, &Packet::PubRec { packet_id: pid });
                        if !first {
                            self.stats.qos2_dup_dropped += 1;
                            obs::inc(self.obs.qos2_dup);
                            return;
                        }
                    }
                }
                if retain {
                    let _span = obs::enter(self.obs.f_retain);
                    if payload.is_empty() {
                        self.retained.remove(topic.as_str()); // empty retained payload clears
                    } else {
                        self.retained.insert(Rc::from(topic.as_str()), (qos, payload.clone()));
                    }
                }
                self.route(sim, &topic, qos, payload, false);
                if self.stats.publishes_in.is_multiple_of(SYS_EVERY_PUBLISHES) {
                    self.publish_sys(sim);
                }
            }
            Packet::Subscribe { packet_id, filters } => {
                self.stats.subscribes += 1;
                let _span = obs::enter(self.obs.f_subscribe);
                let mut codes = Vec::with_capacity(filters.len());
                let mut granted: Vec<(String, QoS)> = Vec::new();
                for (filter, qos) in filters {
                    if validate_filter(&filter) {
                        codes.push(qos as u8);
                        granted.push((filter, qos));
                    } else {
                        codes.push(0x80); // failure return code
                    }
                }
                // Register before SUBACK so routing is live immediately.
                // A filter the session already holds replaces its granted
                // QoS (spec §3.8.4) — both in the trie and the mirror. The
                // mirror only holds filters the trie held for this
                // subscriber, so a fresh grant skips searching it.
                for (filter, qos) in &granted {
                    let replaced = self.insert_sub(from, filter, *qos);
                    if let Some(s) = self.sessions.get_mut(&from) {
                        let held = if replaced > 0 {
                            s.filters.iter_mut().find(|(f, _)| f == filter)
                        } else {
                            None
                        };
                        match held {
                            Some(held) => held.1 = *qos,
                            None => s.filters.push((filter.clone(), *qos)),
                        }
                    }
                }
                self.send_packet(sim, from, &Packet::SubAck { packet_id, codes });
                self.publish_sys(sim);
                // Deliver matching retained messages (retain flag set).
                // `$share` filters are skipped: retained replay to exactly
                // one group member is undefined under round-robin, so
                // shared subscriptions receive live traffic only (the
                // MQTT 5 rule, adopted here for 3.1.1).
                // Each filter scans only the retained topics that start
                // with its literal prefix; collecting into a map replays
                // each topic once, in topic order. Topic and payload
                // clones here are refcount bumps on `Rc<str>`/`Bytes` —
                // replay copies no message data.
                let plain: Vec<&(String, QoS)> =
                    granted.iter().filter(|(f, _)| parse_share(f).is_none()).collect();
                let mut matching: BTreeMap<Rc<str>, (QoS, Bytes)> = BTreeMap::new();
                for (filter, _) in &plain {
                    let prefix = literal_prefix(filter);
                    let from_prefix = (Bound::Included(prefix), Bound::Unbounded);
                    for (topic, (q, p)) in self.retained.range::<str, _>(from_prefix) {
                        if !topic.starts_with(prefix) {
                            break;
                        }
                        if crate::topic::matches(filter, topic) {
                            matching.entry(Rc::clone(topic)).or_insert_with(|| (*q, p.clone()));
                        }
                    }
                }
                for (topic, (pub_qos, payload)) in matching {
                    let sub_qos = plain
                        .iter()
                        .filter(|(f, _)| crate::topic::matches(f, &topic))
                        .map(|(_, q)| *q)
                        .max()
                        .unwrap_or(QoS::AtMostOnce);
                    let qos = pub_qos.min(sub_qos);
                    self.stats.retained_served += 1;
                    obs::inc(self.obs.retained_served);
                    self.deliver(sim, from, &topic, qos, &payload, true);
                }
            }
            Packet::Unsubscribe { packet_id, filters } => {
                for filter in &filters {
                    self.remove_sub(from, filter);
                    if let Some(s) = self.sessions.get_mut(&from) {
                        s.filters.retain(|(f, _)| f != filter);
                    }
                }
                self.send_packet(sim, from, &Packet::UnsubAck { packet_id });
            }
            Packet::PubAck { packet_id } => {
                // QoS-1 broker→client delivery confirmed; forget the
                // in-flight copy kept for session resumption.
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.outbound.remove(packet_id);
                }
            }
            Packet::PubRec { packet_id } => {
                // Client stored our QoS 2 delivery; release it. The
                // in-flight copy survives (as "released") until PUBCOMP.
                if let Some(s) = self.sessions.get_mut(&from) {
                    if let Some(ob) = s.outbound.get_mut(packet_id) {
                        ob.released = true;
                    }
                }
                self.send_packet(sim, from, &Packet::PubRel { packet_id });
            }
            Packet::PubRel { packet_id } => {
                // Publisher released an inbound pid: clear the dedup
                // entry and complete the handshake.
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.inbound_rec.remove(&packet_id);
                }
                self.send_packet(sim, from, &Packet::PubComp { packet_id });
            }
            Packet::PubComp { packet_id } => {
                if let Some(s) = self.sessions.get_mut(&from) {
                    if s.outbound.remove(packet_id).is_some() {
                        self.stats.qos2_completed += 1;
                        obs::inc(self.obs.qos2_complete);
                    }
                }
            }
            Packet::PingReq => self.send_packet(sim, from, &Packet::PingResp),
            Packet::PingResp => {
                // Answer to one of our keep-alive probes; `last_seen` was
                // already refreshed when the packet was delivered.
            }
            Packet::Disconnect => {
                // Graceful close: the will is discarded (spec §3.14).
                self.drop_session(sim, from, false);
            }
            // Server-to-client packets arriving at the broker are protocol
            // violations from a confused peer; drop them.
            _ => self.stats.malformed += 1,
        }
    }

    /// Register `filter` for `addr` in the trie, replacing any previous
    /// grant the same subscriber holds under it (spec §3.8.4 — a blind
    /// push here is exactly the double-delivery bug). `$share/<group>/<f>`
    /// registers under the inner filter `<f>` with the group recorded on
    /// the entry. Returns how many earlier grants were replaced.
    fn insert_sub(&mut self, addr: Addr, filter: &str, qos: QoS) -> usize {
        let (group, inner) = match parse_share(filter) {
            Some((g, inner)) => (Some(Rc::<str>::from(g)), inner),
            None => (None, filter),
        };
        let entry = SubEntry { addr, qos, group: group.clone() };
        self.subs.replace_where(inner, entry, |e| e.addr == addr && e.group == group)
    }

    /// Remove `addr`'s subscription entry for `filter` (share-aware).
    fn remove_sub(&mut self, addr: Addr, filter: &str) {
        let (group, inner) = match parse_share(filter) {
            Some((g, inner)) => (Some(g), inner),
            None => (None, filter),
        };
        self.subs
            .remove_where(inner, |e| e.addr == addr && e.group.as_deref() == group);
    }

    /// Resolve `topic` to its delivery lists, consulting the route cache.
    /// The cache is keyed by the trie's interned topic id (4 bytes, no
    /// `String` allocation per miss); entries are immutable snapshots
    /// (`Rc<RouteSet>`, a hit is a refcount bump), invalidated wholesale
    /// whenever the subscription trie's epoch moves.
    fn resolved_routes(&mut self, topic: &str) -> Rc<RouteSet> {
        if self.route_epoch != self.subs.epoch() {
            self.route_cache.clear();
            self.route_epoch = self.subs.epoch();
        }
        // The interner bounds the cache: ids are cache keys, so dropping
        // both together keeps them consistent when a pathological workload
        // floods distinct topics.
        if self.subs.topic_id_count() >= ROUTE_CACHE_CAP {
            self.subs.reset_topic_ids();
            self.route_cache.clear();
        }
        let id = self.subs.topic_id(topic);
        if let Some(routes) = self.route_cache.get(&id) {
            self.stats.route_cache_hits += 1;
            obs::inc(self.obs.route_hit);
            return routes.clone();
        }
        self.stats.route_cache_misses += 1;
        obs::inc(self.obs.route_miss);
        // A session subscribed via several matching filters gets one copy
        // at the highest granted qos; share-group members are collected
        // per group the same way.
        let mut direct = Vec::new();
        let mut groups: BTreeMap<Rc<str>, Subscribers> = BTreeMap::new();
        for entry in self.subs.lookup(topic) {
            let bucket = match &entry.group {
                None => &mut direct,
                Some(g) => groups.entry(Rc::clone(g)).or_default(),
            };
            bucket.push((entry.addr, entry.qos));
        }
        let shared = groups.into_iter().map(|(g, members)| (g, best_per_addr(members))).collect();
        let routes = Rc::new(RouteSet { direct: best_per_addr(direct), shared });
        self.route_cache.insert(id, routes.clone());
        routes
    }

    /// Route a publication: every direct subscriber gets a copy; every
    /// `$share` group gets exactly one copy, round-robin over its members
    /// in publish-arrival order.
    fn route(&mut self, sim: &mut Sim, topic: &str, pub_qos: QoS, payload: Bytes, retain: bool) {
        // Offline queueing: a disconnected persistent session still
        // accumulates QoS 1/2 messages matching its plain filters; they sit
        // in the stash as in-flight deliveries and go out when the session
        // resumes. QoS 0 messages are not queued and `$share` filters get
        // live traffic only (both per spec), so only the stashed sessions
        // holding a plain filter are visited, in client-id order.
        if pub_qos != QoS::AtMostOnce && !self.stash_subscribed.is_empty() {
            let queued: Vec<(String, QoS)> = self
                .stash_subscribed
                .iter()
                .filter_map(|cid| {
                    self.stashed[cid]
                        .subscriptions
                        .iter()
                        .filter(|(f, _)| {
                            parse_share(f).is_none() && crate::topic::matches(f, topic)
                        })
                        .map(|(_, q)| *q)
                        .max()
                        .map(|sub_qos| (cid.clone(), pub_qos.min(sub_qos)))
                })
                .filter(|(_, qos)| *qos != QoS::AtMostOnce)
                .collect();
            for (cid, qos) in queued {
                let pid = self.next_pid();
                if let Some(snap) = self.stashed.get_mut(&cid) {
                    snap.outbound.push(OutboundSnapshot {
                        packet_id: pid,
                        topic: topic.to_string(),
                        payload: payload.clone(),
                        qos,
                        retain,
                        released: false,
                    });
                }
            }
        }
        let routes = self.resolved_routes(topic);
        obs::observe(self.obs.fanout, (routes.direct.len() + routes.shared.len()) as u64);
        for &(addr, sub_qos) in &routes.direct {
            let qos = pub_qos.min(sub_qos);
            self.deliver(sim, addr, topic, qos, &payload, retain);
        }
        for (group, members) in &routes.shared {
            if members.is_empty() {
                continue;
            }
            let idx = {
                let ctr = self.share_rr.entry(group.to_string()).or_insert(0);
                let i = (*ctr % members.len() as u64) as usize;
                *ctr += 1;
                i
            };
            let (addr, sub_qos) = members[idx];
            self.stats.shared_deliveries += 1;
            obs::inc(self.obs.shared_delivery);
            self.deliver(sim, addr, topic, pub_qos.min(sub_qos), &payload, retain);
        }
    }

    fn deliver(
        &mut self,
        sim: &mut Sim,
        to: Addr,
        topic: &str,
        qos: QoS,
        payload: &Bytes,
        retain: bool,
    ) {
        let packet_id = match qos {
            QoS::AtMostOnce => None,
            QoS::AtLeastOnce | QoS::ExactlyOnce => Some(self.next_pid()),
        };
        self.stats.publishes_out += 1;
        let publish = PublishRef { dup: false, qos, retain, topic, packet_id, payload };
        let packet = self.ep.send_with(sim, to, publish.encoded_len(), |b| publish.encode_into(b));
        if let Some(pid) = packet_id {
            // Track the in-flight delivery so a resumed session can be
            // caught up with a DUP retransmit.
            if let Some(s) = self.sessions.get_mut(&to) {
                s.outbound.insert(pid, InFlight { packet, released: false });
            }
        }
    }

    /// Catch a freshly resumed session up on its in-flight deliveries:
    /// unfinished publishes go out again with DUP set, half-released QoS 2
    /// pids re-send PUBREL. Pid order keeps the schedule deterministic.
    fn retransmit_session(&mut self, sim: &mut Sim, to: Addr) {
        let Some(s) = self.sessions.get(&to) else { return };
        let resend: Vec<(u16, InFlight)> =
            s.outbound.iter().map(|(pid, ob)| (pid, ob.clone())).collect();
        for (pid, ob) in resend {
            if ob.released {
                self.send_packet(sim, to, &Packet::PubRel { packet_id: pid });
            } else {
                self.stats.publishes_out += 1;
                self.ep.send_with(sim, to, ob.packet.len(), |b| ob.put_dup(b));
            }
        }
    }

    /// Publish broker statistics on retained `$SYS/broker/...` topics
    /// (the introspection surface EMQX exposes; `$`-topics are shielded
    /// from wildcard subscriptions per the MQTT spec, so only clients that
    /// subscribe explicitly see them). Refreshed on session/subscription
    /// changes and every [`SYS_EVERY_PUBLISHES`] application publishes.
    fn publish_sys(&mut self, sim: &mut Sim) {
        let entries = [
            ("$SYS/broker/clients/connected", self.sessions.len() as u64),
            ("$SYS/broker/messages/received", self.stats.publishes_in),
            ("$SYS/broker/messages/sent", self.stats.publishes_out),
            ("$SYS/broker/subscriptions/count", self.subs.len() as u64),
            ("$SYS/broker/retained/count", self.retained_count() as u64),
        ];
        for (topic, value) in entries {
            let payload = Bytes::from(value.to_string());
            // A refresh overwrites the value in place: `insert` would
            // allocate a key only to drop it again.
            let entry = (QoS::AtMostOnce, payload.clone());
            match self.retained.get_mut(topic) {
                Some(slot) => *slot = entry,
                None => {
                    self.retained.insert(Rc::from(topic), entry);
                }
            }
            self.route(sim, topic, QoS::AtMostOnce, payload, true);
        }
    }

    /// Arm the sweep timer if expiry is on and it isn't already pending.
    /// Called on connect (the broker has no `on_start`, so the first
    /// session brings the sweep up lazily).
    fn maybe_arm_sweep(&mut self, sim: &mut Sim) {
        let Some(timeout) = self.session_timeout else { return };
        if self.sweep_armed || self.sessions.is_empty() {
            return;
        }
        self.sweep_armed = true;
        sim.set_timer(self.addr, timeout, SESSION_SWEEP_TOKEN);
    }

    /// Probe every session that has been quiet past the timeout. A live
    /// client answers (transport ACK plus a PingResp, refreshing
    /// `last_seen`); a dead or partitioned one exhausts the transport's
    /// retries, and the resulting `PeerFailed` drops the session *and* the
    /// stale transport connection — that cleanup is what lets a client
    /// reconnect with a fresh sequence space after a partition heals.
    fn sweep_sessions(&mut self, sim: &mut Sim) {
        self.sweep_armed = false;
        let Some(timeout) = self.session_timeout else { return };
        let now = sim.now();
        let mut due: Vec<Addr> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.deadline(timeout) <= now)
            .map(|(a, _)| *a)
            .collect();
        due.sort_unstable();
        for addr in due {
            if let Some(s) = self.sessions.get_mut(&addr) {
                s.last_probe = Some(now);
            }
            self.stats.probes_sent += 1;
            self.send_packet(sim, addr, &Packet::PingReq);
        }
        // Re-arm for the earliest upcoming deadline (min over the hash map
        // is order-independent, so iteration order doesn't matter).
        if let Some(next) = self.sessions.values().map(|s| s.deadline(timeout)).min() {
            let delay = if next > now { next - now } else { timeout };
            self.sweep_armed = true;
            sim.set_timer(self.addr, delay, SESSION_SWEEP_TOKEN);
        }
    }

    /// End the live session at `addr`. A clean session is destroyed; a
    /// persistent one moves to the stash (subscriptions, dedup set and
    /// in-flight deliveries intact) until its client reconnects.
    fn drop_session(&mut self, sim: &mut Sim, addr: Addr, fire_will: bool) {
        let Some(session) = self.sessions.remove(&addr) else {
            return;
        };
        for (filter, _) in &session.filters {
            self.remove_sub(addr, filter);
        }
        if self.client_index.get(&session.client_id) == Some(&addr) {
            self.client_index.remove(&session.client_id);
        }
        if fire_will {
            if let Some((topic, payload)) = session.will.clone() {
                self.stats.wills_fired += 1;
                self.route(sim, &topic, QoS::AtMostOnce, payload, false);
            }
        }
        if !session.clean_session {
            self.stash(snapshot_of(&session));
        }
    }
}

impl Service for Broker {
    fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
        if !self.ep.on_datagram(sim, dg) {
            self.stats.malformed += 1;
            return;
        }
        self.pump(sim);
    }

    fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
        if token == SESSION_SWEEP_TOKEN {
            self.sweep_sessions(sim);
        } else {
            self.ep.on_timer(sim, token);
        }
        self.pump(sim);
    }
}

impl Broker {
    fn pump(&mut self, sim: &mut Sim) {
        while let Some(ev) = self.ep.poll() {
            match ev {
                TransportEvent::Delivered { peer, payload } => {
                    if let Some(s) = self.sessions.get_mut(&peer) {
                        s.last_seen = sim.now();
                        s.last_probe = None;
                    }
                    match Packet::decode_shared(&payload) {
                        Ok(pkt) => self.handle_packet(sim, peer, pkt),
                        Err(_) => self.stats.malformed += 1,
                    }
                }
                TransportEvent::PeerFailed { peer } => {
                    // Ungraceful death: fire the last-will (paper §6 lists
                    // device faults as a fidelity dimension; this is how an
                    // app observes a mock dying).
                    if self.sessions.get(&peer).is_some_and(|s| s.last_probe.is_some()) {
                        self.stats.sessions_expired += 1;
                    }
                    self.drop_session(sim, peer, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientEvent, MqttConn};
    use digibox_net::{NodeSpec, SimConfig, Topology};

    /// A service wrapping MqttConn that records every event and every
    /// datagram it receives.
    struct TestClient {
        conn: MqttConn,
        events: Vec<ClientEvent>,
        datagrams: Vec<Bytes>,
    }

    impl TestClient {
        fn new(local: Addr, broker: Addr, id: &str) -> ServiceHandle<TestClient> {
            Rc::new(RefCell::new(TestClient {
                conn: MqttConn::new(local, broker, id),
                events: Vec::new(),
                datagrams: Vec::new(),
            }))
        }
        fn drain(&mut self) {
            while let Some(ev) = self.conn.poll() {
                self.events.push(ev);
            }
        }
        fn messages(&self) -> Vec<(String, Vec<u8>)> {
            self.events
                .iter()
                .filter_map(|e| match e {
                    ClientEvent::Message { topic, payload, .. } => {
                        Some((topic.clone(), payload.to_vec()))
                    }
                    _ => None,
                })
                .collect()
        }
    }

    impl Service for TestClient {
        fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
            self.datagrams.push(dg.payload.clone());
            self.conn.on_datagram(sim, dg);
            self.drain();
        }
        fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
            self.conn.on_timer(sim, token);
            self.drain();
        }
    }

    /// A broker behind a recorder of every datagram it receives.
    struct BrokerTap {
        broker: ServiceHandle<Broker>,
        datagrams: Vec<Bytes>,
    }

    impl Service for BrokerTap {
        fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
            self.datagrams.push(dg.payload.clone());
            self.broker.borrow_mut().on_datagram(sim, dg);
        }
        fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
            self.broker.borrow_mut().on_timer(sim, token);
        }
    }

    /// The PUBLISH packets with DUP set among transport `datagrams`, in
    /// send order. Each is a DATA frame (kind 0x01, incarnation, sequence
    /// number) whose packet follows the 17-byte header; link jitter can
    /// reorder arrivals, so they are sorted by sequence number.
    fn dup_publishes(datagrams: &[Bytes]) -> Vec<Bytes> {
        let mut frames: Vec<(u64, Bytes)> = datagrams
            .iter()
            .filter(|d| d.len() > 17 && d[0] == 0x01 && d[17] >> 4 == 3 && d[17] & 0b1000 != 0)
            .map(|d| (u64::from_be_bytes(d[9..17].try_into().unwrap()), d.slice(17..)))
            .collect();
        frames.sort_by_key(|f| f.0);
        frames.into_iter().map(|f| f.1).collect()
    }

    /// `Packet::Publish { dup: true, .. }` on "w/t" with the pid as its
    /// payload, encoded.
    fn dup_encoding(pid: u16, qos: QoS) -> Bytes {
        Packet::Publish {
            dup: true,
            qos,
            retain: false,
            topic: "w/t".into(),
            packet_id: Some(pid),
            payload: Bytes::from(pid.to_string()),
        }
        .encode()
    }

    struct Rig {
        sim: Sim,
        broker: ServiceHandle<Broker>,
        broker_addr: Addr,
        next_port: u16,
    }

    impl Rig {
        fn new() -> Rig {
            let mut topo = Topology::new();
            let n = topo.add_node(NodeSpec::laptop());
            let mut sim = Sim::new(topo, SimConfig::default());
            let broker_addr = Addr::new(n, 1883);
            let broker = Broker::new(broker_addr);
            sim.bind(broker_addr, broker.clone());
            Rig { sim, broker, broker_addr, next_port: 10_000 }
        }

        fn client(&mut self, id: &str) -> (ServiceHandle<TestClient>, Addr) {
            let node = self.broker_addr.node;
            let addr = Addr::new(node, self.next_port);
            self.next_port += 1;
            let c = TestClient::new(addr, self.broker_addr, id);
            self.sim.bind(addr, c.clone());
            c.borrow_mut().conn.connect(&mut self.sim, None);
            self.sim.run_to_completion();
            assert!(c.borrow().conn.is_connected(), "client {id} failed to connect");
            (c, addr)
        }
    }

    #[test]
    fn connect_and_connack() {
        let mut rig = Rig::new();
        let (c, _) = rig.client("c1");
        assert!(matches!(c.borrow().events[0], ClientEvent::Connected { .. }));
        assert_eq!(rig.broker.borrow().session_count(), 1);
        assert_eq!(rig.broker.borrow().stats().connects, 1);
    }

    #[test]
    fn publish_routes_to_subscribers() {
        let mut rig = Rig::new();
        let (sub1, _) = rig.client("sub1");
        let (sub2, _) = rig.client("sub2");
        let (publisher, _) = rig.client("pub");
        sub1.borrow_mut().conn.subscribe(&mut rig.sim, &[("digibox/mock/+/status", QoS::AtMostOnce)]);
        sub2.borrow_mut().conn.subscribe(&mut rig.sim, &[("digibox/#", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(
            &mut rig.sim,
            "digibox/mock/O1/status",
            &b"{\"triggered\":true}"[..],
            QoS::AtMostOnce,
            false,
        );
        rig.sim.run_to_completion();
        assert_eq!(sub1.borrow().messages().len(), 1);
        assert_eq!(sub2.borrow().messages().len(), 1);
        assert_eq!(sub1.borrow().messages()[0].0, "digibox/mock/O1/status");
    }

    #[test]
    fn qos1_publish_gets_puback() {
        let mut rig = Rig::new();
        let (c, _) = rig.client("c");
        let pid = c.borrow_mut().conn.publish(&mut rig.sim, "a/b", &b"x"[..], QoS::AtLeastOnce, false);
        rig.sim.run_to_completion();
        let c = c.borrow();
        assert_eq!(c.conn.unacked_publishes(), 0);
        assert!(c.events.iter().any(|e| *e == ClientEvent::PubAck { packet_id: pid.unwrap() }));
    }

    #[test]
    fn qos1_subscriber_receives_and_acks() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, _) = rig.client("pub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("t", QoS::AtLeastOnce)]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "t", &b"m"[..], QoS::AtLeastOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(sub.borrow().messages(), vec![("t".to_string(), b"m".to_vec())]);
    }

    #[test]
    fn retained_message_served_on_subscribe() {
        let mut rig = Rig::new();
        let (publisher, _) = rig.client("pub");
        publisher.borrow_mut().conn.publish(&mut rig.sim, "status/L1", &b"on"[..], QoS::AtMostOnce, true);
        rig.sim.run_to_completion();
        assert_eq!(rig.broker.borrow().retained_count(), 1);
        // late subscriber still sees it
        let (sub, _) = rig.client("sub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("status/+", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        let msgs = sub.borrow().messages();
        assert_eq!(msgs, vec![("status/L1".to_string(), b"on".to_vec())]);
        assert!(sub
            .borrow()
            .events
            .iter()
            .any(|e| matches!(e, ClientEvent::Message { retain: true, .. })));
    }

    #[test]
    fn retained_replay_is_once_per_topic_in_topic_order() {
        let mut rig = Rig::new();
        let (publisher, _) = rig.client("pub");
        for topic in ["b/x", "a/c/d", "ab", "a/b", "a"] {
            let mut p = publisher.borrow_mut();
            p.conn.publish(&mut rig.sim, topic, &b"r"[..], QoS::AtMostOnce, true);
        }
        rig.sim.run_to_completion();
        let (sub, _) = rig.client("sub");
        // "a/#" also matches its parent "a"; "a/b" matches twice.
        let filters = [("a/#", QoS::AtMostOnce), ("+/x", QoS::AtMostOnce), ("a/b", QoS::AtMostOnce)];
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &filters);
        rig.sim.run_to_completion();
        let topics: Vec<String> = sub.borrow().messages().into_iter().map(|(t, _)| t).collect();
        assert_eq!(topics, ["a", "a/b", "a/c/d", "b/x"]);
        assert_eq!(rig.broker.borrow().stats().retained_served, 4);
    }

    #[test]
    fn empty_retained_payload_clears() {
        let mut rig = Rig::new();
        let (p, _) = rig.client("p");
        p.borrow_mut().conn.publish(&mut rig.sim, "s", &b"v"[..], QoS::AtMostOnce, true);
        rig.sim.run_to_completion();
        assert_eq!(rig.broker.borrow().retained_count(), 1);
        p.borrow_mut().conn.publish(&mut rig.sim, "s", Bytes::new(), QoS::AtMostOnce, true);
        rig.sim.run_to_completion();
        assert_eq!(rig.broker.borrow().retained_count(), 0);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, _) = rig.client("pub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("t", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        sub.borrow_mut().conn.unsubscribe(&mut rig.sim, &["t"]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "t", &b"m"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert!(sub.borrow().messages().is_empty());
    }

    #[test]
    fn overlapping_filters_deliver_once() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, _) = rig.client("pub");
        sub.borrow_mut()
            .conn
            .subscribe(&mut rig.sim, &[("a/#", QoS::AtMostOnce), ("a/+", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "a/b", &b"m"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(sub.borrow().messages().len(), 1, "no duplicate deliveries");
    }

    #[test]
    fn invalid_filter_gets_failure_code_and_no_delivery() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, _) = rig.client("pub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("bad/#/filter", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "bad/x/filter", &b"m"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert!(sub.borrow().messages().is_empty());
    }

    #[test]
    fn graceful_disconnect_discards_will() {
        let mut rig = Rig::new();
        let (watcher, _) = rig.client("watcher");
        watcher.borrow_mut().conn.subscribe(&mut rig.sim, &[("lwt/#", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        // client with a will, disconnecting cleanly
        let node = rig.broker_addr.node;
        let addr = Addr::new(node, 20_000);
        let c = TestClient::new(addr, rig.broker_addr, "mortal");
        rig.sim.bind(addr, c.clone());
        c.borrow_mut()
            .conn
            .connect(&mut rig.sim, Some(("lwt/mortal".into(), Bytes::from_static(b"gone"))));
        rig.sim.run_to_completion();
        c.borrow_mut().conn.disconnect(&mut rig.sim);
        rig.sim.run_to_completion();
        assert!(watcher.borrow().messages().is_empty());
        assert_eq!(rig.broker.borrow().session_count(), 1, "mortal's session dropped");
    }

    #[test]
    fn publisher_also_subscribed_receives_own_message() {
        let mut rig = Rig::new();
        let (c, _) = rig.client("c");
        c.borrow_mut().conn.subscribe(&mut rig.sim, &[("loop", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        c.borrow_mut().conn.publish(&mut rig.sim, "loop", &b"echo"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(c.borrow().messages().len(), 1);
    }

    #[test]
    fn sys_topics_published_and_shielded_from_wildcards() {
        let mut rig = Rig::new();
        let (wildcard, _) = rig.client("wildcard");
        wildcard.borrow_mut().conn.subscribe(&mut rig.sim, &[("#", QoS::AtMostOnce)]);
        let (sys_watcher, _) = rig.client("sys");
        sys_watcher
            .borrow_mut()
            .conn
            .subscribe(&mut rig.sim, &[("$SYS/broker/clients/connected", QoS::AtMostOnce)]);
        // a new connection refreshes $SYS
        let (_extra, _) = rig.client("extra");
        rig.sim.run_to_completion();
        let sys_msgs = sys_watcher.borrow().messages();
        assert!(!sys_msgs.is_empty(), "explicit $SYS subscriber sees stats");
        let connected: u64 =
            String::from_utf8(sys_msgs.last().unwrap().1.clone()).unwrap().parse().unwrap();
        assert_eq!(connected, 3);
        // the root wildcard must NOT receive $SYS traffic (spec §4.7.2)
        assert!(
            wildcard.borrow().messages().iter().all(|(t, _)| !t.starts_with("$SYS")),
            "wildcard subscriber leaked $SYS messages"
        );
    }

    #[test]
    fn sys_retained_served_to_late_subscriber() {
        let mut rig = Rig::new();
        let (_first, _) = rig.client("first"); // triggers a $SYS refresh
        let (late, _) = rig.client("late");
        late.borrow_mut()
            .conn
            .subscribe(&mut rig.sim, &[("$SYS/broker/retained/count", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        assert!(!late.borrow().messages().is_empty(), "retained $SYS stat served");
    }

    #[test]
    fn stats_track_traffic() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, _) = rig.client("pub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("t/#", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        for i in 0..10 {
            publisher.borrow_mut().conn.publish(
                &mut rig.sim,
                &format!("t/{i}"),
                &b"m"[..],
                QoS::AtMostOnce,
                false,
            );
        }
        rig.sim.run_to_completion();
        let b = rig.broker.borrow();
        assert_eq!(b.stats().publishes_in, 10);
        assert_eq!(b.stats().publishes_out, 10);
        assert_eq!(b.stats().subscribes, 1);
    }

    #[test]
    fn route_cache_hits_on_repeated_topic() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, _) = rig.client("pub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("hot/+", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        for _ in 0..20 {
            publisher.borrow_mut().conn.publish(&mut rig.sim, "hot/topic", &b"m"[..], QoS::AtMostOnce, false);
        }
        rig.sim.run_to_completion();
        assert_eq!(sub.borrow().messages().len(), 20);
        let b = rig.broker.borrow();
        assert!(
            b.stats().route_cache_hits >= 19,
            "repeated publishes must hit the cache (hits={})",
            b.stats().route_cache_hits
        );
    }

    #[test]
    fn route_cache_invalidated_by_unsubscribe_and_session_end() {
        let mut rig = Rig::new();
        let (sub1, _) = rig.client("sub1");
        let (sub2, _) = rig.client("sub2");
        let (publisher, _) = rig.client("pub");
        sub1.borrow_mut().conn.subscribe(&mut rig.sim, &[("t/x", QoS::AtMostOnce)]);
        sub2.borrow_mut().conn.subscribe(&mut rig.sim, &[("t/#", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "t/x", &b"1"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(sub1.borrow().messages().len(), 1);
        assert_eq!(sub2.borrow().messages().len(), 1);
        // unsubscribe must invalidate the cached route for "t/x"
        sub1.borrow_mut().conn.unsubscribe(&mut rig.sim, &["t/x"]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "t/x", &b"2"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(sub1.borrow().messages().len(), 1, "stale cached route after unsubscribe");
        assert_eq!(sub2.borrow().messages().len(), 2);
        // session end (graceful disconnect) must invalidate too
        sub2.borrow_mut().conn.disconnect(&mut rig.sim);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "t/x", &b"3"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(sub2.borrow().messages().len(), 2, "stale cached route after session end");
    }

    /// Like `Rig::client` but driven by `run_for`: once a session timeout
    /// is set the sweep timer perpetually re-arms, so `run_to_completion`
    /// would never return.
    fn client_run_for(rig: &mut Rig, port: u16, id: &str, will: Option<(String, Bytes)>) -> ServiceHandle<TestClient> {
        let addr = Addr::new(rig.broker_addr.node, port);
        let c = TestClient::new(addr, rig.broker_addr, id);
        rig.sim.bind(addr, c.clone());
        c.borrow_mut().conn.connect(&mut rig.sim, will);
        rig.sim.run_for(SimDuration::from_millis(100));
        assert!(c.borrow().conn.is_connected(), "client {id} failed to connect");
        c
    }

    #[test]
    fn idle_dead_session_expires_via_probe_and_fires_will() {
        let mut rig = Rig::new();
        rig.broker.borrow_mut().set_session_timeout(Some(SimDuration::from_secs(2)));
        let watcher = client_run_for(&mut rig, 20_000, "watcher", None);
        watcher.borrow_mut().conn.subscribe(&mut rig.sim, &[("lwt/#", QoS::AtMostOnce)]);
        let mortal = client_run_for(
            &mut rig,
            20_001,
            "mortal",
            Some(("lwt/mortal".into(), Bytes::from_static(b"gone"))),
        );
        let _ = mortal;
        assert_eq!(rig.broker.borrow().session_count(), 2);
        // Silent death: the client vanishes without a Disconnect. The
        // sweep probes it after ~2s idle; retry exhaustion takes another
        // ~55×RTO, after which the will fires and the session is reaped.
        rig.sim.unbind(Addr::new(rig.broker_addr.node, 20_001));
        rig.sim.run_for(SimDuration::from_secs(8));
        let b = rig.broker.borrow();
        assert_eq!(b.session_count(), 1, "dead session reaped");
        assert_eq!(b.stats().wills_fired, 1);
        assert!(b.stats().probes_sent >= 1);
        assert_eq!(b.stats().sessions_expired, 1);
        drop(b);
        assert_eq!(
            watcher.borrow().messages(),
            vec![("lwt/mortal".to_string(), b"gone".to_vec())]
        );
    }

    #[test]
    fn idle_live_session_survives_probes() {
        let mut rig = Rig::new();
        rig.broker.borrow_mut().set_session_timeout(Some(SimDuration::from_millis(500)));
        let c = client_run_for(
            &mut rig,
            20_100,
            "quiet",
            Some(("lwt/quiet".into(), Bytes::from_static(b"gone"))),
        );
        // Five seconds of silence: the broker probes roughly once per
        // timeout period, the client answers each time, nothing expires.
        rig.sim.run_for(SimDuration::from_secs(5));
        let b = rig.broker.borrow();
        assert_eq!(b.session_count(), 1, "live client kept alive by probes");
        assert_eq!(b.stats().wills_fired, 0);
        assert_eq!(b.stats().sessions_expired, 0);
        assert!(b.stats().probes_sent >= 5, "probes={}", b.stats().probes_sent);
        assert_eq!(b.transport_retransmits(), 0);
        drop(b);
        assert!(c.borrow().conn.is_connected());
    }

    #[test]
    fn resubscribe_replaces_instead_of_duplicating() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, _) = rig.client("pub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("dup/t", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        // Same filter again at a different QoS: spec §3.8.4 says the new
        // grant *replaces* the old one — it must not add a second trie
        // entry that double-delivers.
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("dup/t", QoS::AtLeastOnce)]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "dup/t", &b"m"[..], QoS::AtLeastOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(sub.borrow().messages().len(), 1, "re-subscribe must not double-deliver");
        // And the replacement upgraded the granted QoS in place.
        let b = rig.broker.borrow();
        let entries: Vec<_> = b.subs.lookup("dup/t");
        assert_eq!(entries.len(), 1, "one trie entry after re-subscribe");
        assert_eq!(entries[0].qos, QoS::AtLeastOnce);
    }

    #[test]
    fn qos2_publish_exactly_once_end_to_end() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, _) = rig.client("pub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("q2/t", QoS::ExactlyOnce)]);
        rig.sim.run_to_completion();
        let pid = publisher
            .borrow_mut()
            .conn
            .publish(&mut rig.sim, "q2/t", &b"m"[..], QoS::ExactlyOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(sub.borrow().messages(), vec![("q2/t".to_string(), b"m".to_vec())]);
        let p = publisher.borrow();
        assert_eq!(p.conn.unacked_publishes(), 0, "four-way handshake completed");
        assert!(p.events.iter().any(|e| *e == ClientEvent::PubComp { packet_id: pid.unwrap() }));
        drop(p);
        let b = rig.broker.borrow();
        assert_eq!(b.stats().qos2_publishes_in, 1);
        assert_eq!(b.stats().qos2_completed, 1, "broker→subscriber leg completed");
        assert_eq!(b.stats().qos2_dup_dropped, 0);
    }

    #[test]
    fn qos2_duplicate_publish_suppressed_by_pid_dedup() {
        let mut rig = Rig::new();
        let (sub, _) = rig.client("sub");
        let (publisher, pub_addr) = rig.client("pub");
        let _ = publisher;
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("q2/t", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        // Hand the broker the same QoS 2 publish twice (as a retransmit
        // with DUP would, before any PUBREL releases the pid): it must
        // PUBREC both but route only the first.
        for dup in [false, true] {
            let pkt = Packet::Publish {
                dup,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: "q2/t".into(),
                packet_id: Some(42),
                payload: Bytes::from_static(b"m"),
            };
            rig.broker.borrow_mut().handle_packet(&mut rig.sim, pub_addr, pkt);
        }
        rig.sim.run_to_completion();
        assert_eq!(sub.borrow().messages().len(), 1, "duplicate QoS 2 publish leaked");
        let b = rig.broker.borrow();
        assert_eq!(b.stats().qos2_publishes_in, 2);
        assert_eq!(b.stats().qos2_dup_dropped, 1);
    }

    #[test]
    fn persistent_session_resumes_with_session_present() {
        let mut rig = Rig::new();
        let node = rig.broker_addr.node;
        let addr = Addr::new(node, 21_000);
        let c = TestClient::new(addr, rig.broker_addr, "keeper");
        rig.sim.bind(addr, c.clone());
        c.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();
        assert!(c.borrow().events.contains(&ClientEvent::Connected { session_present: false }));
        c.borrow_mut().conn.subscribe(&mut rig.sim, &[("keep/t", QoS::AtLeastOnce)]);
        rig.sim.run_to_completion();
        c.borrow_mut().conn.disconnect(&mut rig.sim);
        rig.sim.run_to_completion();
        assert_eq!(rig.broker.borrow().session_count(), 0);
        assert_eq!(rig.broker.borrow().stashed_count(), 1, "persistent session stashed");
        // While disconnected, a matching QoS 1 publish is queued.
        let (publisher, _) = rig.client("pub");
        publisher.borrow_mut().conn.publish(&mut rig.sim, "keep/t", &b"wb"[..], QoS::AtLeastOnce, false);
        rig.sim.run_to_completion();
        // Reconnect (the conn stays persistent): session_present comes back
        // true, the subscription still routes, and the queued message lands.
        c.borrow_mut().conn.connect(&mut rig.sim, None);
        rig.sim.run_to_completion();
        assert!(c.borrow().events.contains(&ClientEvent::Connected { session_present: true }));
        assert_eq!(c.borrow().messages(), vec![("keep/t".to_string(), b"wb".to_vec())]);
        assert_eq!(rig.broker.borrow().stats().session_resumes, 1);
        // Live again: a fresh publish arrives exactly once.
        publisher.borrow_mut().conn.publish(&mut rig.sim, "keep/t", &b"live"[..], QoS::AtLeastOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(c.borrow().messages().len(), 2);
    }

    #[test]
    fn offline_queueing_reaches_only_stashed_sessions_with_plain_filters() {
        let mut rig = Rig::new();
        let node = rig.broker_addr.node;
        // Connected out of client-id order; "a-bare" holds no filter and
        // "c-shared" only a `$share` one, so neither is queued for.
        let specs: [(&str, &[(&str, QoS)]); 4] = [
            ("d-wild", &[("q/#", QoS::AtLeastOnce)]),
            ("a-bare", &[]),
            ("c-shared", &[("$share/g/q/t", QoS::AtLeastOnce)]),
            ("b-exact", &[("q/t", QoS::ExactlyOnce), ("$share/g/q/t", QoS::AtLeastOnce)]),
        ];
        let mut clients = Vec::new();
        for (i, (id, filters)) in specs.iter().enumerate() {
            let addr = Addr::new(node, 21_200 + i as u16);
            let c = TestClient::new(addr, rig.broker_addr, id);
            rig.sim.bind(addr, c.clone());
            c.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
            rig.sim.run_to_completion();
            if !filters.is_empty() {
                c.borrow_mut().conn.subscribe(&mut rig.sim, filters);
                rig.sim.run_to_completion();
            }
            c.borrow_mut().conn.disconnect(&mut rig.sim);
            rig.sim.run_to_completion();
            clients.push((*id, c));
        }
        assert_eq!(rig.broker.borrow().stashed_count(), 4);
        let (publisher, _) = rig.client("pub");
        for (topic, body) in [("q/t", &b"m1"[..]), ("q/t", &b"m2"[..]), ("q/other", &b"m3"[..])] {
            publisher.borrow_mut().conn.publish(&mut rig.sim, topic, body, QoS::AtLeastOnce, false);
            rig.sim.run_to_completion();
        }
        // Each publish numbers its queued copies in client-id order.
        let queued: Vec<(String, Vec<u16>)> = rig
            .broker
            .borrow()
            .export_sessions()
            .into_iter()
            .map(|s| (s.client_id, s.outbound.iter().map(|o| o.packet_id).collect()))
            .collect();
        let p = queued[1].1[0];
        let want = [
            ("a-bare", vec![]),
            ("b-exact", vec![p, p + 2]),
            ("c-shared", vec![]),
            ("d-wild", vec![p + 1, p + 3, p + 4]),
        ];
        let want: Vec<(String, Vec<u16>)> = want.into_iter().map(|(c, v)| (c.to_string(), v)).collect();
        assert_eq!(queued, want);
        for (_, c) in &clients {
            c.borrow_mut().conn.connect(&mut rig.sim, None);
            rig.sim.run_to_completion();
        }
        let got = |id: &str| clients.iter().find(|(c, _)| *c == id).unwrap().1.borrow().messages();
        let msg = |t: &str, b: &[u8]| (t.to_string(), b.to_vec());
        assert!(got("a-bare").is_empty());
        assert!(got("c-shared").is_empty());
        assert_eq!(got("b-exact"), vec![msg("q/t", b"m1"), msg("q/t", b"m2")]);
        assert_eq!(got("d-wild"), vec![msg("q/t", b"m1"), msg("q/t", b"m2"), msg("q/other", b"m3")]);
        assert_eq!(rig.broker.borrow().stashed_count(), 0);
        // Resumed sessions take live traffic again, nothing more queued.
        publisher.borrow_mut().conn.publish(&mut rig.sim, "q/t", &b"m4"[..], QoS::AtLeastOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(got("b-exact").len(), 3);
        assert_eq!(got("d-wild").len(), 4);
        assert!(rig.broker.borrow().export_sessions().iter().all(|s| s.outbound.is_empty()));
    }

    #[test]
    fn clean_connect_destroys_stashed_session() {
        let mut rig = Rig::new();
        let node = rig.broker_addr.node;
        let addr = Addr::new(node, 21_100);
        let c = TestClient::new(addr, rig.broker_addr, "wiper");
        rig.sim.bind(addr, c.clone());
        c.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();
        c.borrow_mut().conn.subscribe(&mut rig.sim, &[("w/t", QoS::AtLeastOnce)]);
        rig.sim.run_to_completion();
        c.borrow_mut().conn.disconnect(&mut rig.sim);
        rig.sim.run_to_completion();
        assert_eq!(rig.broker.borrow().stashed_count(), 1);
        // A clean-session CONNECT under the same id wipes the stash entry.
        let c2 = TestClient::new(Addr::new(node, 21_101), rig.broker_addr, "wiper");
        rig.sim.bind(Addr::new(node, 21_101), c2.clone());
        c2.borrow_mut().conn.connect(&mut rig.sim, None);
        rig.sim.run_to_completion();
        assert!(c2.borrow().events.contains(&ClientEvent::Connected { session_present: false }));
        assert_eq!(rig.broker.borrow().stashed_count(), 0, "clean CONNECT destroys the stash");
        // The old subscription is gone with it.
        let (publisher, _) = rig.client("pub");
        publisher.borrow_mut().conn.publish(&mut rig.sim, "w/t", &b"m"[..], QoS::AtLeastOnce, false);
        rig.sim.run_to_completion();
        assert!(c2.borrow().messages().is_empty());
    }

    #[test]
    fn session_takeover_moves_state_to_new_connection() {
        let mut rig = Rig::new();
        let node = rig.broker_addr.node;
        let a1 = Addr::new(node, 22_000);
        let c1 = TestClient::new(a1, rig.broker_addr, "roamer");
        rig.sim.bind(a1, c1.clone());
        c1.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();
        c1.borrow_mut().conn.subscribe(&mut rig.sim, &[("roam/t", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        // The same client id connects from a different address: the old
        // connection is displaced and its state follows the client.
        let a2 = Addr::new(node, 22_001);
        let c2 = TestClient::new(a2, rig.broker_addr, "roamer");
        rig.sim.bind(a2, c2.clone());
        c2.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();
        assert!(c2.borrow().events.contains(&ClientEvent::Connected { session_present: true }));
        assert_eq!(rig.broker.borrow().session_count(), 1, "old connection displaced");
        assert_eq!(rig.broker.borrow().stats().session_takeovers, 1);
        let (publisher, _) = rig.client("pub");
        publisher.borrow_mut().conn.publish(&mut rig.sim, "roam/t", &b"m"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(c2.borrow().messages().len(), 1, "subscription follows the takeover");
        assert!(c1.borrow().messages().is_empty());
    }

    #[test]
    fn broker_restart_preserves_sessions_and_inflight_qos2() {
        let mut rig = Rig::new();
        let node = rig.broker_addr.node;
        let sub_addr = Addr::new(node, 23_000);
        let sub = TestClient::new(sub_addr, rig.broker_addr, "sub-durable");
        rig.sim.bind(sub_addr, sub.clone());
        sub.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("d/t", QoS::ExactlyOnce)]);
        rig.sim.run_to_completion();
        let pub_addr = Addr::new(node, 23_001);
        let publisher = TestClient::new(pub_addr, rig.broker_addr, "pub-durable");
        rig.sim.bind(pub_addr, publisher.clone());
        publisher.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();

        // Crash the broker, then publish into the outage: the QoS 2
        // publish sits in the publisher's in-flight set while its
        // transport retries against the dead endpoint.
        let snaps = rig.broker.borrow().export_sessions();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].client_id, "pub-durable");
        assert_eq!(snaps[1].subscriptions, vec![("d/t".to_string(), QoS::ExactlyOnce)]);
        rig.sim.unbind(rig.broker_addr);
        publisher
            .borrow_mut()
            .conn
            .publish(&mut rig.sim, "d/t", &b"survivor"[..], QoS::ExactlyOnce, false);
        rig.sim.run_for(SimDuration::from_millis(200));

        // Restart: a fresh broker instance at the same address, seeded
        // with the exported sessions.
        let broker2 = Broker::new(rig.broker_addr);
        broker2.borrow_mut().import_sessions(snaps);
        rig.sim.bind(rig.broker_addr, broker2.clone());
        rig.broker = broker2;
        assert_eq!(rig.broker.borrow().stashed_count(), 2);

        // The publisher's retries exhaust (~55×RTO), it sees BrokerLost,
        // and redials; the resumed session retransmits the publish (DUP).
        rig.sim.run_for(SimDuration::from_secs(4));
        assert!(publisher.borrow().events.contains(&ClientEvent::BrokerLost));
        publisher.borrow_mut().conn.connect(&mut rig.sim, None);
        rig.sim.run_for(SimDuration::from_secs(2));
        assert!(publisher.borrow().conn.is_connected());

        // The subscriber was idle through the crash, so its first redial
        // still rides the stale transport stream — the restarted broker
        // ignores it until those retries exhaust too, then the second
        // redial lands and the queued message is delivered.
        sub.borrow_mut().conn.connect(&mut rig.sim, None);
        rig.sim.run_for(SimDuration::from_secs(4));
        if !sub.borrow().conn.is_connected() {
            sub.borrow_mut().conn.connect(&mut rig.sim, None);
            rig.sim.run_for(SimDuration::from_secs(2));
        }
        assert!(sub.borrow().conn.is_connected());
        assert!(sub.borrow().events.contains(&ClientEvent::Connected { session_present: true }));

        rig.sim.run_for(SimDuration::from_secs(2));
        assert_eq!(
            sub.borrow().messages(),
            vec![("d/t".to_string(), b"survivor".to_vec())],
            "exactly one delivery across the restart"
        );
        assert_eq!(publisher.borrow().conn.unacked_publishes(), 0, "handshake completed");
        let b = rig.broker.borrow();
        assert_eq!(b.stats().session_resumes, 2);
        assert_eq!(b.stashed_count(), 0);
    }

    #[test]
    fn shared_subscription_round_robins_across_group() {
        let mut rig = Rig::new();
        let (m1, _) = rig.client("m1");
        let (m2, _) = rig.client("m2");
        let (m3, _) = rig.client("m3");
        let (direct, _) = rig.client("direct");
        let (publisher, _) = rig.client("pub");
        for m in [&m1, &m2, &m3] {
            m.borrow_mut().conn.subscribe(&mut rig.sim, &[("$share/g/work/t", QoS::AtMostOnce)]);
        }
        direct.borrow_mut().conn.subscribe(&mut rig.sim, &[("work/t", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        for i in 0..6 {
            let payload = Bytes::from(format!("m{i}"));
            publisher
                .borrow_mut()
                .conn
                .publish(&mut rig.sim, "work/t", payload, QoS::AtMostOnce, false);
            rig.sim.run_to_completion();
        }
        // Each group member gets exactly 2 of the 6 (round-robin in
        // member-address order); the direct subscriber gets all 6.
        assert_eq!(m1.borrow().messages().len(), 2);
        assert_eq!(m2.borrow().messages().len(), 2);
        assert_eq!(m3.borrow().messages().len(), 2);
        assert_eq!(direct.borrow().messages().len(), 6);
        let b = rig.broker.borrow();
        assert_eq!(b.stats().shared_deliveries, 6);
        // Round-robin in address order: member 1 saw publishes 0 and 3.
        assert_eq!(
            m1.borrow().messages(),
            vec![("work/t".to_string(), b"m0".to_vec()), ("work/t".to_string(), b"m3".to_vec())]
        );
    }

    #[test]
    fn shared_and_plain_subscription_same_session_coexist() {
        let mut rig = Rig::new();
        let (c, _) = rig.client("both");
        let (publisher, _) = rig.client("pub");
        c.borrow_mut().conn.subscribe(
            &mut rig.sim,
            &[("$share/g/x/t", QoS::AtMostOnce), ("x/t", QoS::AtMostOnce)],
        );
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "x/t", &b"m"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        // One copy as the sole group member, one as a direct subscriber.
        assert_eq!(c.borrow().messages().len(), 2);
        // Unsubscribing the shared filter leaves the plain one intact.
        c.borrow_mut().conn.unsubscribe(&mut rig.sim, &["$share/g/x/t"]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.publish(&mut rig.sim, "x/t", &b"m2"[..], QoS::AtMostOnce, false);
        rig.sim.run_to_completion();
        assert_eq!(c.borrow().messages().len(), 3);
    }

    #[test]
    fn busy_session_is_never_probed() {
        let mut rig = Rig::new();
        rig.broker.borrow_mut().set_session_timeout(Some(SimDuration::from_millis(500)));
        let c = client_run_for(&mut rig, 20_200, "chatty", None);
        // Publish every 200ms — always inside the idle window.
        for _ in 0..20 {
            c.borrow_mut().conn.publish(&mut rig.sim, "t", &b"x"[..], QoS::AtMostOnce, false);
            rig.sim.run_for(SimDuration::from_millis(200));
        }
        let b = rig.broker.borrow();
        assert_eq!(b.stats().probes_sent, 0, "traffic resets the idle clock");
        assert_eq!(b.session_count(), 1);
    }

    #[test]
    fn export_lists_wrapped_inflight_pids_in_pid_order() {
        let mut rig = Rig::new();
        let sub_addr = Addr::new(rig.broker_addr.node, 24_000);
        let sub = TestClient::new(sub_addr, rig.broker_addr, "wrap-sub");
        rig.sim.bind(sub_addr, sub.clone());
        sub.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("w/t", QoS::AtLeastOnce)]);
        rig.sim.run_to_completion();
        let (publisher, _) = rig.client("wrap-pub");
        // The subscriber goes dark, so its four QoS 1 deliveries stay in
        // flight under pids 65534, 65535, 1, 2.
        rig.sim.unbind(sub_addr);
        rig.broker.borrow_mut().next_pid = 65_534;
        for pid in ["65534", "65535", "1", "2"] {
            let mut p = publisher.borrow_mut();
            p.conn.publish(&mut rig.sim, "w/t", pid.as_bytes(), QoS::AtLeastOnce, false);
        }
        rig.sim.run_for(SimDuration::from_millis(100));
        let snaps = rig.broker.borrow().export_sessions();
        let snap = snaps.iter().find(|s| s.client_id == "wrap-sub").expect("persistent session");
        let pids: Vec<u16> = snap.outbound.iter().map(|o| o.packet_id).collect();
        assert_eq!(pids, [1, 2, 65534, 65535]);
        for o in &snap.outbound {
            assert_eq!(o.payload, o.packet_id.to_string().as_bytes());
            assert_eq!((o.topic.as_str(), o.qos, o.retain), ("w/t", QoS::AtLeastOnce, false));
            assert!(!o.released);
        }
    }

    #[test]
    fn broker_dup_resends_are_the_dup_encoding_in_pid_order() {
        let mut rig = Rig::new();
        let sub_addr = Addr::new(rig.broker_addr.node, 24_200);
        let sub = TestClient::new(sub_addr, rig.broker_addr, "dup-sub");
        rig.sim.bind(sub_addr, sub.clone());
        sub.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("w/t", QoS::ExactlyOnce)]);
        rig.sim.run_to_completion();
        let (publisher, _) = rig.client("dup-pub");
        // The subscriber goes dark with four QoS 2 deliveries in flight
        // under pids 65534, 65535, 1, 2.
        rig.sim.unbind(sub_addr);
        rig.broker.borrow_mut().next_pid = 65_534;
        for pid in ["65534", "65535", "1", "2"] {
            let mut p = publisher.borrow_mut();
            p.conn.publish(&mut rig.sim, "w/t", pid.as_bytes(), QoS::ExactlyOnce, false);
        }
        rig.sim.run_for(SimDuration::from_millis(100));
        // The same client id reconnects from another address: the takeover
        // stashes the session (decoding each stored packet into its
        // snapshot) and the resumption encodes them again and resends each
        // with DUP set.
        let back_addr = Addr::new(rig.broker_addr.node, 24_201);
        let back = TestClient::new(back_addr, rig.broker_addr, "dup-sub");
        rig.sim.bind(back_addr, back.clone());
        back.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_for(SimDuration::from_secs(1));
        assert!(back.borrow().events.contains(&ClientEvent::Connected { session_present: true }));
        let want: Vec<Bytes> =
            [1, 2, 65534, 65535].map(|pid| dup_encoding(pid, QoS::ExactlyOnce)).into();
        assert_eq!(dup_publishes(&back.borrow().datagrams), want, "DUP resends, byte for byte");
        let got: Vec<Vec<u8>> = back.borrow().messages().into_iter().map(|(_, p)| p).collect();
        let want: Vec<Vec<u8>> = ["1", "2", "65534", "65535"].map(|p| p.as_bytes().to_vec()).into();
        assert_eq!(got, want);
        assert_eq!(
            rig.broker.borrow().stats().qos2_completed,
            4,
            "every resumed handshake completed"
        );
    }

    #[test]
    fn client_resends_wrapped_inflight_pids_in_pid_order() {
        let mut rig = Rig::new();
        let pub_addr = Addr::new(rig.broker_addr.node, 24_100);
        let publisher = TestClient::new(pub_addr, rig.broker_addr, "wrap-pub");
        rig.sim.bind(pub_addr, publisher.clone());
        publisher.borrow_mut().conn.connect_persistent(&mut rig.sim, None);
        rig.sim.run_to_completion();
        // Crash the broker and publish into the outage: pids 65534, 65535,
        // 1 and 2 stay in flight until the transport gives up.
        let snaps = rig.broker.borrow().export_sessions();
        rig.sim.unbind(rig.broker_addr);
        publisher.borrow_mut().conn.set_next_pid(65_534);
        for pid in ["65534", "65535", "1", "2"] {
            let mut p = publisher.borrow_mut();
            let got = p.conn.publish(&mut rig.sim, "w/t", pid.as_bytes(), QoS::AtLeastOnce, false);
            assert_eq!(got.map(|g| g.to_string()).as_deref(), Some(pid));
        }
        rig.sim.run_for(SimDuration::from_secs(4));
        assert!(publisher.borrow().events.contains(&ClientEvent::BrokerLost));
        assert_eq!(publisher.borrow().conn.unacked_publishes(), 4);
        // A restarted broker resumes the session; the DUP resends reach a
        // subscriber in the order the client sent them.
        let broker2 = Broker::new(rig.broker_addr);
        broker2.borrow_mut().import_sessions(snaps);
        let tap =
            Rc::new(RefCell::new(BrokerTap { broker: broker2.clone(), datagrams: Vec::new() }));
        rig.sim.bind(rig.broker_addr, tap.clone());
        rig.broker = broker2;
        let (sub, _) = rig.client("order-sub");
        sub.borrow_mut().conn.subscribe(&mut rig.sim, &[("w/t", QoS::AtMostOnce)]);
        rig.sim.run_to_completion();
        publisher.borrow_mut().conn.connect(&mut rig.sim, None);
        rig.sim.run_to_completion();
        assert!(publisher.borrow().events.contains(&ClientEvent::Connected { session_present: true }));
        assert_eq!(publisher.borrow().conn.unacked_publishes(), 0);
        let got: Vec<Vec<u8>> = sub.borrow().messages().into_iter().map(|(_, p)| p).collect();
        let want: Vec<Vec<u8>> = ["1", "2", "65534", "65535"].map(|p| p.as_bytes().to_vec()).into();
        assert_eq!(got, want, "DUP resends go out in pid order");
        let want: Vec<Bytes> =
            [1, 2, 65534, 65535].map(|pid| dup_encoding(pid, QoS::AtLeastOnce)).into();
        assert_eq!(dup_publishes(&tap.borrow().datagrams), want, "DUP resends, byte for byte");
    }
}
