//! The discrete-event simulation kernel: [`Sim`] owns the virtual clock,
//! the event queue, the topology, and every bound [`Service`]. Services
//! interact only through datagrams and timers, so one seed fixes the whole
//! execution — the property everything else (traces, sweeps, chaos
//! scorecards, the observability layer) is built on.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use digibox_obs as obs;

use crate::stats::NetStats;
use crate::wheel::EventWheel;
use crate::{Addr, Prng, SimDuration, SimTime, Topology};

/// A message in flight between two service endpoints.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sender endpoint.
    pub src: Addr,
    /// Destination endpoint.
    pub dst: Addr,
    /// Opaque message bytes.
    pub payload: Bytes,
}

/// Opaque timer identity, chosen by the service that sets the timer.
pub type TimerToken = u64;

/// A datagram captured by an island-scoped kernel because its destination
/// lives on a foreign island (space-parallel execution, DESIGN.md §15).
///
/// The arrival time was already sampled from the *sending* island's link
/// RNG at send time, so handing the datagram to the destination island via
/// [`Sim::inject_remote`] reproduces exactly the delivery a single shared
/// kernel would have scheduled.
#[derive(Debug, Clone)]
pub struct RemoteDatagram {
    /// Sampled arrival time on the destination island's clock.
    pub at: SimTime,
    /// The in-flight message.
    pub datagram: Datagram,
}

/// A simulated process bound to an [`Addr`]: mocks, scenes, brokers, REST
/// servers and applications all implement `Service`.
///
/// Handlers receive `&mut Sim` and may send datagrams or set timers, but
/// never call other services directly — all interaction is via messages,
/// which is what keeps the simulation deterministic and lets the same code
/// run at laptop scale or cluster scale (paper §4).
pub trait Service {
    /// Called once when the service is bound.
    fn on_start(&mut self, _sim: &mut Sim) {}
    /// A datagram addressed to this service arrived.
    fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram);
    /// A batch of same-instant datagrams addressed to this service.
    ///
    /// The kernel coalesces the maximal *consecutive* run of deliveries
    /// that share `(at, dst)` — exactly a prefix of the global `(at, seq)`
    /// order, so coalescing can never reorder observable events. The
    /// default forwards each datagram to [`Service::on_datagram`] in queue
    /// order, which every digibox host keeps. An override must not change
    /// the order of what the service sends: a service that answers each
    /// datagram synchronously (an MQTT session's transport ACK and PUBACK)
    /// would otherwise move those replies ahead of the handler output
    /// they used to follow, and every later link-RNG draw with them.
    fn on_datagram_batch(&mut self, sim: &mut Sim, batch: &[Datagram]) {
        for dg in batch {
            self.on_datagram(sim, dg.clone());
        }
    }
    /// A timer set via [`Sim::set_timer`] fired.
    fn on_timer(&mut self, _sim: &mut Sim, _token: TimerToken) {}
}

/// Shared, inspectable handle to a concrete service (tests and the testbed
/// keep the typed `Rc` while the kernel holds it as `dyn Service`).
pub type ServiceHandle<T> = Rc<RefCell<T>>;

/// Kernel construction parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every per-link/per-service stream splits from it.
    pub seed: u64,
    /// Safety valve: `run_*` stops after this many events (0 = unlimited).
    pub max_events: u64,
    /// Storm watchdog: flag [`Sim::storm_detected`] when more than this
    /// many events execute within one virtual millisecond (0 = disabled).
    /// A storm almost always means a coordination loop that never
    /// converges (e.g. a scene handler that re-randomizes its writes on
    /// every run) — the failure mode is "simulation runs forever", and the
    /// flag turns it into a checkable condition.
    pub storm_threshold: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0xD161_B0B0, max_events: 0, storm_threshold: 250_000 }
    }
}

enum EventKind {
    Deliver(Datagram),
    Timer { addr: Addr, token: TimerToken },
    Call(Box<dyn FnOnce(&mut Sim)>),
}

/// Pre-interned observability handles for the dispatch hot path — interned
/// once at kernel construction so the per-event cost when metrics are on
/// is an index bump, and a single thread-local flag check when they are
/// off.
struct ObsKeys {
    events: obs::CounterId,
    deliver: obs::CounterId,
    timer: obs::CounterId,
    call: obs::CounterId,
    unreachable: obs::CounterId,
    batched: obs::CounterId,
    queue_depth: obs::HistogramId,
    batch_size: obs::HistogramId,
    f_deliver: obs::FrameId,
    f_deliver_batch: obs::FrameId,
    f_timer: obs::FrameId,
    f_call: obs::FrameId,
}

impl ObsKeys {
    fn new() -> ObsKeys {
        ObsKeys {
            events: obs::counter("kernel.events"),
            deliver: obs::counter("kernel.deliver"),
            timer: obs::counter("kernel.timer"),
            call: obs::counter("kernel.call"),
            unreachable: obs::counter("kernel.unreachable"),
            batched: obs::counter("kernel.batched_deliveries"),
            queue_depth: obs::histogram("kernel.queue_depth"),
            batch_size: obs::histogram("kernel.batch_size"),
            f_deliver: obs::frame("kernel.deliver"),
            f_deliver_batch: obs::frame("kernel.deliver_batch"),
            f_timer: obs::frame("kernel.timer"),
            f_call: obs::frame("kernel.call"),
        }
    }
}

/// The discrete-event kernel: virtual clock, event queue, topology, bound
/// services, and network statistics.
///
/// Events are ordered by `(time, insertion sequence)` — FIFO among
/// simultaneous events, which pins down execution order completely. The
/// queue is a hierarchical timer wheel with a heap overflow
/// ([`EventWheel`]): the dominant periodic-timer workload schedules and
/// fires in O(1) instead of the O(log n) a single binary heap costs, while
/// producing the exact same total order.
pub struct Sim {
    now: SimTime,
    seq: u64,
    events_processed: u64,
    queue: EventWheel<EventKind>,
    topology: Topology,
    /// Dense service table: `ports[node][port]` is `slot + 1` into `slots`
    /// (0 = unbound), so the dispatch hot path is two array indexes with no
    /// hashing. Slots are arena-assigned and recycled through `free_slots`.
    ports: Vec<Vec<u32>>,
    slots: Vec<Option<Rc<RefCell<dyn Service>>>>,
    free_slots: Vec<u32>,
    node_load: Vec<usize>,
    /// Reusable buffer for coalesced same-instant deliveries.
    batch_buf: Vec<Datagram>,
    /// Island scope (space-parallel mode): `island_local[node]` marks nodes
    /// this kernel owns. Empty = no scope, every node is local.
    island_local: Vec<bool>,
    /// Cross-island datagrams captured since the last
    /// [`Sim::take_remote_outbox`], in send order.
    remote_outbox: Vec<RemoteDatagram>,
    link_rng: Prng,
    root_rng: Prng,
    stats: NetStats,
    storm_bucket_ms: u64,
    storm_count: u64,
    storm_detected: bool,
    obs: ObsKeys,
    config: SimConfig,
}

impl Sim {
    /// A kernel over the given topology, clock at zero, nothing bound.
    pub fn new(topology: Topology, config: SimConfig) -> Sim {
        let root = Prng::new(config.seed);
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            events_processed: 0,
            queue: EventWheel::new(),
            topology,
            ports: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            node_load: Vec::new(),
            batch_buf: Vec::new(),
            island_local: Vec::new(),
            remote_outbox: Vec::new(),
            link_rng: root.split_str("links"),
            root_rng: root,
            stats: NetStats::default(),
            storm_bucket_ms: 0,
            storm_count: 0,
            storm_detected: false,
            obs: ObsKeys::new(),
            config,
        }
    }

    /// True once an event storm was observed (see
    /// [`SimConfig::storm_threshold`]).
    pub fn storm_detected(&self) -> bool {
        self.storm_detected
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access (chaos campaigns edit links/nodes live).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Datagram counters accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Events dispatched since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Derive a reproducible RNG stream for a named component.
    pub fn rng_for(&self, label: &str) -> Prng {
        self.root_rng.split_str(label)
    }

    /// Bind a service at `addr`. Replaces any previous binding (the old
    /// service stops receiving). Runs the service's `on_start` hook.
    pub fn bind<T: Service + 'static>(&mut self, addr: Addr, service: ServiceHandle<T>) {
        let node = addr.node.0 as usize;
        if self.ports.len() <= node {
            self.ports.resize_with(node + 1, Vec::new);
            self.node_load.resize(node + 1, 0);
        }
        let table = &mut self.ports[node];
        let port = addr.port as usize;
        if table.len() <= port {
            table.resize(port + 1, 0);
        }
        let dyn_svc: Rc<RefCell<dyn Service>> = service.clone();
        if table[port] == 0 {
            let slot = match self.free_slots.pop() {
                Some(s) => {
                    self.slots[s as usize] = Some(dyn_svc);
                    s
                }
                None => {
                    self.slots.push(Some(dyn_svc));
                    (self.slots.len() - 1) as u32
                }
            };
            table[port] = slot + 1;
            self.node_load[node] += 1;
        } else {
            self.slots[(table[port] - 1) as usize] = Some(dyn_svc);
        }
        service.borrow_mut().on_start(self);
    }

    /// Remove the binding at `addr`; in-flight datagrams to it are dropped
    /// on delivery (counted as unreachable). The slot returns to the arena
    /// free list for the next bind.
    pub fn unbind(&mut self, addr: Addr) {
        let node = addr.node.0 as usize;
        let Some(table) = self.ports.get_mut(node) else { return };
        let Some(entry) = table.get_mut(addr.port as usize) else { return };
        let e = *entry;
        if e == 0 {
            return;
        }
        *entry = 0;
        self.slots[(e - 1) as usize] = None;
        self.free_slots.push(e - 1);
        self.node_load[node] = self.node_load[node].saturating_sub(1);
    }

    /// Number of services currently bound on `node` — the load proxy used
    /// by load-proportional service-time models (a node crowded with mock
    /// containers serves each request more slowly, which is what makes the
    /// paper's 1000-mock deployment slower than the 50-mock one).
    pub fn node_load(&self, node: crate::NodeId) -> usize {
        self.node_load.get(node.0 as usize).copied().unwrap_or(0)
    }

    /// Whether any service is bound at `addr`.
    pub fn is_bound(&self, addr: Addr) -> bool {
        self.service_at(addr).is_some()
    }

    /// Hot-path lookup: two dense array indexes, no hashing.
    #[inline]
    fn service_at(&self, addr: Addr) -> Option<Rc<RefCell<dyn Service>>> {
        let entry = *self.ports.get(addr.node.0 as usize)?.get(addr.port as usize)?;
        if entry == 0 {
            return None;
        }
        self.slots[(entry - 1) as usize].clone()
    }

    /// Send a datagram. Delay and loss come from the topology's link model;
    /// the datagram is delivered (or dropped) asynchronously.
    pub fn send(&mut self, src: Addr, dst: Addr, payload: Bytes) {
        let size = payload.len();
        let link = self.topology.link(src.node, dst.node).clone();
        self.stats.sent(size);
        if link.loss > 0.0 && self.link_rng.chance(link.loss) {
            self.stats.lost(size);
            return;
        }
        let delay = link.sample_delay(size, &mut self.link_rng);
        let at = self.now + delay;
        let dg = Datagram { src, dst, payload };
        if !self.island_local.is_empty()
            && !self.island_local.get(dst.node.0 as usize).copied().unwrap_or(false)
        {
            // Space-parallel mode: the destination lives on a foreign
            // island. Loss and delay were sampled above from *this*
            // island's link RNG, so capturing instead of queueing changes
            // nothing observable — the coordinator merges the outbox into
            // the owning island's wheel at the next barrier.
            self.remote_outbox.push(RemoteDatagram { at, datagram: dg });
            return;
        }
        self.push(at, EventKind::Deliver(dg));
    }

    /// Restrict this kernel to an island: sends to nodes *not* in `local`
    /// are captured into the remote outbox instead of queued, and
    /// [`Sim::inject_remote`] merges foreign arrivals in. Passing every
    /// node (or never calling this) keeps classic single-kernel behavior.
    pub fn set_island_scope(&mut self, local: &[crate::NodeId]) {
        let max = local.iter().map(|n| n.0 as usize).max().map_or(0, |m| m + 1);
        self.island_local = vec![false; max];
        for n in local {
            self.island_local[n.0 as usize] = true;
        }
    }

    /// Drain the datagrams captured for foreign islands since the last
    /// call, in send order.
    pub fn take_remote_outbox(&mut self) -> Vec<RemoteDatagram> {
        std::mem::take(&mut self.remote_outbox)
    }

    /// Merge a foreign island's datagram into this kernel's wheel. The
    /// arrival time was sampled by the sender; it must not precede this
    /// island's committed horizon (`now`) — the conservative-lookahead
    /// barrier protocol guarantees that, and a violation here means the
    /// horizon computation is wrong, so it is a hard panic rather than a
    /// silent reordering.
    pub fn inject_remote(&mut self, remote: RemoteDatagram) {
        assert!(
            remote.at >= self.now,
            "lookahead violation: remote datagram for {:?} arrives at {} but island already committed {}",
            remote.datagram.dst,
            remote.at,
            self.now,
        );
        self.push(remote.at, EventKind::Deliver(remote.datagram));
    }

    /// Set a timer for the service at `addr`, firing after `delay` with the
    /// given token.
    pub fn set_timer(&mut self, addr: Addr, delay: SimDuration, token: TimerToken) {
        let at = self.now + delay;
        self.push(at, EventKind::Timer { addr, token });
    }

    /// Schedule an arbitrary closure at an absolute virtual time (test
    /// drivers, workload generators).
    pub fn call_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        let at = at.max(self.now);
        self.push(at, EventKind::Call(Box::new(f)));
    }

    /// Schedule a closure after a relative delay.
    pub fn call_after(&mut self, delay: SimDuration, f: impl FnOnce(&mut Sim) + 'static) {
        self.push(self.now + delay, EventKind::Call(Box::new(f)));
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.as_nanos(), seq, kind);
    }

    /// Per-event accounting shared by `step`'s initial pop and the batch
    /// extension loop: event counter, obs hot-path metrics, storm watchdog.
    fn account_event(&mut self, at: SimTime) {
        self.events_processed += 1;
        if obs::enabled() {
            obs::clock(at.as_nanos());
            obs::inc(self.obs.events);
            obs::observe(self.obs.queue_depth, self.queue.len() as u64);
        }
        if self.config.storm_threshold > 0 {
            let bucket = at.as_millis();
            if bucket == self.storm_bucket_ms {
                self.storm_count += 1;
                if self.storm_count > self.config.storm_threshold {
                    self.storm_detected = true;
                }
            } else {
                self.storm_bucket_ms = bucket;
                self.storm_count = 1;
            }
        }
    }

    /// Deliver `dg` plus the maximal consecutive run of queued events that
    /// share its `(at, dst)`, as one batch. Because the run is exactly a
    /// prefix of the global `(at, seq)` order (any interleaved event to
    /// another destination has an intermediate `seq` and ends the run, and
    /// events pushed *during* handling always carry a later `seq`), the
    /// sequence of handler invocations is identical to the unbatched
    /// kernel's — batching is invisible to traces and digests.
    fn dispatch_deliveries(&mut self, at: SimTime, dg: Datagram) {
        obs::inc(self.obs.deliver);
        let dst = dg.dst;
        let Some(s) = self.service_at(dst) else {
            self.stats.unreachable(dg.payload.len());
            obs::inc(self.obs.unreachable);
            return;
        };
        self.stats.delivered(dg.payload.len());
        let at_ns = at.as_nanos();
        let mut batch = std::mem::take(&mut self.batch_buf);
        batch.clear();
        batch.push(dg);
        loop {
            if self.config.max_events > 0 && self.events_processed >= self.config.max_events {
                break;
            }
            let next = self.queue.pop_if(|eat, _seq, kind| {
                eat == at_ns && matches!(kind, EventKind::Deliver(d) if d.dst == dst)
            });
            let Some((_, _, EventKind::Deliver(d))) = next else { break };
            self.account_event(at);
            obs::inc(self.obs.deliver);
            self.stats.delivered(d.payload.len());
            batch.push(d);
        }
        if batch.len() == 1 {
            let _span = obs::enter(self.obs.f_deliver);
            let dg = batch.pop().expect("batch holds the popped event");
            s.borrow_mut().on_datagram(self, dg);
        } else {
            obs::inc(self.obs.batched);
            obs::observe(self.obs.batch_size, batch.len() as u64);
            let _span = obs::enter(self.obs.f_deliver_batch);
            s.borrow_mut().on_datagram_batch(self, &batch);
        }
        batch.clear();
        self.batch_buf = batch;
    }

    /// Process one event (a coalesced delivery run counts as one step but
    /// several events). Returns `false` when the queue is empty or the
    /// event budget is exhausted.
    pub fn step(&mut self) -> bool {
        self.step_until(u64::MAX)
    }

    /// [`Sim::step`], but only for an event due at or before `deadline`
    /// (ns); returns `false` when there is none.
    fn step_until(&mut self, deadline: u64) -> bool {
        if self.config.max_events > 0 && self.events_processed >= self.config.max_events {
            return false;
        }
        let Some((at_ns, _seq, kind)) = self.queue.pop_until(deadline) else {
            return false;
        };
        let at = SimTime::from_nanos(at_ns);
        debug_assert!(at >= self.now, "time must be monotonic");
        self.now = at;
        self.account_event(at);
        match kind {
            EventKind::Deliver(dg) => self.dispatch_deliveries(at, dg),
            EventKind::Timer { addr, token } => {
                obs::inc(self.obs.timer);
                let _span = obs::enter(self.obs.f_timer);
                if let Some(s) = self.service_at(addr) {
                    s.borrow_mut().on_timer(self, token);
                }
            }
            EventKind::Call(f) => {
                obs::inc(self.obs.call);
                let _span = obs::enter(self.obs.f_call);
                f(self);
            }
        }
        true
    }

    /// Run until the virtual clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_until(deadline.as_nanos()) {}
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run for a span of virtual time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Drain the queue completely (or until the event budget runs out).
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSpec, NodeSpec, SimDuration};

    struct Echo {
        addr: Addr,
        received: Vec<(SimTime, Vec<u8>)>,
        echo_to: Option<Addr>,
        timers: Vec<TimerToken>,
    }

    impl Echo {
        fn new(addr: Addr) -> ServiceHandle<Echo> {
            Rc::new(RefCell::new(Echo { addr, received: Vec::new(), echo_to: None, timers: Vec::new() }))
        }
    }

    impl Service for Echo {
        fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
            self.received.push((sim.now(), dg.payload.to_vec()));
            if let Some(to) = self.echo_to {
                sim.send(self.addr, to, dg.payload);
            }
        }
        fn on_timer(&mut self, _sim: &mut Sim, token: TimerToken) {
            self.timers.push(token);
        }
    }

    fn two_node_sim() -> (Sim, Addr, Addr) {
        let mut topo = Topology::new();
        let n0 = topo.add_node(NodeSpec::laptop());
        let n1 = topo.add_node(NodeSpec::m5_xlarge(0));
        let sim = Sim::new(topo, SimConfig::default());
        (sim, Addr::new(n0, 1), Addr::new(n1, 1))
    }

    #[test]
    fn delivery_advances_clock_by_link_delay() {
        let (mut sim, a, b) = two_node_sim();
        let svc = Echo::new(b);
        sim.bind(b, svc.clone());
        sim.send(a, b, Bytes::from_static(b"hi"));
        sim.run_to_completion();
        let svc = svc.borrow();
        assert_eq!(svc.received.len(), 1);
        let (t, payload) = &svc.received[0];
        assert_eq!(payload, b"hi");
        // ec2 link: >= 250us base delay
        assert!(t.as_micros() >= 250, "delivered at {t}");
    }

    #[test]
    fn unbound_destination_counts_unreachable() {
        let (mut sim, a, b) = two_node_sim();
        sim.send(a, b, Bytes::from_static(b"x"));
        sim.run_to_completion();
        assert_eq!(sim.stats().datagrams_unreachable, 1);
        assert_eq!(sim.stats().datagrams_delivered, 0);
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let (mut sim, a, b) = two_node_sim();
        sim.topology_mut().set_link(a.node, b.node, LinkSpec::lossy_wireless(0.5));
        let svc = Echo::new(b);
        sim.bind(b, svc.clone());
        for _ in 0..1000 {
            sim.send(a, b, Bytes::from_static(b"p"));
        }
        sim.run_to_completion();
        let got = svc.borrow().received.len();
        assert!((350..650).contains(&got), "delivered {got}/1000 at loss 0.5");
        assert_eq!(sim.stats().datagrams_lost as usize, 1000 - got);
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, _a, b) = two_node_sim();
        let svc = Echo::new(b);
        sim.bind(b, svc.clone());
        sim.set_timer(b, SimDuration::from_millis(20), 2);
        sim.set_timer(b, SimDuration::from_millis(10), 1);
        sim.set_timer(b, SimDuration::from_millis(30), 3);
        sim.run_to_completion();
        assert_eq!(svc.borrow().timers, vec![1, 2, 3]);
        assert_eq!(sim.now().as_millis(), 30);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, _a, b) = two_node_sim();
        let svc = Echo::new(b);
        sim.bind(b, svc.clone());
        sim.set_timer(b, SimDuration::from_millis(5), 1);
        sim.set_timer(b, SimDuration::from_millis(50), 2);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(svc.borrow().timers, vec![1]);
        assert_eq!(sim.now().as_millis(), 10);
        sim.run_to_completion();
        assert_eq!(svc.borrow().timers, vec![1, 2]);
    }

    #[test]
    fn ping_pong_via_echo() {
        let (mut sim, a, b) = two_node_sim();
        let sa = Echo::new(a);
        let sb = Echo::new(b);
        sb.borrow_mut().echo_to = Some(a);
        sim.bind(a, sa.clone());
        sim.bind(b, sb.clone());
        sim.send(a, b, Bytes::from_static(b"ping"));
        sim.run_to_completion();
        assert_eq!(sa.borrow().received.len(), 1);
        assert_eq!(sa.borrow().received[0].1, b"ping");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (mut sim, a, b) = two_node_sim();
            let svc = Echo::new(b);
            sim.bind(b, svc.clone());
            for _ in 0..100 {
                sim.send(a, b, Bytes::from_static(b"x"));
            }
            sim.run_to_completion();
            let times: Vec<u64> =
                svc.borrow().received.iter().map(|(t, _)| t.as_nanos()).collect();
            times
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn max_events_budget_respected() {
        let mut topo = Topology::new();
        let n = topo.add_node(NodeSpec::laptop());
        let mut sim = Sim::new(topo, SimConfig { max_events: 5, ..Default::default() });
        let addr = Addr::new(n, 1);
        let svc = Echo::new(addr);
        svc.borrow_mut().echo_to = Some(addr); // infinite self-echo loop
        sim.bind(addr, svc);
        sim.send(addr, addr, Bytes::from_static(b"loop"));
        sim.run_to_completion();
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn storm_watchdog_flags_hot_loops() {
        let mut topo = Topology::new();
        let n = topo.add_node(NodeSpec::laptop());
        // zero-latency loopback so the self-echo stays in one millisecond
        topo.set_loopback(LinkSpec {
            base_delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 0,
        });
        let mut sim = Sim::new(
            topo,
            SimConfig { storm_threshold: 10, max_events: 1000, ..Default::default() },
        );
        let addr = Addr::new(n, 1);
        let svc = Echo::new(addr);
        svc.borrow_mut().echo_to = Some(addr);
        sim.bind(addr, svc);
        sim.send(addr, addr, Bytes::from_static(b"hot"));
        sim.run_to_completion();
        assert!(sim.storm_detected(), "self-echo loop must trip the watchdog");
    }

    #[test]
    fn storm_watchdog_quiet_on_normal_traffic() {
        let (mut sim, a, b) = two_node_sim();
        let svc = Echo::new(b);
        sim.bind(b, svc);
        for _ in 0..100 {
            sim.send(a, b, Bytes::from_static(b"x"));
        }
        sim.run_to_completion();
        assert!(!sim.storm_detected());
    }

    #[test]
    fn far_future_timers_survive_the_wheel_overflow() {
        // Hours-away timers land in the scheduler's overflow heap; they
        // must still fire, in order, after the near-term work drains.
        let (mut sim, _a, b) = two_node_sim();
        let svc = Echo::new(b);
        sim.bind(b, svc.clone());
        sim.set_timer(b, SimDuration::from_secs(7200), 3);
        sim.set_timer(b, SimDuration::from_millis(1), 1);
        sim.set_timer(b, SimDuration::from_secs(3600), 2);
        sim.run_to_completion();
        assert_eq!(svc.borrow().timers, vec![1, 2, 3]);
        assert_eq!(sim.now().as_millis(), 7_200_000);
    }

    #[test]
    fn periodic_rearming_timers_interleave_deterministically() {
        // The dominant digi workload: many services re-arming fixed-interval
        // timers. Same-instant firings must follow insertion order exactly.
        struct Periodic {
            addr: Addr,
            fired: Rc<RefCell<Vec<(u64, TimerToken)>>>,
            remaining: u32,
        }
        impl Service for Periodic {
            fn on_datagram(&mut self, _sim: &mut Sim, _dg: Datagram) {}
            fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
                self.fired.borrow_mut().push((sim.now().as_millis(), token));
                if self.remaining > 0 {
                    self.remaining -= 1;
                    sim.set_timer(self.addr, SimDuration::from_millis(10), token);
                }
            }
        }
        let mut topo = Topology::new();
        let n = topo.add_node(NodeSpec::laptop());
        let mut sim = Sim::new(topo, SimConfig::default());
        let fired = Rc::new(RefCell::new(Vec::new()));
        for i in 0..16u64 {
            let addr = Addr::new(n, 1 + i as u16);
            let svc = Rc::new(RefCell::new(Periodic {
                addr,
                fired: fired.clone(),
                remaining: 20,
            }));
            sim.bind(addr, svc);
            sim.set_timer(addr, SimDuration::from_millis(10), i);
        }
        sim.run_to_completion();
        let fired = fired.borrow();
        assert_eq!(fired.len(), 16 * 21);
        for (round, chunk) in fired.chunks(16).enumerate() {
            for (i, &(ms, token)) in chunk.iter().enumerate() {
                assert_eq!(ms, 10 * (round as u64 + 1));
                assert_eq!(token, i as u64, "FIFO order broken in round {round}");
            }
        }
    }

    #[test]
    fn same_instant_deliveries_coalesce_in_order() {
        struct Collect {
            singles: u32,
            batches: Vec<usize>,
            order: Vec<u8>,
        }
        impl Service for Collect {
            fn on_datagram(&mut self, _sim: &mut Sim, dg: Datagram) {
                self.singles += 1;
                self.order.push(dg.payload[0]);
            }
            fn on_datagram_batch(&mut self, _sim: &mut Sim, batch: &[Datagram]) {
                self.batches.push(batch.len());
                for dg in batch {
                    self.order.push(dg.payload[0]);
                }
            }
        }
        let mut topo = Topology::new();
        let n = topo.add_node(NodeSpec::laptop());
        topo.set_loopback(LinkSpec {
            base_delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 0,
        });
        let mut sim = Sim::new(topo, SimConfig::default());
        let addr = Addr::new(n, 1);
        let svc = Rc::new(RefCell::new(Collect {
            singles: 0,
            batches: Vec::new(),
            order: Vec::new(),
        }));
        sim.bind(addr, svc.clone());
        for i in 0..8u8 {
            sim.send(addr, addr, Bytes::copy_from_slice(&[i]));
        }
        sim.run_to_completion();
        let svc = svc.borrow();
        // All eight arrive at the same instant for one destination: one
        // batch, send order preserved, each event still accounted.
        assert_eq!(svc.order, (0..8).collect::<Vec<_>>());
        assert_eq!(svc.batches, vec![8]);
        assert_eq!(svc.singles, 0);
        assert_eq!(sim.events_processed(), 8);
        assert_eq!(sim.stats().datagrams_delivered, 8);
    }

    #[test]
    fn coalescing_stops_at_destination_change() {
        struct Log {
            tag: u8,
            events: Rc<RefCell<Vec<(u8, usize)>>>, // (service tag, run length)
        }
        impl Service for Log {
            fn on_datagram(&mut self, _sim: &mut Sim, _dg: Datagram) {
                self.events.borrow_mut().push((self.tag, 1));
            }
            fn on_datagram_batch(&mut self, _sim: &mut Sim, batch: &[Datagram]) {
                self.events.borrow_mut().push((self.tag, batch.len()));
            }
        }
        let mut topo = Topology::new();
        let n = topo.add_node(NodeSpec::laptop());
        topo.set_loopback(LinkSpec {
            base_delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 0,
        });
        let mut sim = Sim::new(topo, SimConfig::default());
        let (a, b) = (Addr::new(n, 1), Addr::new(n, 2));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.bind(a, Rc::new(RefCell::new(Log { tag: 1, events: log.clone() })));
        sim.bind(b, Rc::new(RefCell::new(Log { tag: 2, events: log.clone() })));
        // a, a, b, a at one instant: the run to `a` ends at the first `b`.
        for dst in [a, a, b, a] {
            sim.send(a, dst, Bytes::from_static(b"x"));
        }
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec![(1, 2), (2, 1), (1, 1)]);
    }

    #[test]
    fn unbind_recycles_slots_and_tracks_load() {
        let (mut sim, _a, b) = two_node_sim();
        let p1 = Addr::new(b.node, 10);
        let p2 = Addr::new(b.node, 11);
        sim.bind(p1, Echo::new(p1));
        sim.bind(p2, Echo::new(p2));
        assert_eq!(sim.node_load(b.node), 2);
        assert!(sim.is_bound(p1));
        sim.unbind(p1);
        assert!(!sim.is_bound(p1));
        assert_eq!(sim.node_load(b.node), 1);
        // A fresh bind on a new port reuses the freed arena slot; the old
        // address stays unreachable.
        let p3 = Addr::new(b.node, 12);
        sim.bind(p3, Echo::new(p3));
        assert_eq!(sim.node_load(b.node), 2);
        assert!(sim.is_bound(p3));
        assert!(!sim.is_bound(p1));
        // Rebinding an occupied port replaces in place, not a second slot.
        sim.bind(p2, Echo::new(p2));
        assert_eq!(sim.node_load(b.node), 2);
    }

    #[test]
    fn island_scope_captures_cross_island_sends() {
        let (mut sim, a, b) = two_node_sim();
        sim.set_island_scope(&[a.node]);
        let local = Echo::new(a);
        sim.bind(a, local.clone());
        sim.send(a, b, Bytes::from_static(b"cross"));
        sim.send(a, a, Bytes::from_static(b"local"));
        sim.run_to_completion();
        // the local loopback send delivered; the cross send was captured
        assert_eq!(local.borrow().received.len(), 1);
        let outbox = sim.take_remote_outbox();
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].datagram.dst, b);
        assert_eq!(&outbox[0].datagram.payload[..], b"cross");
        // ec2 cross link: arrival carries the sampled >= base delay
        assert!(outbox[0].at.as_micros() >= 250);
        // draining empties the outbox
        assert!(sim.take_remote_outbox().is_empty());
    }

    #[test]
    fn inject_remote_delivers_in_at_seq_order() {
        let (mut sim, a, b) = two_node_sim();
        sim.set_island_scope(&[b.node]);
        let svc = Echo::new(b);
        sim.bind(b, svc.clone());
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let dg = |p: &'static [u8]| Datagram { src: a, dst: b, payload: Bytes::from_static(p) };
        // injected out of time order: the wheel re-establishes (at, seq)
        sim.inject_remote(RemoteDatagram { at: at(20), datagram: dg(b"second") });
        sim.inject_remote(RemoteDatagram { at: at(10), datagram: dg(b"first") });
        sim.inject_remote(RemoteDatagram { at: at(20), datagram: dg(b"third") });
        sim.run_to_completion();
        let got: Vec<Vec<u8>> = svc.borrow().received.iter().map(|(_, p)| p.clone()).collect();
        assert_eq!(got, vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()]);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn inject_remote_before_committed_horizon_panics() {
        let (mut sim, a, b) = two_node_sim();
        sim.set_island_scope(&[b.node]);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(50));
        sim.inject_remote(RemoteDatagram {
            at: SimTime::ZERO + SimDuration::from_millis(10),
            datagram: Datagram { src: a, dst: b, payload: Bytes::from_static(b"late") },
        });
    }

    #[test]
    fn call_at_in_past_is_clamped_to_now() {
        let (mut sim, _a, b) = two_node_sim();
        sim.set_timer(b, SimDuration::from_millis(10), 1);
        sim.run_to_completion();
        let fired = Rc::new(RefCell::new(None));
        let fired2 = fired.clone();
        sim.call_at(SimTime::ZERO, move |s| {
            *fired2.borrow_mut() = Some(s.now());
        });
        sim.run_to_completion();
        assert_eq!(*fired.borrow(), Some(SimTime::ZERO + SimDuration::from_millis(10)));
    }

    #[test]
    fn call_at_the_deadline_runs_before_the_event_run_until_stopped_at() {
        // The next event sits two wheel ticks (2^16 ns each) past the
        // deadline. At 300 ms that event is first filed a level up, so
        // the refused step cascades it down before stopping; a call
        // scheduled at the deadline afterwards must still run first.
        let tick = 1u64 << 16;
        for t_ns in [5 * tick + 7, 300_000_000] {
            let (mut sim, _a, _b) = two_node_sim();
            let order = Rc::new(RefCell::new(Vec::new()));
            let later = order.clone();
            let event_at = SimTime::from_nanos(t_ns + 2 * tick);
            sim.call_at(event_at, move |s| later.borrow_mut().push(("event", s.now())));
            let t = SimTime::from_nanos(t_ns);
            sim.run_until(t);
            assert!(order.borrow().is_empty(), "nothing is due by {t_ns} ns");
            assert_eq!(sim.now(), t);
            let first = order.clone();
            sim.call_at(t, move |s| first.borrow_mut().push(("call", s.now())));
            sim.run_to_completion();
            assert_eq!(*order.borrow(), vec![("call", t), ("event", event_at)], "deadline {t_ns} ns");
        }
    }
}
