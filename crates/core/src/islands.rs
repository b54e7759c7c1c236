//! Deterministic space-parallel simulation: island kernels with
//! conservative lookahead (DESIGN.md §15).
//!
//! The sweep engine (PR 4) parallelizes *across seeds*; this module
//! parallelizes *inside one run*. The scene graph is partitioned along
//! scene boundaries into **islands**: each island is a complete
//! [`Testbed`] — its own event kernel, wheel, broker replica and control
//! plane — that owns exactly one node of a shared multi-node topology
//! ([`islands_cluster`]) and is cordoned off every foreign node
//! (`TestbedConfig::home_node`). Islands execute concurrently on worker
//! threads and synchronize at **conservative lookahead barriers**: every
//! epoch each island runs up to `horizon = min(committed + lookahead,
//! next fault fence, end)` where `lookahead` is the minimum cross-island
//! link base delay ([`min_cross_latency`]). Because any datagram sent
//! during epoch `(C, H]` departs at `t > C` and arrives at
//! `t + delay >= t + lookahead > H`, cross-island traffic captured in
//! each island's remote outbox can always be injected at the *next*
//! barrier without ever scheduling into an island's committed past —
//! `Sim::inject_remote` asserts exactly this invariant.
//!
//! Determinism is by construction, not by luck: the number of worker
//! threads (`--islands N`) changes only *which OS thread* hosts an island
//! kernel, never the virtual execution. Cross-island datagrams are merged
//! in canonical `(arrival time, source island, send order)` order before
//! injection (`route_arrivals`), so the destination wheel assigns the
//! same sequence numbers no matter how worker threads raced. Every digest
//! — stats snapshot, scorecard, sweep card, checkpoint hashes — is
//! byte-identical for any worker count, and `tests/islands_determinism.rs`
//! plus the `islands-smoke` CI job enforce it.
//!
//! Chaos interacts with the barrier protocol in two ways (both handled
//! here): fault window starts/ends become **fences** (barrier points), so
//! topology changes only ever happen at a committed horizon; and every
//! degrade/partition/heal transition triggers a lookahead recomputation,
//! so a healed (faster) link can never let a message arrive "before" an
//! island's committed horizon.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};

use bytes::Bytes;
use digibox_net::chaos::FaultPlan;
use digibox_net::{
    Addr, Datagram, FaultKind, FaultWindow, LinkSpec, LinkState, NodeId, NodeSpec,
    RemoteDatagram, Service, Sim, SimDuration, SimTime, TimerToken, Topology,
};
use digibox_obs as obs;

use crate::sweep::{panic_message, resolve_jobs};
use crate::testbed::Testbed;

/// UDP-style port of the per-island uplink beacon service.
const UPLINK_PORT: u16 = 48;
/// Port of the island-0 aggregator the uplinks report to.
const AGG_PORT: u16 = 47;
/// Timer token used by [`IslandUplink`].
const UPLINK_TIMER: TimerToken = 0x0015_1A4D;
/// Period of the cross-island uplink beacon each island sends to the
/// island-0 aggregator (guaranteed cross traffic that exercises the
/// barrier protocol even when the scenes themselves are quiet).
const UPLINK_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Everything an island builder needs to construct its [`Testbed`]:
/// the campaign seed, the island's identity, and the shared cluster
/// topology every island testbed must be built on.
pub struct IslandEnv {
    /// Campaign seed (same for every island of one run).
    pub seed: u64,
    /// This island's index in `0..islands`.
    pub island: usize,
    /// Total island count.
    pub islands: usize,
    /// The node this island owns — `NodeId(island)`.
    pub node: NodeId,
    /// The shared cluster topology ([`islands_cluster`]). Builders pass a
    /// clone of this to [`Testbed::new`] with
    /// `TestbedConfig::home_node = Some(island)`.
    pub topology: Topology,
}

/// One island of a space-parallel run: a name (for error reporting) plus
/// the builder that constructs its [`Testbed`] on a worker thread.
pub struct IslandSpec {
    /// Human-readable island name, used in failure messages.
    pub name: String,
    build: IslandBuilder,
}

/// An island's testbed constructor, run once on its worker thread.
type IslandBuilder = Box<dyn FnOnce(&IslandEnv) -> crate::Result<Testbed> + Send>;

impl IslandSpec {
    /// Package a named island builder. The builder runs *inside* the
    /// worker thread that will host the island (a [`Testbed`] is not
    /// `Send`), must build on `env.topology` and must set
    /// `TestbedConfig::home_node = Some(env.island)` — the engine
    /// validates both after construction.
    pub fn new<F>(name: impl Into<String>, build: F) -> IslandSpec
    where
        F: FnOnce(&IslandEnv) -> crate::Result<Testbed> + Send + 'static,
    {
        IslandSpec { name: name.into(), build: Box::new(build) }
    }
}

/// Outcome of a space-parallel run.
#[derive(Debug)]
pub struct IslandsRun<R> {
    /// Per-island results from the finish closure, in island order.
    pub results: Vec<R>,
    /// The aligned start time: the maximum post-build clock across
    /// islands; every island is run forward to `t0` before traffic flows.
    pub t0: SimTime,
    /// How many lookahead epochs the run took.
    pub epochs: u64,
    /// Total cross-island datagrams exchanged at barriers.
    pub cross_datagrams: u64,
    /// Resolved worker-thread count actually used.
    pub workers: usize,
}

/// The inter-island link model: 5 ms base delay (the conservative
/// lookahead floor), 1 ms jitter, lossless, 10 Gb/s.
pub fn cross_island_link() -> LinkSpec {
    LinkSpec {
        base_delay: SimDuration::from_millis(5),
        jitter: SimDuration::from_millis(1),
        loss: 0.0,
        bandwidth_bps: 10_000_000_000,
    }
}

/// The shared topology of a `k`-island run: one `m5.xlarge`-class node
/// per island, every cross pair on [`cross_island_link`]. Every island
/// testbed is built on a clone of this so link RNG streams and delay
/// arithmetic agree across islands.
pub fn islands_cluster(k: usize) -> Topology {
    let mut topo = Topology::new();
    for i in 0..k {
        topo.add_node(NodeSpec::m5_xlarge(i as u32));
    }
    topo.set_default_link(cross_island_link());
    topo
}

/// The conservative lookahead: the minimum `base_delay` over every
/// ordered cross-node pair. Errs on a single-node topology (no cross
/// pairs — callers special-case `k == 1`) and on a zero-delay link
/// (lookahead would be zero and the barrier loop could not advance).
pub fn min_cross_latency(topo: &Topology) -> Result<SimDuration, String> {
    let ids = topo.node_ids();
    let mut min: Option<SimDuration> = None;
    for &a in &ids {
        for &b in &ids {
            if a == b {
                continue;
            }
            let d = topo.link(a, b).base_delay;
            min = Some(match min {
                Some(m) if m <= d => m,
                _ => d,
            });
        }
    }
    match min {
        None => Err("island topology has fewer than two nodes".to_string()),
        Some(d) if d == SimDuration::ZERO => {
            Err("zero cross-island link latency: conservative lookahead is empty".to_string())
        }
        Some(d) => Ok(d),
    }
}

/// A fault transition resolved to a concrete per-island action. Link
/// shaping (partition/degrade) travels separately as the recomputed
/// active-window set, because it must be applied identically on every
/// island's topology copy.
#[derive(Debug, Clone)]
enum FaultAction {
    /// Kill a named digi. Broadcast to every island; only the owner's
    /// `Testbed::kill` succeeds, the rest return a harmless not-found.
    Kill(String),
    /// Kill the broker for the given outage. Broadcast: every island has
    /// its own broker replica and all of them crash together.
    KillBroker(SimDuration),
    /// Fail a node. Applied only on the owning island — on any other
    /// island that node is a *cordoned foreign* node, and touching it
    /// would corrupt the home-node cordon set.
    NodeDown(u32),
    /// Restore a failed node (owning island only, same reason).
    NodeUp(u32),
}

/// Coordinator → worker commands. Plain data only (a worker's testbeds
/// never cross threads).
enum Cmd {
    /// Align every island to `t0`, install the island scope and the
    /// cross-island beacon services, and remember the (absolute-time)
    /// fault windows for topology recomputation.
    Start { t0: SimTime, windows: Vec<FaultWindow> },
    /// Run one epoch up to `horizon`. `arrivals` is position-matched to
    /// the worker's owned-island order; `topo_active`, when set, is the
    /// freshly recomputed active-window mask to reapply from the link
    /// baseline; `actions` are this barrier's fault transitions.
    Epoch {
        horizon: SimTime,
        arrivals: Vec<Vec<RemoteDatagram>>,
        topo_active: Option<Vec<bool>>,
        actions: Vec<FaultAction>,
    },
    /// Run the finish closure on every owned island and exit.
    Finish,
}

/// Worker → coordinator reports.
enum Report<R> {
    /// All owned islands built; their post-build clocks, for T0 alignment.
    Built { nows: Vec<(usize, SimTime)> },
    /// All owned islands aligned to T0 and scoped.
    Ready,
    /// Epoch complete; each owned island's remote outbox.
    EpochDone { outboxes: Vec<(usize, Vec<RemoteDatagram>)> },
    /// Finish closure results, tagged with island index.
    Finished { results: Vec<(usize, R)> },
    /// An island's builder or epoch failed or panicked; the worker exits
    /// after sending this (mirrors the sweep engine's per-seed
    /// `catch_unwind` isolation).
    IslandFailed { island: usize, name: String, error: String },
}

/// Everything a worker thread holds for one island. Lives entirely on
/// that thread — `Testbed` and `CollectorState` are `!Send`.
struct IslandState {
    index: usize,
    name: String,
    tb: Testbed,
    /// The island's detached observability state, installed around every
    /// slice of island execution so per-island metrics are exactly what a
    /// dedicated thread would have recorded.
    obs_state: obs::CollectorState,
    /// Pristine link configuration saved right after build — the baseline
    /// partitions/degrades are reapplied from at every topology fence.
    baseline: LinkState,
}

/// Run `f` with `st`'s observability state installed as the thread-local
/// collector, restoring the ambient state afterwards. Every touch of an
/// island's testbed must go through here so interned metric handles stay
/// valid and per-island snapshots merge order-independently.
fn with_island<T>(st: &mut IslandState, f: impl FnOnce(&mut IslandState) -> T) -> T {
    let island = std::mem::replace(&mut st.obs_state, obs::fresh_state());
    let ambient = obs::swap_state(island);
    let out = f(st);
    st.obs_state = obs::swap_state(ambient);
    out
}

/// The periodic cross-island beacon: every island binds one at
/// `(node, 48)` and reports a counter to the island-0 aggregator, which
/// acks — guaranteed bidirectional cross-island traffic on every run.
struct IslandUplink {
    addr: Addr,
    target: Addr,
    island: u64,
    counter: u64,
    sent: obs::CounterId,
    acked: obs::CounterId,
}

impl Service for IslandUplink {
    fn on_start(&mut self, sim: &mut Sim) {
        sim.set_timer(self.addr, UPLINK_PERIOD, UPLINK_TIMER);
    }

    fn on_timer(&mut self, sim: &mut Sim, _token: TimerToken) {
        self.counter += 1;
        let payload = format!("island {} beacon {}", self.island, self.counter);
        sim.send(self.addr, self.target, Bytes::from(payload));
        obs::add(self.sent, 1);
        sim.set_timer(self.addr, UPLINK_PERIOD, UPLINK_TIMER);
    }

    fn on_datagram(&mut self, _sim: &mut Sim, _dg: Datagram) {
        obs::add(self.acked, 1);
    }
}

/// The island-0 sink for uplink beacons; acks each one back so every
/// island sees traffic in both directions.
struct IslandAggregator {
    addr: Addr,
    received: obs::CounterId,
}

impl Service for IslandAggregator {
    fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
        obs::add(self.received, 1);
        sim.send(self.addr, dg.src, Bytes::from_static(b"ack"));
    }
}

/// Align an island to the global start time, install its island scope and
/// bind the cross-island beacon services.
fn start_island(st: &mut IslandState, t0: SimTime) {
    let now = st.tb.now();
    if t0 > now {
        st.tb.run_for(t0.since(now));
    }
    let node = NodeId(st.index as u32);
    st.tb.sim().set_island_scope(&[node]);
    let uplink = Rc::new(RefCell::new(IslandUplink {
        addr: Addr::new(node, UPLINK_PORT),
        target: Addr::new(NodeId(0), AGG_PORT),
        island: st.index as u64,
        counter: 0,
        sent: obs::counter("islands.uplink_sent"),
        acked: obs::counter("islands.uplink_acked"),
    }));
    st.tb.sim().bind(Addr::new(node, UPLINK_PORT), uplink);
    if st.index == 0 {
        let agg = Rc::new(RefCell::new(IslandAggregator {
            addr: Addr::new(node, AGG_PORT),
            received: obs::counter("islands.agg_received"),
        }));
        st.tb.sim().bind(Addr::new(node, AGG_PORT), agg);
    }
}

/// One island's share of one epoch: reapply link shaping if it changed,
/// apply fault transitions, inject the canonical arrival batch, run to
/// the horizon, and hand back the new remote outbox.
fn run_epoch(
    st: &mut IslandState,
    horizon: SimTime,
    incoming: Vec<RemoteDatagram>,
    topo_active: Option<&[bool]>,
    actions: &[FaultAction],
    windows: &[FaultWindow],
) -> Vec<RemoteDatagram> {
    if let Some(active) = topo_active {
        let baseline = st.baseline.clone();
        reapply_links(st.tb.sim().topology_mut(), &baseline, windows, active);
    }
    for action in actions {
        match action {
            FaultAction::Kill(name) => {
                // Broadcast: only the island that owns the digi finds it.
                let _ = st.tb.kill(name);
            }
            FaultAction::KillBroker(outage) => st.tb.kill_broker(*outage),
            FaultAction::NodeDown(node) => {
                if *node as usize == st.index {
                    let _ = st.tb.fail_node(NodeId(*node));
                }
            }
            FaultAction::NodeUp(node) => {
                if *node as usize == st.index {
                    st.tb.restore_node(NodeId(*node));
                }
            }
        }
    }
    for dg in incoming {
        st.tb.sim().inject_remote(dg);
    }
    let now = st.tb.now();
    if horizon > now {
        st.tb.run_for(horizon.since(now));
    }
    st.tb.sim().take_remote_outbox()
}

/// Worker thread body: build the owned islands, then serve the
/// coordinator's command stream until `Finish` (or failure).
fn worker_main<R, F>(
    islands: Vec<(usize, IslandSpec)>,
    seed: u64,
    k: usize,
    topology: Topology,
    cmd_rx: Receiver<Cmd>,
    res_tx: Sender<Report<R>>,
    finish: &F,
) where
    R: Send,
    F: Fn(usize, &mut Testbed, SimTime) -> R + Sync,
{
    let fail = |island: usize, name: &str, error: String| {
        let _ = res_tx.send(Report::IslandFailed { island, name: name.to_string(), error });
    };

    // Build every owned island on this thread (a Testbed is not Send),
    // each under a fresh observability state so metrics stay per-island.
    let mut states: Vec<IslandState> = Vec::with_capacity(islands.len());
    for (index, spec) in islands {
        let env = IslandEnv {
            seed,
            island: index,
            islands: k,
            node: NodeId(index as u32),
            topology: topology.clone(),
        };
        let IslandSpec { name, build } = spec;
        let ambient = obs::swap_state(obs::fresh_state());
        let built = catch_unwind(AssertUnwindSafe(|| build(&env)));
        let obs_state = obs::swap_state(ambient);
        let mut tb = match built {
            Ok(Ok(tb)) => tb,
            Ok(Err(e)) => return fail(index, &name, format!("builder failed: {e}")),
            Err(p) => {
                return fail(index, &name, format!("builder panicked: {}", panic_message(&*p)))
            }
        };
        if tb.config().home_node != Some(index as u32) {
            return fail(index, &name, format!("island testbed must set home_node = {index}"));
        }
        if tb.sim().topology().len() != k {
            return fail(
                index,
                &name,
                format!("island testbed must be built on the shared {k}-node island topology"),
            );
        }
        let baseline = tb.sim().topology().save_links();
        states.push(IslandState { index, name, tb, obs_state, baseline });
    }
    let nows = states.iter().map(|st| (st.index, st.tb.now())).collect();
    let _ = res_tx.send(Report::Built { nows });

    let mut t0 = SimTime::ZERO;
    let mut windows: Vec<FaultWindow> = Vec::new();
    loop {
        let cmd = match cmd_rx.recv() {
            Ok(cmd) => cmd,
            Err(_) => return, // coordinator gone (another island failed)
        };
        match cmd {
            Cmd::Start { t0: start, windows: w } => {
                t0 = start;
                windows = w;
                for st in &mut states {
                    let (index, name) = (st.index, st.name.clone());
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        with_island(st, |st| start_island(st, t0))
                    }));
                    if let Err(p) = r {
                        return fail(index, &name, format!("panicked: {}", panic_message(&*p)));
                    }
                }
                let _ = res_tx.send(Report::Ready);
            }
            Cmd::Epoch { horizon, arrivals, topo_active, actions } => {
                let mut outboxes = Vec::with_capacity(states.len());
                let mut arrivals = arrivals.into_iter();
                for st in &mut states {
                    let incoming = arrivals.next().unwrap_or_default();
                    let (index, name) = (st.index, st.name.clone());
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        with_island(st, |st| {
                            run_epoch(
                                st,
                                horizon,
                                incoming,
                                topo_active.as_deref(),
                                &actions,
                                &windows,
                            )
                        })
                    }));
                    match r {
                        Ok(out) => outboxes.push((index, out)),
                        Err(p) => {
                            return fail(index, &name, format!("panicked: {}", panic_message(&*p)))
                        }
                    }
                }
                let _ = res_tx.send(Report::EpochDone { outboxes });
            }
            Cmd::Finish => {
                let mut results = Vec::with_capacity(states.len());
                for st in &mut states {
                    let (index, name) = (st.index, st.name.clone());
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        with_island(st, |st| finish(index, &mut st.tb, t0))
                    }));
                    match r {
                        Ok(v) => results.push((index, v)),
                        Err(p) => {
                            return fail(index, &name, format!("panicked: {}", panic_message(&*p)))
                        }
                    }
                }
                let _ = res_tx.send(Report::Finished { results });
                return;
            }
        }
    }
}

/// Collect exactly one report per worker; any failure (or a dead channel)
/// aborts the run with a description of the failing island.
fn gather<R>(rx: &Receiver<Report<R>>, workers: usize) -> Result<Vec<Report<R>>, String> {
    let mut out = Vec::with_capacity(workers);
    for _ in 0..workers {
        match rx.recv() {
            Ok(Report::IslandFailed { island, name, error }) => {
                return Err(format!("island {island} ({name}): {error}"));
            }
            Ok(report) => out.push(report),
            Err(_) => return Err("island worker exited unexpectedly".to_string()),
        }
    }
    Ok(out)
}

/// Next barrier: `t + lookahead`, clamped to the first fault fence after
/// `t` and to the end of the run.
fn horizon(t: SimTime, lookahead: SimDuration, fences: &[SimTime], end: SimTime) -> SimTime {
    let mut h = t + lookahead;
    if h > end {
        h = end;
    }
    for &f in fences {
        if f > t {
            if f < h {
                h = f;
            }
            break; // fences are sorted: the first one past t is the nearest
        }
    }
    h
}

/// Merge the epoch's cross-island outboxes into one canonical per-island
/// arrival batch: sorted by `(arrival time, source island, send order)`,
/// then routed by destination node. Injection order decides wheel
/// sequence numbers for equal arrival times, so this sort — not channel
/// arrival order — is what keeps every digest worker-count independent.
fn route_arrivals(
    k: usize,
    pending: Vec<(usize, Vec<RemoteDatagram>)>,
) -> Vec<Vec<RemoteDatagram>> {
    let mut tagged: Vec<(u64, usize, usize, RemoteDatagram)> = Vec::new();
    for (src, outbox) in pending {
        for (idx, dg) in outbox.into_iter().enumerate() {
            tagged.push((dg.at.as_nanos(), src, idx, dg));
        }
    }
    tagged.sort_by_key(|&(at, src, idx, _)| (at, src, idx));
    let mut routed: Vec<Vec<RemoteDatagram>> = (0..k).map(|_| Vec::new()).collect();
    for (_, _, _, dg) in tagged {
        let dst = dg.datagram.dst.node.0 as usize;
        if dst < k {
            routed[dst].push(dg);
        }
    }
    routed
}

/// Resolve the fault transitions falling exactly on barrier `t`:
/// window starts first, then window ends (mirroring the serial campaign
/// runner). Returns the per-island actions plus whether link shaping
/// changed (partition/degrade start or heal) — the signal to reapply
/// topology and recompute the lookahead.
fn transitions_at(
    windows: &[FaultWindow],
    active: &mut [bool],
    t: SimTime,
) -> (Vec<FaultAction>, bool) {
    let mut actions = Vec::new();
    let mut topo_dirty = false;
    for (i, w) in windows.iter().enumerate() {
        if w.start != t {
            continue;
        }
        match &w.kind {
            FaultKind::CrashDigi { digi } => actions.push(FaultAction::Kill(digi.clone())),
            FaultKind::NodeDown { node } => {
                actions.push(FaultAction::NodeDown(*node));
                active[i] = true;
            }
            FaultKind::CrashBroker => {
                actions.push(FaultAction::KillBroker(w.end.since(w.start)));
            }
            FaultKind::Partition { .. } | FaultKind::Degrade { .. } => {
                active[i] = true;
                topo_dirty = true;
            }
        }
    }
    for (i, w) in windows.iter().enumerate() {
        if w.end != t || !active[i] {
            continue;
        }
        match &w.kind {
            FaultKind::NodeDown { node } => {
                actions.push(FaultAction::NodeUp(*node));
                active[i] = false;
            }
            FaultKind::Partition { .. } | FaultKind::Degrade { .. } => {
                active[i] = false;
                topo_dirty = true;
            }
            _ => {}
        }
    }
    (actions, topo_dirty)
}

/// Rebuild link shaping from the pristine baseline plus the currently
/// active partition/degrade windows. Used identically on the
/// coordinator's topology copy (for lookahead recomputation) and on every
/// island's own topology, so all clocks agree on link state. Serial chaos
/// campaigns (`core::campaign`) rebuild their one topology the same way.
pub(crate) fn reapply_links(
    topo: &mut Topology,
    baseline: &LinkState,
    windows: &[FaultWindow],
    active: &[bool],
) {
    topo.restore_links(baseline.clone());
    for (i, w) in windows.iter().enumerate() {
        if !active.get(i).copied().unwrap_or(false) {
            continue;
        }
        match &w.kind {
            FaultKind::Partition { left, right } => {
                let (l, r) = FaultPlan::partition_nodes(left, right);
                topo.partition(&l, &r);
            }
            FaultKind::Degrade { loss, extra_delay_ms, extra_jitter_ms } => {
                topo.degrade_all(
                    *loss,
                    SimDuration::from_millis(*extra_delay_ms),
                    SimDuration::from_millis(*extra_jitter_ms),
                );
            }
            _ => {}
        }
    }
}

/// Execute one space-parallel run: build every island on its worker
/// thread, align clocks, then drive the conservative-lookahead barrier
/// loop over `span` (with the fault `windows` of a chaos plan resolved at
/// epoch fences), and finally reduce each island through `finish`.
///
/// Islands run on `workers` threads (`0` = one per available core). The
/// worker count never changes any digest — it only decides which thread
/// hosts which island.
///
/// `finish` runs on the island's worker thread with that island's
/// observability state installed — `Testbed::obs_snapshot` inside it sees
/// exactly the island's own metrics. Results come back in island order.
///
/// Any island builder error, panic, or protocol violation aborts the
/// whole run with `Err("island {i} ({name}): ...")` while the remaining
/// workers unwind cleanly — mirroring the sweep engine's per-seed
/// isolation.
pub fn run<R, F>(
    seed: u64,
    specs: Vec<IslandSpec>,
    workers: usize,
    span: SimDuration,
    faults: &[FaultWindow],
    finish: F,
) -> Result<IslandsRun<R>, String>
where
    R: Send,
    F: Fn(usize, &mut Testbed, SimTime) -> R + Sync,
{
    let k = specs.len();
    if k == 0 {
        return Err("islands::run needs at least one island".to_string());
    }
    let workers = resolve_jobs(workers).min(k);
    let topology = islands_cluster(k);

    let mut assignments: Vec<Vec<(usize, IslandSpec)>> = (0..workers).map(|_| Vec::new()).collect();
    let mut owned: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, spec) in specs.into_iter().enumerate() {
        assignments[i % workers].push((i, spec));
        owned[i % workers].push(i);
    }
    let finish = &finish;

    // Worker threads are scoped: if coordination errors out, dropping the
    // command senders (end of this closure) unblocks every worker and the
    // scope joins them before `run` returns.
    std::thread::scope(|scope| {
        let (res_tx, res_rx) = channel::<Report<R>>();
        let mut cmd_txs: Vec<Sender<Cmd>> = Vec::with_capacity(workers);
        for worker_islands in assignments {
            let (tx, rx) = channel::<Cmd>();
            cmd_txs.push(tx);
            let res_tx = res_tx.clone();
            let topo = topology.clone();
            scope.spawn(move || {
                worker_main(worker_islands, seed, k, topo, rx, res_tx, finish)
            });
        }
        drop(res_tx);
        coordinate(k, workers, &owned, &topology, span, faults, &cmd_txs, &res_rx)
    })
}

/// The coordinator side of [`run`]: T0 alignment, the barrier loop, and
/// result collection.
#[allow(clippy::too_many_arguments)]
fn coordinate<R: Send>(
    k: usize,
    workers: usize,
    owned: &[Vec<usize>],
    topology: &Topology,
    span: SimDuration,
    faults: &[FaultWindow],
    cmd_txs: &[Sender<Cmd>],
    res_rx: &Receiver<Report<R>>,
) -> Result<IslandsRun<R>, String> {
    // T0 alignment: builders run their settle phases freely (no cross
    // traffic exists yet), then every island catches up to the latest
    // clock so the barrier arithmetic starts from one shared instant.
    let mut nows: Vec<SimTime> = Vec::new();
    for report in gather(res_rx, workers)? {
        match report {
            Report::Built { nows: n } => nows.extend(n.into_iter().map(|(_, t)| t)),
            _ => return Err("island protocol error: expected Built".to_string()),
        }
    }
    let t0 = nows.into_iter().max().unwrap_or(SimTime::ZERO);
    let end = t0 + span;

    // Fault windows on the absolute clock; their edges become fences so
    // topology never changes mid-epoch.
    let windows: Vec<FaultWindow> = faults
        .iter()
        .map(|w| FaultWindow {
            index: w.index,
            start: t0 + w.start.since(SimTime::ZERO),
            end: t0 + w.end.since(SimTime::ZERO),
            kind: w.kind.clone(),
        })
        .collect();
    let mut fences: Vec<SimTime> = windows
        .iter()
        .flat_map(|w| [w.start, w.end])
        .filter(|&f| f > t0 && f < end)
        .collect();
    fences.sort();
    fences.dedup();

    for tx in cmd_txs {
        tx.send(Cmd::Start { t0, windows: windows.clone() })
            .map_err(|_| "island worker exited before start".to_string())?;
    }
    for report in gather(res_rx, workers)? {
        if !matches!(report, Report::Ready) {
            return Err("island protocol error: expected Ready".to_string());
        }
    }

    let mut coord_topo = topology.clone();
    let baseline = coord_topo.save_links();
    // One island has no cross pairs: the whole span is one epoch (plus
    // fences). Otherwise the lookahead is the minimum cross link delay.
    let mut lookahead = if k == 1 { span } else { min_cross_latency(&coord_topo)? };
    let mut active = vec![false; windows.len()];
    let mut pending: Vec<(usize, Vec<RemoteDatagram>)> = Vec::new();
    let mut epochs = 0u64;
    let mut cross_datagrams = 0u64;
    let mut t = t0;

    while t < end {
        let (actions, dirty) = transitions_at(&windows, &mut active, t);
        let topo_active = if dirty {
            reapply_links(&mut coord_topo, &baseline, &windows, &active);
            // The chaos-vs-islands contract: every degrade/partition/heal
            // recomputes the lookahead *at the fence*, so a healed link's
            // shorter delay only governs epochs that start after the heal
            // — a message can never arrive before a committed horizon.
            lookahead = if k == 1 { span } else { min_cross_latency(&coord_topo)? };
            Some(active.clone())
        } else {
            None
        };
        let h = horizon(t, lookahead, &fences, end);
        let mut routed = route_arrivals(k, std::mem::take(&mut pending));
        cross_datagrams += routed.iter().map(|v| v.len() as u64).sum::<u64>();
        for (w, tx) in cmd_txs.iter().enumerate() {
            let arrivals: Vec<Vec<RemoteDatagram>> =
                owned[w].iter().map(|&i| std::mem::take(&mut routed[i])).collect();
            tx.send(Cmd::Epoch {
                horizon: h,
                arrivals,
                topo_active: topo_active.clone(),
                actions: actions.clone(),
            })
            .map_err(|_| "island worker exited mid-epoch".to_string())?;
        }
        for report in gather(res_rx, workers)? {
            match report {
                Report::EpochDone { outboxes } => pending.extend(outboxes),
                _ => return Err("island protocol error: expected EpochDone".to_string()),
            }
        }
        epochs += 1;
        t = h;
    }

    for tx in cmd_txs {
        tx.send(Cmd::Finish).map_err(|_| "island worker exited before finish".to_string())?;
    }
    let mut results: Vec<(usize, R)> = Vec::with_capacity(k);
    for report in gather(res_rx, workers)? {
        match report {
            Report::Finished { results: r } => results.extend(r),
            _ => return Err("island protocol error: expected Finished".to_string()),
        }
    }
    results.sort_by_key(|r| r.0);
    Ok(IslandsRun {
        results: results.into_iter().map(|(_, r)| r).collect(),
        t0,
        epochs,
        cross_datagrams,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::testbed::TestbedConfig;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn window(index: usize, start_ms: u64, end_ms: u64, kind: FaultKind) -> FaultWindow {
        FaultWindow { index, start: at(start_ms), end: at(end_ms), kind }
    }

    /// An empty-catalog island testbed on the shared topology: exercises
    /// the full engine (broker, control plane, beacons, barriers) without
    /// any digis.
    fn bare_island(env: &IslandEnv, settle: SimDuration) -> crate::Result<Testbed> {
        let config = TestbedConfig {
            seed: env.seed,
            home_node: Some(env.island as u32),
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::new(env.topology.clone(), Catalog::new(), config);
        tb.run_for(settle);
        Ok(tb)
    }

    fn bare_specs(k: usize) -> Vec<IslandSpec> {
        (0..k)
            .map(|i| {
                // Deliberately skewed settle phases: T0 alignment must
                // erase the clock skew before any cross traffic flows.
                let settle = SimDuration::from_millis(100 * (i as u64 + 1));
                IslandSpec::new(format!("island-{i}"), move |env: &IslandEnv| {
                    bare_island(env, settle)
                })
            })
            .collect()
    }

    fn digest_run(workers: usize, k: usize, faults: &[FaultWindow]) -> IslandsRun<(u64, String)> {
        run(
            7,
            bare_specs(k),
            workers,
            SimDuration::from_secs(3),
            faults,
            |_, tb: &mut Testbed, _| (tb.now().as_nanos(), tb.obs_snapshot().to_json()),
        )
        .expect("island run")
    }

    #[test]
    fn cluster_has_cross_latency_floor() {
        let topo = islands_cluster(3);
        assert_eq!(topo.len(), 3);
        assert_eq!(min_cross_latency(&topo).unwrap(), SimDuration::from_millis(5));
    }

    #[test]
    fn single_node_topology_has_no_lookahead() {
        assert!(min_cross_latency(&islands_cluster(1)).is_err());
    }

    #[test]
    fn zero_latency_link_is_rejected() {
        let mut topo = islands_cluster(2);
        let ids = topo.node_ids();
        let zero = LinkSpec {
            base_delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 0,
        };
        topo.set_link(ids[0], ids[1], zero);
        assert!(min_cross_latency(&topo).unwrap_err().contains("zero"));
    }

    #[test]
    fn horizon_clamps_to_fence_and_end() {
        let fences = [at(12), at(30)];
        // Plain lookahead step.
        assert_eq!(horizon(at(0), SimDuration::from_millis(5), &fences, at(100)), at(5));
        // Nearest fence wins over the lookahead.
        assert_eq!(horizon(at(10), SimDuration::from_millis(5), &fences, at(100)), at(12));
        // A fence exactly at t does not stall the loop.
        assert_eq!(horizon(at(12), SimDuration::from_millis(5), &fences, at(100)), at(17));
        // End of run wins over everything.
        assert_eq!(horizon(at(98), SimDuration::from_millis(5), &fences, at(100)), at(100));
    }

    #[test]
    fn route_arrivals_is_canonical() {
        let dg = |ms: u64, dst: u32, tag: &'static [u8]| RemoteDatagram {
            at: at(ms),
            datagram: Datagram {
                src: Addr::new(NodeId(9), 1),
                dst: Addr::new(NodeId(dst), 2),
                payload: Bytes::from_static(tag),
            },
        };
        // Same outboxes, opposite channel arrival order.
        let forward = vec![
            (0, vec![dg(20, 2, b"a0-first"), dg(10, 2, b"a0-second")]),
            (1, vec![dg(10, 2, b"a1"), dg(30, 0, b"to-zero")]),
        ];
        let backward = vec![
            (1, vec![dg(10, 2, b"a1"), dg(30, 0, b"to-zero")]),
            (0, vec![dg(20, 2, b"a0-first"), dg(10, 2, b"a0-second")]),
        ];
        let f = route_arrivals(3, forward);
        let b = route_arrivals(3, backward);
        let tags = |routed: &Vec<Vec<RemoteDatagram>>, i: usize| {
            routed[i].iter().map(|d| d.datagram.payload.clone()).collect::<Vec<_>>()
        };
        assert_eq!(tags(&f, 2), tags(&b, 2));
        assert_eq!(tags(&f, 0), tags(&b, 0));
        // (at, src, send order): 10ms ties break by source island, then
        // the 20ms datagram even though it was first in its outbox.
        assert_eq!(
            tags(&f, 2),
            vec![
                Bytes::from_static(b"a0-second"),
                Bytes::from_static(b"a1"),
                Bytes::from_static(b"a0-first"),
            ]
        );
    }

    #[test]
    fn transitions_resolve_starts_then_ends() {
        let windows = [
            window(0, 10, 20, FaultKind::CrashDigi { digi: "L1".into() }),
            window(1, 20, 40, FaultKind::Degrade { loss: 0.1, extra_delay_ms: 2, extra_jitter_ms: 0 }),
            window(2, 10, 20, FaultKind::NodeDown { node: 1 }),
        ];
        let mut active = vec![false; 3];
        let (actions, dirty) = transitions_at(&windows, &mut active, at(10));
        assert_eq!(actions.len(), 2); // Kill + NodeDown
        assert!(!dirty);
        assert!(active[2]);
        // At 20ms the degrade starts and the node restores, same barrier.
        let (actions, dirty) = transitions_at(&windows, &mut active, at(20));
        assert!(dirty);
        assert!(active[1] && !active[2]);
        assert!(matches!(actions[0], FaultAction::NodeUp(1)));
        let (_, dirty) = transitions_at(&windows, &mut active, at(40));
        assert!(dirty);
        assert!(!active[1]);
    }

    #[test]
    fn reapply_links_restores_then_shapes() {
        let mut topo = islands_cluster(2);
        let baseline = topo.save_links();
        let ids = topo.node_ids();
        let windows = [window(
            0,
            0,
            10,
            FaultKind::Degrade { loss: 0.0, extra_delay_ms: 7, extra_jitter_ms: 0 },
        )];
        reapply_links(&mut topo, &baseline, &windows, &[true]);
        assert_eq!(topo.link(ids[0], ids[1]).base_delay, SimDuration::from_millis(12));
        reapply_links(&mut topo, &baseline, &windows, &[false]);
        assert_eq!(topo.link(ids[0], ids[1]).base_delay, SimDuration::from_millis(5));
    }

    /// Tests that materialize a [`Testbed`] and drive the island engine.
    mod engine {
        use super::*;

        #[test]
        fn worker_count_never_changes_digests() {
        let serial = digest_run(1, 2, &[]);
        let parallel = digest_run(2, 2, &[]);
        assert_eq!(serial.t0, parallel.t0);
        assert_eq!(serial.epochs, parallel.epochs);
        assert_eq!(serial.cross_datagrams, parallel.cross_datagrams);
        assert_eq!(serial.results, parallel.results);
        assert!(serial.epochs > 0);
        // The uplink beacons guarantee cross traffic every 500ms.
        assert!(serial.cross_datagrams > 0, "no cross-island traffic exchanged");
        // T0 alignment: both islands finish on the same clock.
        assert_eq!(serial.results[0].0, serial.results[1].0);
    }

    #[test]
    fn chaos_windows_fence_the_barrier_loop() {
        // Degrade then partition-and-heal mid-run: every transition must
        // land on a fence, recompute the lookahead, and keep the run
        // byte-identical across worker counts. A heal that let a message
        // arrive before a committed horizon would panic the injection
        // assert and fail this test.
        let faults = [
            window(
                0,
                300,
                600,
                FaultKind::Degrade { loss: 0.05, extra_delay_ms: 10, extra_jitter_ms: 2 },
            ),
            window(1, 600, 800, FaultKind::Partition { left: vec![0], right: vec![1] }),
        ];
        let serial = digest_run(1, 2, &faults);
        let parallel = digest_run(2, 2, &faults);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.epochs, parallel.epochs);
        assert!(serial.cross_datagrams > 0);
    }

    #[test]
    fn single_island_runs_whole_span_epochs() {
        let run = digest_run(1, 1, &[]);
        assert_eq!(run.results.len(), 1);
        // No cross pairs: lookahead is the whole span, one epoch.
        assert_eq!(run.epochs, 1);
        assert_eq!(run.cross_datagrams, 0);
    }

    #[test]
    fn panicking_island_fails_the_run_by_name() {
        let specs = vec![
            IslandSpec::new("ok", |env: &IslandEnv| {
                bare_island(env, SimDuration::from_millis(10))
            }),
            IslandSpec::new("boom", |_env: &IslandEnv| panic!("island exploded")),
        ];
        let err = run(
            1,
            specs,
            2,
            SimDuration::from_secs(1),
            &[],
            |_, _tb: &mut Testbed, _| (),
        )
        .unwrap_err();
        assert!(err.contains("island 1 (boom)"), "unexpected error: {err}");
        assert!(err.contains("island exploded"), "unexpected error: {err}");
    }

    #[test]
    fn missing_home_node_is_rejected() {
        let specs = vec![IslandSpec::new("rogue", |env: &IslandEnv| {
            let config = TestbedConfig { seed: env.seed, ..TestbedConfig::default() };
            Ok(Testbed::new(env.topology.clone(), Catalog::new(), config))
        })];
        let err = run(
            1,
            specs,
            0,
            SimDuration::from_secs(1),
            &[],
            |_, _tb: &mut Testbed, _| (),
        )
        .unwrap_err();
            assert!(err.contains("home_node"), "unexpected error: {err}");
        }
    }
}
