//! The testbed runtime (paper §4): a simulated cluster running the broker
//! and every digi as a microservice, plus the control plane, trace log and
//! property checker.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use digibox_broker::Broker;
use digibox_model::{Meta, Model, Value};
use digibox_net::{
    Addr, NodeId, Prng, ServiceHandle, Sim, SimConfig, SimDuration, SimTime, Topology,
};
use digibox_obs as obs;
use digibox_orchestrator::{ControlPlane, PodAction, PodPhase, PodSpec};
use digibox_registry::{InstanceDecl, Repository, SetupManifest};
use digibox_trace::{ReplaySchedule, TraceLog};

use crate::appclient::AppClient;
use crate::catalog::{Catalog, CatalogError};
use crate::cell::DigiCell;
use crate::checkpoint::CheckpointStore;
use crate::pool::DigiPool;
use crate::program::DigiProgram;
use crate::properties::{PropertyChecker, SceneProperty};
use crate::topics;

/// Simulation fidelity (paper, Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FidelityMode {
    /// Each device simulated in isolation — scene controllers do not
    /// coordinate (today's device simulators).
    DeviceCentric,
    /// Scenes ensemble their mocks (Digibox's contribution).
    #[default]
    SceneCentric,
    /// Scene-centric plus simple physical models (thermal, light) in the
    /// device programs that support them.
    Physical,
}

/// Testbed construction parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Master seed: RNG streams for links, control plane and every digi
    /// split from it.
    pub seed: u64,
    /// Mock-centric vs scene-centric simulation (paper §5).
    pub fidelity: FidelityMode,
    /// Whether the trace log records (disable only in overhead benches).
    pub logging: bool,
    /// Kernel event-storm watchdog threshold (events per virtual
    /// millisecond; 0 disables). See `digibox_net::SimConfig`.
    pub storm_threshold: u64,
    /// Snapshot every digi's model this often so a supervised restart can
    /// resume from the last checkpoint instead of cold-starting. Snapshots
    /// are pure reads (no sim events, no RNG draws), so they do not
    /// perturb determinism. `None` disables checkpointing.
    pub checkpoint_every: Option<SimDuration>,
    /// Broker idle-session expiry (see `Broker::set_session_timeout`).
    /// Required for partition recovery: probing a dead/unreachable client
    /// clears the broker's stale session *and* transport state, letting
    /// the client reconnect cleanly after the partition heals. `None`
    /// (default) keeps the broker timer-free so quiesced testbeds drain.
    pub broker_session_timeout: Option<SimDuration>,
    /// Whether the deterministic observability layer (`digibox_obs`)
    /// records metrics and spans for this testbed. Metrics never perturb
    /// the simulation — disabling them changes no event order, RNG draw or
    /// digest — so the default is on; turn off only to measure recording
    /// overhead. Enabling resets the thread's collector, so each testbed
    /// starts from a zeroed registry.
    pub metrics: bool,
    /// Island-scoped placement (`core::islands`, DESIGN.md §15): when set,
    /// this testbed owns exactly one node of a shared multi-node topology.
    /// The broker binds at `(home, 1883)` instead of the first node, and
    /// every *other* node is cordoned at construction so the control plane
    /// never schedules a pod onto a foreign island's machine. `None`
    /// (default) keeps the classic whole-cluster behaviour.
    pub home_node: Option<u32>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 42,
            fidelity: FidelityMode::SceneCentric,
            logging: true,
            storm_threshold: digibox_net::SimConfig::default().storm_threshold,
            checkpoint_every: Some(SimDuration::from_secs(5)),
            broker_session_timeout: None,
            metrics: true,
            home_node: None,
        }
    }
}

/// Testbed errors.
#[derive(Debug)]
pub enum TestbedError {
    /// A type name or program id failed to resolve.
    Catalog(CatalogError),
    /// No digi with this name is running.
    UnknownDigi(String),
    /// The digi exists but its program is not a scene.
    NotAScene(String),
    /// The control plane rejected a pod operation.
    Orchestrator(digibox_orchestrator::PodError),
    /// The type registry rejected an operation.
    Registry(digibox_registry::RegistryError),
    /// A model operation failed.
    Model(digibox_model::ModelError),
    /// Anything else that prevented setup.
    Setup(String),
}

impl fmt::Display for TestbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestbedError::Catalog(e) => write!(f, "{e}"),
            TestbedError::UnknownDigi(n) => write!(f, "no digi named {n:?}"),
            TestbedError::NotAScene(n) => write!(f, "{n:?} is not a scene"),
            TestbedError::Orchestrator(e) => write!(f, "{e}"),
            TestbedError::Registry(e) => write!(f, "{e}"),
            TestbedError::Model(e) => write!(f, "{e}"),
            TestbedError::Setup(m) => write!(f, "setup error: {m}"),
        }
    }
}

impl std::error::Error for TestbedError {}

impl From<CatalogError> for TestbedError {
    fn from(e: CatalogError) -> Self {
        TestbedError::Catalog(e)
    }
}
impl From<digibox_orchestrator::PodError> for TestbedError {
    fn from(e: digibox_orchestrator::PodError) -> Self {
        TestbedError::Orchestrator(e)
    }
}
impl From<digibox_registry::RegistryError> for TestbedError {
    fn from(e: digibox_registry::RegistryError) -> Self {
        TestbedError::Registry(e)
    }
}
impl From<digibox_model::ModelError> for TestbedError {
    fn from(e: digibox_model::ModelError) -> Self {
        TestbedError::Model(e)
    }
}

/// The pod hosting the dedicated digi `name`. Pod names lowercase the
/// digi name, so `L1` and `l1` would share one pod.
fn pod_name(name: &str) -> String {
    format!("digi-{}", name.to_lowercase())
}

/// A dedicated digi: its one-cell host plus what `dbox commit` records.
struct DigiEntry {
    handle: ServiceHandle<DigiPool>,
    addr: Addr,
    kind: String,
    version: String,
    managed: bool,
    params: BTreeMap<String, Value>,
}

/// A crashed digi awaiting its supervised restart.
struct PendingRestart {
    due: SimTime,
    name: String,
    kind: String,
    params: BTreeMap<String, Value>,
    managed: bool,
    /// Children the digi had attached when it died.
    attach: Vec<String>,
    /// Last checkpointed field tree, restored after `Program::init`.
    checkpoint: Option<Value>,
    /// Failed placement attempts so far (node cordoned, cluster full…).
    attempts: u32,
}

/// Give up re-placing a crashed digi after this many failed attempts;
/// with per-attempt backoff this spans well past any realistic outage.
const MAX_RESTART_ATTEMPTS: u32 = 120;

/// Pre-interned observability handles for the control-plane and
/// checkpoint paths the testbed itself drives.
struct TestbedObs {
    restarts: obs::CounterId,
    restart_retries: obs::CounterId,
    restart_abandoned: obs::CounterId,
    broker_restarts: obs::CounterId,
    checkpoint_passes: obs::CounterId,
    checkpoint_snapshots: obs::CounterId,
    replay_schedules: obs::CounterId,
    replay_steps: obs::CounterId,
    replay_resumed: obs::CounterId,
    digis: obs::GaugeId,
    pending_restarts: obs::GaugeId,
    f_restart: obs::FrameId,
    f_checkpoint: obs::FrameId,
}

impl TestbedObs {
    fn new() -> TestbedObs {
        TestbedObs {
            restarts: obs::counter("control.restarts"),
            restart_retries: obs::counter("control.restart_retries"),
            restart_abandoned: obs::counter("control.restart_abandoned"),
            broker_restarts: obs::counter("control.broker_restarts"),
            checkpoint_passes: obs::counter("checkpoint.passes"),
            checkpoint_snapshots: obs::counter("checkpoint.snapshots"),
            replay_schedules: obs::counter("replay.schedules"),
            replay_steps: obs::counter("replay.steps"),
            replay_resumed: obs::counter("replay.resumed_states"),
            digis: obs::gauge("testbed.digis"),
            pending_restarts: obs::gauge("testbed.pending_restarts"),
            f_restart: obs::frame("control.restart"),
            f_checkpoint: obs::frame("checkpoint.write"),
        }
    }
}

/// The Digibox testbed.
pub struct Testbed {
    sim: Sim,
    control: Rc<RefCell<ControlPlane>>,
    broker: ServiceHandle<Broker>,
    broker_addr: Addr,
    catalog: Catalog,
    log: TraceLog,
    digis: BTreeMap<String, DigiEntry>,
    checker: PropertyChecker,
    /// Trace cursor for feeding the property checker.
    checker_cursor: Option<u64>,
    next_digi_port: u16,
    next_app_port: u16,
    /// The developer-console MQTT session used by `edit`/`replay`.
    operator: Option<ServiceHandle<AppClient>>,
    /// Pools created via [`Testbed::run_pool`].
    pools: Vec<ServiceHandle<DigiPool>>,
    pending_restarts: Vec<PendingRestart>,
    /// When a killed broker's replacement rebinds (None = broker is up).
    pending_broker_restart: Option<SimTime>,
    checkpoints: CheckpointStore,
    /// Next periodic checkpoint pass (None when checkpointing is off).
    next_checkpoint: Option<SimTime>,
    storm_logged: bool,
    obs: TestbedObs,
    config: TestbedConfig,
}

impl Testbed {
    /// Build a testbed over an explicit topology; the broker binds on the
    /// first node (port 1883, like EMQX).
    pub fn new(topology: Topology, catalog: Catalog, config: TestbedConfig) -> Testbed {
        assert!(!topology.is_empty(), "testbed needs at least one node");
        // Enable/disable recording before anything interns keys, and zero
        // the thread's collector so metrics never leak across testbeds
        // (sweep workers reuse threads for many seeds).
        obs::set_enabled(config.metrics);
        obs::reset();
        let nodes: Vec<(NodeId, _)> = topology
            .node_ids()
            .into_iter()
            .map(|id| (id, topology.node(id).expect("listed node exists").clone()))
            .collect();
        let broker_node = match config.home_node {
            Some(home) => {
                let id = NodeId(home);
                assert!(
                    nodes.iter().any(|(n, _)| *n == id),
                    "home_node {home} is not in the topology"
                );
                id
            }
            None => nodes[0].0,
        };
        let mut sim = Sim::new(
            topology,
            SimConfig {
                seed: config.seed,
                storm_threshold: config.storm_threshold,
                ..Default::default()
            },
        );
        let control = Rc::new(RefCell::new(ControlPlane::new(&nodes, config.seed ^ 0x5EED)));
        if config.home_node.is_some() {
            let mut cp = control.borrow_mut();
            for (id, _) in &nodes {
                if *id != broker_node {
                    cp.set_cordon(*id, true);
                }
            }
        }
        let broker_addr = Addr::new(broker_node, 1883);
        let broker = Broker::new(broker_addr);
        if let Some(timeout) = config.broker_session_timeout {
            broker.borrow_mut().set_session_timeout(Some(timeout));
        }
        sim.bind(broker_addr, broker.clone());
        let log = if config.logging { TraceLog::new() } else { TraceLog::disabled() };
        let next_checkpoint = config.checkpoint_every.map(|every| SimTime::ZERO + every);
        Testbed {
            sim,
            control,
            broker,
            broker_addr,
            catalog,
            log,
            digis: BTreeMap::new(),
            checker: PropertyChecker::new(),
            checker_cursor: None,
            next_digi_port: 10_000,
            next_app_port: 50_000,
            operator: None,
            pools: Vec::new(),
            pending_restarts: Vec::new(),
            pending_broker_restart: None,
            checkpoints: CheckpointStore::new(),
            next_checkpoint,
            storm_logged: false,
            obs: TestbedObs::new(),
            config,
        }
    }

    /// The paper's local environment: one laptop node.
    pub fn laptop(catalog: Catalog, config: TestbedConfig) -> Testbed {
        Testbed::new(Topology::single_laptop(), catalog, config)
    }

    /// The paper's cloud environment: `n` m5.xlarge nodes in one VPC.
    pub fn ec2(n: u32, catalog: Catalog, config: TestbedConfig) -> Testbed {
        Testbed::new(Topology::ec2_cluster(n), catalog, config)
    }

    // ---- accessors ----

    /// The underlying simulation kernel.
    pub fn sim(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The shared trace log.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Where the broker is bound.
    pub fn broker_addr(&self) -> Addr {
        self.broker_addr
    }

    /// The broker service handle.
    pub fn broker(&self) -> &ServiceHandle<Broker> {
        &self.broker
    }

    /// The type catalog this testbed instantiates from.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The configuration the testbed was built with.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// Names of all running digis, sorted.
    pub fn digi_names(&self) -> Vec<String> {
        self.digis.keys().cloned().collect()
    }

    /// Number of running digis: dedicated ones plus every pool member.
    pub fn digi_count(&self) -> usize {
        self.digis.len() + self.pools.iter().map(|p| p.borrow().len()).sum::<usize>()
    }

    /// The service address of a digi's REST API.
    pub fn digi_addr(&self, name: &str) -> crate::Result<Addr> {
        self.digis
            .get(name)
            .map(|d| d.addr)
            .ok_or_else(|| TestbedError::UnknownDigi(name.to_string()))
    }

    /// Borrow a digi's host handle (tests, advanced drivers): the
    /// one-cell [`DigiPool`] holding `name`.
    pub fn digi(&self, name: &str) -> crate::Result<ServiceHandle<DigiPool>> {
        self.digis
            .get(name)
            .map(|d| d.handle.clone())
            .ok_or_else(|| TestbedError::UnknownDigi(name.to_string()))
    }

    /// Run `f` on a running digi's cell.
    fn with_cell<R>(&self, name: &str, f: impl FnOnce(&mut DigiCell) -> R) -> crate::Result<R> {
        let handle = self.digi(name)?;
        let mut host = handle.borrow_mut();
        let cell = host.cell_mut(name).expect("a dedicated host holds its digi");
        Ok(f(cell))
    }

    /// Whether the running digi `parent` has `child` attached.
    fn has_attached(entry: &DigiEntry, parent: &str, child: &str) -> bool {
        entry.handle.borrow().model(parent).is_some_and(|m| m.meta.attach.iter().any(|c| c == child))
    }

    /// Cluster utilization: (pods, requested cpu millis, cpu capacity
    /// millis) across all nodes — the "compute resource budget" of the
    /// paper's §6 efficiency question.
    pub fn cluster_utilization(&self) -> (u32, u64, u64) {
        let control = self.control.borrow();
        let sched = control.scheduler();
        let mut pods = 0;
        let mut used = 0;
        let mut cap = 0;
        for (_, alloc) in sched.nodes() {
            pods += alloc.pods;
            used += alloc.cpu_allocated;
            cap += alloc.spec.cpu_millis;
        }
        (pods, used, cap)
    }

    /// Pod phase of a digi (orchestrator view). Works for crashed digis
    /// too (their pod records persist through the backoff window).
    pub fn pod_phase(&self, name: &str) -> Option<PodPhase> {
        self.control.borrow().phase(&pod_name(name))
    }

    /// The checkpoint store (chaos scorecards and tests inspect it).
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.checkpoints
    }

    /// `(digi name, checkpoint digest hex)` for every checkpointed digi,
    /// sorted by name — the byte-comparable checkpoint witness used by the
    /// determinism tests (serial vs island runs must agree exactly).
    pub fn checkpoint_digests(&self) -> Vec<(String, String)> {
        self.checkpoints
            .names()
            .into_iter()
            .filter_map(|n| {
                let d = self.checkpoints.info(&n)?.digest.to_string();
                Some((n, d))
            })
            .collect()
    }

    /// How many times a digi's MQTT session was lost (transport-level
    /// broker failure observed by the digi), if it is running.
    pub fn broker_losses(&self, name: &str) -> Option<u64> {
        self.digis.get(name).map(|e| e.handle.borrow().broker_losses())
    }

    /// Snapshot the observability registry for this testbed (`dbox stats`,
    /// `dbox profile`, chaos scorecards). Late-bound gauges — values that
    /// only make sense at observation time, like population counts — are
    /// mirrored in before the freeze so the snapshot is self-contained.
    /// Returns an empty snapshot when `TestbedConfig::metrics` is off.
    pub fn obs_snapshot(&mut self) -> obs::Snapshot {
        if !obs::enabled() {
            // The thread's intern tables outlive `obs::reset`, so a plain
            // snapshot would list every name an earlier testbed on this
            // thread registered, at zero.
            return obs::Snapshot {
                clock_ns: 0,
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
                spans: Vec::new(),
            };
        }
        obs::set(self.obs.digis, self.digis.len() as i64);
        obs::set(self.obs.pending_restarts, self.pending_restarts.len() as i64);
        obs::clock(self.sim.now().as_nanos());
        obs::snapshot()
    }

    // ---- dbox run/stop ----

    /// `dbox run <Type> <name>` — create and start a digi.
    pub fn run(&mut self, kind: &str, name: &str) -> crate::Result<()> {
        self.run_with(kind, name, BTreeMap::new(), false)
    }

    /// `dbox run` with meta params and managed flag.
    pub fn run_with(
        &mut self,
        kind: &str,
        name: &str,
        params: BTreeMap<String, Value>,
        managed: bool,
    ) -> crate::Result<()> {
        self.start_digi(kind, name, params, managed, None, false)
    }

    /// The shared start path. `checkpoint` (a restored field tree) is
    /// applied after `Program::init`, so a supervised restart resumes from
    /// the last snapshot instead of cold-starting. `pod_exists` requeues
    /// the crashed pod through the control plane instead of creating a new
    /// one, preserving its restart count (and thus its backoff history).
    fn start_digi(
        &mut self,
        kind: &str,
        name: &str,
        params: BTreeMap<String, Value>,
        managed: bool,
        checkpoint: Option<Value>,
        pod_exists: bool,
    ) -> crate::Result<()> {
        if self.digis.contains_key(name) {
            return Err(TestbedError::Setup(format!("digi {name:?} already running")));
        }
        let (mut model, program, rng) = self.make_digi(kind, name, params.clone(), managed)?;
        if let Some(fields) = checkpoint {
            model.set_fields(fields)?;
        }
        let pod = pod_name(name);
        if pod_exists {
            self.control.borrow_mut().requeue(&pod);
        } else {
            let pod_spec =
                if program.is_scene() { PodSpec::scene(&pod) } else { PodSpec::mock(&pod) };
            self.control.borrow_mut().create_pod(pod_spec)?;
        }
        let (addr, overhead, start_delay) = self.place(&pod)?;
        let version = model.meta.version.clone();
        let handle = DigiPool::dedicated(addr, self.broker_addr, overhead, name, &rng);
        let scene_logic = self.scene_logic();
        handle.borrow_mut().host(&mut self.sim, model, program, rng, self.log.clone(), scene_logic);
        self.digis.insert(
            name.to_string(),
            DigiEntry {
                handle: handle.clone(),
                addr,
                kind: kind.to_string(),
                version,
                managed,
                params,
            },
        );
        self.bind_after(start_delay, addr, handle, pod);
        Ok(())
    }

    /// The one model-setup path (dedicated and pooled digis alike):
    /// instantiate `kind` as `name` under the testbed's fidelity rules and
    /// run program init. Returns the model, its program and the digi's RNG
    /// stream.
    fn make_digi(
        &self,
        kind: &str,
        name: &str,
        mut params: BTreeMap<String, Value>,
        managed: bool,
    ) -> crate::Result<(Model, Box<dyn DigiProgram>, Prng)> {
        let mut program = self.catalog.make(kind)?;
        let mut model = program.schema().instantiate(name);
        if self.config.fidelity == FidelityMode::Physical {
            params.entry("fidelity".to_string()).or_insert(Value::from("physical"));
        }
        model.meta = Meta {
            kind: kind.to_string(),
            version: program.version().to_string(),
            name: name.to_string(),
            managed: match self.config.fidelity {
                // Device-centric: every mock generates independently.
                FidelityMode::DeviceCentric => managed && program.is_scene(),
                _ => managed,
            },
            attach: Vec::new(),
            params,
        };
        program.init(&mut model);
        let rng = self.sim.rng_for(&format!("digi/{name}/{}", model.meta.seed()));
        Ok((model, program, rng))
    }

    /// Whether scenes run their coordination logic (off in device-centric
    /// mode).
    fn scene_logic(&self) -> bool {
        self.config.fidelity != FidelityMode::DeviceCentric
    }

    /// The one placement path: reconcile the control plane for the created
    /// (or requeued) pod and give its host a fresh port on the chosen
    /// node. Returns the host address, the node's per-message service
    /// overhead and the container start delay.
    fn place(&mut self, pod_name: &str) -> crate::Result<(Addr, SimDuration, SimDuration)> {
        let actions = self.control.borrow_mut().reconcile();
        let mut placed = None;
        for action in actions {
            match action {
                PodAction::Start { pod, node, delay, .. } if pod == pod_name => {
                    placed = Some((node, delay));
                }
                PodAction::MarkUnschedulable { pod } if pod == pod_name => {
                    return Err(TestbedError::Setup(format!(
                        "pod {pod} unschedulable: cluster is full"
                    )));
                }
                _ => {}
            }
        }
        let (node, start_delay) = placed
            .ok_or_else(|| TestbedError::Setup(format!("pod {pod_name} was not placed")))?;
        let addr = Addr::new(node, self.next_digi_port);
        self.next_digi_port = self.next_digi_port.checked_add(1).expect("port space exhausted");
        let overhead = self
            .sim
            .topology()
            .node(node)
            .map(|n| n.service_overhead)
            .unwrap_or(SimDuration::ZERO);
        Ok((addr, overhead, start_delay))
    }

    /// Container start: bind the host after the startup delay.
    fn bind_after(
        &mut self,
        delay: SimDuration,
        addr: Addr,
        host: ServiceHandle<DigiPool>,
        pod_name: String,
    ) {
        let control = self.control.clone();
        self.sim.call_after(delay, move |sim| {
            sim.bind(addr, host);
            control.borrow_mut().mark_running(&pod_name);
        });
    }

    /// `dbox stop <name>` — stop and remove a digi.
    pub fn stop(&mut self, name: &str) -> crate::Result<()> {
        let entry = self
            .digis
            .remove(name)
            .ok_or_else(|| TestbedError::UnknownDigi(name.to_string()))?;
        self.control.borrow_mut().delete_pod(&pod_name(name))?;
        self.sim.unbind(entry.addr);
        self.checkpoints.forget(name);
        self.log.lifecycle(self.sim.now(), name, "stopped", "");
        // Detach from any scene that references it.
        let parents: Vec<String> = self
            .digis
            .iter()
            .filter(|(n, e)| Self::has_attached(e, n, name))
            .map(|(n, _)| n.clone())
            .collect();
        for parent in parents {
            let handle = self.digis[&parent].handle.clone();
            handle.borrow_mut().detach_child(&mut self.sim, &parent, name);
        }
        Ok(())
    }

    /// Kill a digi's process without deleting the pod (fault injection).
    /// The control plane backs the pod off (exponentially, capped) and the
    /// testbed restarts it from its last checkpoint — like a crashed
    /// container whose volume survived. The pod record persists so
    /// consecutive crashes accumulate restart counts (and backoff).
    pub fn kill(&mut self, name: &str) -> crate::Result<()> {
        let entry = self
            .digis
            .get(name)
            .ok_or_else(|| TestbedError::UnknownDigi(name.to_string()))?;
        let addr = entry.addr;
        let pod = pod_name(name);
        let kind = entry.kind.clone();
        let params = entry.params.clone();
        let managed = entry.managed;
        self.sim.unbind(addr);
        self.log.lifecycle(self.sim.now(), name, "killed", "");
        let attach = self.with_cell(name, |cell| cell.model().meta.attach.clone())?;
        self.digis.remove(name);
        self.control.borrow_mut().report_exit(&pod);
        let restart_delay = self.control.borrow().restart_delay_for(&pod);
        let checkpoint = self.checkpoints.restore(name);
        // Rebuild outside the event (deterministic order): schedule a
        // testbed-level restart marker the driver must apply.
        self.pending_restarts.push(PendingRestart {
            due: self.sim.now() + restart_delay,
            name: name.to_string(),
            kind,
            params,
            managed,
            attach,
            checkpoint,
            attempts: 0,
        });
        Ok(())
    }

    /// Fail a whole node: cordon it so nothing reschedules onto it, then
    /// kill every digi it hosts. Their pods back off and — once the
    /// backoff elapses — reschedule onto surviving nodes, restoring from
    /// their checkpoints. Restore capacity with [`Testbed::restore_node`].
    pub fn fail_node(&mut self, node: NodeId) -> crate::Result<()> {
        self.control.borrow_mut().set_cordon(node, true);
        self.log.lifecycle(self.sim.now(), "testbed", "node-down", &format!("node {}", node.0));
        let victims: Vec<String> = self
            .digis
            .iter()
            .filter(|(_, e)| e.addr.node == node)
            .map(|(n, _)| n.clone())
            .collect();
        for name in victims {
            self.kill(&name)?;
        }
        Ok(())
    }

    /// Uncordon a failed node; pending restarts that were unplaceable
    /// retry on their backoff schedule and can land here again.
    pub fn restore_node(&mut self, node: NodeId) {
        self.control.borrow_mut().set_cordon(node, false);
        self.log.lifecycle(self.sim.now(), "testbed", "node-up", &format!("node {}", node.0));
    }

    /// Kill the broker pod (fault injection): durable sessions are
    /// exported into the checkpoint store (`broker-session/<client>`
    /// refs), the endpoint unbinds, and after `outage` a fresh broker
    /// imports them and rebinds on the same address. Clients ride out the
    /// outage on their transport retries: once those exhaust they observe
    /// `BrokerLost` and redial, and because their sessions are persistent
    /// the resumed broker replays in-flight QoS 1/2 handshakes — no
    /// message is lost or duplicated across the crash. Calling this while
    /// a restart is already pending only extends the outage.
    pub fn kill_broker(&mut self, outage: SimDuration) {
        let now = self.sim.now();
        if self.pending_broker_restart.is_none() {
            let snaps = self.broker.borrow().export_sessions();
            self.checkpoints.save_broker_sessions(&snaps);
            self.sim.unbind(self.broker_addr);
            self.log.lifecycle(
                now,
                "broker",
                "killed",
                &format!("{} session(s) exported", snaps.len()),
            );
        }
        let due = now + outage;
        self.pending_broker_restart =
            Some(self.pending_broker_restart.map_or(due, |d| d.max(due)));
    }

    /// Whether the broker is currently down (killed, replacement not yet
    /// bound).
    pub fn broker_down(&self) -> bool {
        self.pending_broker_restart.is_some()
    }

    fn apply_broker_restart(&mut self) {
        let Some(due) = self.pending_broker_restart else {
            return;
        };
        let now = self.sim.now();
        if now < due {
            return;
        }
        self.pending_broker_restart = None;
        let broker = Broker::new(self.broker_addr);
        if let Some(timeout) = self.config.broker_session_timeout {
            broker.borrow_mut().set_session_timeout(Some(timeout));
        }
        let snaps = self.checkpoints.restore_broker_sessions();
        let n = snaps.len();
        broker.borrow_mut().import_sessions(snaps);
        self.sim.bind(self.broker_addr, broker.clone());
        self.broker = broker;
        obs::inc(self.obs.broker_restarts);
        self.log.lifecycle(now, "broker", "restarted", &format!("{n} session(s) imported"));
    }

    // ---- attach / edit / check ----

    /// `dbox attach <child> <parent>` — attach a digi to a scene.
    pub fn attach(&mut self, child: &str, parent: &str) -> crate::Result<()> {
        let child_kind = self
            .digis
            .get(child)
            .ok_or_else(|| TestbedError::UnknownDigi(child.to_string()))?
            .kind
            .clone();
        if !self.with_cell(parent, |cell| cell.is_scene())? {
            return Err(TestbedError::NotAScene(parent.to_string()));
        }
        let handle = self.digi(parent)?;
        handle.borrow_mut().attach_child(&mut self.sim, parent, child, &child_kind);
        Ok(())
    }

    /// `dbox attach -d` — detach.
    pub fn detach(&mut self, child: &str, parent: &str) -> crate::Result<()> {
        let handle = self.digi(parent)?;
        handle.borrow_mut().detach_child(&mut self.sim, parent, child);
        Ok(())
    }

    /// `dbox check <name>` — snapshot a digi's model.
    pub fn check(&mut self, name: &str) -> crate::Result<Model> {
        self.with_cell(name, |cell| cell.model().clone())
    }

    /// `dbox edit <name>` — set intent fields through the real message
    /// path (MQTT publish to the digi's intent topic).
    pub fn edit(&mut self, name: &str, updates: Value) -> crate::Result<()> {
        self.digi_addr(name)?; // existence check
        let topic = topics::intent(name);
        let payload = updates.to_json().into_bytes();
        // Publish directly through the broker service (the testbed acts as
        // the developer's console, which in the paper is a CLI process with
        // its own MQTT session).
        self.publish_as_operator(&topic, payload);
        Ok(())
    }

    /// Toggle a digi's `managed` flag (pausing/resuming its own event
    /// generation).
    pub fn set_managed(&mut self, name: &str, managed: bool) -> crate::Result<()> {
        self.with_cell(name, |cell| cell.set_managed(managed))?;
        if let Some(e) = self.digis.get_mut(name) {
            e.managed = managed;
        }
        Ok(())
    }

    fn publish_as_operator(&mut self, topic: &str, payload: Vec<u8>) {
        // Route through the broker like any client: a lightweight operator
        // session bound lazily at a reserved port on the broker's node.
        let op_addr = Addr::new(self.broker_addr.node, 65_000);
        if !self.sim.is_bound(op_addr) {
            let client = AppClient::with_mqtt(op_addr, self.broker_addr, "dbox-operator");
            self.sim.bind(op_addr, client.clone());
            self.operator = Some(client);
            self.sim.run_for(SimDuration::from_millis(5)); // let CONNECT settle
        }
        let client = self.operator.clone().expect("operator bound above");
        client.borrow_mut().publish(&mut self.sim, topic, payload, digibox_broker::QoS::AtLeastOnce);
    }

    // ---- pooled (FaaS-style) execution, paper §6 ----

    /// Run `names` instances of `kind` inside **one** pooled executor
    /// service (one pod, one broker session, one timer wheel) instead of
    /// one host each — the consolidation the paper's §6 "efficient
    /// simulation" question asks about. Pooled digis are set up exactly
    /// like dedicated ones and speak the same topics and REST routes
    /// (`/digi/<name>/...`), but are not addressable through
    /// `check`/`edit`/`attach` (use the returned handle). The
    /// `e9_faas_pooling` bench compares both modes.
    pub fn run_pool(
        &mut self,
        kind: &str,
        names: &[String],
        params: BTreeMap<String, Value>,
        managed: bool,
    ) -> crate::Result<(ServiceHandle<DigiPool>, Addr)> {
        let members = names
            .iter()
            .map(|name| self.make_digi(kind, name, params.clone(), managed))
            .collect::<crate::Result<Vec<_>>>()?;
        // One pod for the whole pool; resources scale sub-linearly with
        // occupancy (the whole point of consolidation).
        let pod_name = format!("pool-{}", self.next_digi_port);
        let pod_spec = PodSpec::scene(&pod_name)
            .with_resources(10 + names.len() as u64 / 4, 16 + names.len() as u64 / 8);
        self.control.borrow_mut().create_pod(pod_spec)?;
        let (addr, overhead, start_delay) = self.place(&pod_name)?;
        let pool = DigiPool::new(addr, self.broker_addr, overhead);
        let scene_logic = self.scene_logic();
        {
            let mut p = pool.borrow_mut();
            for (model, program, rng) in members {
                p.host(&mut self.sim, model, program, rng, self.log.clone(), scene_logic);
            }
        }
        self.bind_after(start_delay, addr, pool.clone(), pod_name);
        self.pools.push(pool.clone());
        Ok((pool, addr))
    }

    // ---- applications ----

    /// Create an application endpoint on `node` (REST only).
    pub fn app(&mut self, node: NodeId) -> ServiceHandle<AppClient> {
        let addr = Addr::new(node, self.next_app_port);
        self.next_app_port = self.next_app_port.checked_add(1).expect("app port space exhausted");
        let client = AppClient::new(addr);
        self.sim.bind(addr, client.clone());
        client
    }

    /// Create an application endpoint with an MQTT session.
    pub fn app_with_mqtt(&mut self, node: NodeId, client_id: &str) -> ServiceHandle<AppClient> {
        let addr = Addr::new(node, self.next_app_port);
        self.next_app_port = self.next_app_port.checked_add(1).expect("app port space exhausted");
        let client = AppClient::with_mqtt(addr, self.broker_addr, client_id);
        self.sim.bind(addr, client.clone());
        client
    }

    /// Create an application endpoint with a durable MQTT session
    /// (`clean_session = false`): it survives broker restarts and redials
    /// automatically on `BrokerLost`.
    pub fn app_with_persistent_mqtt(
        &mut self,
        node: NodeId,
        client_id: &str,
    ) -> ServiceHandle<AppClient> {
        let addr = Addr::new(node, self.next_app_port);
        self.next_app_port = self.next_app_port.checked_add(1).expect("app port space exhausted");
        let client = AppClient::with_persistent_mqtt(addr, self.broker_addr, client_id);
        self.sim.bind(addr, client.clone());
        client
    }

    // ---- time ----

    /// Advance virtual time, then feed new model changes to the property
    /// checker. Pauses at restart and checkpoint marks along the way.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.sim.now() + span;
        loop {
            let next_restart = self.pending_restarts.iter().map(|r| r.due).min();
            let next_mark = [next_restart, self.next_checkpoint, self.pending_broker_restart]
                .into_iter()
                .flatten()
                .min();
            match next_mark {
                Some(t) if t <= deadline => {
                    self.sim.run_until(t);
                    self.apply_broker_restart();
                    self.apply_due_restarts();
                    self.take_due_checkpoints();
                }
                _ => {
                    self.sim.run_until(deadline);
                    break;
                }
            }
        }
        self.poll_storm();
        self.poll_properties();
    }

    fn apply_due_restarts(&mut self) {
        let now = self.sim.now();
        let due: Vec<PendingRestart> = {
            let (due, rest): (Vec<_>, Vec<_>) =
                std::mem::take(&mut self.pending_restarts).into_iter().partition(|r| r.due <= now);
            self.pending_restarts = rest;
            due
        };
        for r in due {
            let _span = obs::enter(self.obs.f_restart);
            match self.start_digi(&r.kind, &r.name, r.params.clone(), r.managed, r.checkpoint.clone(), true)
            {
                Ok(()) => {
                    obs::inc(self.obs.restarts);
                    let detail =
                        if r.checkpoint.is_some() { "from checkpoint" } else { "cold start" };
                    self.log.lifecycle(now, &r.name, "restarted", detail);
                    // Re-attach the digi's own children; their retained
                    // models re-mirror the scene on subscribe.
                    for child in &r.attach {
                        let _ = self.attach(child, &r.name);
                    }
                    // Re-attach to any parent scene that still references
                    // it (idempotent; refreshes the parent's mirror once
                    // the restarted digi republishes its model).
                    let parents: Vec<String> = self
                        .digis
                        .iter()
                        .filter(|(n, e)| n.as_str() != r.name && Self::has_attached(e, n, &r.name))
                        .map(|(n, _)| n.clone())
                        .collect();
                    for parent in parents {
                        let _ = self.attach(&r.name, &parent);
                    }
                }
                Err(_) if r.attempts < MAX_RESTART_ATTEMPTS => {
                    // Placement failed (node cordoned, cluster full…):
                    // retry on the pod's backoff schedule.
                    obs::inc(self.obs.restart_retries);
                    let delay = self.control.borrow().restart_delay_for(&pod_name(&r.name));
                    self.pending_restarts.push(PendingRestart {
                        due: now + delay,
                        attempts: r.attempts + 1,
                        ..r
                    });
                }
                Err(e) => {
                    obs::inc(self.obs.restart_abandoned);
                    self.log.lifecycle(now, &r.name, "restart-abandoned", &e.to_string());
                }
            }
        }
    }

    /// Snapshot every running digi's model into the checkpoint store now:
    /// dedicated digis in name order, then each pool's members.
    pub fn checkpoint_all(&mut self) {
        let _span = obs::enter(self.obs.f_checkpoint);
        obs::inc(self.obs.checkpoint_passes);
        let now = self.sim.now();
        for host in self.digis.values().map(|e| &e.handle).chain(&self.pools) {
            for cell in host.borrow().cells() {
                let model = cell.model();
                self.checkpoints.save(cell.name(), model.fields(), model.revision(), now);
                obs::inc(self.obs.checkpoint_snapshots);
            }
        }
    }

    /// Restore a pooled digi's fields from its last checkpoint (taken by
    /// [`Testbed::checkpoint_all`]). The cell keeps its place and tick
    /// group. Returns `false` when the digi has no checkpoint or is not
    /// hosted in any pool.
    pub fn restore_pooled(&mut self, name: &str) -> bool {
        let Some(fields) = self.checkpoints.restore(name) else {
            return false;
        };
        let pools = self.pools.clone();
        pools.iter().any(|pool| pool.borrow_mut().force_fields(&mut self.sim, name, fields.clone()))
    }

    fn take_due_checkpoints(&mut self) {
        let (Some(every), Some(due)) = (self.config.checkpoint_every, self.next_checkpoint) else {
            return;
        };
        let now = self.sim.now();
        if now < due {
            return;
        }
        self.checkpoint_all();
        let mut next = due;
        while next <= now {
            next += every;
        }
        self.next_checkpoint = Some(next);
    }

    // ---- properties ----

    /// Register a scene property, checked online.
    pub fn add_property(&mut self, property: SceneProperty) {
        self.checker.add(property);
    }

    /// All violations detected so far.
    pub fn violations(&self) -> Vec<digibox_trace::TraceRecord> {
        self.log.violations()
    }

    /// Whether the kernel's event-storm watchdog tripped — almost always a
    /// scene whose coordination never converges (see
    /// `digibox_net::SimConfig::storm_threshold`).
    pub fn storm_detected(&self) -> bool {
        self.sim.storm_detected()
    }

    fn poll_storm(&mut self) {
        if !self.storm_logged && self.sim.storm_detected() {
            self.storm_logged = true;
            self.log.violation(
                self.sim.now(),
                "testbed",
                "kernel/event-storm",
                "event storm detected: a coordination loop is not converging                  (check that scene handlers are pure functions of their model state)",
            );
        }
    }

    fn poll_properties(&mut self) {
        if self.checker.properties().is_empty() {
            return;
        }
        let records = self.log.since(self.checker_cursor);
        if let Some(last) = records.last() {
            self.checker_cursor = Some(last.seq);
        }
        for r in &records {
            if let digibox_trace::RecordKind::ModelChange { fields, .. } = &r.kind {
                self.checker.observe(r.ts, &r.source, fields.clone());
            }
        }
        self.checker.advance(self.sim.now());
        for v in self.checker.take_violations() {
            self.log.violation(v.at, "testbed", &v.property, &v.detail);
        }
    }

    // ---- commit / push / pull / recreate ----

    /// `dbox commit` — snapshot the current setup as a manifest plus the
    /// type packages it needs.
    pub fn snapshot(&self, setup_name: &str) -> crate::Result<SetupManifest> {
        let manifest = self.describe(setup_name);
        manifest.validate().map_err(TestbedError::Setup)?;
        Ok(manifest)
    }

    /// The current ensemble as a manifest, **without** validating it.
    /// `dbox lint` uses this: a lint pass must see a broken ensemble as-is
    /// and report every finding, not stop at the first validation error.
    pub fn describe(&self, setup_name: &str) -> SetupManifest {
        let mut manifest = SetupManifest::new(setup_name, self.config.seed);
        for (name, entry) in &self.digis {
            manifest.instances.push(InstanceDecl {
                name: name.clone(),
                kind: entry.kind.clone(),
                version: entry.version.clone(),
                managed: entry.managed,
                params: entry.params.clone(),
            });
            if let Some(model) = entry.handle.borrow().model(name) {
                for child in &model.meta.attach {
                    manifest.attachments.push((child.clone(), name.clone()));
                }
            }
        }
        manifest.attachments.sort();
        manifest
    }

    /// Registered scene properties (for ensemble introspection / lint).
    pub fn properties(&self) -> &[crate::SceneProperty] {
        self.checker.properties()
    }

    /// `dbox commit <setup> <ref>` into a repository.
    pub fn commit(
        &self,
        repo: &mut Repository,
        ref_name: &str,
        message: &str,
        setup_name: &str,
    ) -> crate::Result<digibox_registry::Digest> {
        let manifest = self.snapshot(setup_name)?;
        let mut packages = Vec::new();
        let mut kinds: Vec<&String> = self.digis.values().map(|e| &e.kind).collect();
        kinds.sort();
        kinds.dedup();
        for kind in kinds {
            packages.push(self.catalog.package(kind)?);
        }
        Ok(repo.commit(ref_name, message, &manifest, &packages))
    }

    /// `dbox pull` + recreate: run every instance and attachment of a
    /// manifest on this (empty) testbed.
    pub fn recreate(&mut self, manifest: &SetupManifest) -> crate::Result<()> {
        manifest.validate().map_err(TestbedError::Setup)?;
        for inst in &manifest.instances {
            self.run_with(&inst.kind, &inst.name, inst.params.clone(), inst.managed)?;
        }
        // Let containers start before wiring attachments.
        self.run_for(SimDuration::from_millis(500));
        for (child, parent) in &manifest.attachments {
            self.attach(child, parent)?;
        }
        Ok(())
    }

    // ---- replay ----

    /// `dbox replay` — pause generation on the digis the schedule drives
    /// and force their recorded model states at the recorded (shifted)
    /// times. Equivalent to [`Testbed::replay_from`] with no resume
    /// states.
    pub fn replay(&mut self, schedule: &ReplaySchedule) -> crate::Result<()> {
        self.replay_from(&BTreeMap::new(), schedule)
    }

    /// Start a replay mid-trace: force every snapshot in `states` *now*
    /// (typically the nearest 5 s checkpoint's states, reconstructed with
    /// [`CheckpointStore::ingest_trace`] or
    /// [`ReplaySchedule::states_at`](digibox_trace::ReplaySchedule::states_at)),
    /// then schedule the remaining steps at their recorded offsets from
    /// the current virtual time. Generation is paused on every digi either
    /// argument drives, so live mocks cannot fight the recorded timeline.
    ///
    /// The caller still owns the clock: advance it past
    /// `schedule.duration()` (exact nanoseconds — millisecond truncation
    /// of the end bound is the classic way to lose final-instant steps)
    /// with [`Testbed::run_for`] to let every step apply and propagate.
    pub fn replay_from(
        &mut self,
        states: &BTreeMap<String, Value>,
        schedule: &ReplaySchedule,
    ) -> crate::Result<()> {
        obs::inc(self.obs.replay_schedules);
        let base = self.sim.now();
        for source in schedule.sources() {
            self.with_cell(&source, |cell| cell.set_generation_enabled(false))?;
        }
        for name in states.keys() {
            self.with_cell(name, |cell| cell.set_generation_enabled(false))?;
        }
        for (name, fields) in states {
            let handle = self.digi(name)?;
            handle.borrow_mut().force_fields(&mut self.sim, name, fields.clone());
            obs::inc(self.obs.replay_resumed);
        }
        let steps_counter = self.obs.replay_steps;
        for step in schedule.steps() {
            let handle = self.digi(&step.source)?;
            let name = step.source.clone();
            let fields = step.fields.clone();
            let at = base + SimDuration::from_nanos(step.ts.as_nanos());
            self.sim.call_at(at, move |sim| {
                handle.borrow_mut().force_fields(sim, &name, fields);
                obs::inc(steps_counter);
            });
        }
        Ok(())
    }
}
