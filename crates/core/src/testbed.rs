//! The testbed runtime (paper §4): a simulated cluster running the broker
//! and every digi as a microservice, plus the control plane, trace log and
//! property checker.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound::{Excluded, Included, Unbounded};
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

/// Pools' pod names start with this. They sort after every `digi-` pod,
/// so the pools are the tail of the pod table.
const POOL: &str = "pool-";

/// A running pod: its host (a dedicated digi's one-cell pool or a shared
/// pool) and the params and `managed` flag `run_with`/`run_pool` was
/// given (the cells' `meta` holds them as the fidelity rules made them).
struct Pod {
    host: ServiceHandle<DigiPool>,
    params: BTreeMap<String, Value>,
    managed: bool,
}

/// A crashed pod awaiting its supervised restart.
struct PendingRestart {
    due: SimTime,
    pod: String,
    /// The pod as it died, unbound; its cells are what restarts.
    dead: Pod,
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
    /// Every running pod by pod name: `digi-` pods, then `pool-` pods.
    pods: BTreeMap<String, Pod>,
    checker: PropertyChecker,
    /// Trace cursor for feeding the property checker.
    checker_cursor: Option<u64>,
    next_digi_port: u16,
    next_app_port: u16,
    /// The developer-console MQTT session used by `edit`/`replay`.
    operator: Option<ServiceHandle<AppClient>>,
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
            pods: BTreeMap::new(),
            checker: PropertyChecker::new(),
            checker_cursor: None,
            next_digi_port: 10_000,
            next_app_port: 50_000,
            operator: None,
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

    /// Names of all running digis, dedicated and pooled, sorted.
    pub fn digi_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for pod in self.pods.values() {
            names.extend(pod.host.borrow().cells().map(|c| c.name().to_string()));
        }
        names.sort_unstable();
        names
    }

    /// Number of running digis, dedicated and pooled.
    pub fn digi_count(&self) -> usize {
        self.pods.values().map(|p| p.host.borrow().len()).sum()
    }

    /// The service address of a digi's REST API: its own host's, or for a
    /// pooled digi its pool's (which routes `/digi/<name>/...`).
    pub fn digi_addr(&self, name: &str) -> crate::Result<Addr> {
        Ok(self.host_of(name)?.1.host.borrow().addr())
    }

    /// Borrow a digi's host handle (tests, advanced drivers): the
    /// one-cell [`DigiPool`] of a dedicated digi, or the shared pool
    /// holding a pooled one.
    pub fn digi(&self, name: &str) -> crate::Result<ServiceHandle<DigiPool>> {
        Ok(self.host_of(name)?.1.host.clone())
    }

    /// The running pod hosting `name`: its own pod, else the pool holding
    /// it (found in the pool's own name map: no per-digi index).
    fn host_of(&self, name: &str) -> crate::Result<(&String, &Pod)> {
        let own = self.pods.get_key_value(&pod_name(name));
        own.into_iter()
            .chain(self.pods.range::<str, _>((Included(POOL), Unbounded)))
            .find(|(_, pod)| pod.host.borrow().cell(name).is_some())
            .ok_or_else(|| TestbedError::UnknownDigi(name.to_string()))
    }

    /// Run `f` on a running digi's cell.
    fn with_cell<R>(&self, name: &str, f: impl FnOnce(&mut DigiCell) -> R) -> crate::Result<R> {
        let mut host = self.host_of(name)?.1.host.borrow_mut();
        Ok(f(host.cell_mut(name).expect("host_of found it there")))
    }

    /// Every `(child, parent)` pair, sorted, where a running scene outside
    /// pod `skip` lists one of `children` (sorted) as attached: one walk
    /// of the table.
    fn parents_of(&self, children: &[&str], skip: &str) -> Vec<(String, String)> {
        let mut pairs = Vec::new();
        for (_, pod) in self.pods.iter().filter(|(pod, _)| *pod != skip) {
            for cell in pod.host.borrow().cells() {
                let listed = cell.model().meta.attach.iter();
                let listed = listed.filter(|c| children.binary_search(&c.as_str()).is_ok());
                pairs.extend(listed.map(|c| (c.clone(), cell.name().to_string())));
            }
        }
        pairs.sort_unstable();
        pairs
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

    /// Phase of the pod hosting a digi (orchestrator view). Works for
    /// crashed digis too (their pod records persist through the backoff
    /// window).
    pub fn pod_phase(&self, name: &str) -> Option<PodPhase> {
        let pod = self.host_of(name).ok().map(|(pod, _)| pod);
        let pod = pod.or_else(|| self.crashed(name).map(|r| &r.pod));
        self.control.borrow().phase(&pod.cloned().unwrap_or_else(|| pod_name(name)))
    }

    /// The pending restart of the crashed pod that hosted `name`, if any.
    fn crashed(&self, name: &str) -> Option<&PendingRestart> {
        self.pending_restarts.iter().find(|r| r.dead.host.borrow().cell(name).is_some())
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
        obs::set(self.obs.digis, self.digi_count() as i64);
        obs::set(self.obs.pending_restarts, self.pending_restarts.len() as i64);
        obs::clock(self.sim.now().as_nanos());
        obs::snapshot()
    }

    // ---- dbox run/stop ----

    /// `dbox run <Type> <name>` — create and start a digi.
    pub fn run(&mut self, kind: &str, name: &str) -> crate::Result<()> {
        self.run_with(kind, name, BTreeMap::new(), false)
    }

    /// `dbox run` with meta params and managed flag. Refuses a name that
    /// is already running, dedicated or pooled.
    pub fn run_with(
        &mut self,
        kind: &str,
        name: &str,
        params: BTreeMap<String, Value>,
        managed: bool,
    ) -> crate::Result<()> {
        // A crashed pool's digis keep their names until it restarts (a
        // crashed dedicated digi's pod record refuses its name below).
        let crashed_pool = self.crashed(name).is_some_and(|r| r.pod.starts_with(POOL));
        if crashed_pool || self.host_of(name).is_ok() {
            return Err(TestbedError::Setup(format!("digi {name:?} already running")));
        }
        let cell = self.make_digi(kind, name, params.clone(), managed)?;
        self.start_pod(pod_name(name), None, params, managed, vec![cell])?;
        Ok(())
    }

    /// The one start path: create the pod (or requeue it, keeping its
    /// restart count and so its backoff, when it replaces the crashed host
    /// `dead`), place it, host `cells` on one new host and bind that after
    /// the start delay. A `pool-` pod's host is a shared pool (on `dead`'s
    /// session, if any); any other is the digi's own.
    fn start_pod(
        &mut self,
        pod: String,
        dead: Option<&DigiPool>,
        params: BTreeMap<String, Value>,
        managed: bool,
        cells: Vec<(Model, Box<dyn DigiProgram>, Prng)>,
    ) -> crate::Result<(ServiceHandle<DigiPool>, Addr)> {
        let pooled = pod.starts_with(POOL);
        if dead.is_some() {
            self.control.borrow_mut().requeue(&pod);
        } else {
            // A pool's resources scale sub-linearly with occupancy (the
            // whole point of consolidation).
            let n = cells.len() as u64;
            let spec = match cells.first() {
                Some((_, program, _)) if !pooled && !program.is_scene() => PodSpec::mock(&pod),
                Some(_) if !pooled => PodSpec::scene(&pod),
                _ => PodSpec::scene(&pod).with_resources(10 + n / 4, 16 + n / 8),
            };
            self.control.borrow_mut().create_pod(spec)?;
        }
        let (addr, overhead, start_delay) = self.place(&pod)?;
        let host = match cells.first() {
            Some((model, _, rng)) if !pooled => {
                DigiPool::dedicated(addr, self.broker_addr, overhead, &model.meta.name, rng)
            }
            _ => {
                let session = dead.map_or_else(|| format!("pool/{addr}"), |d| d.session().into());
                DigiPool::new(addr, self.broker_addr, overhead, &session)
            }
        };
        let scene_logic = self.config.fidelity != FidelityMode::DeviceCentric;
        for (model, program, rng) in cells {
            let log = self.log.clone();
            host.borrow_mut().host(&mut self.sim, model, program, rng, log, scene_logic);
        }
        self.pods.insert(pod.clone(), Pod { host: host.clone(), params, managed });
        // Container start: bind the host after the startup delay.
        let (control, bound) = (self.control.clone(), host.clone());
        self.sim.call_after(start_delay, move |sim| {
            sim.bind(addr, bound);
            control.borrow_mut().mark_running(&pod);
        });
        Ok((host, addr))
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

    /// `dbox stop <name>` — stop and remove a dedicated digi, detaching it
    /// from every scene that lists it. A pooled digi cannot be stopped:
    /// nothing removes a cell from a live host, so this is an error and
    /// the pool runs on.
    pub fn stop(&mut self, name: &str) -> crate::Result<()> {
        let pod = self.host_of(name)?.0.clone();
        if pod.starts_with(POOL) {
            return Err(TestbedError::Setup(format!("pooled digi {name:?} cannot be stopped")));
        }
        let stopped = self.pods.remove(&pod).expect("host_of found it");
        self.control.borrow_mut().delete_pod(&pod)?;
        self.sim.unbind(stopped.host.borrow().addr());
        self.checkpoints.forget(name);
        self.log.lifecycle(self.sim.now(), name, "stopped", "");
        for (child, parent) in self.parents_of(&[name], &pod) {
            self.detach(&child, &parent)?;
        }
        Ok(())
    }

    /// Kill the process of the pod hosting `name` without deleting the
    /// pod (fault injection). A pooled digi's process is its pool's, so
    /// the whole pool dies. The control plane backs the pod off
    /// (exponentially, capped) and the testbed restarts it as one pod,
    /// every digi from its last checkpoint — like a crashed container
    /// whose volume survived. The pod record persists so consecutive
    /// crashes accumulate restart counts (and backoff).
    pub fn kill(&mut self, name: &str) -> crate::Result<()> {
        let pod = self.host_of(name)?.0.clone();
        self.kill_pod(&pod);
        Ok(())
    }

    /// Unbind a pod's host, log `killed` per digi, queue its restart.
    fn kill_pod(&mut self, pod: &str) {
        let dead = self.pods.remove(pod).expect("a running pod");
        let now = self.sim.now();
        self.sim.unbind(dead.host.borrow().addr());
        for cell in dead.host.borrow().cells() {
            self.log.lifecycle(now, cell.name(), "killed", "");
        }
        self.control.borrow_mut().report_exit(pod);
        let restart_delay = self.control.borrow().restart_delay_for(pod);
        // Rebuild outside the event (deterministic order): schedule a
        // testbed-level restart marker the driver must apply.
        self.pending_restarts.push(PendingRestart {
            due: now + restart_delay,
            pod: pod.to_string(),
            dead,
            attempts: 0,
        });
    }

    /// Fail a whole node: cordon it so nothing reschedules onto it, then
    /// kill every pod on it, pools included. The pods back off and — once
    /// the backoff elapses — reschedule onto surviving nodes, each digi
    /// restored from its checkpoint. The broker keeps running, even when
    /// it is bound on this node: its own fault is
    /// [`Testbed::kill_broker`]. Restore capacity with
    /// [`Testbed::restore_node`].
    pub fn fail_node(&mut self, node: NodeId) -> crate::Result<()> {
        self.control.borrow_mut().set_cordon(node, true);
        self.log.lifecycle(self.sim.now(), "testbed", "node-down", &format!("node {}", node.0));
        // Kill in digi-name order: restarts due together apply in kill
        // order.
        let mut victims = Vec::new();
        for (pod, p) in &self.pods {
            let host = p.host.borrow();
            if host.addr().node == node {
                victims.push((host.cells().next().map(|c| c.name().to_string()), pod.clone()));
            }
        }
        victims.sort_unstable();
        for (_, pod) in victims {
            self.kill_pod(&pod);
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
        let child_kind = self.with_cell(child, |cell| cell.model().meta.kind.clone())?;
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
        // A pool's flag stays what `run_pool` was given; restarts read cells'.
        let own = self.pods.get_mut(&pod_name(name));
        if let Some(own) = own.filter(|p| p.host.borrow().cell(name).is_some()) {
            own.managed = managed;
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
    /// like dedicated ones, speak the same topics and REST routes
    /// (`/digi/<name>/...`) and are addressed by name like them (`check`,
    /// `edit`, `attach`, `kill`…); only [`Testbed::stop`] refuses them.
    /// The pool is one pod: a crash of any of its digis or a failure of
    /// its node kills and restarts the whole pool. Names are not checked
    /// against running digis. The `e9_faas_pooling` bench compares both
    /// modes.
    pub fn run_pool(
        &mut self,
        kind: &str,
        names: &[String],
        params: BTreeMap<String, Value>,
        managed: bool,
    ) -> crate::Result<(ServiceHandle<DigiPool>, Addr)> {
        let cells = names
            .iter()
            .map(|name| self.make_digi(kind, name, params.clone(), managed))
            .collect::<crate::Result<Vec<_>>>()?;
        let pod = format!("{POOL}{}", self.next_digi_port);
        self.start_pod(pod, None, params, managed, cells)
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
        let (due, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending_restarts).into_iter().partition(|r| r.due <= now);
        self.pending_restarts = rest;
        for r in due {
            let _span = obs::enter(self.obs.f_restart);
            match self.restart(&r) {
                Ok(()) => {}
                Err(_) if r.attempts < MAX_RESTART_ATTEMPTS => {
                    // Placement failed (node cordoned, cluster full…):
                    // retry on the pod's backoff schedule.
                    obs::inc(self.obs.restart_retries);
                    let delay = self.control.borrow().restart_delay_for(&r.pod);
                    self.pending_restarts.push(PendingRestart {
                        due: now + delay,
                        attempts: r.attempts + 1,
                        ..r
                    });
                }
                Err(e) => {
                    obs::inc(self.obs.restart_abandoned);
                    for cell in r.dead.host.borrow().cells() {
                        self.log.lifecycle(now, cell.name(), "restart-abandoned", &e.to_string());
                    }
                }
            }
        }
    }

    /// Start a crashed pod again, each digi as it died: its last
    /// checkpoint applied after `Program::init` (else a cold start), its
    /// `managed` flag and children, re-attached to every scene listing it.
    fn restart(&mut self, r: &PendingRestart) -> crate::Result<()> {
        let now = self.sim.now();
        let dead = r.dead.host.borrow();
        let (mut cells, mut restored) = (Vec::new(), Vec::new());
        for cell in dead.cells() {
            let meta = &cell.model().meta;
            let made = self.make_digi(&meta.kind, &meta.name, r.dead.params.clone(), meta.managed);
            let (mut model, program, rng) = made?;
            let checkpoint = self.checkpoints.restore(&meta.name);
            restored.push(checkpoint.is_some());
            if let Some(fields) = checkpoint {
                model.set_fields(fields)?;
            }
            cells.push((model, program, rng));
        }
        self.start_pod(r.pod.clone(), Some(&dead), r.dead.params.clone(), r.dead.managed, cells)?;
        for (cell, restored) in dead.cells().zip(restored) {
            obs::inc(self.obs.restarts);
            let detail = if restored { "from checkpoint" } else { "cold start" };
            self.log.lifecycle(now, cell.name(), "restarted", detail);
            // Re-attach its own children; their retained models re-mirror
            // the scene on subscribe.
            for child in &cell.model().meta.attach {
                let _ = self.attach(child, cell.name());
            }
        }
        // Re-attach to any parent scene that still references a restarted
        // digi (idempotent; refreshes the parent's mirror once the
        // restarted digi republishes its model).
        let names: Vec<&str> = dead.cells().map(DigiCell::name).collect();
        for (child, parent) in self.parents_of(&names, &r.pod) {
            let _ = self.attach(&child, &parent);
        }
        Ok(())
    }

    /// Snapshot every running digi's model, dedicated and pooled, into the
    /// checkpoint store now.
    pub fn checkpoint_all(&mut self) {
        let _span = obs::enter(self.obs.f_checkpoint);
        obs::inc(self.obs.checkpoint_passes);
        let now = self.sim.now();
        for pod in self.pods.values() {
            for cell in pod.host.borrow().cells() {
                let model = cell.model();
                self.checkpoints.save(cell.name(), model.fields(), model.revision(), now);
                obs::inc(self.obs.checkpoint_snapshots);
            }
        }
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
    /// A manifest has no pools: it lists the dedicated digis, in name
    /// order.
    pub fn describe(&self, setup_name: &str) -> SetupManifest {
        let mut manifest = SetupManifest::new(setup_name, self.config.seed);
        for pod in self.pods.range::<str, _>((Unbounded, Excluded(POOL))).map(|(_, pod)| pod) {
            for cell in pod.host.borrow().cells() {
                let meta = &cell.model().meta;
                manifest.instances.push(InstanceDecl {
                    name: meta.name.clone(),
                    kind: meta.kind.clone(),
                    version: meta.version.clone(),
                    managed: pod.managed,
                    params: pod.params.clone(),
                });
                for child in &meta.attach {
                    manifest.attachments.push((child.clone(), meta.name.clone()));
                }
            }
        }
        manifest.instances.sort_unstable_by(|a, b| a.name.cmp(&b.name));
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
        let mut kinds: Vec<&String> = manifest.instances.iter().map(|i| &i.kind).collect();
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
