//! The control plane: desired pods → scheduled, started, restarted pods.
//!
//! `ControlPlane` is deliberately *pure with respect to time*: `reconcile`
//! makes decisions and returns [`PodAction`]s with relative delays; the
//! testbed applies them on the simulation kernel and reports back via
//! `mark_running` / `report_exit`. This keeps the orchestrator unit-testable
//! without a kernel and mirrors the controller/kubelet split in
//! Kubernetes.

use std::collections::BTreeMap;
use std::fmt;

use digibox_net::{NodeId, NodeSpec, Prng, SimDuration};

use crate::pod::{PodPhase, PodSpec, RestartPolicy};
use crate::scheduler::{ScheduleError, Scheduler};

/// Why the control plane rejected a pod operation.
#[derive(Debug, Clone, PartialEq)]
pub enum PodError {
    /// `create_pod` named a pod that is already declared.
    AlreadyExists(String),
    /// `delete_pod` named a pod that is not declared.
    NotFound(String),
}

impl fmt::Display for PodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PodError::AlreadyExists(name) => write!(f, "Pod/{name} already exists"),
            PodError::NotFound(name) => write!(f, "Pod/{name} not found"),
        }
    }
}

impl std::error::Error for PodError {}

/// Startup/behaviour knobs.
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Container cold-start delay: base + U(0, jitter). Defaults model a
    /// warm-image `docker run` (the paper's mocks are tiny Python images).
    pub startup_base: SimDuration,
    pub startup_jitter: SimDuration,
    /// First restart delay after a crash; doubles on every consecutive
    /// crash (k8s-style exponential backoff).
    pub restart_backoff_base: SimDuration,
    /// Ceiling for the restart backoff. Once the doubling schedule hits
    /// the cap the pod is considered crash-looping (`CrashLoopBackOff`).
    pub restart_backoff_cap: SimDuration,
    /// RNG seed for startup jitter.
    pub seed: u64,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            startup_base: SimDuration::from_millis(150),
            startup_jitter: SimDuration::from_millis(250),
            restart_backoff_base: SimDuration::from_millis(500),
            restart_backoff_cap: SimDuration::from_secs(10),
            seed: 0xC0_FFEE,
        }
    }
}

/// An instruction to the testbed runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum PodAction {
    /// Start the pod's process on `node` after `delay` (container start).
    Start { pod: String, image: String, node: NodeId, delay: SimDuration },
    /// Stop the pod's process now (delete or eviction).
    Stop { pod: String, node: NodeId },
    /// The pod cannot be placed; surfaced so tests/CLI can report it.
    MarkUnschedulable { pod: String },
}

#[derive(Debug, Clone)]
struct PodRecord {
    spec: PodSpec,
    phase: PodPhase,
    restarts: u32,
}

/// The control plane. Its pod table is the one record of pod state.
pub struct ControlPlane {
    scheduler: Scheduler,
    pods: BTreeMap<String, PodRecord>,
    rng: Prng,
    config: ControlPlaneConfig,
}

impl ControlPlane {
    pub fn new(nodes: &[(NodeId, NodeSpec)], config: ControlPlaneConfig) -> ControlPlane {
        let mut scheduler = Scheduler::new();
        for (id, spec) in nodes {
            scheduler.add_node(*id, spec.clone());
        }
        let rng = Prng::new(config.seed).split_str("control-plane");
        ControlPlane { scheduler, pods: BTreeMap::new(), rng, config }
    }

    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    pub fn phase(&self, pod: &str) -> Option<PodPhase> {
        self.pods.get(pod).map(|p| p.phase)
    }

    pub fn running_count(&self) -> usize {
        self.pods.values().filter(|p| p.phase.is_running()).count()
    }

    pub fn pod_names(&self) -> Vec<String> {
        self.pods.keys().cloned().collect()
    }

    /// Declare a pod (desired state). It becomes `Pending` until the next
    /// `reconcile`.
    pub fn create_pod(&mut self, spec: PodSpec) -> Result<(), PodError> {
        if self.pods.contains_key(&spec.name) {
            return Err(PodError::AlreadyExists(spec.name));
        }
        self.pods.insert(
            spec.name.clone(),
            PodRecord { spec, phase: PodPhase::Pending, restarts: 0 },
        );
        Ok(())
    }

    /// Remove a pod (desired deletion). Returns the stop action when it was
    /// placed.
    pub fn delete_pod(&mut self, name: &str) -> Result<Vec<PodAction>, PodError> {
        let record =
            self.pods.remove(name).ok_or_else(|| PodError::NotFound(name.to_string()))?;
        let mut actions = Vec::new();
        if let Some(node) = record.phase.node() {
            self.scheduler.unplace(node, &record.spec);
            actions.push(PodAction::Stop { pod: name.to_string(), node });
        }
        Ok(actions)
    }

    /// One reconcile pass: place every `Pending` pod, emit start actions.
    pub fn reconcile(&mut self) -> Vec<PodAction> {
        let mut actions = Vec::new();
        let pending: Vec<String> = self
            .pods
            .iter()
            .filter(|(_, p)| matches!(p.phase, PodPhase::Pending))
            .map(|(n, _)| n.clone())
            .collect();
        for name in pending {
            let record = self.pods.get(&name).expect("pod exists");
            match self.scheduler.place(&record.spec) {
                Ok(node) => {
                    let delay = self.config.startup_base
                        + SimDuration::from_nanos(
                            self.rng
                                .range_u64(0, self.config.startup_jitter.as_nanos().max(1)),
                        );
                    let record = self.pods.get_mut(&name).expect("pod exists");
                    record.phase = PodPhase::Starting { node };
                    let image = record.spec.image.clone();
                    actions.push(PodAction::Start { pod: name, image, node, delay });
                }
                Err(ScheduleError::Unschedulable { .. }) | Err(ScheduleError::UnknownNode(_)) => {
                    let record = self.pods.get_mut(&name).expect("pod exists");
                    record.phase = PodPhase::Unschedulable;
                    actions.push(PodAction::MarkUnschedulable { pod: name });
                }
            }
        }
        actions
    }

    /// The testbed reports the container finished starting.
    pub fn mark_running(&mut self, name: &str) {
        if let Some(record) = self.pods.get_mut(name) {
            if let PodPhase::Starting { node } = record.phase {
                record.phase = PodPhase::Running { node };
            }
        }
    }

    /// The testbed reports the pod's process exited (crash or node fault).
    /// Returns follow-up actions (restart after delay, per policy).
    pub fn report_exit(&mut self, name: &str) -> Vec<PodAction> {
        let base = self.config.restart_backoff_base;
        let cap = self.config.restart_backoff_cap;
        let Some(record) = self.pods.get_mut(name) else {
            return Vec::new();
        };
        let Some(node) = record.phase.node() else {
            return Vec::new();
        };
        match record.spec.restart {
            RestartPolicy::Always => {
                record.restarts += 1;
                let restarts = record.restarts;
                let crash_loop = Self::backoff(base, cap, restarts) >= cap;
                record.phase = PodPhase::BackOff { restarts, crash_loop };
            }
            RestartPolicy::Never => {
                record.phase = PodPhase::Terminated { restarts: record.restarts };
            }
        }
        self.scheduler.unplace(node, &record.spec);
        // For `Always` pods the caller waits out `restart_delay_for(name)`,
        // then calls `requeue` + `reconcile` to re-place the pod.
        Vec::new()
    }

    /// Drain a failed node: every pod on it exits (and restarts elsewhere
    /// per policy). Returns the names of affected pods.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<String> {
        let affected: Vec<String> = self
            .pods
            .iter()
            .filter(|(_, p)| p.phase.node() == Some(node))
            .map(|(n, _)| n.clone())
            .collect();
        let _ = self.scheduler.cordon(node, true);
        for name in &affected {
            self.report_exit(name);
        }
        affected
    }

    /// Restore a failed node.
    pub fn restore_node(&mut self, node: NodeId) {
        let _ = self.scheduler.cordon(node, false);
    }

    /// Cordon (or uncordon) a node without evicting anything — used when
    /// the caller wants to drain pods itself before marking the node
    /// unavailable.
    pub fn set_cordon(&mut self, node: NodeId, cordoned: bool) {
        let _ = self.scheduler.cordon(node, cordoned);
    }

    /// The backoff delay for the given consecutive-crash count:
    /// `base × 2^(restarts-1)`, capped.
    fn backoff(base: SimDuration, cap: SimDuration, restarts: u32) -> SimDuration {
        let exp = restarts.saturating_sub(1).min(32);
        base.saturating_mul(1u64 << exp).min(cap)
    }

    fn backoff_for(&self, restarts: u32) -> SimDuration {
        Self::backoff(self.config.restart_backoff_base, self.config.restart_backoff_cap, restarts)
    }

    /// How long the caller should wait before `requeue`ing this pod.
    pub fn restart_delay_for(&self, name: &str) -> SimDuration {
        let restarts = self.pods.get(name).map_or(0, |p| p.restarts);
        self.backoff_for(restarts.max(1))
    }

    /// Move a `BackOff` (or `Unschedulable`) pod back to `Pending` so the
    /// next `reconcile` re-places it. Called by the testbed once the
    /// restart backoff has elapsed, or after cluster capacity returns.
    pub fn requeue(&mut self, name: &str) {
        if let Some(record) = self.pods.get_mut(name) {
            if matches!(record.phase, PodPhase::BackOff { .. } | PodPhase::Unschedulable) {
                record.phase = PodPhase::Pending;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(n_nodes: u32) -> ControlPlane {
        let nodes: Vec<(NodeId, NodeSpec)> =
            (0..n_nodes).map(|i| (NodeId(i), NodeSpec::m5_xlarge(i))).collect();
        ControlPlane::new(&nodes, ControlPlaneConfig::default())
    }

    #[test]
    fn create_reconcile_start_run() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("digi-lamp-L1", "mock/Lamp:v1")).unwrap();
        assert_eq!(cp.phase("digi-lamp-L1"), Some(PodPhase::Pending));
        let actions = cp.reconcile();
        assert_eq!(actions.len(), 1);
        let PodAction::Start { pod, node, delay, .. } = &actions[0] else {
            panic!("expected start action");
        };
        assert_eq!(pod, "digi-lamp-L1");
        assert!(delay.as_millis() >= 150);
        assert_eq!(cp.phase(pod), Some(PodPhase::Starting { node: *node }));
        cp.mark_running(pod);
        assert_eq!(cp.phase(pod), Some(PodPhase::Running { node: *node }));
        assert_eq!(cp.running_count(), 1);
    }

    #[test]
    fn duplicate_pod_rejected() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("a", "img")).unwrap();
        let err = cp.create_pod(PodSpec::mock("a", "img")).unwrap_err();
        assert_eq!(err, PodError::AlreadyExists("a".into()));
        assert_eq!(err.to_string(), "Pod/a already exists");
    }

    #[test]
    fn unschedulable_when_full() {
        let mut cp = plane(1);
        // m5.xlarge = 4000 millis; 5 per mock → 800 fit
        for i in 0..801 {
            cp.create_pod(PodSpec::mock(&format!("p{i}"), "img")).unwrap();
        }
        let actions = cp.reconcile();
        let unsched: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, PodAction::MarkUnschedulable { .. }))
            .collect();
        assert_eq!(unsched.len(), 1);
        let starts = actions.iter().filter(|a| matches!(a, PodAction::Start { .. })).count();
        assert_eq!(starts, 800);
    }

    #[test]
    fn delete_emits_stop_and_frees_capacity() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("a", "img")).unwrap();
        cp.reconcile();
        cp.mark_running("a");
        let actions = cp.delete_pod("a").unwrap();
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], PodAction::Stop { .. }));
        assert_eq!(cp.scheduler().total_pods(), 0);
        assert_eq!(cp.phase("a"), None);
        let err = cp.delete_pod("a").unwrap_err();
        assert_eq!(err, PodError::NotFound("a".into()));
        assert_eq!(err.to_string(), "Pod/a not found");
    }

    #[test]
    fn crash_restarts_with_always_policy() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("a", "img")).unwrap();
        cp.reconcile();
        cp.mark_running("a");
        cp.report_exit("a");
        // A crashed pod waits out its backoff: reconcile must not pick it
        // up until the testbed requeues it.
        assert_eq!(cp.phase("a"), Some(PodPhase::BackOff { restarts: 1, crash_loop: false }));
        assert!(cp.reconcile().is_empty());
        cp.requeue("a");
        assert_eq!(cp.phase("a"), Some(PodPhase::Pending));
        let actions = cp.reconcile();
        assert!(matches!(actions[0], PodAction::Start { .. }));
    }

    #[test]
    fn backoff_schedule_doubles_to_cap() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("a", "img")).unwrap();
        // base 500ms, cap 10s: 500, 1000, 2000, 4000, 8000, 10000, 10000…
        let expect_ms = [500u64, 1000, 2000, 4000, 8000, 10_000, 10_000];
        for (i, &ms) in expect_ms.iter().enumerate() {
            cp.reconcile();
            let name = "a".to_string();
            if let Some(PodPhase::Starting { .. }) = cp.phase(&name) {
                cp.mark_running(&name);
            }
            cp.report_exit(&name);
            let restarts = (i + 1) as u32;
            assert_eq!(cp.restart_delay_for(&name), SimDuration::from_millis(ms));
            // crash-loop flag flips exactly when the schedule hits the cap
            let crash_loop = ms >= 10_000;
            assert_eq!(
                cp.phase(&name),
                Some(PodPhase::BackOff { restarts, crash_loop }),
                "after crash #{restarts}"
            );
            cp.requeue(&name);
        }
        assert_eq!(cp.phase("a"), Some(PodPhase::Pending));
    }

    #[test]
    fn backoff_boundary_restart_counts() {
        let cp = plane(1);
        // restarts=0 (never crashed) still quotes the base delay
        assert_eq!(cp.restart_delay_for("ghost"), SimDuration::from_millis(500));
        // the shift is clamped: a huge restart count must not overflow
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("a", "img")).unwrap();
        for _ in 0..70 {
            cp.reconcile();
            cp.mark_running("a");
            cp.report_exit("a");
            cp.requeue("a");
        }
        assert_eq!(cp.restart_delay_for("a"), SimDuration::from_secs(10));
    }

    #[test]
    fn crash_terminates_with_never_policy() {
        let mut cp = plane(1);
        let mut spec = PodSpec::mock("job", "img");
        spec.restart = RestartPolicy::Never;
        cp.create_pod(spec).unwrap();
        cp.reconcile();
        cp.mark_running("job");
        cp.report_exit("job");
        assert_eq!(cp.phase("job"), Some(PodPhase::Terminated { restarts: 0 }));
        assert!(cp.reconcile().is_empty());
    }

    #[test]
    fn node_failure_reschedules_to_survivor() {
        let mut cp = plane(2);
        for i in 0..10 {
            cp.create_pod(PodSpec::mock(&format!("p{i}"), "img")).unwrap();
        }
        for a in cp.reconcile() {
            if let PodAction::Start { pod, .. } = a {
                cp.mark_running(&pod);
            }
        }
        let victim = NodeId(0);
        let affected = cp.fail_node(victim);
        assert_eq!(affected.len(), 5, "spread placement put half on each node");
        // evicted pods wait out their backoff like any other crash
        for name in &affected {
            assert!(matches!(cp.phase(name), Some(PodPhase::BackOff { .. })));
            cp.requeue(name);
        }
        let actions = cp.reconcile();
        for a in &actions {
            if let PodAction::Start { node, .. } = a {
                assert_eq!(*node, NodeId(1), "rescheduled off the failed node");
            }
        }
        assert_eq!(
            actions.iter().filter(|a| matches!(a, PodAction::Start { .. })).count(),
            5
        );
    }

    #[test]
    fn startup_delays_are_deterministic_per_seed() {
        let delays = |seed| {
            let mut cp = ControlPlane::new(
                &[(NodeId(0), NodeSpec::laptop())],
                ControlPlaneConfig { seed, ..Default::default() },
            );
            for i in 0..5 {
                cp.create_pod(PodSpec::mock(&format!("p{i}"), "img")).unwrap();
            }
            cp.reconcile()
                .into_iter()
                .filter_map(|a| match a {
                    PodAction::Start { delay, .. } => Some(delay.as_nanos()),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(delays(1), delays(1));
        assert_ne!(delays(1), delays(2));
    }
}
