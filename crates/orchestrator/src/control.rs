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

use crate::pod::{PodPhase, PodSpec};
use crate::scheduler::Scheduler;

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

/// Container cold-start delay: `STARTUP_BASE` + U(0, `STARTUP_JITTER`),
/// modelling a warm-image `docker run` (the paper's mocks are tiny Python
/// images).
const STARTUP_BASE: SimDuration = SimDuration::from_millis(150);
const STARTUP_JITTER: SimDuration = SimDuration::from_millis(250);
/// First restart delay after a crash; doubles on every consecutive crash
/// (k8s-style exponential backoff).
const RESTART_BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);
/// Ceiling for the restart backoff. Once the doubling schedule hits the
/// cap the pod is considered crash-looping (`CrashLoopBackOff`).
const RESTART_BACKOFF_CAP: SimDuration = SimDuration::from_secs(10);

/// An instruction to the testbed runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum PodAction {
    /// Start the pod's process on `node` after `delay` (container start).
    Start { pod: String, node: NodeId, delay: SimDuration },
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
}

impl ControlPlane {
    /// A control plane over `nodes`; `seed` drives the startup jitter.
    pub fn new(nodes: &[(NodeId, NodeSpec)], seed: u64) -> ControlPlane {
        let mut scheduler = Scheduler::new();
        for (id, spec) in nodes {
            scheduler.add_node(*id, spec.clone());
        }
        let rng = Prng::new(seed).split_str("control-plane");
        ControlPlane { scheduler, pods: BTreeMap::new(), rng }
    }

    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    pub fn phase(&self, pod: &str) -> Option<PodPhase> {
        self.pods.get(pod).map(|p| p.phase)
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

    /// Remove a pod (desired deletion), returning its resources to its
    /// node when it was placed.
    pub fn delete_pod(&mut self, name: &str) -> Result<(), PodError> {
        let record =
            self.pods.remove(name).ok_or_else(|| PodError::NotFound(name.to_string()))?;
        if let Some(node) = record.phase.node() {
            self.scheduler.unplace(node, &record.spec);
        }
        Ok(())
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
                    let delay = STARTUP_BASE
                        + SimDuration::from_nanos(
                            self.rng.range_u64(0, STARTUP_JITTER.as_nanos()),
                        );
                    self.pods.get_mut(&name).expect("pod exists").phase =
                        PodPhase::Starting { node };
                    actions.push(PodAction::Start { pod: name, node, delay });
                }
                Err(_) => {
                    self.pods.get_mut(&name).expect("pod exists").phase = PodPhase::Unschedulable;
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

    /// The testbed reports the pod's process exited (a crash, or its node
    /// failed). The pod backs off: the caller waits out
    /// `restart_delay_for(name)`, then calls `requeue` + `reconcile` to
    /// re-place it.
    pub fn report_exit(&mut self, name: &str) {
        let Some(record) = self.pods.get_mut(name) else {
            return;
        };
        let Some(node) = record.phase.node() else {
            return;
        };
        record.restarts += 1;
        let restarts = record.restarts;
        let crash_loop = backoff(restarts) >= RESTART_BACKOFF_CAP;
        record.phase = PodPhase::BackOff { restarts, crash_loop };
        self.scheduler.unplace(node, &record.spec);
    }

    /// Cordon (or uncordon) a node: a cordoned node takes no new pods and
    /// keeps the ones it has (the testbed kills those itself).
    pub fn set_cordon(&mut self, node: NodeId, cordoned: bool) {
        let _ = self.scheduler.cordon(node, cordoned);
    }

    /// How long the caller should wait before `requeue`ing this pod.
    pub fn restart_delay_for(&self, name: &str) -> SimDuration {
        let restarts = self.pods.get(name).map_or(0, |p| p.restarts);
        backoff(restarts.max(1))
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

/// The backoff delay for the given consecutive-crash count:
/// `base × 2^(restarts-1)`, capped.
fn backoff(restarts: u32) -> SimDuration {
    let exp = restarts.saturating_sub(1).min(32);
    RESTART_BACKOFF_BASE.saturating_mul(1u64 << exp).min(RESTART_BACKOFF_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(n_nodes: u32) -> ControlPlane {
        let nodes: Vec<(NodeId, NodeSpec)> =
            (0..n_nodes).map(|i| (NodeId(i), NodeSpec::m5_xlarge(i))).collect();
        ControlPlane::new(&nodes, 0xC0_FFEE)
    }

    #[test]
    fn create_reconcile_start_run() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("digi-lamp-L1")).unwrap();
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
    }

    #[test]
    fn duplicate_pod_rejected() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("a")).unwrap();
        let err = cp.create_pod(PodSpec::mock("a")).unwrap_err();
        assert_eq!(err, PodError::AlreadyExists("a".into()));
        assert_eq!(err.to_string(), "Pod/a already exists");
    }

    #[test]
    fn unschedulable_when_full() {
        let mut cp = plane(1);
        // m5.xlarge = 4000 millis; 5 per mock → 800 fit
        for i in 0..801 {
            cp.create_pod(PodSpec::mock(&format!("p{i}"))).unwrap();
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
    fn delete_frees_capacity() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("a")).unwrap();
        cp.reconcile();
        cp.mark_running("a");
        cp.delete_pod("a").unwrap();
        assert_eq!(cp.scheduler().total_pods(), 0);
        assert_eq!(cp.phase("a"), None);
        let err = cp.delete_pod("a").unwrap_err();
        assert_eq!(err, PodError::NotFound("a".into()));
        assert_eq!(err.to_string(), "Pod/a not found");
    }

    #[test]
    fn crash_restarts_with_always_policy() {
        let mut cp = plane(1);
        cp.create_pod(PodSpec::mock("a")).unwrap();
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
        cp.create_pod(PodSpec::mock("a")).unwrap();
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
        cp.create_pod(PodSpec::mock("a")).unwrap();
        for _ in 0..70 {
            cp.reconcile();
            cp.mark_running("a");
            cp.report_exit("a");
            cp.requeue("a");
        }
        assert_eq!(cp.restart_delay_for("a"), SimDuration::from_secs(10));
    }

    #[test]
    fn startup_delays_are_deterministic_per_seed() {
        let delays = |seed| {
            let mut cp = ControlPlane::new(&[(NodeId(0), NodeSpec::laptop())], seed);
            for i in 0..5 {
                cp.create_pod(PodSpec::mock(&format!("p{i}"))).unwrap();
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
