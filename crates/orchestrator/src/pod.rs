use digibox_net::NodeId;

/// What to do when a pod's process dies (paper §6 lists device
/// faults/failures as a prototyping dimension; mocks get `Always` so a
/// crashed mock comes back, one-shot jobs get `Never`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    #[default]
    Always,
    Never,
}

/// Desired state of one pod (one digi microservice).
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// Unique pod name, conventionally `digi-<type>-<name>`.
    pub name: String,
    /// The "container image": the registered program identifier for the
    /// digi (e.g. `mock/Lamp:v1`). Images are resolved by the device
    /// catalog at start time.
    pub image: String,
    /// CPU request in millicores.
    pub cpu_millis: u64,
    /// Memory request in MiB.
    pub mem_mib: u64,
    pub restart: RestartPolicy,
    /// Pin to a specific node (tests/affinity); `None` lets the scheduler
    /// choose.
    pub node_selector: Option<NodeId>,
}

impl PodSpec {
    /// A typical mock: 5 millicores, 8 MiB — the paper runs 50 mocks on a
    /// laptop and ~500 per m5.xlarge (4000 millicores), so requests must be
    /// tiny, like the paper's Python mock containers.
    pub fn mock(name: &str, image: &str) -> PodSpec {
        PodSpec {
            name: name.to_string(),
            image: image.to_string(),
            cpu_millis: 5,
            mem_mib: 8,
            restart: RestartPolicy::Always,
            node_selector: None,
        }
    }

    /// A scene controller: a bit heavier (it coordinates many mocks).
    pub fn scene(name: &str, image: &str) -> PodSpec {
        PodSpec { cpu_millis: 10, mem_mib: 16, ..PodSpec::mock(name, image) }
    }

    pub fn with_resources(mut self, cpu_millis: u64, mem_mib: u64) -> PodSpec {
        self.cpu_millis = cpu_millis;
        self.mem_mib = mem_mib;
        self
    }

    pub fn on_node(mut self, node: NodeId) -> PodSpec {
        self.node_selector = Some(node);
        self
    }
}

/// Observed lifecycle state of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodPhase {
    /// Accepted, not yet placed.
    Pending,
    /// Placed on a node, container starting.
    Starting { node: NodeId },
    /// Live and serving.
    Running { node: NodeId },
    /// Crashed; waiting out its restart backoff before becoming Pending
    /// again. `crash_loop` is set once the pod has crashed enough times in
    /// a row that the backoff delay has hit its cap (k8s would show
    /// `CrashLoopBackOff`).
    BackOff { restarts: u32, crash_loop: bool },
    /// Stopped; `restarts` counts how many times it was restarted before.
    Terminated { restarts: u32 },
    /// Could not be placed (insufficient capacity).
    Unschedulable,
}

impl PodPhase {
    pub fn node(&self) -> Option<NodeId> {
        match self {
            PodPhase::Starting { node } | PodPhase::Running { node } => Some(*node),
            _ => None,
        }
    }

    pub fn is_running(&self) -> bool {
        matches!(self, PodPhase::Running { .. })
    }

    /// Restart count surfaced by the phase, if it carries one.
    pub fn restarts(&self) -> Option<u32> {
        match self {
            PodPhase::BackOff { restarts, .. } | PodPhase::Terminated { restarts } => {
                Some(*restarts)
            }
            _ => None,
        }
    }

    pub fn is_crash_loop(&self) -> bool {
        matches!(self, PodPhase::BackOff { crash_loop: true, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let p = PodSpec::mock("digi-lamp-L1", "mock/Lamp:v1");
        assert_eq!(p.cpu_millis, 5);
        assert_eq!(p.restart, RestartPolicy::Always);
        let s = PodSpec::scene("digi-room-R1", "scene/Room:v2")
            .with_resources(100, 64)
            .on_node(NodeId(3));
        assert_eq!(s.cpu_millis, 100);
        assert_eq!(s.node_selector, Some(NodeId(3)));
    }

    #[test]
    fn phase_helpers() {
        assert!(PodPhase::Running { node: NodeId(0) }.is_running());
        assert!(!PodPhase::Pending.is_running());
        assert_eq!(PodPhase::Starting { node: NodeId(2) }.node(), Some(NodeId(2)));
        assert_eq!(PodPhase::Unschedulable.node(), None);
        let b = PodPhase::BackOff { restarts: 3, crash_loop: false };
        assert_eq!(b.restarts(), Some(3));
        assert!(!b.is_crash_loop());
        assert!(PodPhase::BackOff { restarts: 9, crash_loop: true }.is_crash_loop());
        assert_eq!(PodPhase::Terminated { restarts: 1 }.restarts(), Some(1));
        assert_eq!(PodPhase::Running { node: NodeId(0) }.restarts(), None);
    }
}
