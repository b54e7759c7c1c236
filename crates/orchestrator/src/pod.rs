use digibox_net::NodeId;

/// Desired state of one pod (one digi microservice).
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// Unique pod name, conventionally `digi-<type>-<name>`.
    pub name: String,
    /// CPU request in millicores.
    pub cpu_millis: u64,
    /// Memory request in MiB.
    pub mem_mib: u64,
}

impl PodSpec {
    /// A typical mock: 5 millicores, 8 MiB — the paper runs 50 mocks on a
    /// laptop and ~500 per m5.xlarge (4000 millicores), so requests must be
    /// tiny, like the paper's Python mock containers.
    pub fn mock(name: &str) -> PodSpec {
        PodSpec { name: name.to_string(), cpu_millis: 5, mem_mib: 8 }
    }

    /// A scene controller: a bit heavier (it coordinates many mocks).
    pub fn scene(name: &str) -> PodSpec {
        PodSpec { cpu_millis: 10, mem_mib: 16, ..PodSpec::mock(name) }
    }

    pub fn with_resources(mut self, cpu_millis: u64, mem_mib: u64) -> PodSpec {
        self.cpu_millis = cpu_millis;
        self.mem_mib = mem_mib;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let p = PodSpec::mock("digi-lamp-L1");
        assert_eq!((p.cpu_millis, p.mem_mib), (5, 8));
        assert_eq!(PodSpec::scene("digi-room-R1").cpu_millis, 10);
        let s = PodSpec::scene("digi-room-R1").with_resources(100, 64);
        assert_eq!((s.cpu_millis, s.mem_mib), (100, 64));
    }

    #[test]
    fn phase_helpers() {
        assert_eq!(PodPhase::Starting { node: NodeId(2) }.node(), Some(NodeId(2)));
        assert_eq!(PodPhase::Running { node: NodeId(0) }.node(), Some(NodeId(0)));
        assert_eq!(PodPhase::Pending.node(), None);
        assert_eq!(PodPhase::BackOff { restarts: 3, crash_loop: false }.node(), None);
        assert_eq!(PodPhase::Unschedulable.node(), None);
    }
}
