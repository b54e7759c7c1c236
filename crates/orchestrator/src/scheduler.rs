//! Pod placement: filter nodes that fit, score by least allocated CPU
//! fraction (spreading load), bind.

use std::collections::BTreeMap;
use std::fmt;

use digibox_net::{NodeId, NodeSpec};

use crate::pod::PodSpec;

/// Allocation bookkeeping for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAlloc {
    pub spec: NodeSpec,
    pub cpu_allocated: u64,
    pub mem_allocated: u64,
    pub pods: u32,
    /// Cordoned nodes accept no new pods (used by fault-injection tests).
    pub cordoned: bool,
}

impl NodeAlloc {
    pub fn new(spec: NodeSpec) -> NodeAlloc {
        NodeAlloc { spec, cpu_allocated: 0, mem_allocated: 0, pods: 0, cordoned: false }
    }

    pub fn fits(&self, pod: &PodSpec) -> bool {
        !self.cordoned
            && self.cpu_allocated + pod.cpu_millis <= self.spec.cpu_millis
            && self.mem_allocated + pod.mem_mib <= self.spec.mem_mib
    }

    /// Allocated CPU fraction in [0, 1] — the scheduler's spreading score.
    pub fn cpu_fraction(&self) -> f64 {
        if self.spec.cpu_millis == 0 {
            1.0
        } else {
            self.cpu_allocated as f64 / self.spec.cpu_millis as f64
        }
    }

    fn charge(&mut self, pod: &PodSpec) {
        self.cpu_allocated += pod.cpu_millis;
        self.mem_allocated += pod.mem_mib;
        self.pods += 1;
    }

    fn release(&mut self, pod: &PodSpec) {
        self.cpu_allocated = self.cpu_allocated.saturating_sub(pod.cpu_millis);
        self.mem_allocated = self.mem_allocated.saturating_sub(pod.mem_mib);
        self.pods = self.pods.saturating_sub(1);
    }
}

/// Placement failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// No node has room.
    Unschedulable { pod: String },
    UnknownNode(NodeId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Unschedulable { pod } => write!(f, "pod {pod} is unschedulable"),
            ScheduleError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The scheduler: owns node allocation state.
#[derive(Debug, Default)]
pub struct Scheduler {
    nodes: BTreeMap<NodeId, NodeAlloc>,
}

impl Scheduler {
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    pub fn add_node(&mut self, id: NodeId, spec: NodeSpec) {
        self.nodes.insert(id, NodeAlloc::new(spec));
    }

    pub fn node(&self, id: NodeId) -> Option<&NodeAlloc> {
        self.nodes.get(&id)
    }

    pub fn nodes(&self) -> impl Iterator<Item = (&NodeId, &NodeAlloc)> {
        self.nodes.iter()
    }

    pub fn cordon(&mut self, id: NodeId, cordoned: bool) -> Result<(), ScheduleError> {
        self.nodes.get_mut(&id).ok_or(ScheduleError::UnknownNode(id))?.cordoned = cordoned;
        Ok(())
    }

    /// Place `pod` on the fitting node with the lowest allocated-CPU
    /// fraction (ties → lowest node id, so placement is deterministic).
    /// Charges the node on success.
    pub fn place(&mut self, pod: &PodSpec) -> Result<NodeId, ScheduleError> {
        let best = self
            .nodes
            .iter()
            .filter(|(_, n)| n.fits(pod))
            .min_by(|(ida, a), (idb, b)| {
                a.cpu_fraction()
                    .partial_cmp(&b.cpu_fraction())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ida.cmp(idb))
            })
            .map(|(id, _)| *id);
        match best {
            Some(id) => {
                self.nodes.get_mut(&id).expect("node exists").charge(pod);
                Ok(id)
            }
            None => Err(ScheduleError::Unschedulable { pod: pod.name.clone() }),
        }
    }

    /// Return a pod's resources to its node.
    pub fn unplace(&mut self, node: NodeId, pod: &PodSpec) {
        if let Some(n) = self.nodes.get_mut(&node) {
            n.release(pod);
        }
    }

    /// Total pods placed across nodes.
    pub fn total_pods(&self) -> u32 {
        self.nodes.values().map(|n| n.pods).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_node() -> NodeSpec {
        // plenty of memory: CPU is the binding constraint in these tests
        NodeSpec { label: "test".into(), cpu_millis: 100, mem_mib: 1000, service_overhead: Default::default() }
    }

    fn tight_mem_node() -> NodeSpec {
        NodeSpec { label: "tight".into(), cpu_millis: 100, mem_mib: 100, service_overhead: Default::default() }
    }

    #[test]
    fn spreads_by_cpu_fraction() {
        let mut s = Scheduler::new();
        s.add_node(NodeId(0), small_node());
        s.add_node(NodeId(1), small_node());
        let mut placements = Vec::new();
        for i in 0..4 {
            let pod = PodSpec::mock(&format!("p{i}"));
            placements.push(s.place(&pod).unwrap());
        }
        // alternates between the two nodes
        assert_eq!(placements, vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)]);
    }

    #[test]
    fn respects_capacity() {
        let mut s = Scheduler::new();
        s.add_node(NodeId(0), small_node());
        // 100 millis capacity, 5 per pod → 20 pods fit
        for i in 0..20 {
            s.place(&PodSpec::mock(&format!("p{i}"))).unwrap();
        }
        let err = s.place(&PodSpec::mock("p20")).unwrap_err();
        assert!(matches!(err, ScheduleError::Unschedulable { .. }));
        assert_eq!(s.total_pods(), 20);
    }

    #[test]
    fn memory_also_limits() {
        let mut s = Scheduler::new();
        s.add_node(NodeId(0), tight_mem_node());
        let fat = PodSpec::mock("fat").with_resources(10, 90);
        s.place(&fat).unwrap();
        // memory exhausted even though CPU remains
        let err = s.place(&PodSpec::mock("fat2").with_resources(10, 20)).unwrap_err();
        assert!(matches!(err, ScheduleError::Unschedulable { .. }));
    }

    #[test]
    fn unplace_frees_resources() {
        let mut s = Scheduler::new();
        s.add_node(NodeId(0), small_node());
        let pod = PodSpec::mock("p").with_resources(100, 100);
        let node = s.place(&pod).unwrap();
        assert!(s.place(&PodSpec::mock("q")).is_err());
        s.unplace(node, &pod);
        s.place(&PodSpec::mock("q")).unwrap();
    }

    #[test]
    fn cordoned_node_excluded() {
        let mut s = Scheduler::new();
        s.add_node(NodeId(0), small_node());
        s.add_node(NodeId(1), small_node());
        s.cordon(NodeId(0), true).unwrap();
        for i in 0..3 {
            assert_eq!(s.place(&PodSpec::mock(&format!("p{i}"))).unwrap(), NodeId(1));
        }
        s.cordon(NodeId(0), false).unwrap();
        assert_eq!(s.place(&PodSpec::mock("px")).unwrap(), NodeId(0));
    }
}
