//! Seeded property tests on the control plane: arbitrary interleavings of
//! create/reconcile/run/crash/delete/node-failure never violate the
//! scheduler's accounting invariants. A failure names its seed
//! (`for_each_seed`).

use digibox_net::{for_each_seed, NodeId, NodeSpec, Prng, SimDuration};
use digibox_orchestrator::{ControlPlane, PodAction, PodPhase, PodSpec};

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Reconcile,
    MarkRunning(u8),
    Crash(u8),
    Delete(u8),
    FailNode(u8),
    RestoreNode(u8),
}

fn op(rng: &mut Prng) -> Op {
    let pod = rng.range_u64(0, 40) as u8;
    let node = rng.range_u64(0, 3) as u8;
    match rng.range_usize(0, 7) {
        0 => Op::Create(pod),
        1 => Op::Reconcile,
        2 => Op::MarkRunning(pod),
        3 => Op::Crash(pod),
        4 => Op::Delete(pod),
        5 => Op::FailNode(node),
        _ => Op::RestoreNode(node),
    }
}

fn node_spec(i: u32) -> NodeSpec {
    NodeSpec {
        label: format!("n{i}"),
        cpu_millis: 100, // 20 mocks fit per node
        mem_mib: 10_000,
        service_overhead: SimDuration::ZERO,
    }
}

fn check_invariants(cp: &ControlPlane) {
    let mut per_node_pods = std::collections::BTreeMap::new();
    for name in cp.pod_names() {
        if let Some(phase) = cp.phase(&name) {
            if let Some(node) = phase.node() {
                *per_node_pods.entry(node).or_insert(0u32) += 1;
            }
        }
    }
    for (id, alloc) in cp.scheduler().nodes() {
        // never over capacity
        assert!(
            alloc.cpu_allocated <= alloc.spec.cpu_millis,
            "{id}: cpu over-allocated ({}/{})",
            alloc.cpu_allocated,
            alloc.spec.cpu_millis
        );
        assert!(alloc.mem_allocated <= alloc.spec.mem_mib, "{id}: memory over-allocated");
        // scheduler's pod count matches the placed pods we can see
        let seen = per_node_pods.get(id).copied().unwrap_or(0);
        assert_eq!(alloc.pods, seen, "{id}: scheduler count {} != placed {seen}", alloc.pods);
    }
}

#[test]
fn control_plane_invariants_hold_under_arbitrary_ops() {
    for_each_seed(64, |rng| {
        let ops: Vec<Op> = (0..rng.range_usize(1, 80)).map(|_| op(rng)).collect();
        let nodes: Vec<(NodeId, NodeSpec)> = (0..3).map(|i| (NodeId(i), node_spec(i))).collect();
        let mut cp = ControlPlane::new(&nodes, rng.next_u64());
        let pod_name = |i: u8| format!("p{i}");
        for op in ops {
            match op {
                Op::Create(i) => {
                    let _ = cp.create_pod(PodSpec::mock(&pod_name(i)));
                }
                Op::Reconcile => {
                    for action in cp.reconcile() {
                        // every start action names a pod the plane knows,
                        // now in Starting phase on the named node
                        if let PodAction::Start { pod, node, .. } = action {
                            assert_eq!(cp.phase(&pod), Some(PodPhase::Starting { node }));
                        }
                    }
                }
                Op::MarkRunning(i) => cp.mark_running(&pod_name(i)),
                Op::Crash(i) => cp.report_exit(&pod_name(i)),
                Op::Delete(i) => {
                    let _ = cp.delete_pod(&pod_name(i));
                }
                // What `Testbed::fail_node` does: cordon the node, then
                // every pod placed on it exits.
                Op::FailNode(n) => {
                    let node = NodeId(n as u32);
                    cp.set_cordon(node, true);
                    for name in cp.pod_names() {
                        if cp.phase(&name).and_then(|p| p.node()) == Some(node) {
                            cp.report_exit(&name);
                        }
                    }
                }
                Op::RestoreNode(n) => cp.set_cordon(NodeId(n as u32), false),
            }
            check_invariants(&cp);
        }
        // terminal sanity: a final reconcile still keeps the invariants
        cp.reconcile();
        check_invariants(&cp);
    });
}

#[test]
fn delete_everything_returns_to_empty() {
    for_each_seed(64, |rng| {
        let n_pods = rng.range_u64(1, 30) as u8;
        let nodes: Vec<(NodeId, NodeSpec)> = (0..2).map(|i| (NodeId(i), node_spec(i))).collect();
        let mut cp = ControlPlane::new(&nodes, rng.next_u64());
        for i in 0..n_pods {
            cp.create_pod(PodSpec::mock(&format!("p{i}"))).unwrap();
        }
        cp.reconcile();
        for i in 0..n_pods {
            let _ = cp.delete_pod(&format!("p{i}"));
        }
        assert_eq!(cp.scheduler().total_pods(), 0, "all resources must be returned");
        for (_, alloc) in cp.scheduler().nodes() {
            assert_eq!(alloc.cpu_allocated, 0);
            assert_eq!(alloc.mem_allocated, 0);
        }
    });
}
