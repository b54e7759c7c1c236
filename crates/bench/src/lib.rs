//! Shared workload builders for the experiment benches.
//!
//! Every bench in `benches/` regenerates one experiment of EXPERIMENTS.md
//! (see DESIGN.md's experiment index): a plain `main` that prints its
//! `[EN ...]` rows through [`report`] and asserts only deterministic
//! gates, so `cargo bench` reproduces the evaluation. E1–E9 report
//! simulated quantities (request latency, detection rates) and fail
//! unless they land inside the paper's bound. E11–E14 time the real
//! testbed on the machine that runs them; their wall-clock numbers are
//! reported, never asserted.

use std::collections::BTreeMap;
use std::time::Instant;

use digibox_core::{AppClient, FidelityMode, Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_model::Value;
use digibox_net::{ServiceHandle, SimDuration};

/// Empty params.
pub fn no_params() -> BTreeMap<String, Value> {
    BTreeMap::new()
}

/// Build the paper's deployment shape: `sensors` occupancy mocks over
/// `rooms` rooms over `buildings` buildings on the given testbed, all
/// managed (the microbenchmark measures the request path, not event load).
pub fn build_deployment(tb: &mut Testbed, sensors: usize, rooms: usize, buildings: usize) {
    for b in 0..buildings {
        tb.run_with("Building", &format!("B{b}"), no_params(), true).unwrap();
    }
    for r in 0..rooms {
        tb.run_with("Room", &format!("R{r}"), no_params(), true).unwrap();
    }
    for s in 0..sensors {
        tb.run_with("Occupancy", &format!("O{s}"), no_params(), true).unwrap();
    }
    tb.run_for(SimDuration::from_secs(2));
    for r in 0..rooms {
        if buildings > 0 {
            tb.attach(&format!("R{r}"), &format!("B{}", r % buildings)).unwrap();
        }
    }
    for s in 0..sensors {
        tb.attach(&format!("O{s}"), &format!("R{}", s % rooms)).unwrap();
    }
    tb.run_for(SimDuration::from_secs(2));
}

/// Issue `gets` REST GETs round-robin over the sensors and return the app
/// client (whose histogram holds the simulated latencies).
pub fn measure_gets(tb: &mut Testbed, sensors: usize, gets: usize) -> ServiceHandle<AppClient> {
    let client_node = tb.broker_addr().node;
    let app = tb.app(client_node);
    let targets: Vec<_> = (0..sensors).map(|s| tb.digi_addr(&format!("O{s}")).unwrap()).collect();
    for i in 0..gets {
        let target = targets[i % targets.len()];
        app.borrow_mut().get(tb.sim(), target, "/model");
        tb.run_for(SimDuration::from_millis(30));
    }
    tb.run_for(SimDuration::from_secs(1));
    app
}

/// A laptop testbed (§4 local environment), logging off for benches.
pub fn laptop(seed: u64) -> Testbed {
    Testbed::laptop(
        full_catalog(),
        TestbedConfig { seed, logging: false, ..Default::default() },
    )
}

/// An EC2 cluster testbed (§4 cloud environment).
pub fn cluster(nodes: u32, seed: u64) -> Testbed {
    Testbed::ec2(
        nodes,
        full_catalog(),
        TestbedConfig { seed, logging: false, ..Default::default() },
    )
}

/// A testbed with a chosen fidelity mode (logging on: E4/E8 read traces).
pub fn with_fidelity(fidelity: FidelityMode, seed: u64) -> Testbed {
    Testbed::laptop(full_catalog(), TestbedConfig { seed, fidelity, ..Default::default() })
}

/// One E12/E13 scale run: its wall-clock cost and kernel events.
pub struct ScaleRun {
    /// Seconds to build the testbed and run the 2 s warm-up.
    pub setup_s: f64,
    /// Seconds to run the 5 s measured window.
    pub window_s: f64,
    /// Kernel events dispatched during the window.
    pub window_events: u64,
    /// `Sim::events_processed()` at the end of the window.
    pub total_events: u64,
}

/// Digis per pool pod in [`scale_pooled`].
const PER_POOL: usize = 10_000;

/// E12/E13's pooled testbed: `digis` occupancy mocks in 10k-digi pool
/// pods on an EC2 cluster. One pod (~2510 cpu millis) fits an m5.xlarge
/// (4000), so the cluster has one node per pool plus two for the broker
/// and control plane.
pub fn scale_pooled(digis: usize, metrics: bool) -> ScaleRun {
    scale_run(pooled_nodes(digis), metrics, |tb| start_pools(tb, digis))
}

/// E13's baseline: the same mocks with one host per digi (a one-cell
/// pool with its own MQTT session and kernel timer). Dedicated pods are
/// 5 cpu millis each, so the cluster has one node per 512 digis plus two.
pub fn scale_per_digi(digis: usize, metrics: bool) -> ScaleRun {
    let nodes = (digis / 512 + 2) as u32;
    scale_run(nodes, metrics, |tb| {
        for i in 0..digis {
            tb.run_with("Occupancy", &format!("S{i}"), BTreeMap::new(), false).expect("digi runs");
        }
    })
}

/// Nodes for [`scale_pooled`]'s cluster: one per pool plus two.
fn pooled_nodes(digis: usize) -> u32 {
    (digis.div_ceil(PER_POOL) + 2) as u32
}

/// Start `digis` occupancy mocks `S0`, `S1`, ... in pools of 10k.
fn start_pools(tb: &mut Testbed, digis: usize) {
    for start in (0..digis).step_by(PER_POOL) {
        let names: Vec<String> =
            (start..(start + PER_POOL).min(digis)).map(|i| format!("S{i}")).collect();
        tb.run_pool("Occupancy", &names, BTreeMap::new(), false).expect("pool runs");
    }
}

/// Build a seed-13 EC2 testbed with logging off, start its digis with
/// `start` and warm up for 2 s (pods start, sessions connect). Returns
/// the testbed and the seconds all that took.
fn warm_testbed(nodes: u32, metrics: bool, start: impl FnOnce(&mut Testbed)) -> (Testbed, f64) {
    let t = Instant::now();
    let mut tb = Testbed::ec2(
        nodes,
        full_catalog(),
        TestbedConfig { seed: 13, logging: false, metrics, ..Default::default() },
    );
    start(&mut tb);
    tb.run_for(SimDuration::from_secs(2));
    (tb, t.elapsed().as_secs_f64())
}

/// [`warm_testbed`], then time a 5 s window.
fn scale_run(nodes: u32, metrics: bool, start: impl FnOnce(&mut Testbed)) -> ScaleRun {
    let (mut tb, setup_s) = warm_testbed(nodes, metrics, start);
    let events_before = tb.sim().events_processed();
    let t = Instant::now();
    tb.run_for(SimDuration::from_secs(5));
    let window_s = t.elapsed().as_secs_f64();
    let total_events = tb.sim().events_processed();
    ScaleRun { setup_s, window_s, window_events: total_events - events_before, total_events }
}

/// One E13 `pooled-fail` run: the cost of a node failure under a pooled
/// scene, each step timed on the wall clock.
pub struct FailRun {
    /// Seconds to build the testbed and run the 2 s warm-up.
    pub setup_s: f64,
    /// Seconds for one `checkpoint_all` over every digi.
    pub checkpoint_s: f64,
    /// Seconds for `fail_node` on the first pool's node.
    pub fail_s: f64,
    /// Seconds to run the 3 s window holding the failed pool's restart.
    pub restart_window_s: f64,
    /// Seconds to run the next, plain 3 s window.
    pub plain_window_s: f64,
    /// Digis running after both windows.
    pub digis_after: usize,
    /// Whether every digi of the failed pool sits on another node now.
    pub moved: bool,
}

/// E13's `pooled-fail` row: [`scale_pooled`]'s scene (metrics on) warmed
/// up, then one `checkpoint_all`, `fail_node` on the node of the first
/// pool (`S0`…), a 3 s window holding that pool's restart from its
/// checkpoints on a spare node, and a plain 3 s window.
pub fn scale_pooled_fail(digis: usize) -> FailRun {
    let (mut tb, setup_s) = warm_testbed(pooled_nodes(digis), true, |tb| start_pools(tb, digis));
    let timed = |tb: &mut Testbed, step: &dyn Fn(&mut Testbed)| {
        let t = Instant::now();
        step(tb);
        t.elapsed().as_secs_f64()
    };
    let checkpoint_s = timed(&mut tb, &|tb| tb.checkpoint_all());
    let node = tb.digi_addr("S0").expect("S0 runs").node;
    let fail_s = timed(&mut tb, &|tb| tb.fail_node(node).expect("node fails"));
    let restart_window_s = timed(&mut tb, &|tb| tb.run_for(SimDuration::from_secs(3)));
    let plain_window_s = timed(&mut tb, &|tb| tb.run_for(SimDuration::from_secs(3)));
    let moved = (0..digis.min(PER_POOL))
        .all(|i| tb.digi_addr(&format!("S{i}")).is_ok_and(|addr| addr.node != node));
    FailRun {
        setup_s,
        checkpoint_s,
        fail_s,
        restart_window_s,
        plain_window_s,
        digis_after: tb.digi_count(),
        moved,
    }
}

/// Paper-style one-line report, printed by each bench.
pub fn report(experiment: &str, row: &str) {
    eprintln!("[{experiment}] {row}");
}
