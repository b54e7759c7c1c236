//! Shared workload builders for the experiment benches.
//!
//! Every bench in `benches/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index): a plain `main` that prints the
//! paper-style row (simulated quantities: request latency, detection
//! rates) and fails unless it lands inside the paper's bound, so
//! `cargo bench` reproduces the evaluation. Wall-clock numbers come from
//! the `bench_smoke` binary.

pub mod baseline;

use std::collections::BTreeMap;

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

// Multi-seed sweeps now run on the shared-cursor engine in `core::sweep`
// (DESIGN.md §10); the chunked crossbeam driver that used to live here is
// gone. Re-exported so existing benches keep their import path.
pub use digibox_core::sweep::parallel_sweep;

/// Paper-style one-line report, printed by each bench.
pub fn report(experiment: &str, row: &str) {
    eprintln!("[{experiment}] {row}");
}
