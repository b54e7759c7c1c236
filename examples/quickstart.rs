//! Quickstart — the paper's Fig. 1 workflow in ~60 lines:
//!
//! 1. create a testbed,
//! 2. `dbox run` a mock lamp, occupancy sensor and a room scene,
//! 3. attach them,
//! 4. interact (`dbox edit`),
//! 5. inspect (`dbox check`) and read the trace.
//!
//! Each step settles virtual time the way the `dbox` CLI does: 500 ms after
//! a `run` so the container starts, 200 ms after an `attach` or `edit` so
//! the result propagates.
//!
//! Run with: `cargo run --example quickstart`

use digibox_core::{Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_model::{dml, vmap, ToValue};
use digibox_net::SimDuration;

fn main() {
    // A testbed simulating the paper's local environment: one laptop node
    // running the broker and every digi as a microservice.
    let mut testbed = Testbed::laptop(full_catalog(), TestbedConfig::default());

    // dbox run Occupancy O1 / dbox run Lamp L1 / dbox run Room MeetingRoom
    for (kind, name) in [("Occupancy", "O1"), ("Lamp", "L1"), ("Room", "MeetingRoom")] {
        testbed.run(kind, name).unwrap();
        testbed.run_for(SimDuration::from_millis(500));
    }

    // dbox attach O1 MeetingRoom; dbox attach L1 MeetingRoom
    for child in ["O1", "L1"] {
        testbed.attach(child, "MeetingRoom").unwrap();
        testbed.run_for(SimDuration::from_millis(200));
    }

    // let the scene generate a few events
    testbed.run_for(SimDuration::from_secs(5));

    // dbox edit L1 — turn the lamp on at 70 % like a user would
    testbed.edit("L1", vmap! { "power" => "on", "intensity" => 0.7 }).unwrap();
    testbed.run_for(SimDuration::from_millis(200));

    // dbox check L1 — print the model as DML, as the console would
    let lamp = testbed.check("L1").unwrap();
    let rendered =
        dml::to_string(&vmap! { "meta" => lamp.meta.to_value(), "fields" => lamp.fields().clone() });
    println!("--- dbox check L1 ---\n{rendered}");

    let room = testbed.check("MeetingRoom").unwrap();
    println!("--- dbox check MeetingRoom ---\n{}", room.summary());

    // the trace captured everything (paper §3.5), in the paper's line format
    println!("--- last 10 trace lines ---");
    let records = testbed.log().records();
    for r in records.iter().rev().take(10).rev() {
        println!("{}", r.paper_line());
    }
    println!(
        "\ntestbed ran {} digis, trace holds {} records — all inside one process.",
        testbed.digi_count(),
        records.len()
    );
}
