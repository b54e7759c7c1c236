//! Quickstart — the paper's Fig. 1 workflow in ~60 lines:
//!
//! 1. create a testbed,
//! 2. `dbox run` a mock lamp, occupancy sensor and a room scene,
//! 3. attach them,
//! 4. interact (`dbox edit`),
//! 5. inspect (`dbox check`) and read the trace.
//!
//! Run with: `cargo run --example quickstart`

use digibox_core::{Dbox, Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_model::vmap;
use digibox_net::SimDuration;

fn main() {
    // A testbed simulating the paper's local environment: one laptop node
    // running the broker and every digi as a microservice.
    let testbed = Testbed::laptop(full_catalog(), TestbedConfig::default());
    let mut dbox = Dbox::new(testbed);

    // dbox run Occupancy O1 / dbox run Lamp L1 / dbox run Room MeetingRoom
    dbox.run("Occupancy", "O1").unwrap();
    dbox.run("Lamp", "L1").unwrap();
    dbox.run("Room", "MeetingRoom").unwrap();

    // dbox attach O1 MeetingRoom; dbox attach L1 MeetingRoom
    dbox.attach("O1", "MeetingRoom").unwrap();
    dbox.attach("L1", "MeetingRoom").unwrap();

    // let the scene generate a few events
    dbox.testbed().run_for(SimDuration::from_secs(5));

    // dbox edit L1 — turn the lamp on at 70 % like a user would
    dbox.edit("L1", vmap! { "power" => "on", "intensity" => 0.7 }).unwrap();

    // dbox check L1 — print the model as the console would
    let (_, rendered) = dbox.check("L1").unwrap();
    println!("--- dbox check L1 ---\n{rendered}");

    let (room, _) = dbox.check("MeetingRoom").unwrap();
    println!("--- dbox check MeetingRoom ---\n{}", room.summary());

    // the trace captured everything (paper §3.5), in the paper's line format
    println!("--- last 10 trace lines ---");
    let records = dbox.testbed().log().records();
    for r in records.iter().rev().take(10).rev() {
        println!("{}", r.paper_line());
    }
    println!(
        "\ntestbed ran {} digis, trace holds {} records — all inside one process.",
        dbox.testbed().digi_count(),
        records.len()
    );
}
