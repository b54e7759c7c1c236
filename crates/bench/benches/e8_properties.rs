//! E8 — §3.3 scene properties: run-time invariant checking. Reports
//! violation-detection latency.

use digibox_bench::{no_params, report};
use digibox_core::properties::DigiCondition;
use digibox_core::{Condition, SceneProperty, Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_model::vmap;
use digibox_net::SimDuration;

fn testbed_with_properties(n_props: usize, seed: u64) -> Testbed {
    let mut tb = Testbed::laptop(full_catalog(), TestbedConfig { seed, ..Default::default() });
    tb.run_with("Occupancy", "O1", no_params(), true).unwrap();
    tb.run("Lamp", "L1").unwrap();
    tb.run("Room", "R1").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "R1").unwrap();
    tb.attach("L1", "R1").unwrap();
    for i in 0..n_props {
        // the paper's example property, parameterized to get n distinct ones
        tb.add_property(SceneProperty::never(
            &format!("lamp-off-when-empty-{i}"),
            vec![
                DigiCondition::new("L1", Condition::eq("power.status", "on")),
                DigiCondition::new("O1", Condition::eq("triggered", false)),
            ],
        ));
    }
    tb
}

fn main() {
    // detection-latency report: force the disallowed state, measure the
    // virtual time until the violation is logged
    let mut tb = testbed_with_properties(1, 3);
    tb.set_managed("R1", true).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.digi("O1").unwrap().borrow_mut().force_fields(tb.sim(), "O1", vmap! { "triggered" => false });
    tb.run_for(SimDuration::from_millis(100));
    let before = tb.now();
    tb.edit("L1", vmap! { "power" => "on" }).unwrap();
    tb.run_for(SimDuration::from_secs(2));
    let violations = tb.violations();
    assert!(!violations.is_empty(), "the disallowed state must be detected");
    let detect = violations[0].ts - before;
    report(
        "E8 properties (§3.3)",
        &format!(
            "violation detected {} of virtual time after the triggering edit ({} violations)",
            detect,
            violations.len()
        ),
    );
}
