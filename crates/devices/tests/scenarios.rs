//! Full-testbed scenarios over the built-in device library: the paper's
//! smart-building walkthrough (Fig. 6 hierarchy) plus supply-chain and
//! urban-sensing setups from §5.

use std::collections::BTreeMap;

use digibox_core::{Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_model::Value;
use digibox_net::SimDuration;

fn testbed() -> Testbed {
    Testbed::laptop(full_catalog(), TestbedConfig::default())
}

fn managed() -> BTreeMap<String, Value> {
    BTreeMap::new()
}

#[test]
fn fig6_smart_building_hierarchy() {
    let mut tb = testbed();
    // mocks
    for name in ["O1", "O2"] {
        tb.run_with("Occupancy", name, managed(), true).unwrap();
    }
    tb.run_with("Underdesk", "D1", managed(), true).unwrap();
    tb.run("Lamp", "L1").unwrap();
    // scenes
    tb.run_with("Room", "MeetingRoom", managed(), true).unwrap();
    tb.run_with("Kitchen", "Kitchen1", managed(), true).unwrap();
    tb.run("Building", "ConfCenter").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    // wiring (Fig. 6)
    tb.attach("O1", "MeetingRoom").unwrap();
    tb.attach("O2", "MeetingRoom").unwrap();
    tb.attach("D1", "MeetingRoom").unwrap();
    tb.attach("L1", "MeetingRoom").unwrap();
    tb.attach("MeetingRoom", "ConfCenter").unwrap();
    tb.attach("Kitchen1", "ConfCenter").unwrap();

    tb.run_for(SimDuration::from_secs(20));

    // the room's sensors agree with its presence
    let presence = tb
        .check("MeetingRoom")
        .unwrap()
        .lookup(&"human_presence".into())
        .and_then(Value::as_bool)
        .unwrap();
    for s in ["O1", "O2"] {
        let t = tb.check(s).unwrap().lookup(&"triggered".into()).and_then(Value::as_bool).unwrap();
        assert_eq!(t, presence, "{s} disagrees with room presence");
    }
    // desk sensor constraint: no desk occupancy in an empty room
    if !presence {
        let d = tb.check("D1").unwrap().lookup(&"triggered".into()).and_then(Value::as_bool).unwrap();
        assert!(!d);
    }
    // the building generated num_human events and drove the rooms
    assert!(tb.log().view().source("ConfCenter").tag("event").count() >= 10);
    assert!(tb.log().view().source("MeetingRoom").tag("model").count() >= 1);
}

#[test]
fn cold_chain_truck_scenario() {
    let mut tb = testbed();
    tb.run_with("CargoCondition", "Pallet1", managed(), true).unwrap();
    tb.run_with("GpsTracker", "Tracker1", managed(), true).unwrap();
    tb.run("ColdChainTruck", "Truck1").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("Pallet1", "Truck1").unwrap();
    tb.attach("Tracker1", "Truck1").unwrap();
    tb.run_for(SimDuration::from_secs(30));

    // the pallet's ambient follows the truck's box temperature
    let box_c = tb.check("Truck1").unwrap().lookup(&"box_c".into()).and_then(Value::as_float).unwrap();
    let ambient = tb
        .check("Pallet1")
        .unwrap()
        .lookup(&"ambient_c".into())
        .and_then(Value::as_float)
        .unwrap();
    assert!((box_c - ambient).abs() < 0.01, "pallet ambient {ambient} vs box {box_c}");
}

#[test]
fn urban_mobility_reattach() {
    let mut tb = testbed();
    // a phone-like mobile air-quality sensor moving between two blocks
    tb.run_with("AirQuality", "Phone1", managed(), true).unwrap();
    tb.run_with("StreetBlock", "BlockA", managed(), true).unwrap();
    tb.run_with("StreetBlock", "BlockB", managed(), true).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    // put very different traffic on the two blocks
    tb.edit("BlockA", digibox_model::vmap! {}).ok();
    tb.digi("BlockA").unwrap().borrow_mut().force_fields(
        tb.sim(),
        "BlockA",
        digibox_model::vmap! { "pedestrians" => 0, "noise_db" => 35.0, "streetlights_on" => false },
    );
    tb.digi("BlockB").unwrap().borrow_mut().force_fields(
        tb.sim(),
        "BlockB",
        digibox_model::vmap! { "pedestrians" => 200, "noise_db" => 70.0, "streetlights_on" => false },
    );
    tb.attach("Phone1", "BlockA").unwrap();
    tb.run_for(SimDuration::from_secs(3));
    let pm_quiet = tb
        .check("Phone1")
        .unwrap()
        .lookup(&"pm25_ugm3".into())
        .and_then(Value::as_float)
        .unwrap();

    // the phone moves to the busy block (paper §5: urban sensing =
    // dynamically re-attaching mocks to different scenes)
    tb.detach("Phone1", "BlockA").unwrap();
    tb.attach("Phone1", "BlockB").unwrap();
    tb.run_for(SimDuration::from_secs(3));
    let pm_busy = tb
        .check("Phone1")
        .unwrap()
        .lookup(&"pm25_ugm3".into())
        .and_then(Value::as_float)
        .unwrap();
    assert!(
        pm_busy > pm_quiet + 5.0,
        "busy block should read dirtier air: quiet {pm_quiet} vs busy {pm_busy}"
    );
}

#[test]
fn retail_store_with_checkout() {
    let mut tb = testbed();
    tb.run_with("Occupancy", "Door1", managed(), true).unwrap();
    tb.run_with("CheckoutZone", "Checkout", managed(), true).unwrap();
    let mut params = managed();
    params.insert("day_secs".into(), Value::Float(240.0));
    tb.run_with("RetailStore", "Store", params, false).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("Door1", "Store").unwrap();
    tb.attach("Checkout", "Store").unwrap();
    // run through the compressed day into opening hours
    tb.run_for(SimDuration::from_secs(130));
    let shoppers = tb
        .check("Store")
        .unwrap()
        .lookup(&"shoppers".into())
        .and_then(Value::as_float)
        .unwrap();
    assert!(shoppers > 0.5, "store open at midday: {shoppers} shoppers");
    let door = tb.check("Door1").unwrap().lookup(&"triggered".into()).and_then(Value::as_bool).unwrap();
    assert!(door, "door sensor sees shoppers");
}

#[test]
fn greenhouse_physical_fidelity() {
    let mut tb = Testbed::laptop(
        full_catalog(),
        TestbedConfig { fidelity: digibox_core::FidelityMode::Physical, ..Default::default() },
    );
    tb.run_with("Hvac", "GH-HVAC", managed(), false).unwrap();
    tb.run_with("Temperature", "GH-Temp", managed(), true).unwrap();
    tb.run("Greenhouse", "GH").unwrap();
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("GH-HVAC", "GH").unwrap();
    tb.attach("GH-Temp", "GH").unwrap();
    // ask the HVAC to heat to 30 °C
    tb.edit("GH-HVAC", digibox_model::vmap! { "mode" => "heat", "setpoint_c" => 30.0 }).unwrap();
    tb.run_for(SimDuration::from_secs(60));
    // temperature sensor mirrors the greenhouse temperature
    let gh = tb.check("GH").unwrap().lookup(&"temp_c".into()).and_then(Value::as_float).unwrap();
    let sensor =
        tb.check("GH-Temp").unwrap().lookup(&"temp_c".into()).and_then(Value::as_float).unwrap();
    assert!((gh - sensor).abs() < 1.0, "sensor {sensor} tracks greenhouse {gh}");
    // the HVAC reports a heating output (greenhouse starts at 22 < 30)
    let out = tb
        .check("GH-HVAC")
        .unwrap()
        .lookup(&"heat_output_c_per_s".into())
        .and_then(Value::as_float)
        .unwrap();
    assert!(out > 0.0, "HVAC should be heating, output = {out}");
}
