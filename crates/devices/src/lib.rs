//! # digibox-devices
//!
//! The mock-and-scene repository that ships with Digibox (paper §1: "20
//! device mocks (e.g., occupancy, fan, lamp, HVAC) and 18 scenes (e.g.,
//! building, campus, retail, supply chain, home)").
//!
//! Every type here is an ordinary [`DigiProgram`]; [`register_all`] puts
//! them into a [`Catalog`] so `dbox run <Type> <name>` works for each.
//!
//! ## Mocks (20)
//!
//! | Type | What it simulates |
//! |---|---|
//! | `Occupancy` | ceiling PIR occupancy sensor |
//! | `Underdesk` | under-desk occupancy sensor |
//! | `Lamp` | dimmable lamp (power + intensity) |
//! | `LightLevel` | ambient-light (lux) sensor |
//! | `Fan` | multi-speed fan |
//! | `Hvac` | heating/cooling unit with mode + setpoint |
//! | `Thermostat` | setpoint controller reporting room temperature |
//! | `Temperature` | temperature sensor (random-walk) |
//! | `Humidity` | relative-humidity sensor |
//! | `Co2` | CO₂ concentration sensor |
//! | `AirQuality` | PM2.5 air-quality index sensor |
//! | `SmartPlug` | switchable plug metering active power |
//! | `SmartMeter` | cumulative energy meter |
//! | `DoorLock` | electronic lock with actuation result |
//! | `Window` | window open/closed sensor-actuator |
//! | `MotionCamera` | camera producing motion detections |
//! | `Leak` | water-leak sensor |
//! | `Speaker` | networked speaker (volume, playback) |
//! | `GpsTracker` | location tracker following a route |
//! | `CargoCondition` | in-transit cargo temperature/shock monitor |
//!
//! ## Scenes (18)
//!
//! | Type | Ensemble it coordinates |
//! |---|---|
//! | `Room` | meeting room: presence ↔ occupancy/under-desk sensors, light |
//! | `Kitchen` | shared kitchen with appliance usage bursts |
//! | `OpenOffice` | open-plan office: desk population over a workday |
//! | `Lobby` | lobby: arrival bursts, door traffic |
//! | `Classroom` | scheduled lectures: all-or-nothing occupancy |
//! | `Bedroom` | night-time routines, lamp/plug correlation |
//! | `Home` | whole home: rooms + away/home state |
//! | `Building` | multi-room building assigning humans to rooms |
//! | `Campus` | multi-building campus shifting population |
//! | `RetailStore` | shopper flow driving occupancy + checkout load |
//! | `CheckoutZone` | checkout queue with service rates |
//! | `Warehouse` | aisles with forklift traffic and cold zones |
//! | `ColdChainTruck` | refrigerated truck: door events, ambient pull |
//! | `SupplyChainRoute` | legs of a route re-parenting a tracked shipment |
//! | `StreetBlock` | urban block: pedestrian density, noise, light |
//! | `ParkingLot` | stall occupancy under arrival/departure flow |
//! | `FactoryCell` | machine cell: duty cycles, vibration, anomalies |
//! | `Greenhouse` | greenhouse climate (supports physical fidelity) |

pub mod mocks;
pub mod physics;
pub mod scenes;

use digibox_core::properties::DigiCondition;
use digibox_core::{Catalog, Condition, DigiProgram, SceneProperty, Testbed, TestbedConfig};
use digibox_net::SimDuration;

/// Register every built-in mock and scene into `catalog`.
pub fn register_all(catalog: &mut Catalog) {
    mocks::register(catalog);
    scenes::register(catalog);
}

/// A catalog pre-loaded with the full device library.
pub fn full_catalog() -> Catalog {
    let mut c = Catalog::new();
    register_all(&mut c);
    c
}

/// The paper's example scene property on [`demo_room`]: once `O1`
/// reports the room vacant, `L1` must be off within 5 s.
pub fn lamp_follows_vacancy() -> SceneProperty {
    SceneProperty::leads_to(
        "lamp-follows-vacancy",
        vec![DigiCondition::new("O1", Condition::eq("triggered", false))],
        vec![DigiCondition::new("L1", Condition::eq("power.status", "off"))],
        SimDuration::from_secs(5),
    )
}

/// The demo room that `dbox chaos` and the campaign tests run against: a
/// two-node cluster where room `R1` drives a managed occupancy sensor
/// `O1` and a lamp `L1`, plus [`lamp_follows_vacancy`]. Broker keep-alive is 2 s, so
/// partitioned sessions are reaped and can reconnect cleanly after the
/// heal.
pub fn demo_room(seed: u64) -> digibox_core::Result<Testbed> {
    let config = TestbedConfig {
        seed,
        broker_session_timeout: Some(SimDuration::from_secs(2)),
        ..Default::default()
    };
    let mut tb = Testbed::ec2(2, full_catalog(), config);
    tb.run_with("Occupancy", "O1", Default::default(), true)?;
    tb.run_with("Room", "R1", Default::default(), false)?;
    tb.run_with("Lamp", "L1", Default::default(), false)?;
    tb.run_for(SimDuration::from_secs(1));
    tb.attach("O1", "R1")?;
    tb.attach("L1", "R1")?;
    tb.add_property(lamp_follows_vacancy());
    tb.run_for(SimDuration::from_secs(2));
    Ok(tb)
}

/// Helper used by the registration macros below.
pub(crate) fn must_register<F>(catalog: &mut Catalog, f: F)
where
    F: Fn() -> Box<dyn DigiProgram> + 'static,
{
    catalog.register(f).expect("built-in device types are unique");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_20_mocks_and_18_scenes() {
        let c = full_catalog();
        let mut mocks = 0;
        let mut scenes = 0;
        for kind in c.kinds() {
            if c.make(kind).unwrap().is_scene() {
                scenes += 1;
            } else {
                mocks += 1;
            }
        }
        assert_eq!(mocks, 20, "paper: 20 device mocks");
        assert_eq!(scenes, 18, "paper: 18 scenes");
    }

    #[test]
    fn every_type_instantiates_and_validates() {
        let c = full_catalog();
        for kind in c.kinds() {
            let mut program = c.make(kind).unwrap();
            let schema = program.schema();
            assert_eq!(schema.kind, kind, "schema kind mismatch for {kind}");
            let mut model = schema.instantiate("probe");
            program.init(&mut model);
            schema
                .validate(&model)
                .unwrap_or_else(|e| panic!("{kind} default model invalid: {e}"));
        }
    }

    #[test]
    fn every_schema_field_is_an_internable_path() {
        // Handler field access goes through the path-intern table
        // (pre-parsed at cell registration); every declared field of every
        // built-in type must therefore be a valid dotted-path literal.
        let c = full_catalog();
        for kind in c.kinds() {
            let program = c.make(kind).unwrap();
            for field in program.schema().fields.keys() {
                let p = digibox_model::Path::interned(field)
                    .unwrap_or_else(|e| panic!("{kind} field `{field}` not internable: {e}"));
                assert_eq!(p, digibox_model::Path::interned(field).unwrap());
                assert_eq!(
                    digibox_model::Path::interned_status(field).unwrap(),
                    p.child("status")
                );
            }
        }
    }

    #[test]
    fn every_type_packages() {
        let c = full_catalog();
        for kind in c.kinds() {
            let pkg = c.package(kind).unwrap();
            assert!(!pkg.program.is_empty());
            // schemas round-trip through the package
            let schema: digibox_model::Schema = digibox_model::json::decode(&pkg.schema_json).unwrap();
            assert_eq!(schema.kind, kind);
        }
    }
}
