//! The 20 built-in device mocks.

mod climate;
mod lighting;
mod logistics;
mod occupancy;
mod power;
mod security;

pub use climate::{AirQuality, Co2, Humidity, Hvac, Temperature, Thermostat};
pub use lighting::{Lamp, LightLevel};
pub use logistics::{CargoCondition, GpsTracker};
pub use occupancy::{MotionCamera, Occupancy, Underdesk};
pub use power::{Fan, SmartMeter, SmartPlug};
pub use security::{DoorLock, Leak, Speaker, Window};

use digibox_core::Catalog;

/// Identity boilerplate shared by every built-in program.
macro_rules! digi_identity {
    ($kind:literal, $version:literal, $program:literal) => {
        fn kind(&self) -> &str {
            $kind
        }
        fn version(&self) -> &str {
            $version
        }
        fn program_id(&self) -> &str {
            $program
        }
    };
}
pub(crate) use digi_identity;

/// Register the 20 mocks.
pub fn register(catalog: &mut Catalog) {
    crate::must_register(catalog, || Box::new(Occupancy));
    crate::must_register(catalog, || Box::new(Underdesk));
    crate::must_register(catalog, || Box::new(MotionCamera));
    crate::must_register(catalog, || Box::new(Lamp));
    crate::must_register(catalog, || Box::new(LightLevel));
    crate::must_register(catalog, || Box::new(Fan));
    crate::must_register(catalog, || Box::new(Hvac));
    crate::must_register(catalog, || Box::new(Thermostat));
    crate::must_register(catalog, || Box::new(Temperature));
    crate::must_register(catalog, || Box::new(Humidity));
    crate::must_register(catalog, || Box::new(Co2));
    crate::must_register(catalog, || Box::new(AirQuality));
    crate::must_register(catalog, || Box::new(SmartPlug));
    crate::must_register(catalog, || Box::new(SmartMeter));
    crate::must_register(catalog, || Box::new(DoorLock));
    crate::must_register(catalog, || Box::new(Window));
    crate::must_register(catalog, || Box::new(Leak));
    crate::must_register(catalog, || Box::new(Speaker));
    crate::must_register(catalog, || Box::new(GpsTracker));
    crate::must_register(catalog, || Box::new(CargoCondition));
}
