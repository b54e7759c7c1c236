//! The 18 built-in scenes.

mod buildings;
mod industrial;
mod logistics;
mod retail;
mod spaces;
mod urban;

pub use buildings::{Building, Campus};
pub use industrial::{FactoryCell, Greenhouse};
pub use logistics::{ColdChainTruck, SupplyChainRoute, Warehouse};
pub use retail::{CheckoutZone, RetailStore};
pub use spaces::{Bedroom, Classroom, Home, Kitchen, Lobby, OpenOffice, Room};
pub use urban::{ParkingLot, StreetBlock};

use digibox_core::Catalog;

pub(crate) use super::mocks::digi_identity;

/// Register the 18 scenes.
pub fn register(catalog: &mut Catalog) {
    crate::must_register(catalog, || Box::new(Room));
    crate::must_register(catalog, || Box::new(Kitchen));
    crate::must_register(catalog, || Box::new(OpenOffice));
    crate::must_register(catalog, || Box::new(Lobby));
    crate::must_register(catalog, || Box::new(Classroom));
    crate::must_register(catalog, || Box::new(Bedroom));
    crate::must_register(catalog, || Box::new(Home));
    crate::must_register(catalog, || Box::new(Building));
    crate::must_register(catalog, || Box::new(Campus));
    crate::must_register(catalog, || Box::new(RetailStore));
    crate::must_register(catalog, || Box::new(CheckoutZone));
    crate::must_register(catalog, || Box::new(Warehouse));
    crate::must_register(catalog, || Box::new(ColdChainTruck));
    crate::must_register(catalog, || Box::new(SupplyChainRoute));
    crate::must_register(catalog, || Box::new(StreetBlock));
    crate::must_register(catalog, || Box::new(ParkingLot));
    crate::must_register(catalog, || Box::new(FactoryCell));
    crate::must_register(catalog, || Box::new(Greenhouse));
}

/// Shared helper: write `triggered` on every attached occupancy-family
/// sensor so room-level and desk-level readings stay consistent (the
/// paper's Fig. 5 room logic).
pub(crate) fn correlate_presence(ctx: &mut digibox_core::SimCtx, presence: bool) {
    let occs: Vec<String> =
        ctx.atts.of_type("Occupancy").into_iter().map(str::to_string).collect();
    for occ in occs {
        ctx.atts.set(&occ, "triggered", presence);
    }
    let desks: Vec<String> =
        ctx.atts.of_type("Underdesk").into_iter().map(str::to_string).collect();
    for desk in desks {
        if !presence {
            // a desk cannot be occupied in an empty room
            ctx.atts.set(&desk, "triggered", false);
        }
    }
}

/// Derive a deterministic RNG from a digi's identity plus a state salt.
///
/// Simulation handlers re-run until coordination converges, so any
/// randomness inside `on_model` must be a *pure function of the model
/// state* — the same state must always produce the same draw. Handlers use
/// this instead of `ctx.rng` (which advances on every call and would make
/// the scene↔mock loop chase its own tail forever).
pub(crate) fn det_rng(model: &digibox_model::Model, salt: u64) -> digibox_net::Prng {
    digibox_net::Prng::new(model.meta.seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Shared helper: set `occupant_equiv` on attached CO₂ sensors.
pub(crate) fn drive_co2(ctx: &mut digibox_core::SimCtx, occupants: f64) {
    let sensors: Vec<String> = ctx.atts.of_type("Co2").into_iter().map(str::to_string).collect();
    for s in sensors {
        ctx.atts.set(&s, "occupant_equiv", occupants);
    }
}
