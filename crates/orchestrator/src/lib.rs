//! # digibox-orchestrator
//!
//! A miniature declarative orchestrator — the stand-in for the paper's
//! Kubernetes + dSpace runtime (§4). Digibox deploys every mock and scene
//! controller as a "digi" microservice; this crate provides the pieces of
//! Kubernetes that deployment actually relies on:
//!
//! * [`PodSpec`]/[`PodPhase`] — pod-like units with CPU/memory requests and
//!   a lifecycle state machine.
//! * [`Scheduler`] — filter + score (least-allocated) placement onto the
//!   simulated nodes.
//! * [`ControlPlane`] — ties it together: its pod table is the one record
//!   of pod state. It reconciles desired pods against node capacity and
//!   emits timed [`PodAction`]s that the testbed applies on the simulation
//!   kernel (container startup delays); crashed pods back off
//!   exponentially before the testbed requeues them.

mod control;
mod pod;
mod scheduler;

pub use control::{ControlPlane, PodAction, PodError};
pub use pod::{PodPhase, PodSpec};
pub use scheduler::{NodeAlloc, ScheduleError, Scheduler};
