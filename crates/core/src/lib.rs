//! # digibox-core
//!
//! **Digibox**: a scene-centric prototyping environment for IoT
//! applications (Fu et al., HotNets'22), reimplemented as a deterministic
//! in-process system in Rust.
//!
//! Digibox's two core abstractions are the **mock** (a simulated device:
//! model + event generator + simulator + logger) and the **scene** (a
//! controller that *ensembles* attached mocks and nested scenes, generating
//! scene-level events and keeping the mocks' correlated state consistent).
//! Applications talk to mocks over MQTT and REST exactly as they would talk
//! to real devices, which is what makes prototypes transferable.
//!
//! The crate layers:
//!
//! * [`DigiProgram`] — the programming model for device and scene logic
//!   (the Rust equivalent of the paper's Python `dbox` library, Fig. 4/5):
//!   an event-generation handler run on a configurable loop and a
//!   simulation handler run on model change.
//! * [`DigiCell`] — one digi's transport-independent state machine
//!   (model, program, attachment mirror, logging).
//! * [`DigiPool`] — the one host of cells: a service on the simulated
//!   network speaking MQTT to the broker and HTTP to applications. A
//!   dedicated digi is a one-cell pool on its own session (every digi is
//!   a pod, paper §4); a shared pool runs many cells on one session (the
//!   paper's §6 FaaS question).
//! * [`Testbed`] — the runtime: simulated cluster, control plane, broker
//!   and trace log, orchestrating digi pods (paper §4). Its methods are
//!   the Table-1 verbs (`run`, `stop`, `check`, `attach`, `edit`,
//!   `commit`, `replay`) that the `dbox` CLI drives.
//! * [`properties`] — scene properties: disallowed-state invariants and
//!   bounded temporal operators, checked online against the trace.
//! * [`AppClient`] — the application side: a REST/MQTT client endpoint
//!   with latency accounting, used by example apps and the §4
//!   microbenchmarks.
//! * [`sweep`] — the deterministic multi-core sweep engine: workers claim
//!   seeds from one shared cursor and results merge in canonical order,
//!   so campaigns and benches scale across cores without changing a
//!   single digest.
//! * [`islands`] — deterministic space-parallel execution *inside* one
//!   run: one event kernel per scene island, synchronized at conservative
//!   lookahead barriers, with cross-island datagrams merged in canonical
//!   order so every digest is worker-count independent.

#![warn(missing_docs)]

mod appclient;
mod atts;
pub mod campaign;
mod catalog;
pub mod cell;
pub mod checkpoint;
pub mod footprint;
pub mod islands;
pub mod pool;
pub mod program;
pub mod properties;
pub mod suggest;
pub mod sweep;
mod testbed;
pub mod topics;

pub use appclient::{AppClient, AppEvent};
pub use atts::Atts;
pub use campaign::{Campaign, Scorecard, SeedReport};
pub use cell::{CellStats, DigiCell, Outbox};
pub use checkpoint::{CheckpointInfo, CheckpointStore};
pub use catalog::{Catalog, CatalogError};
pub use footprint::Footprint;
pub use islands::{IslandEnv, IslandSpec, IslandsRun};
pub use pool::{DigiPool, PoolStats};
pub use program::{DigiProgram, LoopCtx, SimCtx};
pub use properties::{Condition, PropertyChecker, SceneProperty, Temporal};
pub use sweep::{SeedError, SeedRun, SweepOutcome};
pub use testbed::{FidelityMode, Testbed, TestbedConfig, TestbedError};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, TestbedError>;
