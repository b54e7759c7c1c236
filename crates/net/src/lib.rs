//! # digibox-net
//!
//! The simulation substrate underneath every Digibox testbed:
//!
//! * [`SimTime`]/[`SimDuration`] — the virtual clock.
//! * [`Prng`] — a small, stable, splittable PRNG so every component gets an
//!   independent, reproducible random stream (paper goal: reproducibility).
//! * [`Sim`] — the discrete-event kernel: a time-ordered event queue driving
//!   [`Service`]s that exchange [`Datagram`]s across a simulated
//!   [`Topology`] of nodes and links (latency, jitter, loss, bandwidth).
//! * [`transport`] — a reliable, ordered message channel (sequence numbers,
//!   cumulative acks, retransmission) built on the lossy datagram layer.
//! * [`httpx`] — an HTTP/1.1-subset codec for the REST device API.
//! * [`Inbox`] — the endpoints' event FIFO, one event inline;
//!   [`FxBuildHasher`] — the seedless hasher of the messaging maps.
//! * [`stats`] — counters and a log-bucketed latency histogram used by the
//!   microbenchmarks.
//!
//! The paper deploys mocks and scenes as containers on Kubernetes and talks
//! to them over real TCP. Here the same protocols (MQTT packets, HTTP
//! requests) run over this deterministic in-process network, which is what
//! lets a whole cluster-scale testbed execute — reproducibly — inside one
//! laptop process (the paper's title, taken literally).

#![warn(missing_docs)]

pub mod chaos;
mod fxhash;
pub mod httpx;
mod inbox;
mod kernel;
mod prng;
pub mod stats;
mod time;
mod topology;
pub mod transport;
pub mod wheel;

pub use chaos::{FaultKind, FaultPlan, FaultSpec, FaultWindow};
pub use fxhash::{FxBuildHasher, FxHasher};
pub use inbox::Inbox;
pub use kernel::{Datagram, RemoteDatagram, Service, ServiceHandle, Sim, SimConfig, TimerToken};
pub use wheel::EventWheel;
pub use prng::{for_each_seed, Prng};
pub use time::{SimDuration, SimTime};
pub use topology::{Addr, LinkSpec, LinkState, NodeId, NodeSpec, Topology};
