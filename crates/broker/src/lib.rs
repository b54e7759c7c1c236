//! # digibox-broker
//!
//! An MQTT-subset message broker for Digibox testbeds — the stand-in for
//! EMQX in the paper's deployment (§4). Mocks publish status updates and
//! applications publish commands through a [`Broker`] service bound on the
//! simulated network; both sides speak real MQTT 3.1.1 packets
//! ([`packet`]) over the reliable transport, so messages round-trip through
//! an actual wire encoding rather than function calls.
//!
//! Supported: CONNECT/CONNACK (with last-will, clean and persistent
//! sessions with `session_present` on resume), PUBLISH QoS 0/1/2 (PUBACK,
//! the PUBREC/PUBREL/PUBCOMP exactly-once handshake, DUP redelivery,
//! packet-id dedup), SUBSCRIBE/SUBACK with `+`/`#` wildcards and
//! `$share/<group>/` shared subscriptions (deterministic round-robin),
//! UNSUBSCRIBE, retained messages, PINGREQ/PINGRESP, DISCONNECT. Durable
//! sessions survive broker restarts via [`Broker::export_sessions`] /
//! [`Broker::import_sessions`]. Not supported (out of scope for the
//! testbed): auth.
//!
//! The codec is continuously exercised by a seeded structure-aware fuzzer
//! ([`fuzz`], surfaced as `dbox fuzz`): decode never panics, valid packets
//! round-trip byte-faithfully.

#![warn(missing_docs)]

mod broker;
mod client;
pub mod fuzz;
pub mod packet;
mod pidmap;
mod topic;

pub use broker::{Broker, BrokerStats, OutboundSnapshot, SessionSnapshot};
pub use client::{ClientEvent, MqttConn};
pub use fuzz::FuzzReport;
pub use packet::{ConnectFlags, Packet, PacketError, QoS};
pub use topic::{matches, parse_share, validate_filter, validate_topic, TopicTrie, SHARE_PREFIX};
