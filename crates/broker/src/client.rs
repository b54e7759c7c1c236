//! Client-side MQTT connection state machine, embedded by mocks, scenes
//! and applications (they own the [`digibox_net::Service`] binding and
//! forward datagrams/timers here).

use std::collections::BTreeSet;

use bytes::Bytes;

use digibox_net::transport::{ReliableEndpoint, TransportEvent};
use digibox_net::{Addr, Datagram, Inbox, Sim, TimerToken};

use crate::packet::{ConnectFlags, InFlight, Packet, PublishRef, QoS};
use crate::pidmap::PidMap;

/// Events surfaced to the owner of an [`MqttConn`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// CONNACK received; the session is live.
    Connected {
        /// Whether the broker resumed prior session state.
        session_present: bool,
    },
    /// An application message arrived on a subscribed topic.
    Message {
        /// Topic the message was published to.
        topic: String,
        /// Message bytes.
        payload: Bytes,
        /// Whether this was a retained message served on subscribe.
        retain: bool,
    },
    /// The broker acknowledged a subscribe request.
    SubAck {
        /// Id of the subscribe being acknowledged.
        packet_id: u16,
    },
    /// The broker acknowledged a QoS-1 publish.
    PubAck {
        /// Id of the publish being acknowledged.
        packet_id: u16,
    },
    /// A QoS-2 publish completed its four-way handshake (PUBCOMP received).
    PubComp {
        /// Id of the publish whose handshake completed.
        packet_id: u16,
    },
    /// The link to the broker failed (retries exhausted).
    BrokerLost,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Idle,
    Connecting,
    Connected,
}

/// An MQTT client connection to one broker.
pub struct MqttConn {
    broker: Addr,
    client_id: String,
    ep: ReliableEndpoint,
    state: State,
    clean_session: bool,
    next_pid: u16,
    /// QoS 1/2 publishes whose handshake is incomplete, in pid order so
    /// resumption retransmits deterministically.
    outbound: PidMap<InFlight>,
    /// Packet ids of inbound QoS-2 publishes received but not yet
    /// released (PUBREL pending) — the receiver-side dedup set.
    inbound_rec: BTreeSet<u16>,
    events: Inbox<ClientEvent>,
}

impl MqttConn {
    /// An idle connection from `local` toward `broker` (no packets sent yet).
    pub fn new(local: Addr, broker: Addr, client_id: &str) -> MqttConn {
        MqttConn {
            broker,
            client_id: client_id.to_string(),
            ep: ReliableEndpoint::new(local).with_space(1),
            state: State::Idle,
            clean_session: true,
            next_pid: 1,
            outbound: PidMap::new(),
            inbound_rec: BTreeSet::new(),
            events: Inbox::default(),
        }
    }

    /// This session's client identifier.
    pub fn client_id(&self) -> &str {
        &self.client_id
    }

    /// The broker address this connection points at.
    pub fn broker(&self) -> Addr {
        self.broker
    }

    /// Whether a CONNACK has been received.
    pub fn is_connected(&self) -> bool {
        self.state == State::Connected
    }

    /// Number of QoS 1/2 publishes whose handshake is not yet complete.
    pub fn unacked_publishes(&self) -> usize {
        self.outbound.len()
    }

    fn next_pid(&mut self) -> u16 {
        let pid = self.next_pid;
        self.next_pid = self.next_pid.checked_add(1).unwrap_or(1);
        pid
    }

    fn send_packet(&mut self, sim: &mut Sim, pkt: &Packet) {
        self.ep.send_with(sim, self.broker, pkt.encoded_len(), |b| pkt.encode_into(b));
    }

    /// Open the session (CONNECT). `will` is the optional last-will
    /// message. The session is clean unless [`MqttConn::connect_persistent`]
    /// was used for this connection.
    pub fn connect(&mut self, sim: &mut Sim, will: Option<(String, Bytes)>) {
        self.state = State::Connecting;
        let pkt = Packet::Connect {
            client_id: self.client_id.clone(),
            flags: ConnectFlags {
                clean_session: self.clean_session,
                will,
                keep_alive_secs: 60,
            },
        };
        self.send_packet(sim, &pkt);
    }

    /// Open a *persistent* session (CONNECT with `clean_session = false`):
    /// the broker retains subscriptions and in-flight QoS 1/2 state across
    /// disconnects, and CONNACK reports `session_present = true` on
    /// resumption. All later `connect` calls on this connection stay
    /// persistent.
    pub fn connect_persistent(&mut self, sim: &mut Sim, will: Option<(String, Bytes)>) {
        self.clean_session = false;
        self.connect(sim, will);
    }

    /// Subscribe to topic filters; returns the packet id to correlate the
    /// eventual [`ClientEvent::SubAck`].
    pub fn subscribe(&mut self, sim: &mut Sim, filters: &[(&str, QoS)]) -> u16 {
        let pid = self.next_pid();
        let pkt = Packet::Subscribe {
            packet_id: pid,
            filters: filters.iter().map(|(f, q)| (f.to_string(), *q)).collect(),
        };
        self.send_packet(sim, &pkt);
        pid
    }

    /// Remove topic filters; returns the UNSUBSCRIBE packet id.
    pub fn unsubscribe(&mut self, sim: &mut Sim, filters: &[&str]) -> u16 {
        let pid = self.next_pid();
        let pkt = Packet::Unsubscribe {
            packet_id: pid,
            filters: filters.iter().map(|s| s.to_string()).collect(),
        };
        self.send_packet(sim, &pkt);
        pid
    }

    /// Publish. Returns the packet id for QoS 1/2 publishes.
    pub fn publish(
        &mut self,
        sim: &mut Sim,
        topic: &str,
        payload: impl AsRef<[u8]>,
        qos: QoS,
        retain: bool,
    ) -> Option<u16> {
        let packet_id = match qos {
            QoS::AtMostOnce => None,
            QoS::AtLeastOnce | QoS::ExactlyOnce => Some(self.next_pid()),
        };
        let publish =
            PublishRef { dup: false, qos, retain, topic, packet_id, payload: payload.as_ref() };
        let packet =
            self.ep.send_with(sim, self.broker, publish.encoded_len(), |b| publish.encode_into(b));
        if let Some(pid) = packet_id {
            self.outbound.insert(pid, InFlight { packet, released: false });
        }
        packet_id
    }

    /// Send a keep-alive probe.
    pub fn ping(&mut self, sim: &mut Sim) {
        self.send_packet(sim, &Packet::PingReq);
    }

    /// Graceful teardown (broker discards the last-will).
    pub fn disconnect(&mut self, sim: &mut Sim) {
        self.send_packet(sim, &Packet::Disconnect);
        self.state = State::Idle;
    }

    /// Feed a datagram from the owning service. Returns true when consumed.
    pub fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) -> bool {
        if dg.src != self.broker {
            return false;
        }
        if !self.ep.on_datagram(sim, dg) {
            return false;
        }
        self.pump(sim);
        true
    }

    /// Feed a timer token. Returns true when it belonged to the transport.
    pub fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) -> bool {
        let mine = self.ep.on_timer(sim, token);
        if mine {
            self.pump(sim);
        }
        mine
    }

    fn pump(&mut self, sim: &mut Sim) {
        while let Some(ev) = self.ep.poll() {
            match ev {
                TransportEvent::Delivered { payload, .. } => match Packet::decode_shared(&payload) {
                    Ok(pkt) => self.handle_packet(sim, pkt),
                    Err(_) => { /* count and drop malformed broker frames */ }
                },
                TransportEvent::PeerFailed { .. } => {
                    self.state = State::Idle;
                    self.events.push(ClientEvent::BrokerLost);
                }
            }
        }
    }

    /// Retransmit in-flight QoS 1/2 state after the broker resumed our
    /// session: unacknowledged publishes go out again with DUP set, and
    /// half-released QoS 2 pids re-send their PUBREL. Pid order keeps the
    /// retransmit schedule deterministic.
    fn retransmit_inflight(&mut self, sim: &mut Sim) {
        let resend: Vec<(u16, InFlight)> =
            self.outbound.iter().map(|(pid, ob)| (pid, ob.clone())).collect();
        for (pid, ob) in resend {
            if ob.released {
                self.send_packet(sim, &Packet::PubRel { packet_id: pid });
            } else {
                self.ep.send_with(sim, self.broker, ob.packet.len(), |b| ob.put_dup(b));
            }
        }
    }

    fn handle_packet(&mut self, sim: &mut Sim, pkt: Packet) {
        match pkt {
            Packet::ConnAck { session_present, code: 0 } => {
                self.state = State::Connected;
                if session_present {
                    self.retransmit_inflight(sim);
                } else {
                    // The broker kept nothing; our half of the old
                    // session dies with it (spec §3.1.2-6).
                    self.outbound.clear();
                    self.inbound_rec.clear();
                }
                self.events.push(ClientEvent::Connected { session_present });
            }
            Packet::ConnAck { .. } => {
                self.state = State::Idle;
                self.events.push(ClientEvent::BrokerLost);
            }
            Packet::Publish { topic, payload, retain, qos, packet_id, .. } => {
                match qos {
                    QoS::AtMostOnce => {
                        self.events.push(ClientEvent::Message { topic, payload, retain });
                    }
                    // QoS-1 inbound: acknowledge before surfacing.
                    QoS::AtLeastOnce => {
                        if let Some(pid) = packet_id {
                            self.send_packet(sim, &Packet::PubAck { packet_id: pid });
                        }
                        self.events.push(ClientEvent::Message { topic, payload, retain });
                    }
                    // QoS-2 inbound: surface on *first* receipt only; a
                    // re-received pid (DUP after resumption) is answered
                    // with PUBREC again but never re-surfaced.
                    QoS::ExactlyOnce => {
                        let Some(pid) = packet_id else { return };
                        if self.inbound_rec.insert(pid) {
                            self.events.push(ClientEvent::Message { topic, payload, retain });
                        }
                        self.send_packet(sim, &Packet::PubRec { packet_id: pid });
                    }
                }
            }
            Packet::PubAck { packet_id } => {
                self.outbound.remove(packet_id);
                self.events.push(ClientEvent::PubAck { packet_id });
            }
            Packet::PubRec { packet_id } => {
                if let Some(ob) = self.outbound.get_mut(packet_id) {
                    ob.released = true;
                }
                self.send_packet(sim, &Packet::PubRel { packet_id });
            }
            Packet::PubRel { packet_id } => {
                self.inbound_rec.remove(&packet_id);
                self.send_packet(sim, &Packet::PubComp { packet_id });
            }
            Packet::PubComp { packet_id } => {
                let completed = self.outbound.remove(packet_id).is_some();
                if completed {
                    self.events.push(ClientEvent::PubComp { packet_id });
                }
            }
            Packet::SubAck { packet_id, .. } => {
                self.events.push(ClientEvent::SubAck { packet_id });
            }
            Packet::UnsubAck { .. } | Packet::PingResp => {}
            // Broker-side keep-alive probe: answer so the session's idle
            // clock resets (the transport ACK alone already proves
            // liveness, but the response keeps probe traffic symmetric).
            Packet::PingReq => self.send_packet(sim, &Packet::PingResp),
            // Packets only a client sends — ignore if a confused peer sends them.
            _ => {}
        }
    }

    /// Pop the next pending event.
    pub fn poll(&mut self) -> Option<ClientEvent> {
        self.events.pop()
    }
}

#[cfg(test)]
impl MqttConn {
    /// Make `pid` the next packet id (tests of the 65535 → 1 wrap).
    pub(crate) fn set_next_pid(&mut self, pid: u16) {
        self.next_pid = pid;
    }
}
