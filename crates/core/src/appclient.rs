//! The application side: an endpoint that IoT applications (or test
//! drivers) use to talk to mocks exactly as they would talk to real
//! devices — REST requests to the device API and MQTT pub/sub through the
//! broker (paper, Fig. 2).
//!
//! `AppClient` also keeps a latency histogram of completed REST requests;
//! the §4 microbenchmarks read their numbers from here.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque}; // keyed lookup only; `dbox audit` (DH0002) checks every iteration site
use std::rc::Rc;

use bytes::Bytes;

use digibox_broker::{ClientEvent, MqttConn, QoS};
use digibox_net::httpx::{Method, Request, Response};
use digibox_net::stats::LatencyHistogram;
use digibox_net::transport::{ReliableEndpoint, TransportEvent};
use digibox_net::{
    Addr, Datagram, FxBuildHasher, Inbox, Service, ServiceHandle, Sim, SimDuration, SimTime,
    TimerToken,
};

/// Token space of a REST endpoint (an MQTT session uses space 1).
pub(crate) const HTTP_TOKEN_SPACE: u16 = 2;

/// What a client with no REST request behind it reports as its latencies.
static NO_LATENCIES: LatencyHistogram = LatencyHistogram::new();

/// Events surfaced to application logic.
#[derive(Debug, Clone, PartialEq)]
pub enum AppEvent {
    /// A REST response arrived.
    Response {
        /// Id returned when the request was issued.
        request_id: u64,
        /// HTTP status code.
        status: u16,
        /// Response body bytes.
        body: Bytes,
        /// Request→response round-trip in virtual time.
        latency: SimDuration,
    },
    /// A REST request failed at the transport level.
    RequestFailed {
        /// Id returned when the request was issued.
        request_id: u64,
    },
    /// An MQTT message arrived on a subscribed topic.
    Message {
        /// Topic the message was published to.
        topic: String,
        /// Message bytes.
        payload: Bytes,
    },
    /// The MQTT session is live.
    MqttConnected,
    /// The MQTT transport gave up on the broker (crash or partition).
    /// Persistent clients ([`AppClient::with_persistent_mqtt`]) redial
    /// automatically; clean-session clients surface the event and stop.
    MqttBrokerLost,
}

struct PendingRequest {
    request_id: u64,
    sent_at: SimTime,
}

/// The REST client side of an [`AppClient`], made in one box by its first
/// request (or the first datagram from a non-broker peer): an MQTT-only
/// client never has one. The endpoint's timer counters start at zero
/// whenever it is made, so it arms the tokens an endpoint made with the
/// client would have armed.
struct Rest {
    http: ReliableEndpoint,
    /// In-flight REST requests per server, FIFO (responses are ordered by
    /// the reliable channel).
    pending: HashMap<Addr, VecDeque<PendingRequest>, FxBuildHasher>,
    next_request_id: u64,
    latencies: LatencyHistogram,
}

/// An application endpoint: REST client + MQTT client with latency
/// accounting.
pub struct AppClient {
    addr: Addr,
    conn: Option<MqttConn>,
    broker: Option<Addr>,
    /// Durable (clean_session = false) MQTT session: survives broker
    /// restarts and redials on `BrokerLost` until the broker answers.
    persistent: bool,
    rest: Option<Box<Rest>>,
    events: Inbox<AppEvent>,
}

impl AppClient {
    /// A REST-only client.
    pub fn new(addr: Addr) -> ServiceHandle<AppClient> {
        Rc::new(RefCell::new(AppClient {
            addr,
            conn: None,
            broker: None,
            persistent: false,
            rest: None,
            events: Inbox::default(),
        }))
    }

    /// A client that also opens an MQTT session to `broker` (call after
    /// binding; connection happens in `on_start`).
    pub fn with_mqtt(addr: Addr, broker: Addr, client_id: &str) -> ServiceHandle<AppClient> {
        let client = AppClient::new(addr);
        {
            let mut c = client.borrow_mut();
            c.conn = Some(MqttConn::new(addr, broker, client_id));
            c.broker = Some(broker);
        }
        client
    }

    /// Like [`AppClient::with_mqtt`] but with a *durable* session
    /// (`clean_session = false`): the broker stashes subscriptions and
    /// in-flight QoS 1/2 state across disconnects and its own restarts,
    /// and the client redials automatically whenever the transport
    /// reports `BrokerLost`, resuming the session where it left off.
    pub fn with_persistent_mqtt(
        addr: Addr,
        broker: Addr,
        client_id: &str,
    ) -> ServiceHandle<AppClient> {
        let client = AppClient::with_mqtt(addr, broker, client_id);
        client.borrow_mut().persistent = true;
        client
    }

    /// In-flight QoS 1/2 publishes awaiting their handshake.
    pub fn unacked_publishes(&self) -> usize {
        self.conn.as_ref().map_or(0, MqttConn::unacked_publishes)
    }

    /// The client's own address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Completed-request latency distribution.
    pub fn latencies(&self) -> &LatencyHistogram {
        self.rest.as_ref().map_or(&NO_LATENCIES, |r| &r.latencies)
    }

    /// Discard accumulated latency samples (benchmark warm-up).
    pub fn reset_latencies(&mut self) {
        if let Some(r) = self.rest.as_mut() {
            r.latencies = LatencyHistogram::new();
        }
    }

    /// REST requests awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.rest.as_ref().map_or(0, |r| r.pending.values().map(VecDeque::len).sum())
    }

    /// The REST side, made on first use.
    fn rest(&mut self) -> &mut Rest {
        self.rest.get_or_insert_with(|| {
            Box::new(Rest {
                http: ReliableEndpoint::new(self.addr).with_space(HTTP_TOKEN_SPACE),
                pending: HashMap::default(),
                next_request_id: 0,
                latencies: LatencyHistogram::new(),
            })
        })
    }

    /// Issue `GET <path>` against the digi at `server`. Returns a request
    /// id matched by the eventual [`AppEvent::Response`].
    pub fn get(&mut self, sim: &mut Sim, server: Addr, path: &str) -> u64 {
        self.request(sim, server, Request::new(Method::Get, path))
    }

    /// Issue `POST <path>` with a JSON body.
    pub fn post_json(&mut self, sim: &mut Sim, server: Addr, path: &str, body: &str) -> u64 {
        self.request(
            sim,
            server,
            Request::new(Method::Post, path).with_body("application/json", body.as_bytes().to_vec()),
        )
    }

    /// Issue an arbitrary request.
    pub fn request(&mut self, sim: &mut Sim, server: Addr, req: Request) -> u64 {
        let rest = self.rest();
        let request_id = rest.next_request_id;
        rest.next_request_id += 1;
        rest.pending
            .entry(server)
            .or_default()
            .push_back(PendingRequest { request_id, sent_at: sim.now() });
        rest.http.send(sim, server, req.encode());
        request_id
    }

    /// Subscribe to MQTT topics (requires `with_mqtt`).
    pub fn subscribe(&mut self, sim: &mut Sim, filters: &[(&str, QoS)]) {
        if let Some(conn) = self.conn.as_mut() {
            conn.subscribe(sim, filters);
        }
    }

    /// Publish an MQTT message (requires `with_mqtt`).
    pub fn publish(&mut self, sim: &mut Sim, topic: &str, payload: impl AsRef<[u8]>, qos: QoS) {
        if let Some(conn) = self.conn.as_mut() {
            conn.publish(sim, topic, payload, qos, false);
        }
    }

    /// Pop the next application event.
    pub fn poll(&mut self) -> Option<AppEvent> {
        self.events.pop()
    }

    /// Drain every pending event.
    pub fn poll_all(&mut self) -> Vec<AppEvent> {
        std::iter::from_fn(|| self.events.pop()).collect()
    }

    fn pump(&mut self, sim: &mut Sim) {
        if let Some(rest) = self.rest.as_deref_mut() {
            while let Some(ev) = rest.http.poll() {
                match ev {
                    TransportEvent::Delivered { peer, payload } => {
                        let Some(pending) =
                            rest.pending.get_mut(&peer).and_then(|q| q.pop_front())
                        else {
                            continue; // unsolicited response; drop
                        };
                        let latency = sim.now() - pending.sent_at;
                        rest.latencies.record(latency);
                        let request_id = pending.request_id;
                        self.events.push(match Response::decode(&payload) {
                            Ok(resp) => AppEvent::Response {
                                request_id,
                                status: resp.status,
                                body: resp.body,
                                latency,
                            },
                            Err(_) => AppEvent::RequestFailed { request_id },
                        });
                    }
                    TransportEvent::PeerFailed { peer } => {
                        if let Some(q) = rest.pending.remove(&peer) {
                            for p in q {
                                let request_id = p.request_id;
                                self.events.push(AppEvent::RequestFailed { request_id });
                            }
                        }
                    }
                }
            }
        }
        if let Some(conn) = self.conn.as_mut() {
            while let Some(ev) = conn.poll() {
                match ev {
                    ClientEvent::Message { topic, payload, .. } => {
                        self.events.push(AppEvent::Message { topic, payload });
                    }
                    ClientEvent::Connected { .. } => self.events.push(AppEvent::MqttConnected),
                    ClientEvent::BrokerLost => {
                        self.events.push(AppEvent::MqttBrokerLost);
                        if self.persistent {
                            // Redial on the spot: if the broker is still
                            // down the CONNECT's own retries exhaust into
                            // another BrokerLost and we land here again.
                            conn.connect_persistent(sim, None);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

impl Service for AppClient {
    fn on_start(&mut self, sim: &mut Sim) {
        if let Some(conn) = self.conn.as_mut() {
            if self.persistent {
                conn.connect_persistent(sim, None);
            } else {
                conn.connect(sim, None);
            }
        }
    }

    fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
        if Some(dg.src) == self.broker {
            if let Some(conn) = self.conn.as_mut() {
                conn.on_datagram(sim, dg);
            }
        } else {
            self.rest().http.on_datagram(sim, dg);
        }
        self.pump(sim);
    }

    fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
        // No HTTP timer is armed before the REST side exists.
        let mut handled = self.rest.as_mut().is_some_and(|r| r.http.on_timer(sim, token));
        if !handled {
            if let Some(conn) = self.conn.as_mut() {
                handled = conn.on_timer(sim, token);
            }
        }
        if handled {
            self.pump(sim);
        }
    }
}
