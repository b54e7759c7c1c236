//! Reliable, ordered message delivery over the (possibly lossy) datagram
//! layer.
//!
//! The simulated links can drop and reorder (jitter) datagrams, so services
//! that need in-order, exactly-once message streams — the MQTT broker
//! connections and the REST API — embed a [`ReliableEndpoint`]: per-peer
//! sequence numbers, cumulative acks, retransmission with exponential
//! backoff, and bounded retries. This is a deliberately small ARQ, not TCP:
//! no windows or congestion control, because simulated IoT messages are
//! small and sparse.
//!
//! Frame wire format (big-endian):
//!
//! ```text
//! DATA: 0x01 | inc: u64 | seq: u64 | payload...
//! ACK:  0x02 | inc: u64 | cumulative_ack: u64   (highest in-order seq received)
//! ```
//!
//! `inc` is the sender's connection *incarnation* — assigned when the
//! connection record is created (from the deterministic sim clock, so
//! replays stay identical). It is what makes restarts safe: a receiver
//! seeing a higher incarnation from a peer discards its stale receive
//! state for that peer (the peer reset and restarted its sequence space),
//! a lower one is a ghost from a dead connection and is dropped, and an
//! ACK is honored only if it echoes the current incarnation — so a
//! restarted service can never have its fresh frames silently "acked" by
//! a peer that was actually talking to the previous incarnation.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap}; // keyed lookup only; `dbox audit` (DH0002) checks every iteration site

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{Addr, Datagram, FxBuildHasher, Inbox, Sim, SimDuration, TimerToken};

const FRAME_DATA: u8 = 0x01;
const FRAME_ACK: u8 = 0x02;
/// Bytes before a DATA frame's payload: kind, incarnation, sequence.
const FRAME_HEADER: usize = 17;

/// Timer tokens used by reliable endpoints have this bit set, so the owning
/// service can route `on_timer` callbacks without ambiguity.
pub const RELIABLE_TIMER_BIT: u64 = 1 << 63;

/// Bits 48..63 of a reliable-endpoint timer token carry the endpoint's
/// *token space*, so one service can host several endpoints (e.g. an MQTT
/// connection and an HTTP server) without timer collisions.
pub const TOKEN_SPACE_SHIFT: u32 = 48;

/// Default initial retransmission timeout.
pub const DEFAULT_RTO: SimDuration = SimDuration::from_millis(50);

/// Default retry budget before a peer is declared failed.
pub const DEFAULT_MAX_RETRIES: u32 = 8;

/// An event surfaced to the owning service.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportEvent {
    /// An in-order application payload from `peer`.
    Delivered {
        /// Remote endpoint the payload came from.
        peer: Addr,
        /// The application bytes, in send order.
        payload: Bytes,
    },
    /// Retries exhausted on a message to `peer`; the connection state has
    /// been reset.
    PeerFailed {
        /// Remote endpoint the connection was reset for.
        peer: Addr,
    },
}

/// Per-peer connection state.
///
/// Memory follows the live window: the frames in flight sit in an
/// [`Inbox`] indexed by sequence number, not in a tree that keeps an
/// empty leaf node at both ends of every connection once its window
/// drains, and the oldest frame sits inline, so a connection with at
/// most one frame in flight owns no buffer. A deeper window spills into
/// the `Inbox`'s overflow, whose capacity follows the window (as do the
/// endpoint's timer deque and the MQTT pid maps): a cumulative ACK that
/// retires the whole window frees a buffer grown past four slots, and
/// one that leaves it at most a quarter full shrinks it, so the 32-byte
/// entries (a 24-byte `Bytes` and the retry count) a partition piled up
/// do not outlive the heal. The reorder map holds a node only while a
/// gap is open. A connection costs this 120-byte record: inline in the
/// endpoint for its first peer, in a map bucket beside an 8-byte key for
/// every other one. DESIGN.md §4 has the measured bytes per client.
#[derive(Debug, Default)]
struct ConnState {
    /// This side's connection incarnation, stamped on every outgoing DATA
    /// frame. Assigned (non-zero) on the first send; a connection reset
    /// re-assigns it from the then-current sim clock, so the peer can tell
    /// a fresh sequence space from a replay of the old one.
    send_inc: u64,
    /// Next sequence number to assign on send.
    next_send_seq: u64,
    /// Sent but not yet cumulatively acked, as (DATA frame, retries):
    /// entry `i` is seq `next_send_seq - unacked.len() + i`, so a send
    /// pushes at the back and a cumulative ACK drains the front. An RTO
    /// re-sends the stored frame as is.
    unacked: Inbox<(Bytes, u32)>,
    /// The peer's incarnation the receive state belongs to (0 = none seen
    /// yet). Frames from an older incarnation are ghosts and dropped; a
    /// newer one resets `recv_cursor`/`reorder`.
    peer_inc: u64,
    /// Highest in-order seq delivered from the peer.
    recv_cursor: u64,
    /// Out-of-order arrivals waiting for the gap to fill; empty, and
    /// holding no node, while no gap is open.
    reorder: BTreeMap<u64, Bytes>,
}

impl ConnState {
    /// Seq of the oldest unacked frame (`next_send_seq` when none is).
    fn first_unacked(&self) -> u64 {
        self.next_send_seq - self.unacked.len() as u64
    }

    /// The unacked entry for `seq`, if it is still in flight.
    fn unacked_mut(&mut self, seq: u64) -> Option<&mut (Bytes, u32)> {
        let i = seq.checked_sub(self.first_unacked())?;
        self.unacked.get_mut(usize::try_from(i).ok()?)
    }

    /// Retire every frame up to and including `ack`: none for an ACK
    /// below the window, all of them for one beyond it.
    fn retire_through(&mut self, ack: u64) {
        let Some(below) = ack.checked_sub(self.first_unacked()) else { return };
        let n = usize::try_from(below).map_or(usize::MAX, |b| b.saturating_add(1));
        self.unacked.drain_front(n);
    }
}

/// An endpoint's connections, by peer: the first peer's inline (an MQTT
/// client only ever talks to its broker, so its endpoint needs no map),
/// every other peer's in a map. A peer's connection is in one of the
/// two; nothing iterates over them.
#[derive(Default)]
struct Conns {
    first: Option<(Addr, ConnState)>,
    rest: HashMap<Addr, ConnState, FxBuildHasher>,
}

impl Conns {
    /// The connection to `peer`, if there is one.
    fn get(&self, peer: Addr) -> Option<&ConnState> {
        match &self.first {
            Some((a, c)) if *a == peer => Some(c),
            _ => self.rest.get(&peer),
        }
    }

    /// The connection to `peer`, mutably.
    fn get_mut(&mut self, peer: Addr) -> Option<&mut ConnState> {
        match &mut self.first {
            Some((a, c)) if *a == peer => Some(c),
            _ => self.rest.get_mut(&peer),
        }
    }

    /// The connection to `peer`, made empty if there is none: inline
    /// while the inline place is free.
    fn entry(&mut self, peer: Addr) -> &mut ConnState {
        if self.first.is_none() && !self.rest.contains_key(&peer) {
            self.first = Some((peer, ConnState::default()));
        }
        match &mut self.first {
            Some((a, c)) if *a == peer => c,
            _ => self.rest.entry(peer).or_default(),
        }
    }

    /// Drop the connection to `peer`.
    fn remove(&mut self, peer: Addr) {
        if self.first.as_ref().is_some_and(|(a, _)| *a == peer) {
            self.first = None;
        } else {
            self.rest.remove(&peer);
        }
    }
}

/// Reliable-messaging state machine for one local address.
pub struct ReliableEndpoint {
    local: Addr,
    space: u16,
    rto: SimDuration,
    max_retries: u32,
    conns: Conns,
    /// Retransmit timers by token counter: entry `i` belongs to counter
    /// `first_token + i` (token `RELIABLE_TIMER_BIT | space << 48 |
    /// counter`) and is `Some((peer, seq))` while armed; the next counter
    /// is `first_token + timers.len()`. Firing or a peer failure empties an
    /// entry and the front is trimmed of empty ones, so the deque spans
    /// the oldest armed timer to the newest: every timer fires within
    /// 8 × RTO of arming. A timer that never reaches this endpoint (its
    /// service unbound meanwhile) stays armed and holds the front.
    ///
    /// Counters restart at zero in every endpoint, so a token still
    /// pending from an earlier endpoint at the same address resolves
    /// whatever this one armed under the same counter, if anything.
    timers: Inbox<Option<(Addr, u64)>>,
    first_token: u64,
    /// `Some` entries in `timers`.
    armed: usize,
    events: Inbox<TransportEvent>,
    /// DATA frames retransmitted after an RTO firing.
    retransmits: u64,
    /// Duplicate DATA frames received (already delivered or already
    /// buffered) — each one is a message the network made us see twice.
    duplicates: u64,
}

impl ReliableEndpoint {
    /// An endpoint at `local` with default retransmit settings.
    pub fn new(local: Addr) -> ReliableEndpoint {
        ReliableEndpoint::with_config(local, DEFAULT_RTO, DEFAULT_MAX_RETRIES)
    }

    /// An endpoint with explicit retransmit timeout and retry budget.
    pub fn with_config(local: Addr, rto: SimDuration, max_retries: u32) -> ReliableEndpoint {
        ReliableEndpoint {
            local,
            space: 0,
            rto,
            max_retries,
            conns: Conns::default(),
            timers: Inbox::new(),
            first_token: 0,
            armed: 0,
            events: Inbox::default(),
            retransmits: 0,
            duplicates: 0,
        }
    }

    /// Assign a token space (see [`TOKEN_SPACE_SHIFT`]); endpoints sharing
    /// one service address must use distinct spaces.
    pub fn with_space(mut self, space: u16) -> ReliableEndpoint {
        assert!(space < 0x8000, "token space is 15 bits");
        self.space = space;
        self
    }

    /// The endpoint's own address.
    pub fn local(&self) -> Addr {
        self.local
    }

    /// Number of messages sent to `peer` that are not yet acknowledged.
    pub fn in_flight(&self, peer: Addr) -> usize {
        self.conns.get(peer).map_or(0, |c| c.unacked.len())
    }

    /// Total DATA frames retransmitted after an RTO expiry.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Total duplicate DATA frames received (redelivered by retransmission
    /// or link races and suppressed before the application saw them).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Live retransmit timers (testing/diagnostics: must drop to zero for a
    /// peer once that peer is declared failed).
    pub fn pending_timers(&self) -> usize {
        self.armed
    }

    /// Send `payload` reliably to `peer`.
    pub fn send(&mut self, sim: &mut Sim, peer: Addr, payload: Bytes) {
        self.send_with(sim, peer, payload.len(), |b| b.extend_from_slice(&payload));
    }

    /// Send a message of `len` bytes reliably to `peer`, letting `write`
    /// append it straight after the DATA header. The frame is built in one
    /// buffer of exactly `FRAME_HEADER + len` bytes, which both the
    /// datagram and the retransmit queue share; a frame of at most 21
    /// bytes (any 4-byte MQTT acknowledgement) is held inline and
    /// allocates nothing.
    ///
    /// Returns the message as framed: a window onto the frame after its
    /// header, sharing the frame's storage with the retransmit queue, so
    /// a caller that must keep the message (an in-flight QoS 1/2 publish)
    /// keeps it without a copy.
    pub fn send_with(
        &mut self,
        sim: &mut Sim,
        peer: Addr,
        len: usize,
        write: impl FnOnce(&mut BytesMut),
    ) -> Bytes {
        let conn = self.conns.entry(peer);
        if conn.send_inc == 0 {
            // First send on this connection record: stamp its incarnation
            // from the sim clock (+1 keeps it non-zero at t=0). A record
            // created after a reset necessarily gets a later, larger stamp.
            conn.send_inc = sim.now().as_nanos() + 1;
        }
        let seq = conn.next_send_seq;
        conn.next_send_seq += 1;
        let mut b = BytesMut::with_capacity(FRAME_HEADER + len);
        put_data_header(&mut b, conn.send_inc, seq);
        write(&mut b);
        debug_assert_eq!(b.len(), FRAME_HEADER + len, "send_with wrote other than `len` bytes");
        let frame = b.freeze();
        let message = frame.slice(FRAME_HEADER..);
        conn.unacked.push((frame.clone(), 0));
        sim.send(self.local, peer, frame);
        self.arm_timer(sim, peer, seq, 0);
        message
    }

    fn arm_timer(&mut self, sim: &mut Sim, peer: Addr, seq: u64, retries: u32) {
        let counter = self.first_token + self.timers.len() as u64;
        let token = RELIABLE_TIMER_BIT | ((self.space as u64) << TOKEN_SPACE_SHIFT) | counter;
        self.timers.push(Some((peer, seq)));
        self.armed += 1;
        // Exponential backoff, capped at 8× the base RTO.
        let mult = 1u64 << retries.min(3);
        sim.set_timer(self.local, self.rto.saturating_mul(mult), token);
    }

    /// Feed a datagram received by the owning service. Returns `true` when
    /// the datagram was a transport frame (always, unless malformed).
    pub fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) -> bool {
        let peer = dg.src;
        let mut buf = dg.payload;
        if buf.remaining() < 1 {
            return false;
        }
        match buf.get_u8() {
            FRAME_DATA => {
                if buf.remaining() < 16 {
                    return false;
                }
                let inc = buf.get_u64();
                let seq = buf.get_u64();
                // What is left of `buf` is the payload: a window onto the
                // datagram, not a copy.
                self.handle_data(sim, peer, inc, seq, buf);
                true
            }
            FRAME_ACK => {
                if buf.remaining() < 16 {
                    return false;
                }
                let inc = buf.get_u64();
                let ack = buf.get_u64();
                self.handle_ack(peer, inc, ack);
                true
            }
            _ => false,
        }
    }

    fn handle_data(&mut self, sim: &mut Sim, peer: Addr, inc: u64, seq: u64, payload: Bytes) {
        let conn = self.conns.entry(peer);
        if inc < conn.peer_inc {
            // Ghost frame from a connection the peer has since reset
            // (e.g. a retransmit racing the reset). Ignoring it — no
            // buffering, no ack — is what keeps the old sequence space
            // from poisoning the new one.
            return;
        }
        if inc > conn.peer_inc {
            // The peer restarted its sequence space (endpoint restart or
            // post-failure reset): discard receive state tied to the old
            // incarnation and adopt the new one.
            conn.peer_inc = inc;
            conn.recv_cursor = 0;
            conn.reorder.clear();
        }
        if seq < conn.recv_cursor {
            self.duplicates += 1;
        } else if seq == conn.recv_cursor && conn.reorder.is_empty() {
            // The common case: the next frame in order, no gap pending.
            conn.recv_cursor += 1;
            self.events.push(TransportEvent::Delivered { peer, payload });
        } else {
            match conn.reorder.entry(seq) {
                Entry::Occupied(_) => self.duplicates += 1,
                Entry::Vacant(slot) => {
                    slot.insert(payload);
                }
            }
            // Drain the in-order prefix.
            while let Some(p) = conn.reorder.remove(&conn.recv_cursor) {
                conn.recv_cursor += 1;
                self.events.push(TransportEvent::Delivered { peer, payload: p });
            }
            if conn.reorder.is_empty() {
                // The gap filled. A map emptied by `remove` keeps its root
                // leaf (368 bytes); `clear` frees it.
                conn.reorder.clear();
            }
        }
        let cursor = conn.recv_cursor;
        // Cumulative ack: highest in-order seq received (cursor - 1); also
        // acks duplicates so the sender stops retransmitting. Echoes the
        // peer's incarnation so it can reject acks meant for a dead stream.
        if cursor > 0 {
            sim.send(self.local, peer, encode_ack(inc, cursor - 1));
        }
    }

    fn handle_ack(&mut self, peer: Addr, inc: u64, ack: u64) {
        if let Some(conn) = self.conns.get_mut(peer) {
            // Only the current incarnation's acks count; a stale one could
            // otherwise "acknowledge" fresh frames the peer never saw.
            if conn.send_inc == inc {
                // A cumulative ack costs the frames it retires, not the
                // whole in-flight window.
                conn.retire_through(ack);
            }
        }
    }

    /// Feed a timer callback. Returns `true` when the token belonged to
    /// this endpoint.
    pub fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) -> bool {
        if token & RELIABLE_TIMER_BIT == 0 {
            return false;
        }
        if ((token >> TOKEN_SPACE_SHIFT) & 0x7FFF) as u16 != self.space {
            return false;
        }
        let Some((peer, seq)) = self.take_timer(token & ((1 << TOKEN_SPACE_SHIFT) - 1)) else {
            return true; // ours, but already satisfied
        };
        let Some(conn) = self.conns.get_mut(peer) else {
            return true;
        };
        let Some((frame, retries)) = conn.unacked_mut(seq) else {
            return true; // acked in the meantime
        };
        *retries += 1;
        if *retries > self.max_retries {
            // Give up: reset the connection and tell the owner.
            self.conns.remove(peer);
            for t in self.timers.iter_mut().filter(|t| t.is_some_and(|(p, _)| p == peer)) {
                *t = None;
                self.armed -= 1;
            }
            self.trim_timers();
            self.events.push(TransportEvent::PeerFailed { peer });
            return true;
        }
        let frame = frame.clone();
        let retries = *retries;
        self.retransmits += 1;
        sim.send(self.local, peer, frame);
        self.arm_timer(sim, peer, seq, retries);
        true
    }

    /// Disarm and return the timer with token counter `counter`, if armed.
    fn take_timer(&mut self, counter: u64) -> Option<(Addr, u64)> {
        let i = usize::try_from(counter.checked_sub(self.first_token)?).ok()?;
        let armed = self.timers.get_mut(i)?.take()?;
        self.armed -= 1;
        self.trim_timers();
        Some(armed)
    }

    /// Drop the disarmed timers at the front.
    fn trim_timers(&mut self) {
        while let Some(None) = self.timers.front() {
            self.timers.pop();
            self.first_token += 1;
        }
    }

    /// Pop the next application-level event, if any.
    pub fn poll(&mut self) -> Option<TransportEvent> {
        self.events.pop()
    }
}

fn put_data_header(b: &mut BytesMut, inc: u64, seq: u64) {
    b.put_u8(FRAME_DATA);
    b.put_u64(inc);
    b.put_u64(seq);
}

fn encode_ack(inc: u64, ack: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(FRAME_HEADER);
    b.put_u8(FRAME_ACK);
    b.put_u64(inc);
    b.put_u64(ack);
    b.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSpec, NodeSpec, Service, ServiceHandle, SimConfig, Topology};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A hand-made DATA frame.
    fn encode_data(inc: u64, seq: u64, payload: &Bytes) -> Bytes {
        let mut b = BytesMut::with_capacity(FRAME_HEADER + payload.len());
        put_data_header(&mut b, inc, seq);
        b.extend_from_slice(payload);
        b.freeze()
    }

    /// Test service: a reliable endpoint that records what it receives.
    struct Peer {
        ep: ReliableEndpoint,
        /// Every datagram that reached this peer, as received.
        datagrams: Vec<Bytes>,
        delivered: Vec<Vec<u8>>,
        failures: usize,
    }

    impl Peer {
        fn new(addr: Addr) -> ServiceHandle<Peer> {
            Rc::new(RefCell::new(Peer {
                ep: ReliableEndpoint::new(addr),
                datagrams: Vec::new(),
                delivered: Vec::new(),
                failures: 0,
            }))
        }

        fn drain(&mut self) {
            while let Some(ev) = self.ep.poll() {
                match ev {
                    TransportEvent::Delivered { payload, .. } => {
                        self.delivered.push(payload.to_vec())
                    }
                    TransportEvent::PeerFailed { .. } => self.failures += 1,
                }
            }
        }
    }

    impl Service for Peer {
        fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
            self.datagrams.push(dg.payload.clone());
            self.ep.on_datagram(sim, dg);
            self.drain();
        }
        fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
            self.ep.on_timer(sim, token);
            self.drain();
        }
    }

    fn lossy_pair(loss: f64) -> (Sim, ServiceHandle<Peer>, ServiceHandle<Peer>, Addr, Addr) {
        let mut topo = Topology::new();
        let n0 = topo.add_node(NodeSpec::laptop());
        let n1 = topo.add_node(NodeSpec::laptop());
        topo.set_link(n0, n1, LinkSpec::lossy_wireless(loss));
        topo.set_link(n1, n0, LinkSpec::lossy_wireless(loss));
        let mut sim = Sim::new(topo, SimConfig::default());
        let a = Addr::new(n0, 1);
        let b = Addr::new(n1, 1);
        let pa = Peer::new(a);
        let pb = Peer::new(b);
        sim.bind(a, pa.clone());
        sim.bind(b, pb.clone());
        (sim, pa, pb, a, b)
    }

    #[test]
    fn message_carriers_keep_their_size() {
        // Every datagram, timer-wheel entry, retransmit entry and event
        // carries a `Bytes`: a field that regrows one regrows them all.
        // `TransportEvent` needs no tag of its own: `PeerFailed` fits in
        // a value the tag of `Bytes`'s two variants leaves unused.
        use std::mem::size_of;
        assert_eq!(size_of::<Bytes>(), 24);
        assert_eq!(size_of::<Datagram>(), 40);
        assert_eq!(size_of::<TransportEvent>(), 32);
        assert_eq!(size_of::<ConnState>(), 120);
        assert_eq!(size_of::<(Bytes, u32)>(), 32, "an `unacked` entry");
        // An `Inbox` is its inline element (whose `None` takes no tag of
        // its own) and an empty `VecDeque` header.
        assert_eq!(size_of::<Inbox<(Bytes, u32)>>(), 32 + 32, "`unacked`");
        assert_eq!(size_of::<FxBuildHasher>(), 0, "a seedless map stores no hasher state");
    }

    #[test]
    fn lossless_in_order_delivery() {
        let (mut sim, pa, pb, _a, b) = lossy_pair(0.0);
        for i in 0..50u32 {
            pa.borrow_mut().ep.send(&mut sim, b, Bytes::from(i.to_be_bytes().to_vec()));
        }
        sim.run_to_completion();
        let got = &pb.borrow().delivered;
        assert_eq!(got.len(), 50);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(u32::from_be_bytes(p[..4].try_into().unwrap()), i as u32);
        }
        assert_eq!(pa.borrow().ep.in_flight(b), 0, "all messages acked");
    }

    #[test]
    fn survives_30_percent_loss() {
        let (mut sim, pa, pb, _a, b) = lossy_pair(0.3);
        for i in 0..100u32 {
            pa.borrow_mut().ep.send(&mut sim, b, Bytes::from(i.to_be_bytes().to_vec()));
        }
        sim.run_to_completion();
        let got = &pb.borrow().delivered;
        assert_eq!(got.len(), 100, "reliable layer recovers all losses");
        // strict ordering
        for (i, p) in got.iter().enumerate() {
            assert_eq!(u32::from_be_bytes(p[..4].try_into().unwrap()), i as u32);
        }
        assert_eq!(pb.borrow().failures, 0);
    }

    #[test]
    fn total_loss_reports_peer_failure() {
        let (mut sim, pa, pb, a, b) = lossy_pair(0.0);
        // A black-hole link from a to b: everything is lost.
        sim.topology_mut().set_link(a.node, b.node, LinkSpec::lossy_wireless(1.0));
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"doomed"));
        sim.run_to_completion();
        assert_eq!(pa.borrow().failures, 1);
        assert!(pb.borrow().delivered.is_empty());
    }

    #[test]
    fn duplicate_data_is_suppressed() {
        let (mut sim, _pa, pb, a, b) = lossy_pair(0.0);
        // Hand-craft the same DATA frame twice (simulates a retransmit race).
        let frame = encode_data(1, 0, &Bytes::from_static(b"once"));
        sim.send(a, b, frame.clone());
        sim.send(a, b, frame);
        sim.run_to_completion();
        assert_eq!(pb.borrow().delivered, vec![b"once".to_vec()]);
        assert_eq!(pb.borrow().ep.duplicates(), 1, "redelivery counted");
    }

    #[test]
    fn gap_fill_after_in_order_deliveries_keeps_order_and_counts_duplicates() {
        let (mut sim, _pa, pb, a, b) = lossy_pair(0.0);
        // One frame at a time, so link jitter cannot reorder them: 0 and 1
        // arrive in order, 3 and 4 wait for the gap, 4 comes twice while
        // buffered, 2 fills the gap, 5 is in order again, 1 is stale.
        for seq in [0u8, 1, 3, 4, 4, 2, 5, 1] {
            sim.send(a, b, encode_data(1, seq as u64, &Bytes::copy_from_slice(&[seq])));
            sim.run_to_completion();
        }
        let expect: Vec<Vec<u8>> = (0u8..6).map(|s| vec![s]).collect();
        assert_eq!(pb.borrow().delivered, expect);
        assert_eq!(pb.borrow().ep.duplicates(), 2, "buffered and stale repeats both counted");
    }

    #[test]
    fn rto_retransmit_resends_the_first_frame_byte_for_byte() {
        let (mut sim, pa, pb, a, b) = lossy_pair(0.0);
        // Black-hole the ACK path, so the frame is retransmitted, then heal
        // it between the first and the second retransmit.
        sim.topology_mut().set_link(b.node, a.node, LinkSpec::lossy_wireless(1.0));
        pa.borrow_mut().ep.send_with(&mut sim, b, 5, |buf| buf.extend_from_slice(b"hello"));
        sim.run_for(SimDuration::from_millis(120));
        sim.topology_mut().set_link(b.node, a.node, LinkSpec::lossy_wireless(0.0));
        sim.run_to_completion();
        let frames = pb.borrow().datagrams.clone();
        assert_eq!(frames.len(), 3, "first send and two retransmits");
        assert_eq!(frames[0][0], FRAME_DATA);
        assert_eq!(&frames[0][FRAME_HEADER..], b"hello");
        assert!(frames.iter().all(|f| *f == frames[0]), "retransmits differ from the first send");
        assert_eq!(pa.borrow().ep.retransmits(), 2);
        assert_eq!(pa.borrow().ep.in_flight(b), 0);
        assert_eq!(pb.borrow().delivered, vec![b"hello".to_vec()]);
        assert_eq!(pb.borrow().ep.duplicates(), 2);
    }

    #[test]
    fn newer_incarnation_resets_receive_state() {
        let (mut sim, _pa, pb, a, b) = lossy_pair(0.0);
        // Old incarnation delivered seq 0..1, and left a stale out-of-order
        // frame at seq 5 in the reorder buffer.
        sim.send(a, b, encode_data(1, 0, &Bytes::from_static(b"old0")));
        sim.send(a, b, encode_data(1, 1, &Bytes::from_static(b"old1")));
        sim.send(a, b, encode_data(1, 5, &Bytes::from_static(b"stale")));
        sim.run_to_completion();
        assert_eq!(pb.borrow().delivered, vec![b"old0".to_vec(), b"old1".to_vec()]);
        // The peer resets (incarnation 2) and reuses the same seq numbers:
        // the receiver must start a fresh stream, not treat them as dups —
        // and the stale seq-5 frame must never surface.
        for (seq, pl) in [(0, "new0"), (1, "new1"), (2, "new2"), (3, "new3"), (4, "new4"), (5, "new5")] {
            sim.send(a, b, encode_data(2, seq, &Bytes::copy_from_slice(pl.as_bytes())));
        }
        sim.run_to_completion();
        let got: Vec<Vec<u8>> = pb.borrow().delivered.clone();
        assert_eq!(
            got,
            vec![
                b"old0".to_vec(),
                b"old1".to_vec(),
                b"new0".to_vec(),
                b"new1".to_vec(),
                b"new2".to_vec(),
                b"new3".to_vec(),
                b"new4".to_vec(),
                b"new5".to_vec(),
            ],
            "reused sequence numbers deliver fresh payloads, stale buffer discarded"
        );
    }

    #[test]
    fn ghost_frames_from_old_incarnation_dropped() {
        let (mut sim, _pa, pb, a, b) = lossy_pair(0.0);
        sim.send(a, b, encode_data(2, 0, &Bytes::from_static(b"current")));
        sim.run_to_completion();
        // A straggling retransmit from the pre-reset connection: same seq
        // space, older incarnation. Must be ignored entirely.
        sim.send(a, b, encode_data(1, 1, &Bytes::from_static(b"ghost")));
        sim.run_to_completion();
        assert_eq!(pb.borrow().delivered, vec![b"current".to_vec()]);
    }

    #[test]
    fn stale_ack_does_not_clear_new_incarnation_frames() {
        let (mut sim, pa, _pb, a, b) = lossy_pair(0.0);
        // Black-hole a → b so the frame stays in flight.
        sim.topology_mut().set_link(a.node, b.node, LinkSpec::lossy_wireless(1.0));
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"pending"));
        assert_eq!(pa.borrow().ep.in_flight(b), 1);
        // An ack for the same seq but a *different* incarnation (a ghost
        // from a previous life of the peer) must not clear it.
        sim.send(b, a, encode_ack(999, 0));
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(pa.borrow().ep.in_flight(b), 1, "ghost ack cleared live frame");
    }

    #[test]
    fn restarted_receiver_recovers_without_manual_cleanup() {
        // A talks to B, then B's service is replaced by a fresh endpoint at
        // the same address (a "pod restart"). A's next message stalls (its
        // seq/incarnation ride the old stream), retries exhaust, and the
        // post-failure reset gets a NEW incarnation — which the restarted B
        // accepts as a fresh stream. No sweep or manual reset needed.
        let (mut sim, pa, pb, _a, b) = lossy_pair(0.0);
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"before"));
        sim.run_to_completion();
        assert_eq!(pb.borrow().delivered, vec![b"before".to_vec()]);
        // Restart B: unbind, rebind a brand-new endpoint.
        sim.unbind(b);
        let pb2 = Peer::new(b);
        sim.bind(b, pb2.clone());
        // A's send rides the stale connection state; the fresh B ignores
        // the mid-stream frames, A's retries exhaust (~55×RTO), and the
        // failure resets A's connection.
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"lost"));
        sim.run_for(SimDuration::from_secs(4));
        assert_eq!(pa.borrow().failures, 1);
        assert!(pb2.borrow().delivered.is_empty());
        // Post-reset, A reaches the restarted B first try.
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"after"));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(pb2.borrow().delivered, vec![b"after".to_vec()]);
        assert_eq!(pa.borrow().ep.in_flight(b), 0);
    }

    #[test]
    fn peer_failure_after_exactly_max_retries_with_capped_backoff() {
        let (mut sim, pa, _pb, a, b) = lossy_pair(0.0);
        // Black-hole everything a → b so every retransmit is futile.
        sim.topology_mut().set_link(a.node, b.node, LinkSpec::lossy_wireless(1.0));
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"void"));
        sim.run_to_completion();
        let peer = pa.borrow();
        assert_eq!(peer.failures, 1);
        // Exactly DEFAULT_MAX_RETRIES retransmissions went out before the
        // endpoint gave up.
        assert_eq!(peer.ep.retransmits(), DEFAULT_MAX_RETRIES as u64);
        // Backoff schedule with the 8×RTO cap: 1+2+4+8 doubling, then five
        // more capped intervals of 8, so the failing timer lands at
        // (1+2+4+8 + 5×8) × RTO = 55 × RTO. Without the cap it would be
        // 2^9 - 1 = 511 × RTO.
        let expect = DEFAULT_RTO.saturating_mul(55);
        assert_eq!(sim.now().as_millis(), expect.as_millis());
    }

    #[test]
    fn retransmit_state_cleared_on_peer_failure() {
        let (mut sim, pa, _pb, a, b) = lossy_pair(0.0);
        sim.topology_mut().set_link(a.node, b.node, LinkSpec::lossy_wireless(1.0));
        {
            let mut peer = pa.borrow_mut();
            peer.ep.send(&mut sim, b, Bytes::from_static(b"one"));
            peer.ep.send(&mut sim, b, Bytes::from_static(b"two"));
            assert_eq!(peer.ep.in_flight(b), 2);
            assert_eq!(peer.ep.pending_timers(), 2);
        }
        sim.run_to_completion();
        let peer = pa.borrow();
        // One failure event per peer, not per message: the first exhausted
        // message resets the whole connection.
        assert_eq!(peer.failures, 1);
        assert_eq!(peer.ep.in_flight(b), 0, "unacked queue dropped");
        assert_eq!(peer.ep.pending_timers(), 0, "no orphaned timers");
    }

    #[test]
    fn malformed_frames_rejected() {
        let (mut sim, _pa, pb, a, b) = lossy_pair(0.0);
        sim.send(a, b, Bytes::from_static(&[0xFF, 1, 2]));
        sim.send(a, b, Bytes::new());
        sim.send(a, b, Bytes::from_static(&[FRAME_DATA, 0, 1])); // truncated seq
        sim.run_to_completion();
        assert!(pb.borrow().delivered.is_empty());
    }

    #[test]
    fn bidirectional_streams_are_independent() {
        let (mut sim, pa, pb, a, b) = lossy_pair(0.0);
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"to-b"));
        pb.borrow_mut().ep.send(&mut sim, a, Bytes::from_static(b"to-a"));
        sim.run_to_completion();
        assert_eq!(pb.borrow().delivered, vec![b"to-b".to_vec()]);
        assert_eq!(pa.borrow().delivered, vec![b"to-a".to_vec()]);
    }

    #[test]
    fn stale_and_bogus_acks_keep_in_flight_right() {
        let (mut sim, pa, _pb, a, b) = lossy_pair(0.0);
        // Black-hole a → b, so only hand-made ACKs retire frames. The
        // first send at t = 0 stamps incarnation 1.
        sim.topology_mut().set_link(a.node, b.node, LinkSpec::lossy_wireless(1.0));
        for m in [b"m0", b"m1", b"m2"] {
            pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(m));
        }
        let ack = |sim: &mut Sim, seq: u64| {
            sim.send(b, a, encode_ack(1, seq));
            sim.run_for(SimDuration::from_millis(10));
        };
        ack(&mut sim, 0);
        assert_eq!(pa.borrow().ep.in_flight(b), 2);
        ack(&mut sim, 0); // duplicate, below the first unacked seq
        assert_eq!(pa.borrow().ep.in_flight(b), 2);
        ack(&mut sim, 99); // beyond the last seq sent: retires everything
        assert_eq!(pa.borrow().ep.in_flight(b), 0);
        ack(&mut sim, u64::MAX);
        assert_eq!(pa.borrow().ep.in_flight(b), 0);
        // The stream goes on at seq 3; its RTO finds the frame.
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"m3"));
        assert_eq!(pa.borrow().ep.in_flight(b), 1);
        sim.run_for(SimDuration::from_millis(60));
        assert_eq!(pa.borrow().ep.retransmits(), 1);
        ack(&mut sim, 3);
        assert_eq!(pa.borrow().ep.in_flight(b), 0);
        sim.run_to_completion();
        assert_eq!(pa.borrow().ep.retransmits(), 1);
        assert_eq!(pa.borrow().ep.pending_timers(), 0);
        assert_eq!(pa.borrow().failures, 0);
    }

    #[test]
    fn replaced_sender_resolves_the_old_endpoints_timer_tokens() {
        // A's endpoint is replaced at the same address while two of its
        // retransmit timers are pending. Token counters start at zero in
        // every endpoint, so the old timers fire into the new endpoint and
        // resolve whatever it armed under the same token: at 50 ms they
        // retransmit its frame twice, ahead of its own RTO.
        let (mut sim, pa, pb, a, b) = lossy_pair(0.0);
        sim.topology_mut().set_link(a.node, b.node, LinkSpec::lossy_wireless(1.0));
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"old0"));
        pa.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"old1"));
        sim.run_for(SimDuration::from_millis(10));
        let pa2 = Peer::new(a);
        sim.bind(a, pa2.clone());
        pa2.borrow_mut().ep.send(&mut sim, b, Bytes::from_static(b"new"));
        assert_eq!(pa2.borrow().ep.pending_timers(), 1);
        sim.run_for(SimDuration::from_millis(45)); // t = 55 ms
        assert_eq!(pa2.borrow().ep.retransmits(), 2, "old tokens 0 and 1 each resent the frame");
        assert_eq!(pa2.borrow().ep.pending_timers(), 1);
        let old_timers = pa.borrow().ep.pending_timers();
        assert_eq!(old_timers, 2, "the replaced endpoint hears none of its timers");
        // Heal the link: the new endpoint's token 2 (4 × RTO after 50 ms)
        // gets the frame through; its own tokens 0 and 1 find nothing.
        sim.topology_mut().set_link(a.node, b.node, LinkSpec::lossy_wireless(0.0));
        sim.run_to_completion();
        let sender = pa2.borrow();
        assert_eq!(sender.ep.retransmits(), 3);
        assert_eq!(sender.ep.pending_timers(), 0);
        assert_eq!(sender.ep.in_flight(b), 0);
        assert_eq!(sender.failures, 0);
        assert_eq!(pb.borrow().delivered, vec![b"new".to_vec()]);
    }
}
