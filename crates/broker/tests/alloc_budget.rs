//! Allocation and memory budgets of the messaging path, counted end to
//! end.
//!
//! A counting global allocator tallies, per thread, the heap blocks asked
//! for (`alloc`, `alloc_zeroed` and `realloc`) and the bytes requested and
//! not yet freed; the tallies are thread-local, so tests running in
//! parallel do not mix. The allocation rig is a broker and two MQTT
//! connections on a two-node cluster: a subscriber on the broker's node,
//! a publisher on the other. After 200 warm-up publishes, 2,000 publishes
//! each run to completion (the publish, the delivery and every
//! acknowledgement on both legs), and the budget is the mean per message.
//!
//! Transport ACKs (17 bytes) and the PUBACK/PUBREC/PUBREL/PUBCOMP DATA
//! frames (21 bytes) live inline in their `Bytes`, and an in-flight QoS
//! 1/2 publish is kept as the frame it was sent in. What still allocates
//! per QoS 1 message (6.08 in all):
//! - the PUBLISH DATA frame on each leg, two blocks each: its `Vec` and
//!   the `Arc` that shares it between the datagram and the retransmit
//!   queue (the publisher's `MqttConn::publish` and the broker's delivery);
//! - the topic `String` each receiver decodes: the broker's, when it
//!   decodes the PUBLISH, and the subscriber's;
//! - the broker's `$SYS` refresh: five values, each formatted into a
//!   `String`, every 64 publishes (0.08 per message).
//!
//! A QoS 2 message costs 0.37 more (6.45), in the kernel's timer wheel.
//! Its exchange sends eight DATA frames within a tick or two, so the
//! wheel slot their retransmit timers land in passes four entries: the
//! slot's buffer grows from four entries to eight (a reallocation in
//! `EventWheel::file`, from `ReliableEndpoint::arm_timer`), and is freed
//! when it drains, so the next slot to fill takes a fresh four-entry
//! buffer. Over the rig's 2,200 QoS 2 messages that is 414 reallocations
//! and 411 fresh buffers, against 7 and 10 for QoS 1. Keeping drained
//! buffers of up to eight entries reads 6.09, but raises `chaos_qos2`'s
//! peak RSS by 4–6 %.
//!
//! The memory rigs measure the bytes left live, on the client and the
//! broker side together, per session. The idle rig connects 1,000
//! clients one after another, has each send one QoS 1 publish and drains
//! everything. The partition rig black-holes 200 such clients' link to
//! the broker while each publishes 8, 32 or 128 more, heals it, drains,
//! and counts what the backlog left behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use digibox_broker::{Broker, ClientEvent, MqttConn, QoS};
use digibox_net::transport::{ReliableEndpoint, TransportEvent};
use digibox_net::{
    Addr, Datagram, LinkSpec, NodeId, Service, Sim, SimConfig, SimDuration, TimerToken, Topology,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested on this thread minus bytes freed on it: a block
    /// made on another thread and freed here counts negative.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// `System`, counting each block handed out on the calling thread and
/// the bytes it holds.
struct Counting;

/// Tally one block handed out (when `block`) and `bytes` more live.
fn count(block: bool, bytes: isize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + u64::from(block)));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

/// A size as a signed byte count (`Layout` sizes fit `isize`).
fn signed(size: usize) -> isize {
    size as isize
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, signed(layout.size()));
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(true, signed(layout.size()));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, signed(new_size) - signed(layout.size()));
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -signed(layout.size()));
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks this thread has allocated so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread has requested and not freed so far.
fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// A service around an `MqttConn` that counts what reaches it.
struct Client {
    conn: MqttConn,
    messages: u64,
    completed: u64,
}

impl Client {
    fn drain(&mut self) {
        while let Some(ev) = self.conn.poll() {
            match ev {
                ClientEvent::Message { .. } => self.messages += 1,
                ClientEvent::PubAck { .. } | ClientEvent::PubComp { .. } => self.completed += 1,
                _ => {}
            }
        }
    }
}

impl Service for Client {
    fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
        self.conn.on_datagram(sim, dg);
        self.drain();
    }
    fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
        self.conn.on_timer(sim, token);
        self.drain();
    }
}

/// A broker on node 0 of a two-node cluster: the sim, the broker's
/// address and the nodes.
fn broker_cluster() -> (Sim, Addr, Vec<NodeId>) {
    let topo = Topology::ec2_cluster(2);
    let nodes = topo.node_ids();
    let mut sim = Sim::new(topo, SimConfig::default());
    let broker_addr = Addr::new(nodes[0], 1883);
    sim.bind(broker_addr, Broker::new(broker_addr));
    (sim, broker_addr, nodes)
}

fn client(sim: &mut Sim, addr: Addr, broker: Addr, id: &str) -> Rc<RefCell<Client>> {
    let c = Rc::new(RefCell::new(Client {
        conn: MqttConn::new(addr, broker, id),
        messages: 0,
        completed: 0,
    }));
    sim.bind(addr, c.clone());
    c.borrow_mut().conn.connect(sim, None);
    sim.run_to_completion();
    assert!(c.borrow().conn.is_connected(), "{id} connects");
    c
}

/// One reading, 27 bytes: longer than the 21 bytes a `Bytes` keeps
/// inline, so a payload moved into a `Bytes` would need a shared buffer.
const READING: &str = r#"{"sensor":"s1","temp":21.5}"#;

/// Mean blocks allocated per message over 2,000 publishes at `qos`, each
/// publishing what `payload` returns.
fn allocs_per_message<P: AsRef<[u8]>>(qos: QoS, payload: impl Fn() -> P) -> f64 {
    let (mut sim, broker_addr, nodes) = broker_cluster();
    let sub = client(&mut sim, Addr::new(nodes[0], 10_000), broker_addr, "sub");
    let publisher = client(&mut sim, Addr::new(nodes[1], 10_000), broker_addr, "pub");
    sub.borrow_mut().conn.subscribe(&mut sim, &[("site/+/temp", qos)]);
    sim.run_to_completion();

    let publish = |sim: &mut Sim, n: u32| {
        for _ in 0..n {
            publisher.borrow_mut().conn.publish(sim, "site/s1/temp", payload(), qos, false);
            sim.run_to_completion();
        }
    };
    publish(&mut sim, 200);
    let before = allocs();
    publish(&mut sim, 2_000);
    let per_message = (allocs() - before) as f64 / 2_000.0;

    assert_eq!(sub.borrow().messages, 2_200, "every publish delivered once");
    assert_eq!(publisher.borrow().completed, 2_200, "every handshake completed");
    assert_eq!(publisher.borrow().conn.unacked_publishes(), 0);
    per_message
}

/// [`allocs_per_message`] with one reading made once and shared: the
/// budget is the messaging path's, not the cost of making a payload.
fn shared_allocs_per_message(qos: QoS) -> f64 {
    let body = Bytes::from(READING.to_string());
    allocs_per_message(qos, || body.clone())
}

#[test]
fn qos1_message_stays_within_its_allocation_budget() {
    let n = shared_allocs_per_message(QoS::AtLeastOnce);
    eprintln!("QoS 1: {n:.2} allocations per message");
    assert!(n <= 6.5, "QoS 1 message costs {n:.2} allocations (budget 6.5)");
}

#[test]
fn qos2_message_stays_within_its_allocation_budget() {
    let n = shared_allocs_per_message(QoS::ExactlyOnce);
    eprintln!("QoS 2: {n:.2} allocations per message");
    assert!(n <= 6.9, "QoS 2 message costs {n:.2} allocations (budget 6.9)");
}

#[test]
fn an_owned_payload_costs_only_its_own_allocation() {
    let shared = shared_allocs_per_message(QoS::AtLeastOnce);
    let body = READING.to_string();
    let owned = allocs_per_message(QoS::AtLeastOnce, || body.clone());
    eprintln!("QoS 1: {owned:.2} allocations per message with a fresh String, {shared:.2} shared");
    // The one extra block is the caller's `String`: `publish` encodes
    // from the borrowed bytes and keeps no copy of its own.
    assert!(
        owned - shared <= 1.05,
        "a fresh 27-byte String costs {:.2} extra allocations per message",
        owned - shared
    );
}

#[test]
fn a_21_byte_buffer_allocates_nothing() {
    let frame = [0x5Au8; 21];
    let before = allocs();
    let mut m = BytesMut::with_capacity(21);
    m.put_u8(0x01);
    m.put_u64(7);
    m.put_u64(9);
    m.extend_from_slice(&frame[..4]);
    let frozen = m.freeze();
    let copy = frozen.clone();
    let mut window = copy.slice(17..);
    window.advance(2);
    let from_slice = Bytes::copy_from_slice(&frame);
    let taken = from_slice.clone().copy_to_bytes(21);
    let after = allocs();
    assert_eq!(after - before, 0, "a 21-byte buffer allocated");
    assert_eq!(frozen.len(), 21);
    assert_eq!(&window[..], &frame[2..4]);
    assert_eq!(taken, from_slice);
    // One byte more moves to the heap: the budget above is the inline
    // bound, not a counter that never moves.
    let mut m = BytesMut::new();
    m.extend_from_slice(&[0; 22]);
    assert!(allocs() > after, "a 22-byte buffer lives on the heap");
}

/// Mean heap bytes left live per session, client and broker side
/// together, after `n` clients connected one after another, each sent one
/// QoS 1 publish, and everything drained.
fn bytes_per_idle_session(n: u16) -> f64 {
    let (mut sim, broker_addr, nodes) = broker_cluster();
    let mut clients = Vec::with_capacity(usize::from(n));
    let before = live_bytes();
    connect_sensors(&mut sim, broker_addr, nodes[1], n, &mut clients);
    let per_session = (live_bytes() - before) as f64 / f64::from(n);
    for c in &clients {
        assert_eq!(c.borrow().completed, 1, "every publish acknowledged");
        assert_eq!(c.borrow().conn.unacked_publishes(), 0);
    }
    per_session
}

/// Connect `n` clients on `node` one after another into `clients` (made
/// by the caller, so a measurement around this call leaves the `Vec`
/// out), then have each send one QoS 1 publish and run it to completion.
fn connect_sensors(
    sim: &mut Sim,
    broker: Addr,
    node: NodeId,
    n: u16,
    clients: &mut Vec<Rc<RefCell<Client>>>,
) {
    for i in 0..n {
        clients.push(client(sim, Addr::new(node, 10_000 + i), broker, &format!("sensor-{i:04}")));
    }
    for c in clients.iter() {
        c.borrow_mut().conn.publish(sim, "site/s1/temp", READING, QoS::AtLeastOnce, false);
        sim.run_to_completion();
    }
}

#[test]
fn an_idle_session_stays_within_its_memory_budget() {
    let bytes = bytes_per_idle_session(1_000);
    eprintln!("{bytes:.0} heap bytes per idle session, client and broker side");
    // Neither side keeps a buffer for a queue that holds one entry or
    // none, the client's endpoint keeps its broker's connection inline and
    // the broker's session table holds pointers. With a four-slot deque
    // per queue, a hash map per client endpoint and sessions inside the
    // table's buckets, this rig read 2,114 bytes.
    assert!(bytes <= 1_340.0, "an idle session costs {bytes:.0} heap bytes (budget 1,340)");
}

/// Mean heap bytes per session, client and broker side together, that a
/// healed partition leaves live: 200 clients set up as for
/// [`bytes_per_idle_session`], node 1's link to the broker's node 0
/// black-holes, every client publishes `depth` QoS 1 messages into it,
/// and after 400 ms the link is restored and everything runs to
/// completion. The reading is the live bytes then, less those before the
/// partition.
fn bytes_kept_after_a_partition(depth: u32) -> f64 {
    const CLIENTS: u16 = 200;
    let (mut sim, broker_addr, nodes) = broker_cluster();
    let mut clients = Vec::with_capacity(usize::from(CLIENTS));
    connect_sensors(&mut sim, broker_addr, nodes[1], CLIENTS, &mut clients);
    let before = live_bytes();

    let links = sim.topology().save_links();
    sim.topology_mut().set_link(nodes[1], nodes[0], LinkSpec::blackhole());
    for c in &clients {
        for _ in 0..depth {
            c.borrow_mut().conn.publish(&mut sim, "site/s1/temp", READING, QoS::AtLeastOnce, false);
        }
    }
    sim.run_for(SimDuration::from_millis(400));
    let stuck: usize = clients.iter().map(|c| c.borrow().conn.unacked_publishes()).sum();
    assert_eq!(stuck, usize::from(CLIENTS) * depth as usize, "every publish waits for the heal");
    sim.topology_mut().restore_links(links);
    sim.run_to_completion();

    let per_session = (live_bytes() - before) as f64 / f64::from(CLIENTS);
    for c in &clients {
        assert_eq!(c.borrow().completed, u64::from(depth) + 1, "every publish acknowledged");
        assert_eq!(c.borrow().conn.unacked_publishes(), 0);
    }
    per_session
}

#[test]
fn a_healed_partition_leaves_sessions_no_heavier_the_deeper_it_was() {
    let kept: Vec<(u32, f64)> = [8, 32, 128].map(|k| (k, bytes_kept_after_a_partition(k))).into();
    for &(k, bytes) in &kept {
        eprintln!("{bytes:.0} heap bytes per session kept after a partition {k} publishes deep");
    }
    // What stays, ~610 bytes, is four client-side queues' first four-slot
    // buffers, the floor a queue drained one entry at a time shrinks to:
    // the `MqttConn`'s event queue (4 × 56 B) and pid map (4 × 40 B), and
    // its endpoint's event queue (4 × 32 B) and timer deque (4 × 24 B).
    // At depth 8 some `unacked` deques also end at the floor. Queues that
    // kept the capacity of their deepest window read 1,678, 7,066 and
    // 28,543 bytes here.
    for &(k, bytes) in &kept {
        assert!(bytes <= 700.0, "depth {k}: {bytes:.0} heap bytes per session kept (budget 700)");
    }
    let (shallow, deep) = (kept[0].1, kept[2].1);
    assert!(deep <= shallow, "128 deep kept {deep:.0} bytes per session, 8 deep {shallow:.0}");
}

/// A hand-made DATA frame of incarnation 1 whose one-byte payload is its
/// sequence number.
fn data_frame(seq: u8) -> Bytes {
    let mut b = BytesMut::with_capacity(18);
    b.put_u8(0x01);
    b.put_u64(1);
    b.put_u64(u64::from(seq));
    b.put_u8(seq);
    b.freeze()
}

#[test]
fn a_filled_reorder_gap_leaves_no_node_behind() {
    let topo = Topology::ec2_cluster(2);
    let nodes = topo.node_ids();
    let mut sim = Sim::new(topo, SimConfig::default());
    let (local, peer) = (Addr::new(nodes[0], 1), Addr::new(nodes[1], 1));
    let mut ep = ReliableEndpoint::new(local);
    // Feed frames in the order given, then deliver the ACKs (to the
    // unbound peer) and take the payloads that came out.
    let mut feed = |sim: &mut Sim, seqs: [u8; 2]| {
        for seq in seqs {
            ep.on_datagram(sim, Datagram { src: peer, dst: local, payload: data_frame(seq) });
        }
        sim.run_to_completion();
        std::iter::from_fn(|| ep.poll())
            .map(|ev| match ev {
                TransportEvent::Delivered { payload, .. } => payload[0],
                other => panic!("unexpected {other:?}"),
            })
            .collect::<Vec<u8>>()
    };
    // In order: makes the connection, spills the event queue and leaves
    // the wheel its spare buffers.
    assert_eq!(feed(&mut sim, [0, 1]), [0, 1]);
    let before = live_bytes();
    // Frame 3 waits in the reorder map until 2 fills the gap.
    assert_eq!(feed(&mut sim, [3, 2]), [2, 3]);
    assert_eq!(live_bytes() - before, 0, "the filled gap left its bytes behind");
}
