//! MQTT 3.1.1-subset packet codec.
//!
//! Wire format follows the OASIS spec for the packet types Digibox uses:
//! fixed header (type + flags, varint remaining length), UTF-8 length-
//! prefixed strings, u16 packet identifiers.
//!
//! Both directions avoid copying message bytes: [`Packet::encoded_len`]
//! sizes a packet exactly, so [`Packet::encode_into`] (and
//! [`PublishRef::encode_into`], for a PUBLISH over a borrowed topic and
//! payload) can append it to a buffer sized once, such as a transport
//! frame; [`Packet::decode_shared`] returns payloads as windows onto the
//! received buffer.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Quality of service for a publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QoS {
    /// Fire and forget.
    AtMostOnce = 0,
    /// Acknowledged via PUBACK; may be redelivered with DUP.
    AtLeastOnce = 1,
    /// Exactly-once via the PUBREC/PUBREL/PUBCOMP four-way handshake.
    ExactlyOnce = 2,
}

impl QoS {
    /// Decode the 2-bit wire encoding; `None` for the reserved value 3.
    pub fn from_bits(bits: u8) -> Option<QoS> {
        match bits {
            0 => Some(QoS::AtMostOnce),
            1 => Some(QoS::AtLeastOnce),
            2 => Some(QoS::ExactlyOnce),
            _ => None, // 3 is reserved by the spec
        }
    }
}

/// CONNECT options.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConnectFlags {
    /// Discard any previous session state for this client id.
    pub clean_session: bool,
    /// Last-will: published by the broker when the session dies unexpectedly.
    pub will: Option<(String, Bytes)>,
    /// Keep-alive interval in seconds (0 = disabled).
    pub keep_alive_secs: u16,
}

/// The MQTT packets Digibox speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Client session open.
    Connect {
        /// Unique client identifier.
        client_id: String,
        /// Session options (clean-session, will, keep-alive).
        flags: ConnectFlags,
    },
    /// Broker's reply to CONNECT.
    ConnAck {
        /// Whether prior session state was resumed.
        session_present: bool,
        /// Return code (0 = accepted).
        code: u8,
    },
    /// An application message.
    Publish {
        /// Redelivery flag (QoS 1/2 retransmits).
        dup: bool,
        /// Delivery guarantee for this message.
        qos: QoS,
        /// Store as the topic's retained message.
        retain: bool,
        /// Destination topic.
        topic: String,
        /// Acknowledgement id; present iff QoS > 0.
        packet_id: Option<u16>,
        /// Message bytes.
        payload: Bytes,
    },
    /// QoS 1 publish acknowledgement.
    PubAck {
        /// Id of the publish being acknowledged.
        packet_id: u16,
    },
    /// QoS 2 step 1: receiver has stored the publish (assured receipt).
    PubRec {
        /// Id of the publish being acknowledged.
        packet_id: u16,
    },
    /// QoS 2 step 2: sender releases the packet id for delivery.
    PubRel {
        /// Id of the publish being released.
        packet_id: u16,
    },
    /// QoS 2 step 3: receiver has finished with the packet id.
    PubComp {
        /// Id of the publish whose handshake is complete.
        packet_id: u16,
    },
    /// Subscription request.
    Subscribe {
        /// Acknowledgement id.
        packet_id: u16,
        /// `(topic filter, requested QoS)` pairs.
        filters: Vec<(String, QoS)>,
    },
    /// Broker's reply to SUBSCRIBE.
    SubAck {
        /// Id of the subscribe being acknowledged.
        packet_id: u16,
        /// Granted QoS per filter, in request order.
        codes: Vec<u8>,
    },
    /// Unsubscription request.
    Unsubscribe {
        /// Acknowledgement id.
        packet_id: u16,
        /// Topic filters to remove.
        filters: Vec<String>,
    },
    /// Broker's reply to UNSUBSCRIBE.
    UnsubAck {
        /// Id of the unsubscribe being acknowledged.
        packet_id: u16,
    },
    /// Keep-alive probe.
    PingReq,
    /// Keep-alive reply.
    PingResp,
    /// Graceful session close (suppresses the will).
    Disconnect,
}

/// A PUBLISH over a borrowed topic and payload. It encodes to the same
/// bytes as the [`Packet::Publish`] with these fields, without building
/// one (no topic `String`, no payload `Bytes`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishRef<'a> {
    /// Redelivery flag (QoS 1/2 retransmits).
    pub dup: bool,
    /// Delivery guarantee for this message.
    pub qos: QoS,
    /// Store as the topic's retained message.
    pub retain: bool,
    /// Destination topic.
    pub topic: &'a str,
    /// Acknowledgement id; present iff QoS > 0.
    pub packet_id: Option<u16>,
    /// Message bytes.
    pub payload: &'a [u8],
}

impl PublishRef<'_> {
    /// Exact size of the encoding, fixed header included.
    pub fn encoded_len(&self) -> usize {
        framed_len(publish_body_len(self.topic, self.qos, self.payload.len()))
    }

    /// Append the encoding to `out`.
    pub fn encode_into(&self, out: &mut BytesMut) {
        let body_len = publish_body_len(self.topic, self.qos, self.payload.len());
        out.put_u8((TYPE_PUBLISH << 4) | publish_flags(self.dup, self.qos, self.retain));
        put_remaining_length(out, body_len);
        put_publish_body(out, self.topic, self.qos, self.packet_id, self.payload);
    }
}

/// An in-flight QoS 1/2 publish on either side of a session, kept until
/// its handshake completes so a resumed session can be caught up with a
/// DUP resend.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    /// The PUBLISH as sent, DUP clear: the window `send_with` returned
    /// onto its transport frame, or, for a publish resumed from a
    /// snapshot, its encoding.
    pub(crate) packet: Bytes,
    /// QoS 2 only: PUBREC came back and PUBREL went out, so PUBCOMP is
    /// awaited. Otherwise the publish awaits PUBACK (QoS 1) or PUBREC.
    pub(crate) released: bool,
}

impl InFlight {
    /// Append the packet with its DUP flag set: the bytes
    /// [`Packet::encode`] gives the same [`Packet::Publish`] with
    /// `dup: true`, copied instead of encoded again.
    pub(crate) fn put_dup(&self, out: &mut BytesMut) {
        out.put_u8(self.packet[0] | FLAG_DUP);
        out.put_slice(&self.packet[1..]);
    }
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketError {
    /// Buffer ended before the packet did.
    Truncated,
    /// Unknown packet type nibble.
    BadPacketType(u8),
    /// Fixed-header flags invalid for the packet type.
    BadFlags {
        /// The packet type nibble.
        packet_type: u8,
        /// The offending flag bits.
        flags: u8,
    },
    /// Remaining-length varint over 4 bytes.
    BadRemainingLength,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// QoS bits set to the reserved value 3.
    BadQoS(u8),
    /// Protocol name/level other than `MQTT` 3.1.1.
    BadProtocol,
    /// A QoS>0 publish without a packet id (or vice versa).
    MissingPacketId,
    /// Bytes left over after the declared packet length.
    TrailingBytes(usize),
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated => write!(f, "packet truncated"),
            PacketError::BadPacketType(t) => write!(f, "unknown packet type {t}"),
            PacketError::BadFlags { packet_type, flags } => {
                write!(f, "invalid flags {flags:#06b} for packet type {packet_type}")
            }
            PacketError::BadRemainingLength => write!(f, "invalid remaining-length encoding"),
            PacketError::BadUtf8 => write!(f, "string field is not valid utf-8"),
            PacketError::BadQoS(q) => write!(f, "unsupported qos {q}"),
            PacketError::BadProtocol => write!(f, "unsupported protocol name/level"),
            PacketError::MissingPacketId => write!(f, "qos>0 publish requires a packet id"),
            PacketError::TrailingBytes(n) => write!(f, "{n} unexpected trailing bytes"),
        }
    }
}

impl std::error::Error for PacketError {}

const TYPE_CONNECT: u8 = 1;
const TYPE_CONNACK: u8 = 2;
const TYPE_PUBLISH: u8 = 3;
const TYPE_PUBACK: u8 = 4;
const TYPE_PUBREC: u8 = 5;
const TYPE_PUBREL: u8 = 6;
const TYPE_PUBCOMP: u8 = 7;
const TYPE_SUBSCRIBE: u8 = 8;
const TYPE_SUBACK: u8 = 9;
const TYPE_UNSUBSCRIBE: u8 = 10;
const TYPE_UNSUBACK: u8 = 11;
const TYPE_PINGREQ: u8 = 12;
const TYPE_PINGRESP: u8 = 13;
const TYPE_DISCONNECT: u8 = 14;

/// PUBLISH fixed-header flag: a redelivery (bit 3 of the first byte).
const FLAG_DUP: u8 = 0b1000;

const CONNECT_FLAG_CLEAN: u8 = 0x02;
const CONNECT_FLAG_WILL: u8 = 0x04;

impl Packet {
    /// Encode into a standalone byte buffer (fixed header + body).
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out.freeze()
    }

    /// Exact size of the encoding, fixed header included.
    pub fn encoded_len(&self) -> usize {
        framed_len(self.body_len())
    }

    /// Append the encoding to `out`: the bytes of [`Packet::encode`],
    /// without a buffer of its own.
    pub fn encode_into(&self, out: &mut BytesMut) {
        let (ptype, flags) = self.type_and_flags();
        out.put_u8((ptype << 4) | flags);
        put_remaining_length(out, self.body_len());
        self.put_body(out);
    }

    fn type_and_flags(&self) -> (u8, u8) {
        match self {
            Packet::Connect { .. } => (TYPE_CONNECT, 0),
            Packet::ConnAck { .. } => (TYPE_CONNACK, 0),
            Packet::Publish { dup, qos, retain, .. } => {
                (TYPE_PUBLISH, publish_flags(*dup, *qos, *retain))
            }
            Packet::PubAck { .. } => (TYPE_PUBACK, 0),
            Packet::PubRec { .. } => (TYPE_PUBREC, 0),
            Packet::PubRel { .. } => (TYPE_PUBREL, 0b0010),
            Packet::PubComp { .. } => (TYPE_PUBCOMP, 0),
            Packet::Subscribe { .. } => (TYPE_SUBSCRIBE, 0b0010),
            Packet::SubAck { .. } => (TYPE_SUBACK, 0),
            Packet::Unsubscribe { .. } => (TYPE_UNSUBSCRIBE, 0b0010),
            Packet::UnsubAck { .. } => (TYPE_UNSUBACK, 0),
            Packet::PingReq => (TYPE_PINGREQ, 0),
            Packet::PingResp => (TYPE_PINGRESP, 0),
            Packet::Disconnect => (TYPE_DISCONNECT, 0),
        }
    }

    /// Size of the body [`Packet::put_body`] writes.
    fn body_len(&self) -> usize {
        match self {
            Packet::Connect { client_id, flags } => {
                // "MQTT", level, flags, keep-alive, client id, will.
                let will = flags.will.as_ref().map_or(0, |(t, p)| 2 + t.len() + 2 + p.len());
                (2 + 4) + 1 + 1 + 2 + (2 + client_id.len()) + will
            }
            Packet::ConnAck { .. } => 2,
            Packet::Publish { topic, qos, payload, .. } => {
                publish_body_len(topic, *qos, payload.len())
            }
            Packet::PubAck { .. }
            | Packet::PubRec { .. }
            | Packet::PubRel { .. }
            | Packet::PubComp { .. }
            | Packet::UnsubAck { .. } => 2,
            Packet::Subscribe { filters, .. } => {
                2 + filters.iter().map(|(f, _)| 2 + f.len() + 1).sum::<usize>()
            }
            Packet::SubAck { codes, .. } => 2 + codes.len(),
            Packet::Unsubscribe { filters, .. } => {
                2 + filters.iter().map(|f| 2 + f.len()).sum::<usize>()
            }
            Packet::PingReq | Packet::PingResp | Packet::Disconnect => 0,
        }
    }

    fn put_body(&self, b: &mut BytesMut) {
        match self {
            Packet::Connect { client_id, flags } => {
                put_string(b, "MQTT");
                b.put_u8(4); // protocol level 3.1.1
                let mut cf = 0u8;
                if flags.clean_session {
                    cf |= CONNECT_FLAG_CLEAN;
                }
                if flags.will.is_some() {
                    cf |= CONNECT_FLAG_WILL;
                }
                b.put_u8(cf);
                b.put_u16(flags.keep_alive_secs);
                put_string(b, client_id);
                if let Some((topic, payload)) = &flags.will {
                    put_string(b, topic);
                    b.put_u16(payload.len() as u16);
                    b.put_slice(payload);
                }
            }
            Packet::ConnAck { session_present, code } => {
                b.put_u8(u8::from(*session_present));
                b.put_u8(*code);
            }
            Packet::Publish { topic, packet_id, payload, qos, .. } => {
                put_publish_body(b, topic, *qos, *packet_id, payload);
            }
            Packet::PubAck { packet_id }
            | Packet::PubRec { packet_id }
            | Packet::PubRel { packet_id }
            | Packet::PubComp { packet_id }
            | Packet::UnsubAck { packet_id } => {
                b.put_u16(*packet_id);
            }
            Packet::Subscribe { packet_id, filters } => {
                b.put_u16(*packet_id);
                for (f, q) in filters {
                    put_string(b, f);
                    b.put_u8(*q as u8);
                }
            }
            Packet::SubAck { packet_id, codes } => {
                b.put_u16(*packet_id);
                b.put_slice(codes);
            }
            Packet::Unsubscribe { packet_id, filters } => {
                b.put_u16(*packet_id);
                for f in filters {
                    put_string(b, f);
                }
            }
            Packet::PingReq | Packet::PingResp | Packet::Disconnect => {}
        }
    }

    /// Decode a standalone packet; the buffer must contain exactly one
    /// packet (our transport preserves message boundaries). Payloads are
    /// copied out of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Packet, PacketError> {
        Packet::decode_from(buf, None)
    }

    /// [`Packet::decode`] for a packet in a shared buffer: the PUBLISH and
    /// will payloads are windows onto `buf`, not copies. The result equals
    /// `decode(buf)`.
    pub fn decode_shared(buf: &Bytes) -> Result<Packet, PacketError> {
        Packet::decode_from(buf, Some(buf))
    }

    /// The decoder behind both entry points; `shared`, when given, is
    /// `buf` itself, which payloads are sliced from.
    fn decode_from(buf: &[u8], shared: Option<&Bytes>) -> Result<Packet, PacketError> {
        let mut cur = buf;
        if cur.remaining() < 2 {
            return Err(PacketError::Truncated);
        }
        let first = cur.get_u8();
        let ptype = first >> 4;
        let flags = first & 0x0F;
        let remaining = get_remaining_length(&mut cur)?;
        if cur.remaining() < remaining {
            return Err(PacketError::Truncated);
        }
        if cur.remaining() > remaining {
            return Err(PacketError::TrailingBytes(cur.remaining() - remaining));
        }
        // `body` runs to the end of `buf`, which `take_bytes` relies on.
        let mut body = &cur[..remaining];
        let pkt = match ptype {
            TYPE_CONNECT => {
                expect_flags(ptype, flags, 0)?;
                let proto = get_string(&mut body)?;
                let level = get_u8(&mut body)?;
                if proto != "MQTT" || level != 4 {
                    return Err(PacketError::BadProtocol);
                }
                let cf = get_u8(&mut body)?;
                let keep_alive_secs = get_u16(&mut body)?;
                let client_id = get_string(&mut body)?;
                let will = if cf & CONNECT_FLAG_WILL != 0 {
                    let topic = get_string(&mut body)?;
                    let len = get_u16(&mut body)? as usize;
                    if body.remaining() < len {
                        return Err(PacketError::Truncated);
                    }
                    Some((topic, take_bytes(&mut body, len, shared)))
                } else {
                    None
                };
                Packet::Connect {
                    client_id,
                    flags: ConnectFlags {
                        clean_session: cf & CONNECT_FLAG_CLEAN != 0,
                        will,
                        keep_alive_secs,
                    },
                }
            }
            TYPE_CONNACK => {
                expect_flags(ptype, flags, 0)?;
                let sp = get_u8(&mut body)?;
                let code = get_u8(&mut body)?;
                Packet::ConnAck { session_present: sp != 0, code }
            }
            TYPE_PUBLISH => {
                let dup = flags & FLAG_DUP != 0;
                let retain = flags & 0b0001 != 0;
                let qos = QoS::from_bits((flags >> 1) & 0b11)
                    .ok_or(PacketError::BadQoS((flags >> 1) & 0b11))?;
                let topic = get_string(&mut body)?;
                let packet_id = if qos != QoS::AtMostOnce {
                    Some(get_u16(&mut body)?)
                } else {
                    None
                };
                let rest = body.len();
                let payload = take_bytes(&mut body, rest, shared);
                Packet::Publish { dup, qos, retain, topic, packet_id, payload }
            }
            TYPE_PUBACK => {
                expect_flags(ptype, flags, 0)?;
                Packet::PubAck { packet_id: get_u16(&mut body)? }
            }
            TYPE_PUBREC => {
                expect_flags(ptype, flags, 0)?;
                Packet::PubRec { packet_id: get_u16(&mut body)? }
            }
            TYPE_PUBREL => {
                // the spec reserves flags 0b0010 for PUBREL, like SUBSCRIBE
                expect_flags(ptype, flags, 0b0010)?;
                Packet::PubRel { packet_id: get_u16(&mut body)? }
            }
            TYPE_PUBCOMP => {
                expect_flags(ptype, flags, 0)?;
                Packet::PubComp { packet_id: get_u16(&mut body)? }
            }
            TYPE_SUBSCRIBE => {
                expect_flags(ptype, flags, 0b0010)?;
                let packet_id = get_u16(&mut body)?;
                let mut filters = Vec::new();
                while body.has_remaining() {
                    let f = get_string(&mut body)?;
                    let q = get_u8(&mut body)?;
                    filters.push((f, QoS::from_bits(q).ok_or(PacketError::BadQoS(q))?));
                }
                Packet::Subscribe { packet_id, filters }
            }
            TYPE_SUBACK => {
                expect_flags(ptype, flags, 0)?;
                let packet_id = get_u16(&mut body)?;
                let codes = body.to_vec();
                body = &body[body.len()..];
                Packet::SubAck { packet_id, codes }
            }
            TYPE_UNSUBSCRIBE => {
                expect_flags(ptype, flags, 0b0010)?;
                let packet_id = get_u16(&mut body)?;
                let mut filters = Vec::new();
                while body.has_remaining() {
                    filters.push(get_string(&mut body)?);
                }
                Packet::Unsubscribe { packet_id, filters }
            }
            TYPE_UNSUBACK => {
                expect_flags(ptype, flags, 0)?;
                Packet::UnsubAck { packet_id: get_u16(&mut body)? }
            }
            TYPE_PINGREQ => {
                expect_flags(ptype, flags, 0)?;
                Packet::PingReq
            }
            TYPE_PINGRESP => {
                expect_flags(ptype, flags, 0)?;
                Packet::PingResp
            }
            TYPE_DISCONNECT => {
                expect_flags(ptype, flags, 0)?;
                Packet::Disconnect
            }
            other => return Err(PacketError::BadPacketType(other)),
        };
        if body.has_remaining() {
            return Err(PacketError::TrailingBytes(body.remaining()));
        }
        Ok(pkt)
    }
}

fn expect_flags(packet_type: u8, flags: u8, expected: u8) -> Result<(), PacketError> {
    if flags == expected {
        Ok(())
    } else {
        Err(PacketError::BadFlags { packet_type, flags })
    }
}

fn publish_flags(dup: bool, qos: QoS, retain: bool) -> u8 {
    let mut f = (qos as u8) << 1;
    if dup {
        f |= FLAG_DUP;
    }
    if retain {
        f |= 0b0001;
    }
    f
}

fn publish_body_len(topic: &str, qos: QoS, payload_len: usize) -> usize {
    let pid = if qos == QoS::AtMostOnce { 0 } else { 2 };
    2 + topic.len() + pid + payload_len
}

fn put_publish_body(
    b: &mut BytesMut,
    topic: &str,
    qos: QoS,
    packet_id: Option<u16>,
    payload: &[u8],
) {
    put_string(b, topic);
    if qos != QoS::AtMostOnce {
        b.put_u16(packet_id.expect("qos>0 publish needs a packet id"));
    }
    b.put_slice(payload);
}

/// Size of a packet whose body is `body_len` bytes: type byte, remaining
/// length varint, body.
fn framed_len(body_len: usize) -> usize {
    let mut varint = 1;
    let mut rest = body_len / 128;
    while rest > 0 {
        varint += 1;
        rest /= 128;
    }
    1 + varint + body_len
}

/// Take the next `len` bytes of `body`, which runs to the end of the
/// packet: a window onto `shared` when given, else a copy.
fn take_bytes(body: &mut &[u8], len: usize, shared: Option<&Bytes>) -> Bytes {
    let out = match shared {
        Some(all) => {
            let at = all.len() - body.len();
            all.slice(at..at + len)
        }
        None => Bytes::copy_from_slice(&body[..len]),
    };
    body.advance(len);
    out
}

fn put_remaining_length(b: &mut BytesMut, mut len: usize) {
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        b.put_u8(byte);
        if len == 0 {
            break;
        }
    }
}

fn get_remaining_length(cur: &mut &[u8]) -> Result<usize, PacketError> {
    let mut multiplier = 1usize;
    let mut value = 0usize;
    for _ in 0..4 {
        if !cur.has_remaining() {
            return Err(PacketError::Truncated);
        }
        let byte = cur.get_u8();
        value += (byte & 0x7F) as usize * multiplier;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        multiplier *= 128;
    }
    Err(PacketError::BadRemainingLength)
}

fn put_string(b: &mut BytesMut, s: &str) {
    b.put_u16(s.len() as u16);
    b.put_slice(s.as_bytes());
}

fn get_string(cur: &mut &[u8]) -> Result<String, PacketError> {
    let len = get_u16(cur)? as usize;
    if cur.remaining() < len {
        return Err(PacketError::Truncated);
    }
    let s = std::str::from_utf8(&cur[..len]).map_err(|_| PacketError::BadUtf8)?.to_string();
    cur.advance(len);
    Ok(s)
}

fn get_u8(cur: &mut &[u8]) -> Result<u8, PacketError> {
    if !cur.has_remaining() {
        return Err(PacketError::Truncated);
    }
    Ok(cur.get_u8())
}

fn get_u16(cur: &mut &[u8]) -> Result<u16, PacketError> {
    if cur.remaining() < 2 {
        return Err(PacketError::Truncated);
    }
    Ok(cur.get_u16())
}

#[cfg(test)]
mod tests {
    use super::*;
    use digibox_net::for_each_seed;

    fn roundtrip(p: Packet) {
        let enc = p.encode();
        let back = Packet::decode(&enc).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn connect_roundtrip() {
        roundtrip(Packet::Connect {
            client_id: "mock/O1".into(),
            flags: ConnectFlags { clean_session: true, will: None, keep_alive_secs: 30 },
        });
        roundtrip(Packet::Connect {
            client_id: "mock/L1".into(),
            flags: ConnectFlags {
                clean_session: false,
                will: Some(("digibox/lwt/L1".into(), Bytes::from_static(b"offline"))),
                keep_alive_secs: 0,
            },
        });
    }

    #[test]
    fn publish_roundtrip_qos0_and_1() {
        roundtrip(Packet::Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: true,
            topic: "digibox/mock/O1/status".into(),
            packet_id: None,
            payload: Bytes::from_static(b"{\"triggered\":true}"),
        });
        roundtrip(Packet::Publish {
            dup: true,
            qos: QoS::AtLeastOnce,
            retain: false,
            topic: "digibox/scene/room/event".into(),
            packet_id: Some(77),
            payload: Bytes::from_static(b"x"),
        });
    }

    #[test]
    fn publish_roundtrip_qos2() {
        roundtrip(Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: "digibox/meter/M1/reading".into(),
            packet_id: Some(9),
            payload: Bytes::from_static(b"{\"kwh\":41}"),
        });
        roundtrip(Packet::PubRec { packet_id: 9 });
        roundtrip(Packet::PubRel { packet_id: 9 });
        roundtrip(Packet::PubComp { packet_id: 9 });
    }

    #[test]
    fn pubrel_requires_reserved_flags() {
        // PUBREL must carry fixed-header flags 0b0010; the encoder sets
        // them and the decoder rejects anything else.
        let enc = Packet::PubRel { packet_id: 5 }.encode();
        assert_eq!(enc[0], (TYPE_PUBREL << 4) | 0b0010);
        let mut bad = enc.to_vec();
        bad[0] = TYPE_PUBREL << 4; // flags 0
        assert!(matches!(
            Packet::decode(&bad),
            Err(PacketError::BadFlags { packet_type: TYPE_PUBREL, flags: 0 })
        ));
    }

    #[test]
    fn subscribe_suback_roundtrip() {
        roundtrip(Packet::Subscribe {
            packet_id: 3,
            filters: vec![
                ("digibox/mock/+/status".into(), QoS::AtLeastOnce),
                ("digibox/#".into(), QoS::AtMostOnce),
            ],
        });
        roundtrip(Packet::SubAck { packet_id: 3, codes: vec![1, 0] });
        roundtrip(Packet::Unsubscribe { packet_id: 4, filters: vec!["a/b".into()] });
        roundtrip(Packet::UnsubAck { packet_id: 4 });
    }

    #[test]
    fn control_packets_roundtrip() {
        roundtrip(Packet::PingReq);
        roundtrip(Packet::PingResp);
        roundtrip(Packet::Disconnect);
        roundtrip(Packet::ConnAck { session_present: true, code: 0 });
        roundtrip(Packet::PubAck { packet_id: 65535 });
    }

    #[test]
    fn remaining_length_encoding() {
        // spec examples: 0 → [0], 127 → [127], 128 → [0x80, 1], 16383 → [0xFF, 0x7F]
        for (n, expect) in [
            (0usize, vec![0u8]),
            (127, vec![127]),
            (128, vec![0x80, 1]),
            (16383, vec![0xFF, 0x7F]),
            (16384, vec![0x80, 0x80, 1]),
        ] {
            let mut b = BytesMut::new();
            put_remaining_length(&mut b, n);
            assert_eq!(b.to_vec(), expect, "encoding {n}");
            let mut cur: &[u8] = &b;
            assert_eq!(get_remaining_length(&mut cur).unwrap(), n);
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(Packet::decode(&[]), Err(PacketError::Truncated));
        assert_eq!(Packet::decode(&[0xF0, 0]), Err(PacketError::BadPacketType(15)));
        // SUBSCRIBE with wrong flags
        assert!(matches!(
            Packet::decode(&[0x80, 2, 0, 1]),
            Err(PacketError::BadFlags { .. })
        ));
        // PUBLISH with QoS 3
        assert!(matches!(Packet::decode(&[0x36, 0]), Err(PacketError::BadQoS(3))));
        // truncated body
        let enc = Packet::PubAck { packet_id: 7 }.encode();
        assert_eq!(Packet::decode(&enc[..enc.len() - 1]), Err(PacketError::Truncated));
        // trailing garbage
        let mut with_garbage = enc.to_vec();
        with_garbage.push(0xAA);
        assert!(matches!(Packet::decode(&with_garbage), Err(PacketError::TrailingBytes(_))));
    }

    #[test]
    fn rejects_wrong_protocol() {
        // handcraft a CONNECT with protocol level 3
        let mut body = BytesMut::new();
        put_string(&mut body, "MQTT");
        body.put_u8(3);
        body.put_u8(0);
        body.put_u16(0);
        put_string(&mut body, "c");
        let mut pkt = BytesMut::new();
        pkt.put_u8(TYPE_CONNECT << 4);
        put_remaining_length(&mut pkt, body.len());
        pkt.put_slice(&body);
        assert_eq!(Packet::decode(&pkt), Err(PacketError::BadProtocol));
    }

    #[test]
    fn publish_roundtrip_prop() {
        for_each_seed(256, |rng| {
            let qos1 = rng.coin();
            let p = Packet::Publish {
                dup: rng.coin(),
                qos: if qos1 { QoS::AtLeastOnce } else { QoS::AtMostOnce },
                retain: rng.coin(),
                topic: rng.string("abcdefghijklmnopqrstuvwxyz0123456789/", 1, 40),
                packet_id: if qos1 { Some(rng.range_u64(0, 1 << 16) as u16) } else { None },
                payload: Bytes::from(random_bytes(rng, 256)),
            };
            let back = Packet::decode(&p.encode()).unwrap();
            assert_eq!(p, back);
        });
    }

    #[test]
    fn decode_never_panics() {
        for_each_seed(256, |rng| {
            let buf = Bytes::from(random_bytes(rng, 128));
            assert_eq!(Packet::decode_shared(&buf), Packet::decode(&buf));
        });
    }

    #[test]
    fn remaining_length_roundtrip_prop() {
        for_each_seed(256, |rng| {
            let n = rng.range_usize(0, 268_435_455);
            let mut b = BytesMut::new();
            put_remaining_length(&mut b, n);
            let mut cur: &[u8] = &b;
            assert_eq!(get_remaining_length(&mut cur).unwrap(), n);
        });
    }

    /// One packet of every kind, with bodies on both sides of the one-,
    /// two- and three-byte remaining-length boundaries.
    fn every_kind() -> Vec<Packet> {
        let publish = |qos: QoS, packet_id: Option<u16>, len: usize| Packet::Publish {
            dup: qos == QoS::ExactlyOnce,
            qos,
            retain: len % 2 == 1,
            topic: "digibox/mock/O1/status".into(),
            packet_id,
            payload: Bytes::from(vec![0xA5; len]),
        };
        let mut all = vec![
            Packet::Connect {
                client_id: "mock/O1".into(),
                flags: ConnectFlags { clean_session: true, will: None, keep_alive_secs: 30 },
            },
            Packet::Connect {
                client_id: "mock/L1".into(),
                flags: ConnectFlags {
                    clean_session: false,
                    will: Some(("digibox/lwt/L1".into(), Bytes::from_static(b"offline"))),
                    keep_alive_secs: 0,
                },
            },
            Packet::ConnAck { session_present: true, code: 0 },
            Packet::PubAck { packet_id: 1 },
            Packet::PubRec { packet_id: 2 },
            Packet::PubRel { packet_id: 3 },
            Packet::PubComp { packet_id: 4 },
            Packet::Subscribe {
                packet_id: 5,
                filters: vec![
                    ("a/+/c".into(), QoS::AtLeastOnce),
                    ("$share/g/#".into(), QoS::AtMostOnce),
                ],
            },
            Packet::SubAck { packet_id: 5, codes: vec![1, 0x80] },
            Packet::Unsubscribe { packet_id: 6, filters: vec!["a/+/c".into()] },
            Packet::UnsubAck { packet_id: 6 },
            Packet::PingReq,
            Packet::PingResp,
            Packet::Disconnect,
        ];
        // Bodies are 24 + len bytes at QoS 0 and 26 + len above it.
        for len in [0, 1, 101, 102, 103, 104, 16_357, 16_358, 16_359, 16_360] {
            all.push(publish(QoS::AtMostOnce, None, len));
            all.push(publish(QoS::AtLeastOnce, Some(7), len));
            all.push(publish(QoS::ExactlyOnce, Some(8), len));
        }
        all
    }

    #[test]
    fn encode_into_appends_exactly_encode() {
        for_each_seed(16, |rng| {
            let prefix = random_bytes(rng, 40);
            for p in every_kind() {
                let enc = p.encode();
                assert_eq!(p.encoded_len(), enc.len(), "encoded_len of {p:?}");
                let mut out = BytesMut::new();
                out.extend_from_slice(&prefix);
                p.encode_into(&mut out);
                assert_eq!(&out[..prefix.len()], &prefix[..]);
                assert_eq!(&out[prefix.len()..], &enc[..], "encode_into of {p:?}");
            }
        });
    }

    #[test]
    fn publish_ref_encodes_like_publish() {
        for p in every_kind() {
            let Packet::Publish { dup, qos, retain, ref topic, packet_id, ref payload } = p else {
                continue;
            };
            let r = PublishRef { dup, qos, retain, topic, packet_id, payload };
            let mut out = BytesMut::new();
            r.encode_into(&mut out);
            assert_eq!(&out[..], &p.encode()[..]);
            assert_eq!(r.encoded_len(), out.len());
        }
    }

    #[test]
    fn shared_decode_equals_decode_and_slices_the_buffer() {
        for p in every_kind() {
            let enc = p.encode();
            // The packet behind a transport header, as it arrives.
            let mut framed = BytesMut::new();
            framed.extend_from_slice(&[0xEE; 17]);
            framed.extend_from_slice(&enc);
            let frame = framed.freeze();
            let window = frame.slice(17..);
            let shared = Packet::decode_shared(&window);
            assert_eq!(shared, Packet::decode(&enc));
            let payload = match shared.unwrap() {
                Packet::Publish { payload, .. } => payload,
                Packet::Connect { flags: ConnectFlags { will: Some((_, will)), .. }, .. } => will,
                _ => continue,
            };
            let inside = frame.as_ptr_range();
            let shares = payload.is_empty() || inside.contains(&payload.as_ptr());
            assert!(shares, "{p:?} payload was copied");
        }
    }

    /// Up to `max - 1` uniformly random bytes.
    fn random_bytes(rng: &mut digibox_net::Prng, max: usize) -> Vec<u8> {
        (0..rng.range_usize(0, max)).map(|_| rng.next_u64() as u8).collect()
    }
}
