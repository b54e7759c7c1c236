//! Seeded, structure-aware fuzzer for the MQTT packet codec.
//!
//! Every iteration generates a *valid* packet from a deterministic
//! [`Prng`] stream, proves it round-trips through [`Packet::encode`] /
//! [`Packet::decode`] byte-faithfully, then mutates the encoding
//! (bit flips, truncation, splices, garbage) and feeds the mutant back to
//! the decoder. The decoder must never panic: it either yields a packet —
//! which must then itself re-encode/decode stably — or a typed
//! [`PacketError`]. Both the packet and the mutant also go through
//! [`Packet::decode_shared`], which must return the same result as the
//! copying decoder.
//!
//! The whole run is a pure function of `(seed, iterations)`, so a failing
//! seed is a one-line reproducer, and CI can pin a fixed seed set
//! (`dbox fuzz --seed N --iters M`) without flakes.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use digibox_net::Prng;

use crate::packet::{ConnectFlags, Packet, PacketError, QoS};

/// Outcome of one fuzzing run. All counters are deterministic for a given
/// `(seed, iterations)` pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FuzzReport {
    /// Seed the run was keyed by.
    pub seed: u64,
    /// Iterations performed (one generated packet + one mutant each).
    pub iterations: u64,
    /// Valid generated packets that round-tripped exactly.
    pub valid_roundtrips: u64,
    /// Mutants the decoder still accepted (and which then re-encoded
    /// stably).
    pub mutants_accepted: u64,
    /// Mutants the decoder rejected with a typed error.
    pub mutants_rejected: u64,
    /// Rejections bucketed by [`PacketError`]
    /// variant name, sorted (BTree) so the report prints deterministically.
    pub rejections: BTreeMap<&'static str, u64>,
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz seed={} iterations={} roundtrips={} mutants_accepted={} mutants_rejected={}",
            self.seed,
            self.iterations,
            self.valid_roundtrips,
            self.mutants_accepted,
            self.mutants_rejected
        )?;
        for (kind, n) in &self.rejections {
            writeln!(f, "  reject {kind}: {n}")?;
        }
        Ok(())
    }
}

/// Stable bucket name for an error variant (payload dropped so the
/// report's histogram stays small and deterministic).
fn error_kind(err: &PacketError) -> &'static str {
    match err {
        PacketError::Truncated => "truncated",
        PacketError::BadPacketType(_) => "bad_packet_type",
        PacketError::BadFlags { .. } => "bad_flags",
        PacketError::BadRemainingLength => "bad_remaining_length",
        PacketError::BadUtf8 => "bad_utf8",
        PacketError::BadQoS(_) => "bad_qos",
        PacketError::BadProtocol => "bad_protocol",
        PacketError::MissingPacketId => "missing_packet_id",
        PacketError::TrailingBytes(_) => "trailing_bytes",
    }
}

/// Topic-flavored string: short, drawn from the characters that exercise
/// the codec's string paths (separators, wildcards, `$`-prefixes).
fn gen_string(rng: &mut Prng, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcz019/+#$_- .";
    let len = rng.range_usize(0, max_len + 1);
    (0..len).map(|_| ALPHABET[rng.range_usize(0, ALPHABET.len())] as char).collect()
}

fn gen_payload(rng: &mut Prng, max_len: usize) -> Bytes {
    let len = rng.range_usize(0, max_len + 1);
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        v.push(rng.range_u64(0, 256) as u8);
    }
    Bytes::from(v)
}

fn gen_qos(rng: &mut Prng) -> QoS {
    QoS::from_bits(rng.range_u64(0, 3) as u8).expect("0..3 are valid QoS encodings")
}

/// One structurally valid packet, covering every variant the codec speaks.
fn gen_packet(rng: &mut Prng) -> Packet {
    match rng.range_u64(0, 14) {
        0 => Packet::Connect {
            client_id: gen_string(rng, 24),
            flags: ConnectFlags {
                clean_session: rng.coin(),
                will: if rng.coin() {
                    Some((gen_string(rng, 24), gen_payload(rng, 32)))
                } else {
                    None
                },
                keep_alive_secs: rng.range_u64(0, u64::from(u16::MAX) + 1) as u16,
            },
        },
        1 => Packet::ConnAck {
            session_present: rng.coin(),
            code: rng.range_u64(0, 6) as u8,
        },
        2 => {
            let qos = gen_qos(rng);
            Packet::Publish {
                dup: rng.coin(),
                qos,
                retain: rng.coin(),
                topic: gen_string(rng, 40),
                packet_id: if qos == QoS::AtMostOnce {
                    None
                } else {
                    Some(rng.range_u64(0, u64::from(u16::MAX) + 1) as u16)
                },
                payload: gen_payload(rng, 128),
            }
        }
        3 => Packet::PubAck { packet_id: gen_pid(rng) },
        4 => Packet::PubRec { packet_id: gen_pid(rng) },
        5 => Packet::PubRel { packet_id: gen_pid(rng) },
        6 => Packet::PubComp { packet_id: gen_pid(rng) },
        7 => {
            let n = rng.range_usize(0, 5);
            Packet::Subscribe {
                packet_id: gen_pid(rng),
                filters: (0..n).map(|_| (gen_string(rng, 24), gen_qos(rng))).collect(),
            }
        }
        8 => {
            let n = rng.range_usize(0, 5);
            Packet::SubAck {
                packet_id: gen_pid(rng),
                codes: (0..n).map(|_| rng.range_u64(0, 256) as u8).collect(),
            }
        }
        9 => {
            let n = rng.range_usize(0, 5);
            Packet::Unsubscribe {
                packet_id: gen_pid(rng),
                filters: (0..n).map(|_| gen_string(rng, 24)).collect(),
            }
        }
        10 => Packet::UnsubAck { packet_id: gen_pid(rng) },
        11 => Packet::PingReq,
        12 => Packet::PingResp,
        _ => Packet::Disconnect,
    }
}

fn gen_pid(rng: &mut Prng) -> u16 {
    rng.range_u64(0, u64::from(u16::MAX) + 1) as u16
}

/// Mutate a valid encoding: the strategies bias toward the boundaries the
/// decoder checks (header nibbles, length varints, truncation points).
fn mutate(rng: &mut Prng, enc: &[u8]) -> Vec<u8> {
    let mut out = enc.to_vec();
    match rng.range_u64(0, 6) {
        // Flip one bit somewhere.
        0 => {
            let i = rng.range_usize(0, out.len());
            out[i] ^= 1 << rng.range_u64(0, 8);
        }
        // Truncate at a random point (possibly to empty).
        1 => out.truncate(rng.range_usize(0, out.len())),
        // Append trailing garbage.
        2 => {
            for _ in 0..rng.range_usize(1, 9) {
                out.push(rng.range_u64(0, 256) as u8);
            }
        }
        // Overwrite one byte with a fresh value.
        3 => {
            let i = rng.range_usize(0, out.len());
            out[i] = rng.range_u64(0, 256) as u8;
        }
        // Splice a chunk of the packet over itself (length-preserving).
        4 => {
            let src = rng.range_usize(0, out.len());
            let dst = rng.range_usize(0, out.len());
            let n = rng.range_usize(0, out.len() - src.max(dst) + 1);
            let chunk: Vec<u8> = out[src..src + n].to_vec();
            out[dst..dst + n].copy_from_slice(&chunk);
        }
        // Replace with pure garbage.
        _ => {
            let len = rng.range_usize(0, 65);
            out = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
        }
    }
    out
}

/// Decode `enc` through the copying and the shared-buffer decoder, which
/// must agree; `what`, `seed` and `i` name the input in the panic message.
fn decode_both(enc: &Bytes, what: &str, seed: u64, i: u64) -> Result<Packet, PacketError> {
    let copied = Packet::decode(enc);
    assert_eq!(
        Packet::decode_shared(enc),
        copied,
        "shared-buffer decode of the {what} differs at seed={seed} iteration={i}"
    );
    copied
}

/// Run the fuzzer: `iterations` rounds of generate → round-trip →
/// mutate → decode. Panics (with the seed in the message) on the first
/// violated invariant, otherwise returns the run's [`FuzzReport`].
pub fn run(seed: u64, iterations: u64) -> FuzzReport {
    let root = Prng::new(seed);
    let mut gen_rng = root.split_str("fuzz.generate");
    let mut mut_rng = root.split_str("fuzz.mutate");
    let mut report = FuzzReport { seed, iterations, ..FuzzReport::default() };
    for i in 0..iterations {
        let pkt = gen_packet(&mut gen_rng);
        let enc = pkt.encode();
        match decode_both(&enc, "packet", seed, i) {
            Ok(back) => assert_eq!(
                back, pkt,
                "round-trip mismatch at seed={seed} iteration={i}"
            ),
            Err(e) => panic!("valid packet failed to decode at seed={seed} iteration={i}: {e}"),
        }
        report.valid_roundtrips += 1;
        let mutant = Bytes::from(mutate(&mut mut_rng, &enc));
        match decode_both(&mutant, "mutant", seed, i) {
            Ok(p2) => {
                // Whatever the decoder accepts must itself be stable
                // under encode/decode (no "valid but unrepresentable"
                // packets).
                let enc2 = p2.encode();
                match Packet::decode(&enc2) {
                    Ok(p3) => assert_eq!(
                        p3, p2,
                        "re-encode instability at seed={seed} iteration={i}"
                    ),
                    Err(e) => panic!(
                        "accepted mutant failed to re-decode at seed={seed} iteration={i}: {e}"
                    ),
                }
                report.mutants_accepted += 1;
            }
            Err(e) => {
                report.mutants_rejected += 1;
                *report.rejections.entry(error_kind(&e)).or_insert(0) += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_smoke_is_deterministic() {
        let a = run(7, 2_000);
        let b = run(7, 2_000);
        assert_eq!(a, b, "same seed must produce an identical report");
        assert_eq!(a.valid_roundtrips, 2_000);
        assert_eq!(a.mutants_accepted + a.mutants_rejected, 2_000);
        assert!(a.mutants_rejected > 0, "mutation never produced an invalid packet");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(1, 500);
        let b = run(2, 500);
        assert_ne!(a.rejections, b.rejections);
    }
}
