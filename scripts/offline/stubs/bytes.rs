//! In-tree byte buffers: the part of the `bytes` API the codecs in
//! `digibox-net`/`digibox-broker` use (`Bytes`, `BytesMut`, `Buf`,
//! `BufMut`). The workspace builds it as the `bytes` package
//! (`crates/bytes`); `perfbench/build.py` compiles the same file with bare
//! `rustc`.
//!
//! A `Bytes` is 24 bytes and holds its contents one of two ways:
//!
//! - **Inline**, up to 21 bytes inside the value itself: what fits beside
//!   the variant tag and two one-byte window offsets. 21 bytes is exactly
//!   the largest control frame (a 17-byte transport DATA header plus a
//!   4-byte PUBACK/PUBREC/PUBREL/PUBCOMP); a transport ACK is 17 bytes and
//!   a PINGREQ/PINGRESP frame 19, so control traffic allocates nothing.
//!   `clone`, `slice` and `advance` on an inline value copy at most 24
//!   bytes and touch no atomic.
//! - **Shared**, a window onto immutable storage behind an `Arc`, so
//!   handing one message buffer from layer to layer copies no data:
//!   `BytesMut::freeze` moves its `Vec` into the storage as is, and
//!   `Bytes::slice`, `clone` and `Buf::copy_to_bytes` on a `Bytes` return
//!   windows onto the same storage.
//!
//! `freeze`, `copy_from_slice`, `From<Vec<u8>>` and `From<String>` make an
//! inline `Bytes` whenever the contents are at most 21 bytes; every empty
//! buffer is inline, and `from_static` copies. A `BytesMut` starts inline
//! (`new`, or `with_capacity` of at most 21) and moves to a `Vec` only
//! when its contents pass 21 bytes.
//!
//! Beyond the inline copies, only `copy_from_slice`, `copy_to_bytes` on a
//! non-`Bytes` buffer and `to_vec` copy. The storage is an `Arc`, so a
//! `Bytes` is `Send`: islands hand datagrams across worker threads.
//!
//! Shared windows have `u32` offsets, so one buffer holds at most
//! `u32::MAX` bytes (4 GiB) and a larger one panics when it is made.
//! Every datagram, timer-wheel entry, retransmit entry and event carries
//! a `Bytes`, and no message comes near the cap.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Longest buffer kept inside a [`Bytes`] or [`BytesMut`] value.
const INLINE_CAP: usize = 21;

/// How a [`Bytes`] holds its window `[start, end)`.
#[derive(Clone)]
enum Repr {
    /// At most [`INLINE_CAP`] bytes held in the value.
    Inline { start: u8, end: u8, data: [u8; INLINE_CAP] },
    /// A `Vec` handed over by `freeze` or `From`, shared by every window
    /// cut from it.
    Shared { buf: Arc<Vec<u8>>, start: u32, end: u32 },
}

/// An immutable byte window: up to 21 bytes inline, longer ones onto
/// shared storage that cloning and slicing share instead of copying.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

/// The `u32` end offset of a whole buffer of `len` bytes.
fn buffer_end(len: usize) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| panic!("Bytes buffer of {len} bytes exceeds the 4 GiB cap"))
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::inline(&[])
    }

    /// A copy of `b`: inline up to 21 bytes, shared storage past that.
    pub fn from_static(b: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(b)
    }

    pub fn copy_from_slice(b: &[u8]) -> Bytes {
        if b.len() <= INLINE_CAP {
            Bytes::inline(b)
        } else {
            Bytes::shared(b.to_vec())
        }
    }

    /// `b`, at most [`INLINE_CAP`] bytes, held inline.
    fn inline(b: &[u8]) -> Bytes {
        let mut data = [0; INLINE_CAP];
        data[..b.len()].copy_from_slice(b);
        Bytes { repr: Repr::Inline { start: 0, end: b.len() as u8, data } }
    }

    fn from_vec(v: Vec<u8>) -> Bytes {
        if v.len() <= INLINE_CAP {
            Bytes::inline(&v)
        } else {
            Bytes::shared(v)
        }
    }

    fn shared(v: Vec<u8>) -> Bytes {
        let end = buffer_end(v.len());
        Bytes { repr: Repr::Shared { buf: Arc::new(v), start: 0, end } }
    }

    pub fn len(&self) -> usize {
        match self.repr {
            Repr::Inline { start, end, .. } => usize::from(end - start),
            Repr::Shared { start, end, .. } => (end - start) as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A window onto `range` of this buffer: a copy of an inline value, a
    /// window sharing the storage of a shared one.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len());
        // Both bounds are within the window, so they fit its offsets.
        let repr = match &self.repr {
            Repr::Inline { start, data, .. } => {
                Repr::Inline { start: start + lo as u8, end: start + hi as u8, data: *data }
            }
            Repr::Shared { buf, start, .. } => Repr::Shared {
                buf: Arc::clone(buf),
                start: start + lo as u32,
                end: start + hi as u32,
            },
        };
        Bytes { repr }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { start, end, data } => &data[usize::from(*start)..usize::from(*end)],
            Repr::Shared { buf, start, end } => &buf[*start as usize..*end as usize],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// `b"..."` with ASCII escapes, for both buffer types.
fn fmt_escaped(bytes: &[u8], f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        for c in std::ascii::escape_default(b) {
            write!(f, "{}", c as char)?;
        }
    }
    write!(f, "\"")
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_escaped(self, f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from_vec(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::from_static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        Vec::from(&self[..]).into_iter()
    }
}

/// How a [`BytesMut`] holds its contents.
#[derive(Clone)]
enum MutRepr {
    /// The first `len` bytes of `data`.
    Inline { len: u8, data: [u8; INLINE_CAP] },
    /// Contents past [`INLINE_CAP`] bytes, or a capacity asked for past it.
    Heap(Vec<u8>),
}

/// A growable buffer: inline while it holds at most 21 bytes, a `Vec`
/// that [`BytesMut::freeze`] hands over as shared storage past that.
#[derive(Clone)]
pub struct BytesMut {
    repr: MutRepr,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut { repr: MutRepr::Inline { len: 0, data: [0; INLINE_CAP] } }
    }

    /// Room for `n` bytes: inline up to 21, a `Vec` of that capacity past.
    pub fn with_capacity(n: usize) -> BytesMut {
        if n <= INLINE_CAP {
            BytesMut::new()
        } else {
            BytesMut { repr: MutRepr::Heap(Vec::with_capacity(n)) }
        }
    }

    pub fn len(&self) -> usize {
        match &self.repr {
            MutRepr::Inline { len, .. } => usize::from(*len),
            MutRepr::Heap(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn freeze(self) -> Bytes {
        match self.repr {
            MutRepr::Inline { len, data } => {
                Bytes { repr: Repr::Inline { start: 0, end: len, data } }
            }
            MutRepr::Heap(v) => Bytes::from_vec(v),
        }
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        let len = self.len();
        match &mut self.repr {
            MutRepr::Inline { len: n, data } if len + s.len() <= INLINE_CAP => {
                data[len..len + s.len()].copy_from_slice(s);
                *n += s.len() as u8;
            }
            MutRepr::Inline { .. } => {
                // Spill with room to double, as a `Vec` would grow.
                self.spill((len + s.len()).max(2 * INLINE_CAP)).extend_from_slice(s);
            }
            MutRepr::Heap(v) => v.extend_from_slice(s),
        }
    }

    /// Move inline contents to a `Vec` of capacity `cap` (at least the
    /// length) and return it.
    fn spill(&mut self, cap: usize) -> &mut Vec<u8> {
        if let MutRepr::Inline { len, data } = &self.repr {
            let mut v = Vec::with_capacity(cap);
            v.extend_from_slice(&data[..usize::from(*len)]);
            self.repr = MutRepr::Heap(v);
        }
        match &mut self.repr {
            MutRepr::Heap(v) => v,
            MutRepr::Inline { .. } => unreachable!("spilled above"),
        }
    }

    pub fn clear(&mut self) {
        match &mut self.repr {
            MutRepr::Inline { len, .. } => *len = 0,
            MutRepr::Heap(v) => v.clear(),
        }
    }

    /// Split off the first `at` bytes: they are returned and `self` keeps
    /// the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to({at}) past the end ({})", self.len());
        let mut head = BytesMut::with_capacity(at);
        head.extend_from_slice(&self[..at]);
        self.advance(at);
        head
    }

    pub fn reserve(&mut self, n: usize) {
        let len = self.len();
        match &mut self.repr {
            MutRepr::Inline { .. } if len + n <= INLINE_CAP => {}
            MutRepr::Inline { .. } => {
                self.spill(len + n);
            }
            MutRepr::Heap(v) => v.reserve(n),
        }
    }
}

impl Default for BytesMut {
    fn default() -> BytesMut {
        BytesMut::new()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.repr {
            MutRepr::Inline { len, data } => &data[..usize::from(*len)],
            MutRepr::Heap(v) => v,
        }
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.repr {
            MutRepr::Inline { len, data } => &mut data[..usize::from(*len)],
            MutRepr::Heap(v) => v,
        }
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_escaped(self, f)
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        self[..] == other[..]
    }
}
impl Eq for BytesMut {}

pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        self.advance(8);
        v
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let out = Bytes::copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len());
        match &mut self.repr {
            Repr::Inline { start, .. } => *start += n as u8,
            Repr::Shared { start, .. } => *start += n as u32,
        }
    }
    /// The next `n` bytes as a window onto the same storage.
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let out = self.slice(..n);
        self.advance(n);
        out
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        match &mut self.repr {
            MutRepr::Inline { len, data } => {
                assert!(n <= usize::from(*len));
                data.copy_within(n..usize::from(*len), 0);
                *len -= n as u8;
            }
            MutRepr::Heap(v) => {
                v.drain(..n);
            }
        }
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

pub trait BufMut {
    fn put_slice(&mut self, s: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Bytes` over `len` bytes `0, 1, 2, ...` in shared storage.
    fn heap(len: usize) -> Bytes {
        assert!(len > INLINE_CAP);
        Bytes::from((0..len as u8).collect::<Vec<u8>>())
    }

    fn is_inline(b: &Bytes) -> bool {
        matches!(b.repr, Repr::Inline { .. })
    }

    #[test]
    fn freeze_slice_and_copy_to_bytes_share_storage() {
        let mut m = BytesMut::with_capacity(32);
        let src: Vec<u8> = (0..32).collect();
        m.extend_from_slice(&src);
        let base = m.as_ptr();
        let frozen = m.freeze();
        assert!(!is_inline(&frozen));
        assert_eq!(frozen.as_ptr(), base, "freeze hands the buffer over");
        let s = frozen.slice(2..5);
        assert_eq!(&s[..], [2, 3, 4]);
        assert_eq!(s.as_ptr(), base.wrapping_add(2));
        let mut cur = frozen.clone();
        cur.advance(1);
        let taken = cur.copy_to_bytes(3);
        assert_eq!(&taken[..], [1, 2, 3]);
        assert_eq!(taken.as_ptr(), base.wrapping_add(1), "copy_to_bytes on Bytes is a slice");
        assert_eq!(&cur[..], &src[4..]);
        assert_eq!(cur.as_ptr(), base.wrapping_add(4));
    }

    #[test]
    fn windows_ending_at_the_buffer_end_share_storage() {
        let frozen = heap(32);
        let (base, len) = (frozen.as_ptr(), frozen.len());
        let tail = frozen.slice(len..);
        assert!(tail.is_empty());
        assert_eq!(
            tail.as_ptr(),
            base.wrapping_add(len),
            "slice(len..) is a window, not a fresh buffer"
        );
        let mut cur = frozen.slice(3..);
        cur.advance(len - 3);
        assert!(cur.is_empty());
        assert_eq!(cur.as_ptr(), base.wrapping_add(len), "advance(len) keeps the window");
        assert_eq!(&frozen.slice(len - 1..)[..], [31]);
    }

    #[test]
    fn buffers_up_to_21_bytes_are_inline_and_longer_ones_shared() {
        for len in 0..=64usize {
            let v: Vec<u8> = (0..len as u8).collect();
            let mut m = BytesMut::with_capacity(len);
            m.extend_from_slice(&v);
            let made = [
                Bytes::copy_from_slice(&v),
                Bytes::from(v.clone()),
                Bytes::from(String::from_utf8(v.clone()).unwrap()),
                m.freeze(),
            ];
            for b in &made {
                assert_eq!(is_inline(b), len <= INLINE_CAP, "{len} bytes");
                assert_eq!(&b[..], &v[..]);
            }
        }
        // A window cut from shared storage stays a window, however short.
        assert!(!is_inline(&heap(22).slice(1..3)));
    }

    #[test]
    #[should_panic(expected = "exceeds the 4 GiB cap")]
    fn buffers_past_the_u32_offsets_panic_with_the_cap() {
        buffer_end(u32::MAX as usize + 1);
    }

    #[test]
    fn copy_from_slice_and_slice_cursors_copy() {
        let src = *b"abc";
        let b = Bytes::copy_from_slice(&src);
        assert_ne!(b.as_ptr(), src.as_ptr());
        let mut cur: &[u8] = &src;
        let taken = cur.copy_to_bytes(2);
        assert_eq!(&taken[..], b"ab");
        assert_ne!(taken.as_ptr(), src.as_ptr());
        assert_eq!(cur, b"c");
    }

    #[test]
    fn empty_buffers_compare_equal() {
        let empties = [
            Bytes::new(),
            Bytes::default(),
            Bytes::from(Vec::new()),
            Bytes::from(String::new()),
            Bytes::copy_from_slice(&[]),
            BytesMut::new().freeze(),
            Bytes::from_static(b"xyz").slice(1..1),
            Bytes::copy_from_slice(b"xyz").slice(3..),
            heap(30).slice(30..),
        ];
        for b in &empties {
            assert!(b.is_empty());
            assert_eq!(b, &Bytes::new());
            assert_eq!(format!("{b:?}"), "b\"\"");
        }
    }

    #[test]
    fn bytes_is_send() {
        fn send<T: Send>(_: T) {}
        send(Bytes::copy_from_slice(b"datagram"));
        send(heap(40));
    }

    /// splitmix64: the seeded source of the differential test below.
    struct Rng(u64);

    /// Run `property` on seeds `0..cases`, naming the failing seed in the
    /// panic, as `net::for_each_seed` does (this crate sits below `net`).
    fn for_each_seed(cases: u64, property: impl Fn(&mut Rng)) {
        for seed in 0..cases {
            let run =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut Rng(seed))));
            if let Err(cause) = run {
                let msg = cause
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| cause.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                panic!("seed {seed}: {msg}");
            }
        }
    }

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..=hi`.
        fn upto(&mut self, hi: usize) -> usize {
            (self.next() % (hi as u64 + 1)) as usize
        }
    }

    /// `b` agrees with the model `want` on every read-only operation.
    fn check(b: &Bytes, want: &[u8], other: &Bytes, other_want: &[u8]) {
        assert_eq!(&b[..], want);
        assert_eq!(b.len(), want.len());
        assert_eq!(b.is_empty(), want.is_empty());
        assert_eq!(b.remaining(), want.len());
        assert_eq!(b.to_vec(), want);
        assert_eq!(b.clone().into_iter().collect::<Vec<u8>>(), want);
        assert_eq!(format!("{b:?}"), format!("b\"{}\"", want.escape_ascii()));
        assert_eq!(*b == *other, want == other_want);
        assert_eq!(b.cmp(other), want.cmp(other_want));
        assert_eq!(b.partial_cmp(other), want.partial_cmp(other_want));
        // One `RandomState` per call: equal contents must hash equally.
        use std::hash::{BuildHasher, Hash, Hasher};
        let state = std::collections::hash_map::RandomState::new();
        let (mut hb, mut hw) = (state.build_hasher(), state.build_hasher());
        b.hash(&mut hb);
        want.hash(&mut hw);
        assert_eq!(hb.finish(), hw.finish());
    }

    #[test]
    fn bytes_and_bytes_mut_match_a_vec_model_across_the_inline_boundary() {
        for_each_seed(300, |rng| {
            // Grow a buffer from random pieces until it reaches a target
            // of 0–64 bytes.
            let mut m = if rng.next().is_multiple_of(2) {
                BytesMut::new()
            } else {
                BytesMut::with_capacity(rng.upto(64))
            };
            let mut model: Vec<u8> = Vec::new();
            let target = rng.upto(64);
            while model.len() < target {
                let before = model.len();
                match rng.upto(5) {
                    0 => {
                        let v = rng.next() as u8;
                        m.put_u8(v);
                        model.push(v);
                    }
                    1 => {
                        let v = rng.next() as u16;
                        m.put_u16(v);
                        model.extend_from_slice(&v.to_be_bytes());
                    }
                    2 => {
                        let v = rng.next() as u32;
                        m.put_u32(v);
                        model.extend_from_slice(&v.to_be_bytes());
                    }
                    3 => {
                        let v = rng.next();
                        m.put_u64(v);
                        model.extend_from_slice(&v.to_be_bytes());
                    }
                    4 => {
                        let piece: Vec<u8> = (0..rng.upto(30)).map(|_| rng.next() as u8).collect();
                        m.reserve(rng.upto(piece.len()));
                        m.extend_from_slice(&piece);
                        model.extend_from_slice(&piece);
                    }
                    _ => {
                        // Consume from the front as a reader would.
                        let n = rng.upto(model.len());
                        if rng.next().is_multiple_of(2) {
                            let head = m.split_to(n);
                            assert_eq!(&head[..], &model[..n], "split_to");
                        } else {
                            let taken = m.copy_to_bytes(n);
                            assert_eq!(&taken[..], &model[..n], "copy_to_bytes");
                        }
                        model.drain(..n);
                    }
                }
                assert_eq!(&m[..], &model[..], "after growing from {before}");
                assert_eq!(m.len(), model.len());
                assert_eq!(m.remaining(), model.len());
            }
            assert_eq!(m, m.clone());
            assert_eq!(format!("{m:?}"), format!("b\"{}\"", model.escape_ascii()));
            if rng.next().is_multiple_of(8) {
                m.clear();
                model.clear();
                assert!(m.is_empty(), "clear");
            }

            let b = m.freeze();
            assert_eq!(is_inline(&b), model.len() <= INLINE_CAP, "freeze");
            let other_model: Vec<u8> = model.iter().map(|&x| x ^ (rng.upto(1) as u8)).collect();
            let other = Bytes::copy_from_slice(&other_model);
            check(&b, &model, &other, &other_model);

            // Windows: slice, advance, copy_to_bytes, clone, in any order.
            let mut cur = b.clone();
            let mut cur_model: &[u8] = &model;
            for _ in 0..8 {
                match rng.upto(3) {
                    0 => {
                        let lo = rng.upto(cur_model.len());
                        let hi = lo + rng.upto(cur_model.len() - lo);
                        cur = cur.slice(lo..hi);
                        cur_model = &cur_model[lo..hi];
                    }
                    1 => {
                        let n = rng.upto(cur_model.len());
                        cur.advance(n);
                        cur_model = &cur_model[n..];
                    }
                    2 => {
                        let n = rng.upto(cur_model.len());
                        let taken = cur.copy_to_bytes(n);
                        check(&taken, &cur_model[..n], &b, &model);
                        cur_model = &cur_model[n..];
                    }
                    _ => cur = cur.clone(),
                }
                check(&cur, cur_model, &b, &model);
            }
            check(&b, &model, &cur, cur_model);
        });
    }
}
