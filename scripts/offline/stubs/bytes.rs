//! In-tree byte buffers: the part of the `bytes` API the codecs in
//! `digibox-net`/`digibox-broker` use (`Bytes`, `BytesMut`, `Buf`,
//! `BufMut`). The workspace builds it as the `bytes` package
//! (`crates/bytes`); `perfbench/build.py` compiles the same file with bare
//! `rustc`.
//!
//! A `Bytes` is a window onto shared, immutable storage, so handing one
//! message buffer from layer to layer copies no data:
//!
//! - `BytesMut::freeze` moves its `Vec` into the shared storage as is;
//! - `Bytes::slice`, `clone` and `Buf::copy_to_bytes` on a `Bytes` return
//!   windows onto the same storage;
//! - empty and `from_static` buffers borrow static memory and allocate
//!   nothing.
//!
//! Only `Bytes::copy_from_slice`, `copy_to_bytes` on a non-`Bytes` buffer
//! and `to_vec` copy. The storage is an `Arc`, so a `Bytes` is `Send`:
//! islands hand datagrams across worker threads.
//!
//! A `Bytes` is 24 bytes: the window offsets are `u32`, so one buffer
//! holds at most `u32::MAX` bytes (4 GiB) and a larger one panics when it
//! is made. Every datagram, timer-wheel entry, retransmit entry and event
//! carries a `Bytes`, and no message comes near the cap.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Where a [`Bytes`] window's bytes live.
#[derive(Clone)]
enum Storage {
    /// Static memory: `from_static` and every empty buffer.
    Static(&'static [u8]),
    /// A `Vec` handed over by `freeze` or `From`, shared by every window
    /// cut from it.
    Shared(Arc<Vec<u8>>),
}

/// An immutable window `[start, end)` onto shared storage; cloning and
/// slicing share the storage instead of copying it.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: u32,
    end: u32,
}

/// The `u32` end offset of a whole buffer of `len` bytes.
fn buffer_end(len: usize) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| panic!("Bytes buffer of {len} bytes exceeds the 4 GiB cap"))
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    pub fn from_static(b: &'static [u8]) -> Bytes {
        Bytes { data: Storage::Static(b), start: 0, end: buffer_end(b.len()) }
    }

    pub fn copy_from_slice(b: &[u8]) -> Bytes {
        Bytes::from_vec(b.to_vec())
    }

    fn from_vec(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let end = buffer_end(v.len());
        Bytes { data: Storage::Shared(Arc::new(v)), start: 0, end }
    }

    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A window onto `range` of this buffer, sharing its storage.
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
        // Both bounds are within the window, so they fit its u32 offsets.
        Bytes {
            data: self.data.clone(),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
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
        let all: &[u8] = match &self.data {
            Storage::Static(b) => b,
            Storage::Shared(v) => v,
        };
        &all[self.start as usize..self.end as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
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

#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(n) }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.buf.split_off(at);
        BytesMut { buf: std::mem::replace(&mut self.buf, rest) }
    }

    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve(n);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

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
        let v = self.chunk()[..n].to_vec();
        self.advance(n);
        Bytes::from(v)
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
        self.start += n as u32;
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
        self.buf.len()
    }
    fn chunk(&self) -> &[u8] {
        &self.buf
    }
    fn advance(&mut self, n: usize) {
        self.buf.drain(..n);
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
        self.buf.extend_from_slice(s);
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

    #[test]
    fn freeze_slice_and_copy_to_bytes_share_storage() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"abcdefgh");
        let base = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), base, "freeze hands the buffer over");
        let s = frozen.slice(2..5);
        assert_eq!(&s[..], b"cde");
        assert_eq!(s.as_ptr(), base.wrapping_add(2));
        let mut cur = frozen.clone();
        cur.advance(1);
        let taken = cur.copy_to_bytes(3);
        assert_eq!(&taken[..], b"bcd");
        assert_eq!(taken.as_ptr(), base.wrapping_add(1), "copy_to_bytes on Bytes is a slice");
        assert_eq!(&cur[..], b"efgh");
        assert_eq!(cur.as_ptr(), base.wrapping_add(4));
    }

    #[test]
    fn windows_ending_at_the_buffer_end_share_storage() {
        let frozen = Bytes::from(b"abcdefgh".to_vec());
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
        assert_eq!(&frozen.slice(len - 1..)[..], b"h");
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
    }
}
