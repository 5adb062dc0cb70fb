//! Unified persistence layer: little-endian binary [`Writer`]/[`Reader`]
//! primitives and the [`Persist`] trait implemented once per component.
//!
//! Every piece of engine state that must survive a checkpoint implements
//! [`Persist`] next to its own definition — network weights in `fastft-nn`,
//! replay buffers in `fastft-rl`, evaluator settings in `fastft-ml`, the
//! run state itself in `fastft-core`. The checkpoint file is then just the
//! concatenation of component encodings: `Snapshot` construction
//! destructures the run state exhaustively, so adding a state field without
//! persisting it is a compile error rather than a silent resume bug.
//!
//! Encoding rules (stable across the workspace, little-endian):
//! - integers as fixed-width LE bytes; `usize` always as `u64`
//! - `f64` as IEEE-754 bits (floats round-trip exactly)
//! - `bool` as one byte (0/1)
//! - `String` as `u64` length + UTF-8 bytes
//! - `Vec<T>` as `u64` length + elements
//! - `Option<T>` as a presence byte + value
//! - `[u64; N]` raw, no length prefix (fixed-size by type)
//!
//! Readers bounds-check every length against the remaining input, so a
//! corrupt or truncated file produces a typed error, never a panic or an
//! unbounded allocation.

/// Restore error: a human-readable description of where decoding failed.
pub type PersistError = String;

/// Result alias used by [`Persist::restore`] and [`Reader`] primitives.
pub type PersistResult<T> = Result<T, PersistError>;

/// A component that can write itself to a byte stream and restore itself
/// from one, bitwise-exactly.
pub trait Persist: Sized {
    /// Append this value's encoding to the writer.
    fn persist(&self, w: &mut Writer);
    /// Decode a value previously written by [`Persist::persist`].
    fn restore(r: &mut Reader) -> PersistResult<Self>;
}

/// Implement [`Persist`] for a struct from one list of its fields:
/// `persist_struct!(Decision { candidates, action });`. Long lists read
/// best in the brace form, `persist_struct! { Type { a, b, … } }`.
///
/// Fields are written and read in list order. `persist` destructures the
/// struct without `..` and `restore` builds it with a struct literal, so a
/// field missing from the list is a compile error in both directions.
#[macro_export]
macro_rules! persist_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            fn persist(&self, w: &mut $crate::persist::Writer) {
                let $ty { $($field),+ } = self;
                $($crate::persist::Persist::persist($field, w);)+
            }

            fn restore(
                r: &mut $crate::persist::Reader,
            ) -> $crate::persist::PersistResult<Self> {
                Ok($ty { $($field: $crate::persist::Persist::restore(r)?),+ })
            }
        }
    };
}

/// Implement [`Persist`] for a fieldless enum as a one-byte tag per
/// variant: `persist_enum!(QKind { Dqn = 0, DoubleDqn = 1 });`.
///
/// `persist` matches without a wildcard, so a variant missing from the list
/// is a compile error; `restore` rejects any other tag with a typed error.
#[macro_export]
macro_rules! persist_enum {
    ($ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            fn persist(&self, w: &mut $crate::persist::Writer) {
                w.u8(match self { $($ty::$variant => $tag),+ });
            }

            fn restore(
                r: &mut $crate::persist::Reader,
            ) -> $crate::persist::PersistResult<Self> {
                match r.u8()? {
                    $($tag => Ok($ty::$variant),)+
                    t => Err(format!("unknown {} tag {t}", stringify!($ty))),
                }
            }
        }
    };
}

/// Growable little-endian byte sink.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` as 4 LE bytes.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` as 8 LE bytes.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append a string as length + UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte source.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `n` bytes.
    pub fn take(&mut self, n: usize) -> PersistResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {} (wanted {} more)", self.pos, n))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> PersistResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32` from 4 LE bytes.
    pub fn u32(&mut self) -> PersistResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64` from 8 LE bytes.
    pub fn u64(&mut self) -> PersistResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` (stored as `u64`), rejecting values beyond the
    /// platform's range.
    pub fn usize(&mut self) -> PersistResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("length {v} exceeds platform usize"))
    }

    /// A length that bounds an upcoming allocation. Each element occupies
    /// at least one byte in the stream, so any honest length is bounded by
    /// the remaining input — rejecting larger values stops a corrupt
    /// header from triggering a huge allocation.
    pub fn seq_len(&mut self) -> PersistResult<usize> {
        let v = self.usize()?;
        if v > self.remaining() {
            return Err(format!("length {v} exceeds remaining input"));
        }
        Ok(v)
    }

    /// Read an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> PersistResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool` from one byte.
    pub fn bool(&mut self) -> PersistResult<bool> {
        Ok(self.u8()? != 0)
    }

    /// Read a string written by [`Writer::str`].
    pub fn str(&mut self) -> PersistResult<String> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 string: {e}"))
    }

    /// True once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// --- scalar impls ----------------------------------------------------------

impl Persist for u8 {
    fn persist(&self, w: &mut Writer) {
        w.u8(*self);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        r.u8()
    }
}

impl Persist for u32 {
    fn persist(&self, w: &mut Writer) {
        w.u32(*self);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        r.u32()
    }
}

impl Persist for u64 {
    fn persist(&self, w: &mut Writer) {
        w.u64(*self);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        r.u64()
    }
}

impl Persist for usize {
    fn persist(&self, w: &mut Writer) {
        w.usize(*self);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        r.usize()
    }
}

impl Persist for f64 {
    fn persist(&self, w: &mut Writer) {
        w.f64(*self);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        r.f64()
    }
}

impl Persist for bool {
    fn persist(&self, w: &mut Writer) {
        w.bool(*self);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        r.bool()
    }
}

impl Persist for String {
    fn persist(&self, w: &mut Writer) {
        w.str(self);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        r.str()
    }
}

// --- container impls -------------------------------------------------------

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.persist(w);
        }
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        let n = r.seq_len()?;
        (0..n).map(|_| T::restore(r)).collect()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut Writer) {
        match self {
            Some(v) => {
                w.bool(true);
                v.persist(w);
            }
            None => w.bool(false),
        }
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        Ok(if r.bool()? { Some(T::restore(r)?) } else { None })
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, w: &mut Writer) {
        self.0.persist(w);
        self.1.persist(w);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<const N: usize> Persist for [u64; N] {
    fn persist(&self, w: &mut Writer) {
        for &x in self {
            w.u64(x);
        }
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        let mut out = [0u64; N];
        for x in &mut out {
            *x = r.u64()?;
        }
        Ok(out)
    }
}

impl Persist for std::path::PathBuf {
    fn persist(&self, w: &mut Writer) {
        w.str(&self.display().to_string());
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        Ok(r.str()?.into())
    }
}

impl Persist for crate::rngx::StdRng {
    fn persist(&self, w: &mut Writer) {
        self.state().persist(w);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        Ok(Self::from_state(<[u64; 4]>::restore(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(&T::restore(&mut r).unwrap(), v);
        assert!(r.is_exhausted(), "trailing bytes after round-trip");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&42u8);
        round_trip(&7u32);
        round_trip(&u64::MAX);
        round_trip(&1234usize);
        round_trip(&true);
        round_trip(&false);
        round_trip(&"héllo".to_string());
        round_trip(&std::path::PathBuf::from("a/b/c.ckpt"));
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut w = Writer::new();
            v.persist(&mut w);
            let bytes = w.into_bytes();
            let back = f64::restore(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1.0f64, -2.5, 3.25]);
        round_trip(&vec![vec![1usize, 2], vec![]]);
        round_trip(&Some("x".to_string()));
        round_trip(&None::<String>);
        round_trip(&("key".to_string(), 0.5f64));
        round_trip(&[1u64, 2, 3, 4]);
    }

    #[test]
    fn rng_round_trip_preserves_stream() {
        let mut rng = crate::rngx::StdRng::seed_from_u64(9);
        let _ = rng.next_u64();
        let mut w = Writer::new();
        rng.persist(&mut w);
        let bytes = w.into_bytes();
        let mut restored = crate::rngx::StdRng::restore(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.next_u64(), rng.next_u64());
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        name: String,
        weights: Vec<f64>,
    }

    crate::persist_struct!(Pair { name, weights });

    #[test]
    fn persist_struct_writes_fields_in_list_order() {
        let pair = Pair { name: "p".into(), weights: vec![0.5] };
        round_trip(&pair);
        let mut w = Writer::new();
        pair.persist(&mut w);
        let mut expect = Writer::new();
        pair.name.persist(&mut expect);
        pair.weights.persist(&mut expect);
        assert_eq!(w.into_bytes(), expect.into_bytes());
    }

    #[derive(Debug, PartialEq)]
    enum Shade {
        Light,
        Dark,
    }

    crate::persist_enum!(Shade { Light = 0, Dark = 3 });

    #[test]
    fn persist_enum_writes_one_tag_byte_and_rejects_unknown_tags() {
        round_trip(&Shade::Light);
        round_trip(&Shade::Dark);
        let mut w = Writer::new();
        Shade::Dark.persist(&mut w);
        assert_eq!(w.into_bytes(), [3]);
        let err = Shade::restore(&mut Reader::new(&[1])).unwrap_err();
        assert_eq!(err, "unknown Shade tag 1");
    }

    #[test]
    fn corrupt_lengths_error_cleanly() {
        // A huge vec length must be rejected before allocating.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Vec::<f64>::restore(&mut Reader::new(&bytes)).is_err());
        // Truncated payloads error, never panic.
        let mut w = Writer::new();
        "hello".to_string().persist(&mut w);
        let bytes = w.into_bytes();
        assert!(String::restore(&mut Reader::new(&bytes[..bytes.len() - 1])).is_err());
    }
}
