//! A tiny deterministic little-endian binary codec.
//!
//! This is the byte layer under the crash-recovery snapshot format
//! (`tiersim::snapshot`): fixed-width little-endian integers, bit-exact
//! floats (via [`f64::to_bits`]), and length-prefixed sequences. There
//! is no schema and no varint cleverness, so the same state always
//! encodes to the same bytes.
//!
//! A type's layout is one list of its fields in frame order. [`Codec`]
//! encodes a value and decodes a new one; [`State`] encodes a component
//! and decodes it in place over one built from the same configuration.
//! The [`codec!`](crate::codec!) macro writes both halves of either
//! trait from that one list, so an encoder and its decoder cannot
//! disagree on the order, and a field added to the type without a place
//! in the list (or an explicit `field: _` skip) fails to compile.
//!
//! The decoder is total: any truncated or corrupted input yields a
//! [`CodecError`], never a panic. A sequence's length prefix is checked
//! against the bytes left before anything is allocated, since every
//! item encodes to at least one byte.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// Decode failure: the input did not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the expected field.
    Truncated,
    /// A boolean byte was neither 0 nor 1.
    BadBool,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the remaining input.
    BadLength,
    /// Decoding finished with input left over.
    TrailingBytes,
    /// An enum's tag byte named no variant.
    BadTag(u8),
    /// A decoded value broke a constraint of the state it restores.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadBool => write!(f, "invalid boolean byte"),
            CodecError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            CodecError::BadLength => write!(f, "length prefix exceeds input"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after decode"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CodecError {}

impl CodecError {
    /// Names the field a constraint failed in: an `Invalid` message
    /// gains a `field: ` prefix, so a nested failure reads as a path.
    pub fn within(self, field: &str) -> Self {
        match self {
            CodecError::Invalid(msg) => CodecError::Invalid(format!("{field}: {msg}")),
            other => other,
        }
    }
}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put(&v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes any [`Codec`] value.
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.put(self);
    }
}

/// Cursor-based decoder over a byte slice. Every accessor is total:
/// malformed input returns a [`CodecError`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array, for fixed-width integers.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.pos += N;
        Ok(*head)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads any [`Codec`] value.
    pub fn get<T: Codec>(&mut self) -> Result<T, CodecError> {
        T::get(self)
    }

    /// Reads a sequence's length prefix, rejecting one that claims more
    /// items than bytes are left.
    fn get_len(&mut self) -> Result<usize, CodecError> {
        let n: usize = self.get()?;
        if n > self.remaining() {
            return Err(CodecError::BadLength);
        }
        Ok(n)
    }
}

/// A value with a fixed binary layout: `put` writes it, `get` reads a
/// new one back, bit for bit.
pub trait Codec: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, w: &mut ByteWriter);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] on truncated or malformed input.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;

    /// Appends every item's encoding, back to back. Byte tables
    /// override this with one copy.
    fn put_all(items: &[Self], w: &mut ByteWriter) {
        for x in items {
            x.put(w);
        }
    }

    /// Overwrites every item with one decoded in turn.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] on truncated or malformed input.
    fn get_all(items: &mut [Self], r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        for x in items {
            *x = Self::get(r)?;
        }
        Ok(())
    }
}

/// A component whose shape is fixed when it is built (a cache's
/// geometry, a thread count, a configured capacity): it encodes its
/// state, and decodes that state in place over a component built from
/// the same configuration.
pub trait State {
    /// Appends the encoding of the component's state.
    fn put_state(&self, w: &mut ByteWriter);

    /// Overwrites the component's state with a decoded one.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] on truncated or malformed input, or on state
    /// that does not fit this component.
    fn get_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;
}

macro_rules! le_codec {
    ($($t:ty),*) => {$(
        /// Little-endian, fixed width.
        impl Codec for $t {
            fn put(&self, w: &mut ByteWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.take_array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

le_codec!(u32, u64);

/// One byte; a run of them is one copy.
impl Codec for u8 {
    fn put(&self, w: &mut ByteWriter) {
        w.buf.push(*self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1)?[0])
    }
    fn put_all(items: &[Self], w: &mut ByteWriter) {
        w.buf.extend_from_slice(items);
    }
    fn get_all(items: &mut [Self], r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        items.copy_from_slice(r.take(items.len())?);
        Ok(())
    }
}

/// As a `u64`, a platform-independent width; a value beyond this
/// platform's address space is rejected.
impl Codec for usize {
    fn put(&self, w: &mut ByteWriter) {
        (*self as u64).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::get(r)?).map_err(|_| CodecError::BadLength)
    }
}

/// Bit-exact, so signed zeros and NaN payloads round-trip.
impl Codec for f64 {
    fn put(&self, w: &mut ByteWriter) {
        self.to_bits().put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        u64::get(r).map(f64::from_bits)
    }
}

/// One byte, 0 or 1; any other byte is rejected.
impl Codec for bool {
    fn put(&self, w: &mut ByteWriter) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadBool),
        }
    }
}

impl Codec for String {
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_str()?.to_owned())
    }
}

/// Static labels (metric names, telemetry keys) come back interned.
impl Codec for &'static str {
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(intern(r.get_str()?))
    }
}

/// No length prefix: `N` is part of the type.
impl<T: Codec, const N: usize> Codec for [T; N] {
    fn put(&self, w: &mut ByteWriter) {
        for x in self {
            x.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let items = (0..N).map(|_| T::get(r)).collect::<Result<Vec<T>, _>>()?;
        // Invariant: exactly N items were decoded above.
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("N items were decoded")))
    }
}

macro_rules! tuple_codec {
    ($(($($t:ident),+))*) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            #[expect(non_snake_case, reason = "type parameters double as binding names")]
            fn put(&self, w: &mut ByteWriter) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    )*};
}

tuple_codec! { (A, B) (A, B, C) (A, B, C, D) }

/// A `usize` length, then the items.
impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        T::put_all(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

/// The same layout as a `Vec`.
impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        for x in self {
            x.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Vec::get(r).map(VecDeque::from)
    }
}

/// A `usize` length, then the entries in key order.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

/// A presence flag, then the value or, when absent, `T::default()`: a
/// fixed layout whether or not the value is there.
impl<T: Codec + Default> Codec for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        match self {
            Some(v) => v.put(w),
            None => T::default().put(w),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let present = bool::get(r)?;
        let v = T::get(r)?;
        Ok(present.then_some(v))
    }
}

/// A min-heap written as its items in ascending order, so the bytes do
/// not depend on the heap's internal layout. Decoding pushes them back
/// in that order and keeps the heap's allocation.
impl<T: Codec + Ord + Copy> State for BinaryHeap<Reverse<T>> {
    fn put_state(&self, w: &mut ByteWriter) {
        let mut items: Vec<T> = self.iter().map(|x| x.0).collect();
        items.sort_unstable();
        items.put(w);
    }
    fn get_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let items = Vec::<T>::get(r)?;
        self.clear();
        for x in items {
            self.push(Reverse(x));
        }
        Ok(())
    }
}

impl<T: State + ?Sized> State for Box<T> {
    fn put_state(&self, w: &mut ByteWriter) {
        (**self).put_state(w);
    }
    fn get_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        (**self).get_state(r)
    }
}

/// A section present only when configured: no presence flag, since the
/// configuration that builds the component decides it.
impl<T: State> State for Option<T> {
    fn put_state(&self, w: &mut ByteWriter) {
        if let Some(x) = self {
            x.put_state(w);
        }
    }
    fn get_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        match self {
            Some(x) => x.get_state(r),
            None => Ok(()),
        }
    }
}

/// Every component in place, with no count (arrays and other slices
/// whose length the type or the configuration fixes).
impl<T: State> State for [T] {
    fn put_state(&self, w: &mut ByteWriter) {
        for x in self {
            x.put_state(w);
        }
    }
    fn get_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        for x in self {
            x.get_state(r)?;
        }
        Ok(())
    }
}

/// A `usize` count, which must equal this vector's length, then every
/// component in place.
impl<T: State> State for Vec<T> {
    fn put_state(&self, w: &mut ByteWriter) {
        self.len().put(w);
        self[..].put_state(w);
    }
    fn get_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        check_len(r, self.len())?;
        self[..].get_state(r)
    }
}

/// Reads a length prefix that must equal `len`, the length this run
/// built.
fn check_len(r: &mut ByteReader<'_>, len: usize) -> Result<(), CodecError> {
    let n: usize = r.get()?;
    if n != len {
        return Err(CodecError::Invalid(format!(
            "snapshot has {n} entries, this run has {len}"
        )));
    }
    Ok(())
}

/// The `fixed` field mode of [`codec!`](crate::codec!): a length prefix
/// that must equal `items.len()`, then every item overwritten.
#[doc(hidden)]
pub fn get_fixed<T: Codec>(items: &mut [T], r: &mut ByteReader<'_>) -> Result<(), CodecError> {
    check_len(r, items.len())?;
    T::get_all(items, r)
}

/// The `eq` field mode of [`codec!`](crate::codec!): the decoded value
/// must equal `have`, the value this run was built with.
#[doc(hidden)]
pub fn get_eq<T: Codec + PartialEq + fmt::Debug>(
    have: &T,
    r: &mut ByteReader<'_>,
    what: &str,
) -> Result<(), CodecError> {
    let got = T::get(r)?;
    if got != *have {
        return Err(CodecError::Invalid(format!(
            "{what}: snapshot has {got:?}, this run has {have:?}"
        )));
    }
    Ok(())
}

/// Writes [`Codec`] or [`State`] for a type from one field list in frame
/// order.
///
/// The encoder destructures `self` exhaustively, so a field missing
/// from the list is a compile error. Fields the frame leaves out follow
/// a `;` as `field: _`, each with a comment saying why.
///
/// - `impl Codec for T { a, b; c: _ }`: a value; a skipped field
///   decodes to its `Default`.
/// - `impl Codec for E { 0 => A { x }, 1 => B(y), 2 => C }`: an enum as
///   a tag byte and the variant's fields.
/// - `impl State for T { .. } then |t| { .. }`: a component decoded in
///   place, with an optional check run once every field is read, which
///   returns `Err(String)` on state that does not fit. A field may carry
///   a mode. With none, it is overwritten by a decoded [`Codec`] value.
///   `state` decodes it in place as a [`State`]. `each` overwrites each
///   item of a container whose length is fixed at construction (a
///   per-thread vector, an `Option` present iff configured), with no
///   count written. `fixed` writes a count that must equal the built
///   length, then overwrites each item. `eq` must decode to the value
///   the component was built with.
///
/// ```
/// use pact_stats::codec::{ByteReader, ByteWriter, State};
///
/// struct Ring { cap: usize, slots: Vec<u64>, head: usize, scratch: Vec<u64> }
/// pact_stats::codec! {
///     impl State for Ring {
///         cap: eq,
///         slots: fixed,
///         head;
///         scratch: _, // cleared before every use
///     } then |ring| {
///         if ring.head >= ring.cap {
///             return Err(format!("head {} outside a ring of {}", ring.head, ring.cap));
///         }
///         Ok(())
///     }
/// }
///
/// let ring = |head| Ring { cap: 2, slots: vec![head as u64; 2], head, scratch: vec![] };
/// let mut w = ByteWriter::new();
/// ring(1).put_state(&mut w);
/// let mut fresh = ring(0);
/// fresh.get_state(&mut ByteReader::new(&w.into_bytes())).unwrap();
/// assert_eq!((fresh.slots, fresh.head), (vec![1, 1], 1));
/// ```
#[macro_export]
macro_rules! codec {
    (impl Codec for $t:ty {
        $($tag:literal => $v:ident $({ $($f:ident),* $(,)? })? $(( $($tf:ident),* $(,)? ))?),+ $(,)?
    }) => {
        impl $crate::codec::Codec for $t {
            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                match self {
                    $(Self::$v $({ $($f),* })? $(( $($tf),* ))? => {
                        w.put::<u8>(&$tag);
                        $($($crate::codec::Codec::put($f, w);)*)?
                        $($($crate::codec::Codec::put($tf, w);)*)?
                    })+
                }
            }
            fn get(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match r.get::<u8>()? {
                    $($tag => Self::$v
                        $({ $($f: $crate::codec::Codec::get(r)?),* })?
                        $(( $($crate::codec!(@item $tf r)),* ))?,)+
                    tag => return Err($crate::codec::CodecError::BadTag(tag)),
                })
            }
        }
    };
    (impl Codec for $t:ty { $($f:ident),* $(,)? $(; $($s:ident: _),* $(,)?)? }) => {
        impl $crate::codec::Codec for $t {
            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                let Self { $($f,)* $($($s: _,)*)? } = self;
                $($crate::codec::Codec::put($f, w);)*
            }
            fn get(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self {
                    $($f: $crate::codec::Codec::get(r)?,)*
                    $($($s: Default::default(),)*)?
                })
            }
        }
    };
    (impl $(<$($lt:lifetime),+>)? State for $t:ty {
        $($f:ident $(: $mode:ident)?),* $(,)? $(; $($s:ident: _),* $(,)?)?
    } $(then |$this:ident| $check:block)?) => {
        impl $(<$($lt),+>)? $crate::codec::State for $t {
            fn put_state(&self, w: &mut $crate::codec::ByteWriter) {
                #[allow(unused_imports, reason = "only `state` field modes call `State` methods")]
                use $crate::codec::State as _;
                let Self { $($f,)* $($($s: _,)*)? } = self;
                $($crate::codec!(@put [$($mode)?] $f w);)*
            }
            fn get_state(
                &mut self,
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<(), $crate::codec::CodecError> {
                #[allow(unused_imports, reason = "only `state` field modes call `State` methods")]
                use $crate::codec::State as _;
                let Self { $($f,)* $($($s: _,)*)? } = self;
                $($crate::codec!(@get [$($mode)?] $f r);)*
                $(
                    let check = |$this: &mut Self| -> Result<(), String> { $check };
                    check(self).map_err($crate::codec::CodecError::Invalid)?;
                )?
                Ok(())
            }
        }
    };
    (@item $f:ident $r:ident) => { $crate::codec::Codec::get($r)? };
    (@put [] $f:ident $w:ident) => { $crate::codec::Codec::put($f, $w) };
    (@put [eq] $f:ident $w:ident) => { $crate::codec::Codec::put($f, $w) };
    (@put [fixed] $f:ident $w:ident) => { $crate::codec::Codec::put($f, $w) };
    (@put [state] $f:ident $w:ident) => { $f.put_state($w) };
    (@put [each] $f:ident $w:ident) => {
        for x in $f.iter() {
            $crate::codec::Codec::put(x, $w);
        }
    };
    (@get [] $f:ident $r:ident) => { *$f = $crate::codec::Codec::get($r)? };
    (@get [eq] $f:ident $r:ident) => { $crate::codec::get_eq($f, $r, stringify!($f))? };
    (@get [fixed] $f:ident $r:ident) => {
        $crate::codec::get_fixed(&mut $f[..], $r).map_err(|e| e.within(stringify!($f)))?
    };
    (@get [state] $f:ident $r:ident) => {
        $f.get_state($r).map_err(|e| e.within(stringify!($f)))?
    };
    (@get [each] $f:ident $r:ident) => {
        for x in $f.iter_mut() {
            *x = $crate::codec::Codec::get($r)?;
        }
    };
}

static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Returns a `'static` string equal to `s`, leaking at most one copy
/// per distinct value for the life of the process.
///
/// Trace events and metric names carry `&'static str` labels: string
/// literals in a normal run, but a run restored from a snapshot rebuilds
/// them from bytes. Interning makes a restored run's labels compare and
/// export exactly like the originals. The table is append-only and
/// searched linearly: the distinct labels are few (metric names,
/// telemetry keys, fault class names) and restore runs once per process.
pub fn intern(s: &str) -> &'static str {
    #[expect(
        clippy::unwrap_used,
        reason = "the interner mutex is never poisoned: no code path inside the critical \
                  section can panic"
    )]
    let mut table = INTERNED.lock().unwrap();
    if let Some(&hit) = table.iter().find(|&&t| t == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_type() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0ABC);
        let mut w = ByteWriter::new();
        w.put(&(0xABu8, 0xDEAD_BEEFu32, u64::MAX - 7, 12345usize));
        w.put(&(-0.0f64, nan, true, false));
        w.put_bytes(b"raw\x00bytes");
        w.put(&String::from("tiered memory"));
        w.put(&[1u32, 2, 3]);
        w.put(&VecDeque::from(vec![4u64, 5]));
        w.put(&BTreeMap::from([(3u64, [1u64, 2]), (1, [3, 4])]));
        w.put(&(Some(9u32), None::<u64>));
        w.put(&"interned label");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let ints: (u8, u32, u64, usize) = r.get().unwrap();
        assert_eq!(ints, (0xAB, 0xDEAD_BEEF, u64::MAX - 7, 12345));
        // -0.0 and NaN payloads round-trip bit-exactly.
        let (zero, got_nan, t, f): (f64, f64, bool, bool) = r.get().unwrap();
        assert_eq!(
            (zero.to_bits(), got_nan.to_bits()),
            ((-0.0f64).to_bits(), nan.to_bits())
        );
        assert_eq!((t, f), (true, false));
        assert_eq!(r.get::<Vec<u8>>().unwrap(), b"raw\x00bytes");
        assert_eq!(r.get_str().unwrap(), "tiered memory");
        assert_eq!(r.get::<[u32; 3]>().unwrap(), [1, 2, 3]);
        assert_eq!(r.get::<VecDeque<u64>>().unwrap(), [4, 5]);
        let map: BTreeMap<u64, [u64; 2]> = r.get().unwrap();
        assert_eq!(map, BTreeMap::from([(1, [3, 4]), (3, [1, 2])]));
        assert_eq!(
            r.get::<(Option<u32>, Option<u64>)>().unwrap(),
            (Some(9), None)
        );
        let label: &'static str = r.get().unwrap();
        assert!(std::ptr::eq(label, intern("interned label")));
        r.finish().unwrap();
    }

    #[test]
    fn layouts_are_fixed_width_little_endian() {
        let mut w = ByteWriter::new();
        w.put(&None::<u64>);
        w.put(&(3u8, 4u32, true));
        w.put(&[1u64, 2]);
        w.put(&b"raw".to_vec());
        let mut want = vec![0u8];
        want.extend(0u64.to_le_bytes());
        // None is a false flag and the default value; tuples and arrays
        // carry no prefix; a Vec<u8> is `put_bytes`.
        want.extend([3, 4, 0, 0, 0, 1]);
        want.extend(1u64.to_le_bytes());
        want.extend(2u64.to_le_bytes());
        let mut bytes = ByteWriter::new();
        bytes.put_bytes(b"raw");
        let raw = bytes.into_bytes();
        want.extend(&raw);
        assert_eq!(w.into_bytes(), want);
        // A byte table read in place is the same bytes, copied at once.
        let mut table = [0u8; 3];
        get_fixed(&mut table, &mut ByteReader::new(&raw)).unwrap();
        assert_eq!(&table, b"raw");
        let short = &raw[..raw.len() - 1];
        let got = get_fixed(&mut table, &mut ByteReader::new(short));
        assert_eq!(got, Err(CodecError::Truncated));
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        at: u64,
        kind: Kind,
        seen: bool,
    }
    crate::codec! {
        impl Codec for Sample { at, kind; seen: _ }
    }

    #[derive(Debug, PartialEq)]
    enum Kind {
        Load { addr: u64 },
        Store(u64),
        Fence,
    }
    crate::codec! {
        impl Codec for Kind { 0 => Load { addr }, 1 => Store(addr), 2 => Fence }
    }

    #[test]
    fn macro_codecs_follow_the_field_list() {
        let sample = |seen| Sample {
            at: 9,
            kind: Kind::Load { addr: 64 },
            seen,
        };
        let mut w = ByteWriter::new();
        w.put(&sample(true));
        w.put(&(Kind::Store(3), Kind::Fence));
        let bytes = w.into_bytes();
        // `at`, then each kind's tag and fields.
        let mut want = ByteWriter::new();
        want.put(&((9u64, 0u8), (64u64, 1u8), (3u64, 2u8)));
        assert_eq!(bytes, want.into_bytes());
        let mut r = ByteReader::new(&bytes);
        // The skipped field decodes to its default.
        assert_eq!(r.get::<Sample>(), Ok(sample(false)));
        assert_eq!(r.get(), Ok((Kind::Store(3), Kind::Fence)));
        assert_eq!(
            ByteReader::new(&[3]).get::<Kind>(),
            Err(CodecError::BadTag(3))
        );
    }

    #[derive(Default)]
    struct Component {
        cap: usize,
        slots: Vec<u32>,
        per_thread: Vec<u64>,
        gated: Option<u64>,
        heap: BinaryHeap<Reverse<u64>>,
        scratch: u64,
    }
    crate::codec! {
        impl State for Component {
            cap: eq,
            slots: fixed,
            per_thread: each,
            gated: each,
            heap: state;
            scratch: _, // not part of the frame
        } then |c| {
            if c.slots.iter().any(|&s| s as usize >= c.cap) {
                return Err("slot beyond capacity".into());
            }
            Ok(())
        }
    }

    /// A component as built, with `edit` applied.
    fn built(edit: impl FnOnce(&mut Component)) -> Component {
        let mut c = Component {
            cap: 8,
            slots: vec![0; 2],
            per_thread: vec![0; 3],
            ..Default::default()
        };
        c.gated = Some(0);
        edit(&mut c);
        c
    }

    fn state_bytes(c: &Component) -> Vec<u8> {
        let mut w = ByteWriter::new();
        c.put_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn state_modes_decode_in_place() {
        let c = built(|c| {
            (c.slots, c.per_thread, c.gated) = (vec![5, 7], vec![1, 2, 3], Some(4));
            c.heap.extend([Reverse(9), Reverse(2), Reverse(5)]);
            c.scratch = 11;
        });
        let bytes = state_bytes(&c);
        let mut want = ByteWriter::new();
        want.put(&((8usize, vec![5u32, 7]), ([1u64, 2, 3, 4], vec![2u64, 5, 9])));
        assert_eq!(bytes, want.into_bytes());
        let mut fresh = built(|_| {});
        fresh.get_state(&mut ByteReader::new(&bytes)).unwrap();
        let heap: Vec<u64> = fresh.heap.into_sorted_vec().iter().map(|x| x.0).collect();
        assert_eq!((fresh.slots, fresh.per_thread), (c.slots, c.per_thread));
        assert_eq!(
            (fresh.gated, heap, fresh.scratch),
            (Some(4), vec![9, 5, 2], 0)
        );
        // A gated section absent from this build writes and reads nothing.
        let short = state_bytes(&built(|c| c.gated = None));
        assert_eq!(short.len(), 8 + (8 + 2 * 4) + 3 * 8 + 8);
        let mut r = ByteReader::new(&short);
        built(|c| c.gated = None).get_state(&mut r).unwrap();
        r.finish().unwrap();
        // A mismatched `eq` value or `fixed` length, or a failed check.
        let bad_slot = state_bytes(&built(|c| c.slots = vec![8, 1]));
        let cases = [
            (built(|c| c.cap = 9), &bytes),
            (built(|c| c.slots = vec![0; 3]), &bytes),
            (built(|_| {}), &bad_slot),
        ];
        for (mut c, bytes) in cases {
            let err = c.get_state(&mut ByteReader::new(bytes)).unwrap_err();
            assert!(matches!(err, CodecError::Invalid(_)), "{err:?}");
        }
    }

    #[test]
    fn crafted_lengths_fail_before_allocating() {
        // A length prefix of 2^61 claims far more items than bytes left.
        let mut w = ByteWriter::new();
        w.put(&(1usize << 61, 0u64));
        let bytes = w.into_bytes();
        let r = || ByteReader::new(&bytes);
        assert_eq!(r().get::<Vec<u64>>(), Err(CodecError::BadLength));
        assert_eq!(r().get::<VecDeque<u8>>(), Err(CodecError::BadLength));
        assert_eq!(r().get::<BTreeMap<u64, u64>>(), Err(CodecError::BadLength));
        let mut heap = BinaryHeap::<Reverse<u64>>::new();
        assert_eq!(heap.get_state(&mut r()), Err(CodecError::BadLength));
        assert_eq!(r().get_bytes(), Err(CodecError::BadLength));
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let mut w = ByteWriter::new();
            w.put(&(42u64, 1.5f64));
            w.put_str("abc");
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
    }

    #[test]
    fn interns_each_distinct_string_once() {
        let a = intern("snapshot/test/alpha");
        // Same pointer: the second call found the first entry.
        assert!(std::ptr::eq(a, intern("snapshot/test/alpha")));
        assert_eq!(intern("snapshot/test/beta"), "snapshot/test/beta");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        let bytes = 7u64.to_le_bytes();
        assert_eq!(
            ByteReader::new(&bytes[..5]).get::<u64>(),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            ByteReader::new(&[2]).get::<bool>(),
            Err(CodecError::BadBool)
        );
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).get_str(), Err(CodecError::BadUtf8));
        let mut r = ByteReader::new(&[1, 2]);
        r.get::<u8>().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes));
        r.get::<u8>().unwrap();
        r.finish().unwrap();
    }
}
