//! The one encoding idiom of the wire format.
//!
//! A type that crosses the link implements [`Wire`] once, and that impl *is*
//! its layout: `encode` and `decode` are written side by side (or generated
//! from one table by `wire_struct!` / `wire_enum!`), so the two directions
//! cannot drift apart. Integers are variable-byte ([`seabed_encoding::varint`]),
//! flags and tags one byte, sequences and byte strings a varint count followed
//! by the elements — and a table column's words a count followed by their
//! raw 8-byte forms ([`Word`]).
//!
//! [`Reader`] is a totalizing cursor over untrusted bytes: every read returns
//! [`SeabedError::Wire`] on truncation, never panics, and the only allocation
//! made on the strength of a count alone — `Vec<T>`'s — follows the one
//! reservation rule stated there.

use seabed_encoding::varint;
use seabed_error::SeabedError;
use std::collections::HashMap;
use std::hash::Hash;
use std::time::Duration;

/// A value with exactly one wire layout. Byte strings are not `Wire` on
/// purpose: they are read with [`Reader::bytes`], which borrows, so a decoder
/// that only parses the bytes (an ID list) never copies them first.
pub(super) trait Wire: Sized {
    /// Appends the value's wire form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one value, consuming exactly the bytes `encode` wrote.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SeabedError>;
}

/// A cursor over an untrusted payload.
pub(super) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(super) fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads one `T`; the type is usually inferred from the field it fills.
    pub(super) fn get<T: Wire>(&mut self) -> Result<T, SeabedError> {
        T::decode(self)
    }

    pub(super) fn u8(&mut self) -> Result<u8, SeabedError> {
        let byte = *self
            .data
            .get(self.pos)
            .ok_or_else(|| SeabedError::wire("truncated payload: expected a byte"))?;
        self.pos += 1;
        Ok(byte)
    }

    /// The next `len` bytes of the payload, or `None` (nothing read) if fewer
    /// remain.
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let slice = self.data.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(slice)
    }

    /// Reads a length-prefixed byte string as a slice of the payload.
    pub(super) fn bytes(&mut self) -> Result<&'a [u8], SeabedError> {
        let len: usize = self.get()?;
        self.take(len)
            .ok_or_else(|| SeabedError::wire("byte-string length prefix exceeds remaining payload"))
    }

    /// Reads a column of words written by [`put_words`]: its extent is
    /// checked once, so a forged count fails having reserved nothing, and an
    /// honest column is collected at its exact size.
    pub(super) fn words<W: Word>(&mut self) -> Result<Vec<W>, SeabedError> {
        let count: usize = self.get()?;
        let bytes = count
            .checked_mul(8)
            .and_then(|len| self.take(len))
            .ok_or_else(|| SeabedError::wire("word count exceeds remaining payload"))?;
        Ok(bytes.as_chunks::<8>().0.iter().map(|word| W::from_le(*word)).collect())
    }

    /// The payload must be consumed exactly; trailing bytes are corruption.
    pub(super) fn finish(self) -> Result<(), SeabedError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(SeabedError::wire(format!("{extra} trailing bytes after payload"))),
        }
    }
}

/// Writes a length-prefixed byte string (the counterpart of [`Reader::bytes`]).
pub(super) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    bytes.len().encode(out);
    out.extend_from_slice(bytes);
}

/// Writes a sequence the way `Vec<T>` decodes it: a count, then the elements.
pub(super) fn put_seq<T: Wire>(out: &mut Vec<u8>, items: &[T]) {
    items.len().encode(out);
    for item in items {
        item.encode(out);
    }
}

/// An 8-byte word of a table column. A column of them travels as a count and
/// the words' raw little-endian bytes ([`put_words`], [`Reader::words`]),
/// not as varints, which would grow the random ASHE and DET words.
pub(super) trait Word: Copy {
    fn to_le(self) -> [u8; 8];
    fn from_le(bytes: [u8; 8]) -> Self;
}

macro_rules! wire_word {
    ($($ty:ty),+) => {$(
        impl Word for $ty {
            fn to_le(self) -> [u8; 8] {
                self.to_le_bytes()
            }

            fn from_le(bytes: [u8; 8]) -> $ty {
                <$ty>::from_le_bytes(bytes)
            }
        }
    )+};
}
wire_word!(u64, i64);

/// Writes a count, then `words` in one pass over bytes claimed at once.
pub(super) fn put_words<W: Word>(out: &mut Vec<u8>, words: &[W]) {
    words.len().encode(out);
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    for (slot, word) in out[start..].as_chunks_mut::<8>().0.iter_mut().zip(words) {
        *slot = word.to_le();
    }
}

/// What a borrowed frame twin writes a field with: any [`Wire`] value, and a
/// slice the way `Vec<T>` writes itself, so a twin may borrow `&[T]` where
/// its variant owns a `Vec<T>`.
pub(super) trait Put {
    fn put(&self, out: &mut Vec<u8>);
}

impl<T: Wire> Put for T {
    fn put(&self, out: &mut Vec<u8>) {
        self.encode(out);
    }
}

impl<T: Wire> Put for [T] {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self);
    }
}

/// The error every tag table reports for a byte it does not list.
pub(super) fn invalid_tag(what: &str, tag: u8) -> SeabedError {
    SeabedError::wire(format!("invalid {what} tag {tag}"))
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::encode_u64(*self, out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<u64, SeabedError> {
        let (value, next) = varint::decode_u64(r.data, r.pos)
            .ok_or_else(|| SeabedError::wire("truncated or overlong varint in payload"))?;
        r.pos = next;
        Ok(value)
    }
}

/// Narrower integers travel as the same varint and are range-checked on
/// arrival — for `usize` that is the platform check: a count this machine
/// cannot index is a typed error, not a truncation.
macro_rules! wire_narrow_uint {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                (*self as u64).encode(out);
            }

            fn decode(r: &mut Reader<'_>) -> Result<$ty, SeabedError> {
                let value = u64::decode(r)?;
                <$ty>::try_from(value)
                    .map_err(|_| SeabedError::wire(format!("{value} does not fit a {} here", stringify!($ty))))
            }
        }
    )+};
}
wire_narrow_uint!(u32, usize);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(r: &mut Reader<'_>) -> Result<bool, SeabedError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid_tag("bool", other)),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<String, SeabedError> {
        let text =
            std::str::from_utf8(r.bytes()?).map_err(|_| SeabedError::wire("string payload is not valid UTF-8"))?;
        Ok(text.to_owned())
    }
}

/// Whole nanoseconds; a duration past `u64` nanoseconds (584 years) saturates.
impl Wire for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Duration, SeabedError> {
        Ok(Duration::from_nanos(r.get()?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Option<T>, SeabedError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(r.get()?)),
            other => Err(invalid_tag("option", other)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<(A, B), SeabedError> {
        Ok((r.get()?, r.get()?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_seq(out, self);
    }

    /// **The one reservation rule.** The count is untrusted, so it reserves
    /// nothing by itself: the vector starts with room for at most as many
    /// elements as fit — at their size *in memory* — in the bytes still
    /// unread. A decoder therefore never reserves more bytes than remain in
    /// the frame, however large the count and however small an element is on
    /// the wire (`tests/wire_alloc_bound.rs` measures it). An honest count is
    /// below that cap unless its elements are smaller on the wire than in
    /// memory, and then the vector just grows as the elements really arrive.
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, SeabedError> {
        let count: usize = r.get()?;
        let mut items = Vec::with_capacity(count.min(r.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..count {
            items.push(r.get()?);
        }
        Ok(items)
    }
}

/// A map travels as its entries **sorted by key** — `HashMap` iteration order
/// is not deterministic, and the same value must always be the same bytes —
/// and is rebuilt from the decoded entry list, so it has no reservation of
/// its own to get wrong.
impl<K: Wire + Ord + Hash, V: Wire> Wire for HashMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.len().encode(out);
        for (key, value) in entries {
            key.encode(out);
            value.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<HashMap<K, V>, SeabedError> {
        Ok(r.get::<Vec<(K, V)>>()?.into_iter().collect())
    }
}

/// One field of a layout table: `name` is any [`Wire`] type, `name: bytes` a
/// `Vec<u8>` that travels as a length-prefixed byte string, `name: words` a
/// `Vec` of [`Word`]s that travels as their raw bytes, and `name: unsent` a
/// field that stays with the sender — nothing is written for it (its value
/// is never read) and the receiver holds the type's default.
macro_rules! wire_field {
    (put $out:ident, $field:expr) => {
        Wire::encode($field, $out)
    };
    (put $out:ident, $field:expr, bytes) => {
        put_bytes($out, $field)
    };
    (put $out:ident, $field:expr, words) => {
        put_words($out, $field)
    };
    (put $out:ident, $field:expr, unsent) => {
        let _ = $field;
    };
    (get $r:ident) => {
        $r.get()?
    };
    (get $r:ident, bytes) => {
        $r.bytes()?.to_vec()
    };
    (get $r:ident, words) => {
        $r.words()?
    };
    (get $r:ident, unsent) => {
        Default::default()
    };
}

/// `wire_struct!(Type { a, b, c })`: the struct's layout is its listed fields,
/// in this order, in both directions.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident $(: $how:ident)?),+ $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(wire_field!(put out, &self.$field $(, $how)?);)+
            }

            fn decode(r: &mut Reader<'_>) -> Result<$ty, SeabedError> {
                Ok($ty { $($field: wire_field!(get r $(, $how)?)),+ })
            }
        }
    };
}

/// `wire_enum!(Type as "name in errors" { 0 => Unit, 1 => Tuple(x), 2 => Struct { a, b } })`:
/// the enum's tag table and each variant's field order, stated once for both
/// directions (a tuple field names its binding, and may say how it travels
/// like a struct field: `Tuple(x: words)`); a byte the table does not list is
/// `invalid <name> tag <byte>`.
/// A `#[non_exhaustive]` enum of another crate closes its table with
/// `_(other) => <a listed value to send instead>`.
macro_rules! wire_enum {
    ($ty:ident as $what:literal {
        $($tag:literal => $variant:ident
            $({ $($field:ident $(: $how:ident)?),+ })?
            $(( $($item:ident $(: $item_how:ident)?),+ ))?
        ),+
        $(, _($other:ident) => $instead:expr)? $(,)?
    }) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),+ })? $(( $($item),+ ))? => {
                        out.push($tag);
                        $($(wire_field!(put out, $field $(, $how)?);)+)?
                        $($(wire_field!(put out, $item $(, $item_how)?);)+)?
                    })+
                    $($other => Wire::encode(&$instead, out),)?
                }
            }

            fn decode(r: &mut Reader<'_>) -> Result<$ty, SeabedError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $field = wire_field!(get r $(, $how)?);)+)?
                        $($(let $item = wire_field!(get r $(, $item_how)?);)+)?
                        Ok($ty::$variant $({ $($field),+ })? $(( $($item),+ ))?)
                    })+
                    other => Err(invalid_tag($what, other)),
                }
            }
        }
    };
}
