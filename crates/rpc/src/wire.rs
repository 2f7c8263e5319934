//! Compact binary wire codec.
//!
//! Every RPC payload in the system is encoded to bytes before it crosses the
//! [`crate::Network`], for two reasons: (1) it enforces the paper's
//! share-nothing deployment model — a node cannot accidentally hand another
//! node a live reference — and (2) it gives every message a concrete size in
//! bytes, which the simulated latency model charges against link bandwidth.
//!
//! The format is deliberately simple and self-describing only by position
//! (like XDR, which Sun RPC/NFS used): fixed-width little-endian integers,
//! length-prefixed byte strings, `u8` tags for options and enums. All types
//! round-trip exactly; property tests in each crate verify this for their
//! message sets.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Error returned when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum/option tag byte had an unknown value.
    BadTag(u8),
    /// A length prefix exceeded the sanity limit or remaining buffer.
    BadLength(u64),
    /// A byte string that must be UTF-8 was not.
    BadUtf8,
    /// Trailing bytes remained after a complete top-level decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::BadLength(l) => write!(f, "implausible length {l}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encoder over a growable byte buffer.
pub struct Writer {
    buf: BytesMut,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// New empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer {
            buf: BytesMut::with_capacity(64),
        }
    }

    /// New writer with a capacity hint for large payloads (e.g. WRITE data).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Finishes encoding and returns the frozen buffer.
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Appends a single raw byte (enum/option tag).
    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.put_u128_le(v);
    }

    /// Appends a `bool` as one byte.
    pub fn boolean(&mut self, v: bool) {
        self.buf.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends an `Option` as a tag byte plus the value if present.
    pub fn option<T: WireWrite>(&mut self, v: &Option<T>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                x.write(self);
            }
        }
    }

    /// Appends a `u32`-count-prefixed sequence.
    pub fn seq<T: WireWrite>(&mut self, items: &[T]) {
        T::write_slice(items, self);
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Upper bound on any single length prefix; guards against corrupt frames
/// allocating unbounded memory. 64 MiB comfortably exceeds the largest NFS
/// WRITE payload the system produces.
const MAX_LEN: u64 = 64 << 20;

/// Decoder over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// New reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Number of unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails with [`WireError::TrailingBytes`] unless fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len()))
        }
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        self.need(16)?;
        Ok(self.buf.get_u128_le())
    }

    /// Reads a `bool` byte (strictly 0 or 1).
    pub fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = u64::from(self.u32()?);
        if len > MAX_LEN {
            return Err(WireError::BadLength(len));
        }
        let len = len as usize;
        self.need(len)?;
        let mut v = vec![0u8; len];
        self.buf.copy_to_slice(&mut v);
        Ok(v)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads an `Option` (tag byte plus value).
    pub fn option<T: WireRead>(&mut self) -> Result<Option<T>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::read(self)?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a `u32`-count-prefixed sequence.
    pub fn seq<T: WireRead>(&mut self) -> Result<Vec<T>, WireError> {
        T::read_vec(self)
    }

    /// The next byte, without consuming it.
    pub fn peek_u8(&self) -> Result<u8, WireError> {
        self.buf.first().copied().ok_or(WireError::Truncated)
    }
}

/// Types that can encode themselves onto a [`Writer`].
pub trait WireWrite {
    /// Appends this value's encoding to `w`.
    fn write(&self, w: &mut Writer);

    /// Appends `items` as a `u32` count followed by each item (the
    /// encoding of `Vec<Self>`). `u8` overrides this with one bulk copy,
    /// so a `Vec<u8>` is a plain byte string.
    fn write_slice(items: &[Self], w: &mut Writer)
    where
        Self: Sized,
    {
        w.u32(items.len() as u32);
        for it in items {
            it.write(w);
        }
    }

    /// One-shot encode into a fresh buffer.
    fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.write(&mut w);
        w.finish()
    }
}

/// Types that can decode themselves from a [`Reader`].
pub trait WireRead: Sized {
    /// Reads one value from `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Reads a `u32` count and then that many items, the inverse of
    /// [`WireWrite::write_slice`]. `u8` overrides this with one bulk copy.
    fn read_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        let n = u64::from(r.u32()?);
        if n > MAX_LEN {
            return Err(WireError::BadLength(n));
        }
        let mut v = Vec::with_capacity((n as usize).min(4096));
        for _ in 0..n {
            v.push(Self::read(r)?);
        }
        Ok(v)
    }

    /// One-shot decode requiring the buffer to be fully consumed.
    fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// The codec of a type this crate family does not own: the orphan rule
/// keeps foreign types such as `kosha_vfs::FileType` from implementing
/// [`WireWrite`]/[`WireRead`], so a listing names a codec for them
/// instead (`field: FileType as FileTypeTag`, see [`wire_enum!`]).
pub trait WireCodec<T> {
    /// Appends `v`'s encoding to `w`.
    fn write(v: &T, w: &mut Writer);
    /// Reads one value from `r`.
    fn read(r: &mut Reader<'_>) -> Result<T, WireError>;
}

macro_rules! impl_wire_int {
    ($t:ty, $wm:ident, $rm:ident) => {
        impl WireWrite for $t {
            fn write(&self, w: &mut Writer) {
                w.$wm(*self);
            }
        }
        impl WireRead for $t {
            fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$rm()
            }
        }
    };
}

impl_wire_int!(u16, u16, u16);
impl_wire_int!(u32, u32, u32);
impl_wire_int!(u64, u64, u64);
impl_wire_int!(u128, u128, u128);

impl WireWrite for u8 {
    fn write(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn write_slice(items: &[u8], w: &mut Writer) {
        w.bytes(items);
    }
}
impl WireRead for u8 {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
    fn read_vec(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        r.bytes()
    }
}

impl WireWrite for bool {
    fn write(&self, w: &mut Writer) {
        w.boolean(*self);
    }
}
impl WireRead for bool {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.boolean()
    }
}

impl WireWrite for String {
    fn write(&self, w: &mut Writer) {
        w.string(self);
    }
}
impl WireRead for String {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

impl<T: WireWrite> WireWrite for Vec<T> {
    fn write(&self, w: &mut Writer) {
        T::write_slice(self, w);
    }
}
impl<T: WireRead> WireRead for Vec<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::read_vec(r)
    }
}

impl<T: WireWrite> WireWrite for Option<T> {
    fn write(&self, w: &mut Writer) {
        w.option(self);
    }
}
impl<T: WireRead> WireRead for Option<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.option()
    }
}

/// A status frame: byte 0 and then the body on success, or the error's
/// own encoding on failure. The error's leading tag byte is never 0
/// (`NfsStatus` tags start at 1), so the first byte tells the two apart.
/// NFS and Kosha control replies share this frame.
impl<T: WireWrite, E: WireWrite> WireWrite for Result<T, E> {
    fn write(&self, w: &mut Writer) {
        match self {
            Ok(v) => {
                w.u8(0);
                v.write(w);
            }
            Err(e) => {
                let at = w.len();
                e.write(w);
                debug_assert_ne!(w.buf.get(at), Some(&0), "error tag collides with Ok");
            }
        }
    }
}
impl<T: WireRead, E: WireRead> WireRead for Result<T, E> {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.peek_u8()? == 0 {
            r.u8()?;
            Ok(Ok(T::read(r)?))
        } else {
            Ok(Err(E::read(r)?))
        }
    }
}

impl WireWrite for kosha_id::Id {
    fn write(&self, w: &mut Writer) {
        w.u128(self.0);
    }
}
impl WireRead for kosha_id::Id {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(kosha_id::Id(r.u128()?))
    }
}

impl<A: WireWrite, B: WireWrite> WireWrite for (A, B) {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
        self.1.write(w);
    }
}
impl<A: WireRead, B: WireRead> WireRead for (A, B) {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

/// Declares a wire struct and generates its codec from the one listing.
///
/// Fields are encoded in listing order, each by its own type's
/// [`WireWrite`]/[`WireRead`]; a field listed as `name: Type as Codec`
/// goes through the [`WireCodec`] `Codec` instead. Three forms:
///
/// ```
/// # use kosha_rpc::wire_struct;
/// # mod vfs { #[derive(Debug, PartialEq)] pub struct Span { pub lo: u64, pub hi: u64 } }
/// # use vfs::Span;
/// wire_struct! {
///     /// A named-field struct.
///     #[derive(Debug, PartialEq)]
///     pub struct Fh {
///         /// Inode number.
///         pub ino: u64,
///         /// Generation.
///         pub gen: u32,
///     }
/// }
/// wire_struct! {
///     /// A tuple newtype.
///     pub struct Addr(pub u64);
/// }
/// wire_struct! {
///     /// A local newtype over a struct from a crate without a codec,
///     /// listing the inner struct's fields in wire order.
///     #[derive(Debug, PartialEq)]
///     pub struct WireSpan(pub Span { lo: u64, hi: u64 });
/// }
/// # use kosha_rpc::{WireRead, WireWrite};
/// # let s = WireSpan(Span { lo: 1, hi: 2 });
/// # assert_eq!(WireSpan::decode(&s.encode()).unwrap(), s);
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident($fvis:vis $inner:ident {
            $( $field:ident : $fty:ty $(as $codec:ty)? ),* $(,)?
        });
    ) => {
        $(#[$meta])*
        $vis struct $name($fvis $inner);

        impl $crate::wire::WireWrite for $name {
            fn write(&self, w: &mut $crate::wire::Writer) {
                $( $crate::__wire_field!(put w, &self.0.$field, $fty $(as $codec)?); )*
            }
        }
        impl $crate::wire::WireRead for $name {
            fn read(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($name($inner {
                    $( $field: $crate::__wire_field!(take r, $fty $(as $codec)?), )*
                }))
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident($fvis:vis $fty:ty);
    ) => {
        $(#[$meta])*
        $vis struct $name($fvis $fty);

        impl $crate::wire::WireWrite for $name {
            fn write(&self, w: &mut $crate::wire::Writer) {
                $crate::wire::WireWrite::write(&self.0, w);
            }
        }
        impl $crate::wire::WireRead for $name {
            fn read(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($name(<$fty as $crate::wire::WireRead>::read(r)?))
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty $(as $codec:ty)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $crate::wire::WireWrite for $name {
            fn write(&self, w: &mut $crate::wire::Writer) {
                $( $crate::__wire_field!(put w, &self.$field, $fty $(as $codec)?); )*
            }
        }
        impl $crate::wire::WireRead for $name {
            fn read(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($name {
                    $( $field: $crate::__wire_field!(take r, $fty $(as $codec)?), )*
                })
            }
        }
    };
}

/// Declares a tagged wire enum and generates its codec from the one
/// listing: each variant is written as its explicit `u8` tag followed by
/// its fields in listing order; decoding an unlisted tag fails with
/// [`WireError::BadTag`]. Tags are explicit rather than positional, so
/// reordering the listing never changes the wire format, and a repeated
/// tag fails to compile.
///
/// Variants may be unit, struct-like, or single-field tuples. An
/// optional label after the tag (`Lookup = 4 "lookup" { .. }`), given
/// for every variant or for none, also generates `NAMES` (labels in
/// listing order), `index()` (position in the listing) and `name()`.
/// An enum of unit variants also gets `ALL`, every variant in listing
/// order.
///
/// ```
/// # use kosha_rpc::{wire_enum, WireError, WireRead, WireWrite};
/// wire_enum! {
///     /// A request.
///     #[derive(Debug, PartialEq)]
///     pub enum Req {
///         /// Liveness probe.
///         Ping = 0 "ping",
///         /// Read a range.
///         Read = 2 "read" {
///             /// Offset.
///             offset: u64,
///             /// Length.
///             len: u32,
///         },
///         /// Raw bytes.
///         Raw = 1 "raw" (Vec<u8>),
///     }
/// }
/// assert_eq!(Req::Raw(vec![7]).encode()[..], [1, 1, 0, 0, 0, 7]);
/// assert_eq!(Req::NAMES, ["ping", "read", "raw"]);
/// assert_eq!(Req::decode(&[9]), Err(WireError::BadTag(9)));
/// ```
///
/// A second form generates a [`WireCodec`] for a fieldless enum from a
/// crate without a codec: `pub FileTypeTag for FileType { Regular = 0, .. }`.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $v:ident = $tag:literal $($label:literal)?
                    $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
                    $( ( $inner:ty ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $v $( { $( $(#[$fmeta])* $field: $fty, )* } )? $( ($inner) )?,
            )*
        }

        const _: () = $crate::wire::assert_unique_tags(&[$($tag),*]);

        impl $crate::wire::WireWrite for $name {
            fn write(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $(
                        $crate::__wire_variant!(pat v; $v $({ $($field),* })? $(($inner))?) => {
                            w.u8($tag);
                            $crate::__wire_variant!(put w, v; $({ $($field),* })? $(($inner))?);
                        }
                    )*
                }
            }
        }
        impl $crate::wire::WireRead for $name {
            fn read(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok(match r.u8()? {
                    $( $tag => $crate::__wire_variant!(take r; $v $({ $($field: $fty),* })? $(($inner))?), )*
                    t => return ::core::result::Result::Err($crate::wire::WireError::BadTag(t)),
                })
            }
        }

        $crate::__wire_names!($name; $( $v [$($label)?] )*);
        $crate::__wire_all!($name; $( $v $({ $($field)* })? $(($inner))? ; )*);
    };
    (
        $(#[$meta:meta])*
        $vis:vis $codec:ident for $target:ident { $( $v:ident = $tag:literal ),* $(,)? }
    ) => {
        $(#[$meta])*
        $vis struct $codec;

        const _: () = $crate::wire::assert_unique_tags(&[$($tag),*]);

        impl $crate::wire::WireCodec<$target> for $codec {
            fn write(v: &$target, w: &mut $crate::wire::Writer) {
                w.u8(match v {
                    $( $target::$v => $tag, )*
                });
            }
            fn read(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<$target, $crate::wire::WireError> {
                match r.u8()? {
                    $( $tag => ::core::result::Result::Ok($target::$v), )*
                    t => ::core::result::Result::Err($crate::wire::WireError::BadTag(t)),
                }
            }
        }
    };
}

/// One field's codec inside [`wire_struct!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_field {
    (put $w:ident, $v:expr, $fty:ty) => {
        $crate::wire::WireWrite::write($v, $w)
    };
    (put $w:ident, $v:expr, $fty:ty as $codec:ty) => {
        <$codec as $crate::wire::WireCodec<$fty>>::write($v, $w)
    };
    (take $r:ident, $fty:ty) => {
        <$fty as $crate::wire::WireRead>::read($r)?
    };
    (take $r:ident, $fty:ty as $codec:ty) => {
        <$codec as $crate::wire::WireCodec<$fty>>::read($r)?
    };
}

/// One variant's pattern, encoder and decoder inside [`wire_enum!`]. A
/// tuple variant binds its field to the caller-supplied identifier, so
/// the pattern and the encoder expand with the same hygiene.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_variant {
    (pat $b:ident; $v:ident) => { Self::$v };
    (pat $b:ident; $v:ident { $($field:ident),* }) => { Self::$v { $($field),* } };
    (pat $b:ident; $v:ident ($inner:ty)) => { Self::$v($b) };
    (put $w:ident, $b:ident;) => {};
    (put $w:ident, $b:ident; { $($field:ident),* }) => {
        $( $crate::wire::WireWrite::write($field, $w); )*
    };
    (put $w:ident, $b:ident; ($inner:ty)) => {
        $crate::wire::WireWrite::write($b, $w)
    };
    (take $r:ident; $v:ident) => { Self::$v };
    (take $r:ident; $v:ident { $($field:ident : $fty:ty),* }) => {
        Self::$v { $( $field: <$fty as $crate::wire::WireRead>::read($r)?, )* }
    };
    (take $r:ident; $v:ident ($inner:ty)) => {
        Self::$v(<$inner as $crate::wire::WireRead>::read($r)?)
    };
}

/// The label tables of a [`wire_enum!`] whose variants all carry one.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_names {
    ($name:ident; $( $v:ident [] )*) => {};
    ($name:ident; $( $v:ident [$label:literal] )*) => {
        impl $name {
            /// Variant labels in listing order, indexed by `index()`.
            pub const NAMES: [&'static str; [$($label),*].len()] = [$($label),*];

            /// This variant's position in the listing.
            #[must_use]
            pub fn index(&self) -> usize {
                enum Position {
                    $($v),*
                }
                match self {
                    $( Self::$v { .. } => Position::$v as usize, )*
                }
            }

            /// This variant's label.
            #[must_use]
            pub fn name(&self) -> &'static str {
                Self::NAMES[self.index()]
            }
        }
    };
}

/// `ALL` for a [`wire_enum!`] of unit variants; nothing otherwise.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_all {
    ($name:ident; $( $v:ident ; )*) => {
        impl $name {
            /// Every variant, in listing order.
            pub const ALL: [Self; [$(stringify!($v)),*].len()] = [$(Self::$v),*];
        }
    };
    ($name:ident; $($other:tt)*) => {};
}

/// Compile-time guard behind [`wire_enum!`]: panics (failing the build,
/// since it runs in a `const`) when a listing repeats a tag.
#[doc(hidden)]
pub const fn assert_unique_tags(tags: &[u8]) {
    let mut i = 0;
    while i < tags.len() {
        let mut j = i + 1;
        while j < tags.len() {
            assert!(tags[i] != tags[j], "wire listing repeats a tag");
            j += 1;
        }
        i += 1;
    }
}

/// Lower-case hex of `bytes`, no separators.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Test helper: asserts that `v` encodes to exactly the bytes spelled by
/// `hex` (see [`to_hex`]) and that those bytes decode back to `v`. Golden
/// encodings pin the wire format itself, so a renumbered tag or a
/// reordered field fails even though it would still round-trip.
#[track_caller]
pub fn assert_golden<T: WireWrite + WireRead + PartialEq + fmt::Debug>(v: &T, hex: &str) {
    let enc = v.encode();
    assert_eq!(to_hex(&enc), hex, "encoding of {v:?}");
    assert_eq!(&T::decode(&enc).expect("golden bytes decode"), v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(1 << 20);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 1);
        w.boolean(true);
        w.string("héllo");
        w.bytes(&[1, 2, 3]);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 1 << 20);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 1);
        assert!(r.boolean().unwrap());
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_fails() {
        let mut w = Writer::new();
        w.u64(42);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_bool_tag() {
        let buf = [3u8];
        let mut r = Reader::new(&buf);
        assert_eq!(r.boolean(), Err(WireError::BadTag(3)));
    }

    #[test]
    fn option_and_seq() {
        let mut w = Writer::new();
        w.option(&Some(9u32));
        w.option::<u32>(&None);
        w.seq(&[1u64, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.option::<u32>().unwrap(), Some(9));
        assert_eq!(r.option::<u32>().unwrap(), None);
        assert_eq!(r.seq::<u64>().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let buf = w.finish();
        assert!(matches!(u8::decode(&buf), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // length prefix far beyond MAX_LEN
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(WireError::BadLength(_))));
    }

    #[test]
    fn id_round_trips() {
        let id = kosha_id::Id(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let buf = id.encode();
        assert_eq!(kosha_id::Id::decode(&buf).unwrap(), id);
    }

    crate::wire_enum! {
        /// A listing exercising every variant shape.
        #[derive(Debug, PartialEq)]
        enum Probe {
            /// Unit variant.
            Unit = 3,
            /// Struct variant.
            Fields = 1 {
                /// First field.
                a: u32,
                /// Second field.
                b: Option<String>,
            },
            /// Tuple variant.
            Wrapped = 2 (Vec<u64>),
        }
    }

    #[test]
    fn listed_enum_codec_rejects_bad_input() {
        let v = Probe::Fields {
            a: 7,
            b: Some("x".into()),
        };
        assert_golden(&v, "0107000000010100000078");
        assert_golden(&Probe::Unit, "03");
        assert_golden(&Probe::Wrapped(vec![5]), "02010000000500000000000000");
        // Unlisted tags, including the gap at 0, are rejected by tag.
        assert_eq!(Probe::decode(&[0]), Err(WireError::BadTag(0)));
        assert_eq!(Probe::decode(&[4, 1, 2]), Err(WireError::BadTag(4)));
        // A body cut short fails as truncated, wherever the cut falls.
        let enc = v.encode();
        for cut in 1..enc.len() {
            assert_eq!(Probe::decode(&enc[..cut]), Err(WireError::Truncated));
        }
        assert_eq!(Probe::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.string(), Err(WireError::BadUtf8));
    }
}
