//! The machinery behind the event table in `lib.rs`: `schema!` turns
//! it into the event structs, [`crate::Event`], [`crate::EVENT_KINDS`]
//! and both trace codecs. One [`Codec`] impl per field spelling hides
//! the two formats, a JSON trace field and a compact record value.

use crate::compact::{put_bool, put_f64, put_placement, put_str, put_u64, CodecError, Cursor};
use crate::json::{JsonValue, ObjectWriter};
use crate::{attr_id, attr_name, FallbackMode, ParseError, Scope};
use hetmem_topology::NodeId;

/// How a field of type `T` is spelled: as the field `key` of a JSON
/// object, and as the next value of a compact record.
pub(crate) trait Codec<T> {
    /// Writes `v` as the field `key`.
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &T);
    /// Reads the field `key` of the object `v`.
    fn read(v: &JsonValue<'_>, key: &str) -> Result<T, ParseError>;
    /// Appends `v` to a compact record.
    fn put(out: &mut Vec<u8>, v: &T);
    /// Reads the next value of a compact record.
    fn get(c: &mut Cursor<'_>) -> Result<T, CodecError>;
}

/// A struct of the table, written and read field by field in
/// declaration order.
pub(crate) trait Fields: Sized {
    /// Writes every field into the object `o`.
    fn write_fields(&self, o: &mut ObjectWriter<'_>);
    /// Reads every field from the object `v`.
    fn read_fields(v: &JsonValue<'_>) -> Result<Self, ParseError>;
    /// Appends every field to a compact record.
    fn put_fields(&self, out: &mut Vec<u8>);
    /// Reads every field from a compact record.
    fn get_fields(c: &mut Cursor<'_>) -> Result<Self, CodecError>;
}

/// The spelling of the field's type itself.
pub(crate) struct Natural;
/// A broker id that reads as 0 when absent: traces written before the
/// federation layer gave brokers ids carry none.
pub(crate) struct Broker;
/// An attribute id, spelled by name in JSON ([`attr_name`]).
pub(crate) struct Attr;
/// A flag spelled `yes`/`no` in JSON.
pub(crate) struct YesNo;
/// A promotion flag, spelled in JSON as the field `action` (`promote`
/// or `demote`) whatever the struct calls it.
pub(crate) struct Action;
/// An optional integer, rendered `null` in JSON when absent.
pub(crate) struct Nullable;
/// An optional string whose JSON field is left out when absent.
pub(crate) struct Omitted;

impl Codec<u64> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &u64) {
        o.uint(key, *v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<u64, ParseError> {
        v.field(key)?.as_uint()
    }
    fn put(out: &mut Vec<u8>, v: &u64) {
        put_u64(out, *v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<u64, CodecError> {
        c.u64()
    }
}

impl Codec<u32> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &u32) {
        o.uint(key, *v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<u32, ParseError> {
        v.field(key)?.as_uint()
    }
    fn put(out: &mut Vec<u8>, v: &u32) {
        put_u64(out, u64::from(*v));
    }
    fn get(c: &mut Cursor<'_>) -> Result<u32, CodecError> {
        c.u32()
    }
}

impl Codec<NodeId> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &NodeId) {
        o.uint(key, v.0);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<NodeId, ParseError> {
        v.field(key)?.as_uint().map(NodeId)
    }
    fn put(out: &mut Vec<u8>, v: &NodeId) {
        put_u64(out, u64::from(v.0));
    }
    fn get(c: &mut Cursor<'_>) -> Result<NodeId, CodecError> {
        c.node()
    }
}

impl Codec<f64> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &f64) {
        o.f64(key, *v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<f64, ParseError> {
        v.field(key)?.as_f64()
    }
    fn put(out: &mut Vec<u8>, v: &f64) {
        put_f64(out, *v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<f64, CodecError> {
        c.f64()
    }
}

impl Codec<String> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &String) {
        o.str(key, v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<String, ParseError> {
        Ok(v.field(key)?.as_str()?.to_owned())
    }
    fn put(out: &mut Vec<u8>, v: &String) {
        put_str(out, v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<String, CodecError> {
        c.str()
    }
}

/// A `(node, bytes)` split: `[node, bytes]` pairs in JSON.
impl Codec<Vec<(NodeId, u64)>> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &Vec<(NodeId, u64)>) {
        o.array(key, |a| {
            for &(n, b) in v {
                a.array(|p| {
                    p.uint(n.0).uint(b);
                });
            }
        });
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<Vec<(NodeId, u64)>, ParseError> {
        v.field(key)?
            .as_array()?
            .iter()
            .map(|pair| match pair.as_array()? {
                [n, b] => Ok((NodeId(n.as_uint()?), b.as_uint()?)),
                _ => Err(ParseError::new("placement pair must have two entries")),
            })
            .collect()
    }
    fn put(out: &mut Vec<u8>, v: &Vec<(NodeId, u64)>) {
        put_placement(out, v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<(NodeId, u64)>, CodecError> {
        c.placement()
    }
}

/// A list of records: an array of objects in JSON, a length-prefixed
/// run of records in compact form.
impl<R: Fields> Codec<Vec<R>> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &Vec<R>) {
        o.array(key, |a| {
            for r in v {
                a.object(|o| r.write_fields(o));
            }
        });
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<Vec<R>, ParseError> {
        v.field(key)?.as_array()?.iter().map(R::read_fields).collect()
    }
    fn put(out: &mut Vec<u8>, v: &Vec<R>) {
        put_u64(out, v.len() as u64);
        for r in v {
            r.put_fields(out);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<R>, CodecError> {
        let n = c.u64()? as usize;
        (0..n).map(|_| R::get_fields(c)).collect()
    }
}

/// `local`/`any` in JSON, a bool byte (any) in compact form.
impl Codec<Scope> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &Scope) {
        o.str(key, v.as_str());
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<Scope, ParseError> {
        match v.field(key)?.as_str()? {
            "local" => Ok(Scope::Local),
            "any" => Ok(Scope::Any),
            other => Err(ParseError::new(format!("bad {key} {other:?}"))),
        }
    }
    fn put(out: &mut Vec<u8>, v: &Scope) {
        put_bool(out, *v == Scope::Any);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Scope, CodecError> {
        Ok(if c.bool()? { Scope::Any } else { Scope::Local })
    }
}

/// Its name in JSON; in compact form one byte that is read back as a
/// varint.
impl Codec<FallbackMode> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &FallbackMode) {
        o.str(key, v.as_str());
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<FallbackMode, ParseError> {
        match v.field(key)?.as_str()? {
            "strict" => Ok(FallbackMode::Strict),
            "next_target" => Ok(FallbackMode::NextTarget),
            "partial_spill" => Ok(FallbackMode::PartialSpill),
            other => Err(ParseError::new(format!("bad {key} {other:?}"))),
        }
    }
    fn put(out: &mut Vec<u8>, v: &FallbackMode) {
        out.push(match v {
            FallbackMode::Strict => 0,
            FallbackMode::NextTarget => 1,
            FallbackMode::PartialSpill => 2,
        });
    }
    fn get(c: &mut Cursor<'_>) -> Result<FallbackMode, CodecError> {
        match c.u64()? {
            0 => Ok(FallbackMode::Strict),
            1 => Ok(FallbackMode::NextTarget),
            2 => Ok(FallbackMode::PartialSpill),
            other => Err(CodecError::new(format!("bad fallback byte {other}"))),
        }
    }
}

impl Codec<u32> for Broker {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &u32) {
        o.uint(key, *v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<u32, ParseError> {
        v.get(key).map_or(Ok(0), JsonValue::as_uint)
    }
    fn put(out: &mut Vec<u8>, v: &u32) {
        <Natural as Codec<u32>>::put(out, v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<u32, CodecError> {
        c.u32()
    }
}

impl Codec<u32> for Attr {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &u32) {
        o.str(key, &attr_name(*v));
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<u32, ParseError> {
        attr_id(v.field(key)?.as_str()?)
    }
    fn put(out: &mut Vec<u8>, v: &u32) {
        <Natural as Codec<u32>>::put(out, v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<u32, CodecError> {
        c.u32()
    }
}

impl Codec<bool> for YesNo {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &bool) {
        o.str(key, if *v { "yes" } else { "no" });
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<bool, ParseError> {
        match v.field(key)?.as_str()? {
            "yes" => Ok(true),
            "no" => Ok(false),
            other => Err(ParseError::new(format!("bad {key} {other:?}"))),
        }
    }
    fn put(out: &mut Vec<u8>, v: &bool) {
        put_bool(out, *v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<bool, CodecError> {
        c.bool()
    }
}

impl Codec<bool> for Action {
    fn write(o: &mut ObjectWriter<'_>, _: &str, v: &bool) {
        o.str("action", if *v { "promote" } else { "demote" });
    }
    fn read(v: &JsonValue<'_>, _: &str) -> Result<bool, ParseError> {
        match v.field("action")?.as_str()? {
            "promote" => Ok(true),
            "demote" => Ok(false),
            other => Err(ParseError::new(format!("bad action {other:?}"))),
        }
    }
    fn put(out: &mut Vec<u8>, v: &bool) {
        put_bool(out, *v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<bool, CodecError> {
        c.bool()
    }
}

impl Codec<Option<u64>> for Nullable {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &Option<u64>) {
        o.opt_uint(key, *v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<Option<u64>, ParseError> {
        match v.field(key)? {
            JsonValue::Null => Ok(None),
            other => other.as_uint().map(Some),
        }
    }
    fn put(out: &mut Vec<u8>, v: &Option<u64>) {
        put_bool(out, v.is_some());
        if let Some(v) = *v {
            put_u64(out, v);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Option<u64>, CodecError> {
        Ok(if c.bool()? { Some(c.u64()?) } else { None })
    }
}

impl Codec<Option<String>> for Omitted {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &Option<String>) {
        if let Some(v) = v {
            o.str(key, v);
        }
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<Option<String>, ParseError> {
        v.get(key).map(|s| s.as_str().map(str::to_owned)).transpose()
    }
    fn put(out: &mut Vec<u8>, v: &Option<String>) {
        put_bool(out, v.is_some());
        if let Some(v) = v {
            put_str(out, v);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Option<String>, CodecError> {
        Ok(if c.bool()? { Some(c.str()?) } else { None })
    }
}

/// Expands the event table: the `Event` enum, one row per kind giving
/// its frozen compact kind byte, its `event` name and its variant, then
/// every struct the rows and the list fields name.
macro_rules! schema {
    // The spelling a field names after `as`, else `Natural`.
    (@spelling) => { $crate::codec::Natural };
    (@spelling $codec:ident) => { $crate::codec::$codec };
    (
        $(#[$event_meta:meta])*
        pub enum Event {
            $( $(#[$row_meta:meta])* $byte:literal $kind:literal $variant:ident($payload:ident), )*
        }
        $(
            $(#[$meta:meta])*
            pub struct $name:ident {
                $( $(#[$field_meta:meta])* pub $field:ident: $ty:ty $(as $codec:ident)?, )*
            }
        )*
    ) => {
        $(#[$event_meta])*
        pub enum Event {
            $( $(#[$row_meta])* $variant($payload), )*
        }

        // The kind byte is pushed raw and read back as a varint.
        $( const _: () = assert!($byte < 0x80, "a kind byte must be a one-byte varint"); )*

        /// The `event` field value of every [`Event`] variant, in declaration
        /// order. `docs/PROTOCOL.md` coverage tests enumerate this list so the
        /// spec cannot silently fall behind the enum.
        pub const EVENT_KINDS: &[&str] = &[$($kind),*];

        impl Event {
            /// The `event` field value this variant encodes to — one of
            /// [`EVENT_KINDS`].
            ///
            /// ```
            /// use hetmem_telemetry::{Event, LeaseExpired, EVENT_KINDS};
            /// let e = Event::LeaseExpired(LeaseExpired {
            ///     broker: 0,
            ///     tenant: "graph500".into(),
            ///     lease: 7,
            ///     ttl_epochs: 5,
            /// });
            /// assert_eq!(e.kind(), "lease_expired");
            /// assert!(EVENT_KINDS.contains(&e.kind()));
            /// ```
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant(_) => $kind, )*
                }
            }

            /// Encodes the event as a single-line JSON object.
            pub fn to_json(&self) -> String {
                let mut line = String::with_capacity(256);
                $crate::json::write_object(&mut line, |o| {
                    o.str("event", self.kind());
                    match self {
                        $( Event::$variant(e) => $crate::codec::Fields::write_fields(e, o), )*
                    }
                });
                line
            }

            /// Parses one JSON line produced by [`Event::to_json`].
            pub fn from_json(line: &str) -> Result<Event, $crate::ParseError> {
                let v = $crate::json::parse(line)?;
                Ok(match v.field("event")?.as_str()? {
                    $( $kind => Event::$variant($crate::codec::Fields::read_fields(&v)?), )*
                    other => return Err($crate::ParseError::new(format!(
                        "unknown event kind {other:?}"
                    ))),
                })
            }

            /// Appends the compact record of `(epoch, self)`: the kind
            /// byte, the epoch, then the fields.
            pub(crate) fn put_record(&self, epoch: u64, out: &mut Vec<u8>) {
                match self {
                    $( Event::$variant(e) => {
                        out.push($byte);
                        $crate::compact::put_u64(out, epoch);
                        $crate::codec::Fields::put_fields(e, out);
                    } )*
                }
            }

            /// Reads the fields of a compact record whose kind byte is
            /// `kind`.
            pub(crate) fn get_record(
                kind: u64,
                c: &mut $crate::compact::Cursor<'_>,
            ) -> Result<Event, $crate::compact::CodecError> {
                Ok(match kind {
                    $( $byte => Event::$variant($crate::codec::Fields::get_fields(c)?), )*
                    _ => return Err($crate::compact::CodecError::new(format!(
                        "unknown kind byte {kind}"
                    ))),
                })
            }
        }

        $(
            $(#[$meta])*
            pub struct $name {
                $( $(#[$field_meta])* pub $field: $ty, )*
            }

            impl $crate::codec::Fields for $name {
                fn write_fields(&self, o: &mut $crate::json::ObjectWriter<'_>) {
                    use $crate::codec::Codec;
                    $( <schema!(@spelling $($codec)?) as Codec<$ty>>::write(
                        o, stringify!($field), &self.$field); )*
                }

                fn read_fields(
                    v: &$crate::json::JsonValue<'_>,
                ) -> Result<Self, $crate::ParseError> {
                    use $crate::codec::Codec;
                    Ok($name { $( $field: <schema!(@spelling $($codec)?) as Codec<$ty>>::read(
                        v, stringify!($field))?, )* })
                }

                fn put_fields(&self, out: &mut Vec<u8>) {
                    use $crate::codec::Codec;
                    $( <schema!(@spelling $($codec)?) as Codec<$ty>>::put(out, &self.$field); )*
                }

                fn get_fields(
                    c: &mut $crate::compact::Cursor<'_>,
                ) -> Result<Self, $crate::compact::CodecError> {
                    use $crate::codec::Codec;
                    Ok($name { $( $field: <schema!(@spelling $($codec)?) as Codec<$ty>>::get(
                        c)?, )* })
                }
            }
        )*
    };
}
