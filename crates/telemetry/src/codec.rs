//! The machinery behind the event table in `lib.rs`: `schema!` turns
//! it into the event structs, [`crate::Event`], [`crate::EVENT_KINDS`]
//! and the JSON trace codec. One [`Codec`] impl per field spelling
//! hides how the field is written in a trace line.

use crate::json::{JsonValue, ObjectWriter};
use crate::{attr_id, attr_name, FallbackMode, ParseError, Scope};
use hetmem_topology::NodeId;

/// How a field of type `T` is spelled: as the field `key` of a JSON
/// object.
pub(crate) trait Codec<T> {
    /// Writes `v` as the field `key`.
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &T);
    /// Reads the field `key` of the object `v`.
    fn read(v: &JsonValue<'_>, key: &str) -> Result<T, ParseError>;
}

/// A struct of the table, written and read field by field in
/// declaration order.
pub(crate) trait Fields: Sized {
    /// Writes every field into the object `o`.
    fn write_fields(&self, o: &mut ObjectWriter<'_>);
    /// Reads every field from the object `v`.
    fn read_fields(v: &JsonValue<'_>) -> Result<Self, ParseError>;
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
}

impl Codec<u32> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &u32) {
        o.uint(key, *v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<u32, ParseError> {
        v.field(key)?.as_uint()
    }
}

impl Codec<NodeId> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &NodeId) {
        o.uint(key, v.0);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<NodeId, ParseError> {
        v.field(key)?.as_uint().map(NodeId)
    }
}

impl Codec<f64> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &f64) {
        o.f64(key, *v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<f64, ParseError> {
        v.field(key)?.as_f64()
    }
}

impl Codec<String> for Natural {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &String) {
        o.str(key, v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<String, ParseError> {
        Ok(v.field(key)?.as_str()?.to_owned())
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
}

/// A list of records: an array of objects in JSON.
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
}

/// `local`/`any` in JSON.
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
}

/// Its name in JSON.
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
}

impl Codec<u32> for Broker {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &u32) {
        o.uint(key, *v);
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<u32, ParseError> {
        v.get(key).map_or(Ok(0), JsonValue::as_uint)
    }
}

impl Codec<u32> for Attr {
    fn write(o: &mut ObjectWriter<'_>, key: &str, v: &u32) {
        o.str(key, &attr_name(*v));
    }
    fn read(v: &JsonValue<'_>, key: &str) -> Result<u32, ParseError> {
        attr_id(v.field(key)?.as_str()?)
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
}

/// Expands the event table: the `Event` enum, one row per kind giving
/// its `event` name and its variant, then every struct the rows and the
/// list fields name.
macro_rules! schema {
    // The spelling a field names after `as`, else `Natural`.
    (@spelling) => { $crate::codec::Natural };
    (@spelling $codec:ident) => { $crate::codec::$codec };
    (
        $(#[$event_meta:meta])*
        pub enum Event {
            $( $(#[$row_meta:meta])* $kind:literal $variant:ident($payload:ident), )*
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
            }
        )*
    };
}
