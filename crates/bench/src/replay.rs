//! Disk formats for the observability layer (feature `trace`):
//! snapshot files and trace-log dumps.
//!
//! The bench JSON parser ([`crate::json`]) parses every number as
//! `f64`, which cannot carry a full `u64` word (RNG state) or an exact
//! `f64` bit pattern (powers, SINRs) — and snapshot replay is a
//! *bit-for-bit* contract. Serialized engine state therefore goes to
//! disk in **tagged** form: every shim [`Value`] becomes a JSON array
//! whose first element names the variant, with 64-bit payloads spelled
//! as decimal strings (`["u64","18446744073709551615"]`) and floats as
//! 16-digit hex bit patterns (`["f64","3ff0000000000000"]`) — lossless
//! through any RFC 8259 parser, including this crate's own.

use serde::{Deserialize, Serialize, Value};
use sinr_sim::snapshot::EngineSnapshot;
use sinr_sim::trace::TraceLog;

use crate::json;
use crate::table::json_string;
use crate::workloads::Family;

/// Encodes a shim [`Value`] as tagged JSON (see the module docs).
pub fn value_to_json(value: &Value) -> String {
    match value {
        Value::Unit => "[\"unit\"]".into(),
        Value::Bool(b) => format!("[\"bool\",{b}]"),
        Value::U64(x) => format!("[\"u64\",\"{x}\"]"),
        Value::I64(x) => format!("[\"i64\",\"{x}\"]"),
        Value::F64(x) => format!("[\"f64\",\"{:016x}\"]", x.to_bits()),
        Value::Str(s) => format!("[\"str\",{}]", json_string(s)),
        Value::None => "[\"none\"]".into(),
        Value::Some(inner) => format!("[\"some\",{}]", value_to_json(inner)),
        Value::Seq(items) => {
            let body: Vec<String> = items.iter().map(value_to_json).collect();
            format!("[\"seq\",[{}]]", body.join(","))
        }
        Value::Map(entries) => {
            let body: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("[{},{}]", json_string(k), value_to_json(v)))
                .collect();
            format!("[\"map\",[{}]]", body.join(","))
        }
    }
}

/// Decodes a tagged JSON tree back into a shim [`Value`] — the exact
/// inverse of [`value_to_json`], bit patterns included.
///
/// # Errors
///
/// Returns a description of the first malformed tag or payload.
pub fn value_from_json(node: &json::Value) -> Result<Value, String> {
    let items = node
        .as_array()
        .ok_or_else(|| format!("tagged value must be an array, got {node:?}"))?;
    let tag = items
        .first()
        .and_then(json::Value::as_str)
        .ok_or("tagged value must start with a string tag")?;
    let arity = |want: usize| -> Result<(), String> {
        if items.len() == want {
            Ok(())
        } else {
            Err(format!(
                "tag `{tag}` wants {} element(s), got {}",
                want - 1,
                items.len() - 1
            ))
        }
    };
    let payload_str = || -> Result<&str, String> {
        items
            .get(1)
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("tag `{tag}` wants a string payload"))
    };
    match tag {
        "unit" => {
            arity(1)?;
            Ok(Value::Unit)
        }
        "none" => {
            arity(1)?;
            Ok(Value::None)
        }
        "bool" => {
            arity(2)?;
            match items[1] {
                json::Value::Bool(b) => Ok(Value::Bool(b)),
                ref other => Err(format!("tag `bool` wants a boolean, got {other:?}")),
            }
        }
        "u64" => {
            arity(2)?;
            payload_str()?
                .parse()
                .map(Value::U64)
                .map_err(|e| format!("bad u64 payload: {e}"))
        }
        "i64" => {
            arity(2)?;
            payload_str()?
                .parse()
                .map(Value::I64)
                .map_err(|e| format!("bad i64 payload: {e}"))
        }
        "f64" => {
            arity(2)?;
            let hex = payload_str()?;
            if hex.len() != 16 {
                return Err(format!(
                    "f64 bit pattern must be 16 hex digits, got `{hex}`"
                ));
            }
            u64::from_str_radix(hex, 16)
                .map(|bits| Value::F64(f64::from_bits(bits)))
                .map_err(|e| format!("bad f64 bit pattern `{hex}`: {e}"))
        }
        "str" => {
            arity(2)?;
            Ok(Value::Str(payload_str()?.to_string()))
        }
        "some" => {
            arity(2)?;
            Ok(Value::Some(Box::new(value_from_json(&items[1])?)))
        }
        "seq" => {
            arity(2)?;
            let inner = items[1]
                .as_array()
                .ok_or("tag `seq` wants an array payload")?;
            Ok(Value::Seq(
                inner
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<_, _>>()?,
            ))
        }
        "map" => {
            arity(2)?;
            let inner = items[1]
                .as_array()
                .ok_or("tag `map` wants an array payload")?;
            let mut entries = Vec::with_capacity(inner.len());
            for entry in inner {
                let pair = entry
                    .as_array()
                    .ok_or("map entry must be a [key, value] pair")?;
                if pair.len() != 2 {
                    return Err(format!(
                        "map entry must have 2 elements, got {}",
                        pair.len()
                    ));
                }
                let key = pair[0].as_str().ok_or("map key must be a string")?;
                entries.push((key.to_string(), value_from_json(&pair[1])?));
            }
            Ok(Value::Map(entries))
        }
        other => Err(format!("unknown value tag `{other}`")),
    }
}

/// A snapshot file: one mid-run engine state plus everything needed to
/// resume it — the instance recipe (family/n/seed), the SINR
/// parameters, the original backend (informational: any backend resumes
/// identically), and the original run's tail fingerprint to verify the
/// replay against.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotFile {
    /// Instance family.
    pub family: Family,
    /// Requested node count (at least 1).
    pub n: usize,
    /// Instance + algorithm seed of the original run.
    pub seed: u64,
    /// Backend label of the snapshotting run (informational).
    pub engine: String,
    /// The slot the engine state was captured at.
    pub snapshot_slot: u64,
    /// Canonical fingerprint of the original run's *final* engine
    /// state; a replay must reproduce it bit-for-bit.
    pub tail_fnv: u64,
    /// The [`sinr_phy::SinrParams`] of the run, serialized.
    pub params: Value,
    /// The captured engine state.
    pub state: EngineSnapshot,
}

const SNAPSHOT_FORMAT: &str = "sinr-connect-snapshot-v1";

impl SnapshotFile {
    /// Renders the file as one JSON document.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"format\":{},\"family\":{},\"n\":{},\"seed\":\"{}\",",
                "\"engine\":{},\"snapshot_slot\":\"{}\",\"tail_fnv\":\"{:016x}\",",
                "\"params\":{},\"state\":{}}}\n"
            ),
            json_string(SNAPSHOT_FORMAT),
            json_string(self.family.label()),
            self.n,
            self.seed,
            json_string(&self.engine),
            self.snapshot_slot,
            self.tail_fnv,
            value_to_json(&self.params),
            value_to_json(&self.state.to_value()),
        )
    }

    /// Parses a snapshot file produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field, including a
    /// format-marker mismatch for files that are not snapshots at all,
    /// an unknown family, `n = 0` and an `n` far above the state's node
    /// count.
    pub fn parse(input: &str) -> Result<SnapshotFile, String> {
        let doc = json::parse(input)?;
        let str_field = |name: &str| -> Result<&str, String> {
            doc.get(name)
                .and_then(json::Value::as_str)
                .ok_or_else(|| format!("missing string field `{name}`"))
        };
        let format = str_field("format")?;
        if format != SNAPSHOT_FORMAT {
            return Err(format!(
                "not a snapshot file: format `{format}` (expected `{SNAPSHOT_FORMAT}`)"
            ));
        }
        let family = str_field("family")?;
        let family =
            Family::from_label(family).ok_or_else(|| format!("unknown family `{family}`"))?;
        let n = match doc.get("n") {
            Some(&json::Value::Number(x)) if x >= 1.0 && x.fract() == 0.0 => x as usize,
            other => return Err(format!("bad field `n` (want an integer ≥ 1): {other:?}")),
        };
        let u64_field = |name: &str, radix: u32| -> Result<u64, String> {
            u64::from_str_radix(str_field(name)?, radix)
                .map_err(|e| format!("bad field `{name}`: {e}"))
        };
        let state_value = value_from_json(doc.get("state").ok_or("missing field `state`")?)?;
        let state = EngineSnapshot::from_value(&state_value)
            .map_err(|e| format!("bad engine state: {e}"))?;
        // Every family builds about `n` nodes (percolation a random count
        // near it) and the state holds one entry per node, so a far larger
        // `n` is corrupt: reject it before it sizes an instance.
        if n > 2 * state.nodes.len() + 64 {
            return Err(format!(
                "field `n` = {n} does not fit the {} nodes of the engine state",
                state.nodes.len()
            ));
        }
        Ok(SnapshotFile {
            family,
            n,
            seed: u64_field("seed", 10)?,
            engine: str_field("engine")?.to_string(),
            snapshot_slot: u64_field("snapshot_slot", 10)?,
            tail_fnv: u64_field("tail_fnv", 16)?,
            params: value_from_json(doc.get("params").ok_or("missing field `params`")?)?,
            state,
        })
    }
}

/// Renders a recorded trace as one JSON document: the drop count plus
/// every event as an object of its [`fields`](sinr_sim::trace::TraceEvent::fields)
/// (rendered strings — this file is for inspection and diffing by eye
/// or `jq`, not for bit-level replay, which goes through snapshots).
pub fn trace_log_to_json(log: &TraceLog) -> String {
    let mut out = String::from("{\"dropped\":");
    out.push_str(&log.dropped.to_string());
    out.push_str(",\"events\":[");
    for (i, event) in log.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        out.push_str(&json_string(event.kind()));
        for (name, value) in event.fields() {
            out.push(',');
            out.push_str(&json_string(name));
            out.push(':');
            out.push_str(&json_string(&value));
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_sim::trace::TraceEvent;

    fn roundtrip(v: Value) {
        let encoded = value_to_json(&v);
        let parsed = json::parse(&encoded).expect("tagged encoding parses");
        assert_eq!(value_from_json(&parsed).as_ref(), Ok(&v), "{encoded}");
    }

    #[test]
    fn tagged_values_roundtrip_losslessly() {
        roundtrip(Value::Unit);
        roundtrip(Value::Bool(true));
        roundtrip(Value::U64(u64::MAX)); // > 2^53: would corrupt as f64
        roundtrip(Value::I64(i64::MIN));
        roundtrip(Value::F64(-0.0));
        roundtrip(Value::F64(0.1 + 0.2)); // bit-exact, not re-parsed
        roundtrip(Value::Str("quoted \"✓\"\nline".into()));
        roundtrip(Value::None);
        roundtrip(Value::Some(Box::new(Value::Seq(vec![
            Value::U64(1),
            Value::Map(vec![("k".into(), Value::F64(f64::MAX))]),
        ]))));
    }

    #[test]
    fn nan_bits_survive_the_disk_format() {
        let bits = f64::NAN.to_bits() | 1; // a payload-carrying NaN
        let v = Value::F64(f64::from_bits(bits));
        let parsed = json::parse(&value_to_json(&v)).unwrap();
        match value_from_json(&parsed).unwrap() {
            Value::F64(x) => assert_eq!(x.to_bits(), bits),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn malformed_tags_are_rejected() {
        for bad in [
            "[\"zap\"]",
            "[\"u64\",\"not a number\"]",
            "[\"u64\"]",
            "[\"f64\",\"3ff\"]",
            "[\"map\",[[1,[\"unit\"]]]]",
            "42",
        ] {
            let parsed = json::parse(bad).unwrap();
            assert!(value_from_json(&parsed).is_err(), "{bad}");
        }
    }

    #[test]
    fn snapshot_file_roundtrips() {
        let file = SnapshotFile {
            family: Family::UniformSquare,
            n: 48,
            seed: u64::MAX - 1,
            engine: "grid".into(),
            snapshot_slot: 17,
            tail_fnv: 0xdead_beef_cafe_f00d,
            params: Value::Map(vec![("alpha".into(), Value::F64(3.0))]),
            state: EngineSnapshot {
                slot: 17,
                stats: sinr_sim::EngineStats {
                    slots: 17,
                    transmissions: 5,
                    receptions: 2,
                },
                nodes: vec![Value::U64(7)],
                rngs: vec![Value::Seq(vec![Value::U64(u64::MAX); 4])],
            },
        };
        let parsed = SnapshotFile::parse(&file.to_json()).unwrap();
        assert_eq!(parsed, file);

        assert!(SnapshotFile::parse("{}").is_err());
        assert!(SnapshotFile::parse("{\"format\":\"other\"}").is_err());
    }

    #[test]
    fn trace_log_renders_as_json() {
        let log = TraceLog {
            events: vec![
                TraceEvent::Transmit {
                    slot: 0,
                    node: 3,
                    power: 2.0f64.to_bits(),
                },
                TraceEvent::Batch {
                    phase: "repair",
                    index: 0,
                    size: 2,
                },
            ],
            dropped: 5,
        };
        let doc = json::parse(&trace_log_to_json(&log)).expect("valid JSON");
        assert_eq!(doc.get("dropped"), Some(&json::Value::Number(5.0)));
        let events = doc.get("events").and_then(json::Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("kind").and_then(json::Value::as_str),
            Some("transmit")
        );
        assert_eq!(
            events[1].get("phase").and_then(json::Value::as_str),
            Some("repair")
        );
    }
}
