//! Snapshot files fail with an error, never a panic: hand-edited copies
//! of a real n = 16 `Init` snapshot (`n = 0`, a parent without its
//! uplink timestamp, a child id out of range) and random edits of every
//! per-node field outside the shared tables go through the loader and
//! `resume_init` as `connect --replay-from` does.

#![cfg(feature = "trace")]

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;
use sinr_bench::replay::SnapshotFile;
use sinr_bench::workloads::Family;
use sinr_connectivity::init::{resume_init, run_init, run_init_with_snapshot, InitConfig};
use sinr_connectivity::CoreError;
use sinr_phy::SinrParams;

const N: usize = 16;
const SEED: u64 = 7;

/// A mid-run snapshot file of `Init` on a uniform n = 16 instance.
fn snapshot() -> SnapshotFile {
    static FILE: OnceLock<SnapshotFile> = OnceLock::new();
    FILE.get_or_init(capture).clone()
}

fn capture() -> SnapshotFile {
    let params = SinrParams::default();
    let instance = Family::UniformSquare.instance(N, SEED);
    let cfg = InitConfig::default();
    let at = run_init(&params, &instance, &cfg, SEED)
        .unwrap()
        .run
        .slots_used
        / 2;
    let replay = run_init_with_snapshot(&params, &instance, &cfg, SEED, at).unwrap();
    SnapshotFile {
        family: Family::UniformSquare,
        n: N,
        seed: SEED,
        engine: "grid".into(),
        snapshot_slot: at,
        tail_fnv: replay.tail_fnv,
        params: serde::Serialize::to_value(&params),
        state: replay
            .snapshot
            .expect("the run is still going at its midpoint"),
    }
}

/// Loads and resumes a snapshot file, returning its tail fingerprint.
fn replay(text: &str) -> Result<u64, String> {
    let file = SnapshotFile::parse(text)?;
    let params: SinrParams =
        serde::Deserialize::from_value(&file.params).map_err(|e| e.to_string())?;
    let instance = file.family.instance(file.n, file.seed);
    resume_init(&params, &instance, &InitConfig::default(), &file.state)
        .map(|(_, tail)| tail)
        .map_err(|e| e.to_string())
}

fn field<'v>(node: &'v mut Value, name: &str) -> &'v mut Value {
    let Value::Map(entries) = node else {
        panic!("an Init node serializes as a map")
    };
    &mut entries.iter_mut().find(|(k, _)| k == name).expect(name).1
}

/// The index of the first node whose `name` field is `Some`.
fn first_with(file: &mut SnapshotFile, name: &str) -> usize {
    (0..N)
        .find(|&i| matches!(field(&mut file.state.nodes[i], name), Value::Some(_)))
        .unwrap_or_else(|| panic!("no node has a `{name}` yet"))
}

fn resume_error(file: &SnapshotFile) -> CoreError {
    let params = SinrParams::default();
    let instance = Family::UniformSquare.instance(N, SEED);
    match resume_init(&params, &instance, &InitConfig::default(), &file.state) {
        Ok(_) => panic!("the edited snapshot resumed"),
        Err(e) => e,
    }
}

#[test]
fn a_valid_snapshot_replays_to_its_tail() {
    let file = snapshot();
    assert_eq!(replay(&file.to_json()), Ok(file.tail_fnv));
}

#[test]
fn n_zero_is_rejected_by_the_loader() {
    let text = snapshot().to_json().replacen("\"n\":16,", "\"n\":0,", 1);
    let e = SnapshotFile::parse(&text).unwrap_err();
    assert!(e.contains("`n`"), "{e}");
    let text = snapshot()
        .to_json()
        .replacen("\"n\":16,", "\"n\":1e300,", 1);
    assert!(SnapshotFile::parse(&text).unwrap_err().contains("`n`"));
}

#[test]
fn a_parent_without_a_timestamp_is_rejected() {
    let mut file = snapshot();
    let i = first_with(&mut file, "parent");
    *field(&mut file.state.nodes[i], "uplink_slot") = Value::None;
    assert!(matches!(resume_error(&file), CoreError::Snapshot { .. }));
    assert!(replay(&file.to_json()).is_err());
}

#[test]
fn a_child_out_of_range_is_rejected() {
    let mut file = snapshot();
    *field(&mut file.state.nodes[0], "optimistic_children") =
        Value::Seq(vec![Value::Seq(vec![Value::U64(99), Value::U64(0)])]);
    assert!(matches!(resume_error(&file), CoreError::Snapshot { .. }));
    assert!(replay(&file.to_json()).is_err());
}

const FIELDS: [&str; 8] = [
    "active",
    "participates",
    "parent",
    "uplink_slot",
    "uplink_power",
    "optimistic_children",
    "is_broadcaster",
    "pending_ack",
];

/// Replacement values for node field `name`: its own shape at boundary
/// ids, slots (around the snapshot's `at`) and powers, plus one value of
/// the wrong shape.
fn candidates(name: &str, at: u64) -> Vec<Value> {
    let some = |v| Value::Some(Box::new(v));
    let ids = [0u64, 1, 15, 16, 99, u64::MAX];
    let mut values = vec![Value::Unit];
    match name {
        "parent" | "pending_ack" => {
            values.push(Value::None);
            values.extend(ids.map(|x| some(Value::U64(x))));
        }
        "uplink_slot" => {
            values.push(Value::None);
            values.extend([0, 1, at - 1, at, at + 1, u64::MAX].map(|s| some(Value::U64(s))));
        }
        "uplink_power" => {
            values.push(Value::None);
            values.extend([f64::NAN, -1.0, 0.0, 1.0, f64::INFINITY].map(|p| some(Value::F64(p))));
        }
        "optimistic_children" => values.extend(
            ids.map(|x| Value::Seq(vec![Value::Seq(vec![Value::U64(x), Value::U64(at - 1)])])),
        ),
        _ => values.extend([Value::Bool(false), Value::Bool(true)]),
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Random edits of the per-node fields outside the shared tables,
    /// and now and then of the snapshot slot and the instance recipe,
    /// load and resume to a tail or an error, never a panic.
    #[test]
    fn edited_snapshots_never_panic(
        edits in vec((0..N, 0..FIELDS.len(), 0usize..8), 1..4),
        slot in 0usize..12,
        recipe in 0usize..12,
    ) {
        let mut file = snapshot();
        let at = file.state.slot;
        for (node, name, pick) in edits {
            let values = candidates(FIELDS[name], at);
            *field(&mut file.state.nodes[node], FIELDS[name]) = values[pick % values.len()].clone();
        }
        if let Some(&s) = [0, 1, at - 1, at + 1, u64::MAX].get(slot) {
            file.state.slot = s;
        }
        match recipe {
            1 => file.n = 15,
            2 => file.n = 17,
            3 => file.n = 1 << 40,
            4 => file.family = Family::Lattice,
            5 => file.seed ^= 1,
            _ => {}
        }
        let _ = replay(&file.to_json());
    }
}
