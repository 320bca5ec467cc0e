//! Property test: the bench JSON parser is the true inverse of the
//! bench emitters. Random emitter-shaped documents — tables whose
//! titles, expectations and cells draw from a hostile character palette
//! (control characters, `±`, backslashes, quotes, non-ASCII, and
//! astral-plane scalars) — must survive `Table::to_json` →
//! `json::parse` with every field intact. Truncated and byte-mutated
//! emitter output must parse or fail, never panic, and a
//! multi-megabyte snapshot-shaped document must parse in linear time.

use proptest::collection::vec;
use proptest::prelude::*;
use sinr_bench::json::{self, Value};
use sinr_bench::table::{experiment_entry_json, experiments_doc_json, Table};

/// Characters chosen to exercise every branch of the `json_string`
/// escaper and the parser's string machinery: raw passthrough,
/// two-character escapes, `\u00XX` control escapes, multi-byte UTF-8,
/// and astral-plane scalars (which the parser must also accept in
/// `\uXXXX\uXXXX` surrogate-pair spelling).
const PALETTE: &[char] = &[
    'a',
    'Z',
    '7',
    ' ',
    ',',
    ':',
    '[',
    '}',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    '±',
    'é',
    'Ω',
    '→',
    '✓',
    '\u{1D11E}',
    '\u{10348}',
    '🦀',
];

fn wild_string() -> impl Strategy<Value = String> {
    vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|idxs| idxs.into_iter().map(|i| PALETTE[i]).collect())
}

fn table_from(title: &str, expectation: &str, cells: &[(String, String)]) -> Table {
    let mut t = Table::new(title, expectation, &["k", "v"]);
    for (a, b) in cells {
        t.push_row(vec![a.clone(), b.clone()]);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// A lone table round-trips field-for-field.
    #[test]
    fn table_to_json_round_trips(
        title in wild_string(),
        expectation in wild_string(),
        cells in vec((wild_string(), wild_string()), 0..6),
    ) {
        let t = table_from(&title, &expectation, &cells);
        let v = json::parse(&t.to_json())
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(v.keys(), ["title", "expectation", "columns", "rows"]);
        prop_assert_eq!(v.get("title").and_then(Value::as_str), Some(title.as_str()));
        prop_assert_eq!(
            v.get("expectation").and_then(Value::as_str),
            Some(expectation.as_str())
        );
        let rows = v.get("rows").and_then(Value::as_array).unwrap();
        prop_assert_eq!(rows.len(), cells.len());
        for (row, (a, b)) in rows.iter().zip(&cells) {
            let row = row.as_array().unwrap();
            prop_assert_eq!(row.len(), 2);
            prop_assert_eq!(row[0].as_str(), Some(a.as_str()));
            prop_assert_eq!(row[1].as_str(), Some(b.as_str()));
        }
    }

    /// The full `experiments --json` document shape survives too, with
    /// the hostile strings threaded through the entry description.
    #[test]
    fn experiments_doc_round_trips(
        what in wild_string(),
        title in wild_string(),
        cells in vec((wild_string(), wild_string()), 0..4),
    ) {
        let t = table_from(&title, "", &cells);
        let entry = experiment_entry_json("e0", &what, 1.25, &[t]);
        let doc = experiments_doc_json(7, true, "grid", 4, 2, &[entry]);
        let v = json::parse(&doc)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(
            v.keys(),
            ["seed", "quick", "engine", "seeds", "cores", "experiments"]
        );
        let exp = &v.get("experiments").and_then(Value::as_array).unwrap()[0];
        prop_assert_eq!(exp.get("what").and_then(Value::as_str), Some(what.as_str()));
        let table = &exp.get("tables").and_then(Value::as_array).unwrap()[0];
        prop_assert_eq!(
            table.get("title").and_then(Value::as_str),
            Some(title.as_str())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Truncations and byte substitutions of emitter output end in `Ok`
    /// or `Err`, never a panic.
    #[test]
    fn mutated_emitter_output_never_panics(
        title in wild_string(),
        cells in vec((wild_string(), wild_string()), 0..4),
        cut in 0.0f64..1.0,
        edits in vec((0.0f64..1.0, 0u8..=255), 0..4),
    ) {
        let t = table_from(&title, "exp", &cells);
        let entry = experiment_entry_json("e0", "fuzz", 1.25, &[t]);
        let doc = experiments_doc_json(7, true, "grid", 4, 2, &[entry]);
        let mut bytes = doc.into_bytes();
        bytes.truncate(((bytes.len() as f64) * cut) as usize + 1);
        let len = bytes.len();
        for (at, byte) in edits {
            bytes[((len as f64) * at) as usize] = byte;
        }
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }
}

/// A snapshot-shaped document — tagged values with 64-bit payloads as
/// strings, several megabytes of them — round-trips. A reader that
/// rescans the rest of the document per character takes minutes here.
#[test]
fn multi_megabyte_snapshot_shaped_document_round_trips() {
    let nodes = 60_000u64;
    let body: Vec<String> = (0..nodes)
        .map(|i| {
            format!(
                "[\"seq\",[[\"u64\",\"{}\"],[\"f64\",\"{:016x}\"],[\"str\",\"é{i}\"]]]",
                u64::MAX - i,
                i
            )
        })
        .collect();
    let doc = format!(
        "{{\"format\":\"x\",\"state\":[\"seq\",[{}]]}}",
        body.join(",")
    );
    assert!(doc.len() > 4 << 20, "{} bytes", doc.len());
    let v = json::parse(&doc).expect("parses");
    let items = v.get("state").and_then(Value::as_array).unwrap()[1]
        .as_array()
        .unwrap();
    assert_eq!(items.len() as u64, nodes);
    for (i, item) in items.iter().enumerate().step_by(7919) {
        let fields = item.as_array().unwrap()[1].as_array().unwrap();
        let text = |k: usize| fields[k].as_array().unwrap()[1].as_str().unwrap();
        assert_eq!(text(0), (u64::MAX - i as u64).to_string());
        assert_eq!(text(1), format!("{i:016x}"));
        assert_eq!(text(2), format!("é{i}"));
    }
}
