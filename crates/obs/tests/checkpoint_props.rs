//! Property tests for the checkpoint record layout: the one-pass record
//! renderer is byte-identical to the tree construction it replaced (kept
//! here as the reference), every record it writes decodes, and appending
//! canonical text writes what appending its parsed tree writes.

use dynp_obs::checkpoint::{decode_line, fnv1a64, record_line, CheckpointLog, CHECKPOINT_VERSION};
use dynp_obs::json::{parse, JsonValue};
use proptest::prelude::*;

/// The record as it used to be built: the header and a deep copy of
/// `data` as a tree, rendered for the checksum, then rendered again with
/// the `crc` member added.
fn reference_line(campaign: &str, cell: usize, data: &JsonValue) -> String {
    let body = JsonValue::object()
        .with("v", CHECKPOINT_VERSION)
        .with("campaign", campaign)
        .with("cell", cell)
        .with("data", data.clone());
    let crc = format!("{:016x}", fnv1a64(body.to_json().as_bytes()));
    body.with("crc", crc).to_json()
}

/// Characters a renderer must escape or pass through untouched: quotes,
/// backslashes, control characters (short and `\u` escapes), non-ASCII
/// and astral characters.
const ALPHABET: [char; 14] = [
    'a', 'Z', '7', ' ', '"', '\\', '\n', '\t', '\u{01}', '\u{1f}', '\u{7f}', 'é', '\u{2028}',
    '😀',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.next_in(0, 6))
        .map(|_| ALPHABET[rng.next_in(0, ALPHABET.len() as u64 - 1) as usize])
        .collect()
}

fn number(rng: &mut TestRng) -> f64 {
    match rng.next_in(0, 7) {
        0 => rng.next_in(0, 1 << 20) as f64,
        1 => -(rng.next_in(0, u64::MAX) as f64),
        2 => (rng.next_f64() - 0.5) * 1e6,
        3 => rng.next_f64() * 1e-300,
        4 => -0.0,
        5 => 0.0,
        6 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.next_in(0, 2) as usize],
        _ => rng.next_u64() as f64 * 1e10,
    }
}

/// Arbitrary documents up to `depth` levels of nesting. Objects are
/// built through `set`, as every writer builds them, so keys are unique.
struct Json {
    depth: u32,
}

impl Strategy for Json {
    type Value = JsonValue;

    fn generate(&self, rng: &mut TestRng) -> JsonValue {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let inner = Json {
            depth: self.depth.saturating_sub(1),
        };
        match rng.next_in(0, kinds - 1) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.next_in(0, 1) == 1),
            2 => JsonValue::Num(number(rng)),
            3 => JsonValue::Str(string(rng)),
            4 => JsonValue::Array(
                (0..rng.next_in(0, 4))
                    .map(|_| inner.generate(rng))
                    .collect(),
            ),
            _ => {
                let mut object = JsonValue::object();
                for _ in 0..rng.next_in(0, 5) {
                    let key = string(rng);
                    object.set(&key, inner.generate(rng));
                }
                object
            }
        }
    }
}

/// A campaign string, a cell index (within what `decode_line` reads
/// back), and the record's data.
fn record() -> impl Strategy<Value = (String, usize, JsonValue)> {
    (0u64..u64::MAX, 0usize..1 << 40, Json { depth: 3 }).prop_map(|(seed, cell, data)| {
        let mut rng = TestRng::seed_from_u64(seed);
        (string(&mut rng), cell, data)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One render equals clone → render → `with("crc")` → render.
    #[test]
    fn record_line_equals_the_tree_construction((campaign, cell, data) in record()) {
        let line = record_line(&campaign, cell, &data);
        prop_assert_eq!(line, reference_line(&campaign, cell, &data));
    }

    /// Every record decodes to its cell and to its data as parsed back
    /// from the canonical text (non-finite numbers read back as `null`).
    #[test]
    fn every_record_decodes((campaign, cell, data) in record()) {
        let line = record_line(&campaign, cell, &data);
        let decoded = decode_line(&line, &campaign);
        prop_assert!(decoded.is_ok(), "{line} rejected: {decoded:?}");
        let (got_cell, got_data) = decoded.unwrap();
        prop_assert_eq!(got_cell, cell);
        prop_assert_eq!(got_data, parse(&data.to_json()).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For canonical text `s`, `append_json(s)` writes the bytes
    /// `append(&parse(s))` writes.
    #[test]
    fn append_json_writes_what_append_writes((campaign, cell, data) in record()) {
        let dir = std::env::temp_dir().join(format!("dynp_ckpt_props_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (tree, text) = (dir.join("tree.jsonl"), dir.join("text.jsonl"));
        let _ = std::fs::remove_file(&tree);
        let _ = std::fs::remove_file(&text);
        let s = data.to_json();
        CheckpointLog::append_to(&tree).unwrap().append(&campaign, cell, &parse(&s).unwrap());
        CheckpointLog::append_to(&text).unwrap().append_json(&campaign, cell, &s);
        let (tree, text) = (std::fs::read(&tree).unwrap(), std::fs::read(&text).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert!(tree == text, "append_json diverged for {s}");
    }
}
