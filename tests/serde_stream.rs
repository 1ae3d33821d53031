//! The serde shim's streaming JSON path against its tree path.
//!
//! Derived types write JSON text straight into the output and read it
//! straight from the parser. The tree path lowers a value to a
//! `serde::Value` first (`to_value`, then the tree writer) or lifts it from
//! one (the tree parser, then `from_value`). The two must write the same
//! bytes, compact and pretty, refuse the same non-finite float in a
//! finite-only write, and on every input — well-formed, truncated, flipped,
//! with keys repeated or missing — read the same value or both fail,
//! without a panic.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Newtype(f64);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Kind {
    Idle,
    Load(f64),
    Span(u8, Option<f64>),
    Move { from: i64, to: Option<u64>, tags: Vec<String> },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Phase {
    Up,
    Down,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Doc {
    id: u64,
    delta: i32,
    util: f64,
    label: Option<String>,
    series: Vec<Vec<f64>>,
    kinds: Vec<Kind>,
    phase: Phase,
    by_name: HashMap<String, Pair>,
    pairs: Vec<(u16, f64, bool)>,
    unit: Unit,
    wrapped: Option<Newtype>,
    tree: Value,
}

/// Floats where the text format has edges: signed zeros, non-finite
/// values, the integral-float cut at 1e15, 2^53, subnormals; then raw bit
/// patterns and short decimals.
fn float(rng: &mut StdRng) -> f64 {
    let up = |x: f64| f64::from_bits(x.to_bits() + 1);
    let down = |x: f64| f64::from_bits(x.to_bits() - 1);
    let edges = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e15,
        -1e15,
        down(1e15),
        up(1e15),
        -down(1e15),
        999_999_999_999_999.0,
        9_007_199_254_740_992.0,
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        0.1,
        -2.5,
    ];
    match rng.gen_range(0..4) {
        0 => edges[rng.gen_range(0..edges.len())],
        1 => f64::from_bits(rng.gen()),
        2 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        _ => rng.gen_range(-1_000_000i64..1_000_000) as f64 / 1024.0,
    }
}

fn string(rng: &mut StdRng) -> String {
    const CHARS: [char; 12] = ['a', 'b', 'z', '0', ' ', '"', '\\', '\n', '\u{1}', '/', 'é', '🦀'];
    (0..rng.gen_range(0..6)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
}

fn tree(rng: &mut StdRng, depth: u32) -> Value {
    match rng.gen_range(0..if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::I64(rng.gen_range(i64::MIN..0)),
        3 => Value::U64(rng.gen()),
        4 => Value::F64(float(rng)),
        5 => Value::Str(string(rng)),
        6 => Value::Array((0..rng.gen_range(0..4)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.gen_range(0..4)).map(|_| (string(rng), tree(rng, depth - 1))).collect(),
        ),
    }
}

fn kind(rng: &mut StdRng) -> Kind {
    match rng.gen_range(0..4) {
        0 => Kind::Idle,
        1 => Kind::Load(float(rng)),
        2 => Kind::Span(rng.gen::<u64>() as u8, rng.gen::<bool>().then(|| float(rng))),
        _ => Kind::Move {
            from: rng.gen::<u64>() as i64,
            to: rng.gen::<bool>().then(|| rng.gen()),
            tags: (0..rng.gen_range(0..3)).map(|_| string(rng)).collect(),
        },
    }
}

fn doc(rng: &mut StdRng) -> Doc {
    let n = |rng: &mut StdRng| rng.gen_range(0..4);
    Doc {
        id: rng.gen(),
        delta: rng.gen::<u64>() as i32,
        util: float(rng),
        label: rng.gen::<bool>().then(|| string(rng)),
        series: (0..n(rng)).map(|_| (0..n(rng)).map(|_| float(rng)).collect()).collect(),
        kinds: (0..n(rng)).map(|_| kind(rng)).collect(),
        phase: if rng.gen() { Phase::Up } else { Phase::Down },
        by_name: (0..n(rng))
            .map(|_| (string(rng), Pair(rng.gen::<u64>() as u32, string(rng))))
            .collect(),
        pairs: (0..n(rng)).map(|_| (rng.gen::<u64>() as u16, float(rng), rng.gen())).collect(),
        unit: Unit,
        wrapped: rng.gen::<bool>().then(|| Newtype(float(rng))),
        tree: tree(rng, 3),
    }
}

/// Tree equality with floats compared by bits (so `NaN` equals itself).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs.iter().zip(ys).all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// The path below the root of a tree's first non-finite float in document
/// order (the walk a finite-only capture used to make).
fn non_finite_path(v: &Value) -> Option<String> {
    match v {
        Value::F64(x) if !x.is_finite() => Some(String::new()),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, item)| Some(format!("[{i}]{}", non_finite_path(item)?))),
        Value::Object(entries) => {
            entries.iter().find_map(|(key, item)| Some(format!(".{key}{}", non_finite_path(item)?)))
        }
        _ => None,
    }
}

fn assert_writes_like_the_tree<T: Serialize>(v: &T) {
    let tree = v.to_value();
    assert_eq!(serde_json::to_string(v).unwrap(), serde_json::to_string(&tree).unwrap());
    assert_eq!(
        serde_json::to_string_pretty(v).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
    match (serde_json::to_string_finite(v), non_finite_path(&tree)) {
        (Ok(text), None) => assert_eq!(text, serde_json::to_string(&tree).unwrap()),
        (Err(e), Some(path)) => assert_eq!(e.path, path),
        (got, want) => panic!("finite-only write {got:?}, tree walk {want:?}"),
    }
}

/// Read `text` both ways; `true` when both succeeded (with equal values).
fn reads_like_the_tree<T: Serialize + Deserialize>(text: &str) -> bool {
    let streamed = serde_json::from_str::<T>(text);
    let lifted = serde_json::from_str::<Value>(text).and_then(serde_json::from_value::<T>);
    match (streamed, lifted) {
        (Ok(a), Ok(b)) => {
            assert!(same(&a.to_value(), &b.to_value()), "{text:?}: the two reads differ");
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!("{text:?}: streamed {:?}, tree {:?}", a.is_ok(), b.is_ok()),
    }
}

/// Drop, repeat or retype object entries at random anywhere in the tree.
fn mutate_tree(rng: &mut StdRng, v: &mut Value) {
    match v {
        Value::Array(items) => items.iter_mut().for_each(|item| mutate_tree(rng, item)),
        Value::Object(entries) => {
            entries.iter_mut().for_each(|(_, item)| mutate_tree(rng, item));
            if entries.is_empty() {
                return;
            }
            let i = rng.gen_range(0..entries.len());
            match rng.gen_range(0..6) {
                0 => {
                    entries.remove(i);
                }
                1 => {
                    let copy = entries[i].clone();
                    entries.insert(rng.gen_range(0..=entries.len()), copy);
                }
                2 => {
                    let key = entries[i].0.clone();
                    entries.insert(rng.gen_range(0..=entries.len()), (key, tree(rng, 1)));
                }
                3 => entries[i].1 = tree(rng, 1),
                _ => {}
            }
        }
        _ => {}
    }
}

/// Truncate, replace or insert one character of the text.
fn mutate_text(rng: &mut StdRng, text: &str) -> String {
    const CHARS: [char; 16] =
        ['{', '}', '[', ']', ',', ':', '"', '\\', '0', '-', '.', 'e', 'n', 'u', ' ', 'x'];
    let mut chars: Vec<char> = text.chars().collect();
    let i = rng.gen_range(0..=chars.len());
    match rng.gen_range(0..3) {
        0 => chars.truncate(i),
        1 if i < chars.len() => chars[i] = CHARS[rng.gen_range(0..CHARS.len())],
        _ => chars.insert(i, CHARS[rng.gen_range(0..CHARS.len())]),
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Streamed text equals the tree writer's text for every derived shape,
    /// compact and pretty, and a finite-only write fails exactly where the
    /// tree walk finds the first non-finite float.
    #[test]
    fn stream_writes_what_the_tree_writes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = doc(&mut rng);
        assert_writes_like_the_tree(&d);
        assert_writes_like_the_tree(&d.kinds);
        assert_writes_like_the_tree(&d.by_name);
        assert_writes_like_the_tree(&(d.id, d.label.clone(), d.phase.clone()));
        assert_writes_like_the_tree(&d.tree);
        assert_writes_like_the_tree(&float(&mut rng));
    }

    /// On well-formed and mutated text alike, the streaming read returns
    /// what the tree read returns, or both fail.
    #[test]
    fn stream_reads_what_the_tree_reads(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = doc(&mut rng);
        let text = serde_json::to_string(&d).unwrap();
        prop_assert!(reads_like_the_tree::<Doc>(&text), "pristine text must read back");
        prop_assert!(reads_like_the_tree::<Doc>(&serde_json::to_string_pretty(&d).unwrap()));
        for _ in 0..4 {
            let mut tree = d.to_value();
            mutate_tree(&mut rng, &mut tree);
            let text = serde_json::to_string(&tree).unwrap();
            reads_like_the_tree::<Doc>(&text);
            let flipped = mutate_text(&mut rng, &text);
            reads_like_the_tree::<Doc>(&flipped);
            reads_like_the_tree::<Vec<Kind>>(&flipped);
            reads_like_the_tree::<HashMap<String, Pair>>(&flipped);
            reads_like_the_tree::<(u64, Option<String>, Phase)>(&flipped);
            reads_like_the_tree::<Value>(&flipped);
        }
        for shape in [
            serde_json::to_string(&d.kinds).unwrap(),
            serde_json::to_string(&d.by_name).unwrap(),
            serde_json::to_string(&d.pairs).unwrap(),
        ] {
            let text = mutate_text(&mut rng, &shape);
            reads_like_the_tree::<Vec<Kind>>(&text);
            reads_like_the_tree::<HashMap<String, Pair>>(&text);
            reads_like_the_tree::<Vec<(u16, f64, bool)>>(&text);
        }
    }
}

#[test]
fn stream_and_tree_agree_on_hand_picked_inputs() {
    // (text, whether it reads as a `Kind`)
    let kinds = [
        ("\"Idle\"", true),
        ("{\"Load\": null}", true),
        ("{\"Span\": [3, null]}", true),
        ("{\"Move\": {\"from\": -1, \"tags\": []}}", true),
        ("{\"Move\": {\"from\": 1, \"from\": \"x\", \"tags\": [], \"extra\": [1, {}]}}", true),
        ("{\"M\\u006fve\": {\"fr\\u006fm\": 2, \"tags\": [\"\\ud83e\"]}}", false),
        ("{\"Idle\": null}", false),
        ("\"Load\"", false),
        ("{\"Load\": 1.0, \"Load\": 2.0}", false),
        ("{}", false),
        ("{\"Span\": [3]}", false),
        ("{\"Span\": [3, 1.0, 2.0]}", false),
        ("{\"Move\": {\"tags\": []}}", false),
        ("{\"Move\": {\"from\": 1, \"tags\": [], \"extra\": [1, }}}", false),
        ("[\"Idle\"]", false),
    ];
    for (text, ok) in kinds {
        assert_eq!(reads_like_the_tree::<Kind>(text), ok, "{text}");
    }
    // A unit struct takes any value; a repeated map key keeps the last.
    assert!(reads_like_the_tree::<Unit>("[1, {\"a\": null}]"));
    assert!(!reads_like_the_tree::<Unit>("[1, {\"a\": nul}]"));
    assert!(reads_like_the_tree::<HashMap<String, u8>>("{\"a\": 1, \"a\": 2}"));
    assert_eq!(
        serde_json::from_str::<HashMap<String, u8>>("{\"a\": 1, \"a\": 2}").unwrap()["a"],
        2
    );
    assert!(!reads_like_the_tree::<HashMap<String, u8>>("{\"a\": 1, \"a\": 256}"));
    // Integers coerce from integral floats, negative zero and huge values
    // alike on both paths.
    for text in ["1.0", "-0", "1e300", "18446744073709551616", "-1", "0.5"] {
        reads_like_the_tree::<u64>(text);
        reads_like_the_tree::<i32>(text);
        reads_like_the_tree::<f64>(text);
    }
}
