//! Property-based tests for the observability primitives.
//!
//! Two families of invariants keep the streaming-telemetry pipeline
//! honest:
//!
//! * the JSON writer and parser are exact inverses over the full value
//!   domain — escapes, astral-plane unicode, extreme exponents, deep
//!   nesting — so a JSONL trace always re-parses to the emitted values;
//! * sketch merging is associative and permutation-invariant, so
//!   campaign statistics folded from per-worker shards in completion
//!   order equal one sketch fed every sample, regardless of worker
//!   count or scheduling.

use ccdem_obs::json::{parse, write_json, Json};
use ccdem_obs::QuantileSketch;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// Generates an arbitrary finite JSON value with nesting up to
/// `max_depth` levels below this one.
struct JsonStrategy {
    max_depth: u32,
}

impl Strategy for JsonStrategy {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        arbitrary_json(rng, self.max_depth)
    }
}

fn arbitrary_json(rng: &mut TestRng, depth: u32) -> Json {
    // Leaves only at the bottom; containers get rarer with depth.
    let pick = if depth == 0 {
        rng.below(4)
    } else {
        rng.below(6)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::Num(arbitrary_finite_f64(rng)),
        3 => Json::Str(arbitrary_string(rng)),
        4 => {
            let len = rng.below(4) as usize;
            Json::Arr((0..len).map(|_| arbitrary_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.below(4) as usize;
            Json::Obj(
                (0..len)
                    .map(|_| (arbitrary_string(rng), arbitrary_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Any finite `f64`, including subnormals and extreme exponents — the
/// writer prints Rust's shortest round-trip form, so every finite value
/// must survive.
fn arbitrary_finite_f64(rng: &mut TestRng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

/// Strings over the full scalar-value range: quotes, backslashes,
/// control characters (which must be escaped) and astral-plane
/// characters (which must survive UTF-8 round-tripping).
fn arbitrary_string(rng: &mut TestRng) -> String {
    let len = rng.below(12) as usize;
    (0..len)
        .filter_map(|_| match rng.below(6) {
            0 => char::from_u32(rng.below(0x20) as u32), // control chars
            1 => Some(['"', '\\', '/', '\u{7f}'][rng.below(4) as usize]),
            2 => char::from_u32(0x1_0000 + rng.below(0x10_0000 - 0x1_0000) as u32),
            _ => char::from_u32(rng.below(0xD800) as u32),
        })
        .collect()
}

/// Builds a sketch from a slice of values.
fn sketch_of(values: &[u64]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    for &v in values {
        sketch.record(v);
    }
    sketch
}

proptest! {
    /// `write_json` ∘ `parse` is the identity over arbitrary values.
    #[test]
    fn json_write_parse_round_trips(value in JsonStrategy { max_depth: 4 }) {
        let mut text = String::new();
        write_json(&mut text, &value);
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("writer produced unparseable JSON {text:?}: {e}"));
        prop_assert_eq!(reparsed, value, "round trip changed the value: {}", text);
    }

    /// Sketch merging is associative and commutative: any merge tree
    /// over the same shards yields the identical sketch.
    #[test]
    fn sketch_merge_is_associative_and_commutative(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..60),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..60),
        c in proptest::collection::vec(0u64..1_000_000_000, 0..60),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut right_tail = sb.clone();
        right_tail.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right, "merge is not associative");
        // b ⊕ a == a ⊕ b
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(ab, ba, "merge is not commutative");
    }

    /// Splitting a sample stream into shards at arbitrary points and
    /// merging them back — in any shard order — equals one sketch fed
    /// every sample: the invariant that makes per-worker campaign
    /// aggregation independent of completion order.
    #[test]
    fn sketch_merge_is_permutation_invariant(
        values in proptest::collection::vec(0u64..10_000_000_000, 1..120),
        cut_seed in 0u64..u64::MAX,
        order_seed in 0u64..u64::MAX,
    ) {
        let whole = sketch_of(&values);

        // Cut into up to 5 contiguous shards at pseudo-random points.
        let mut cuts = vec![0, values.len()];
        for i in 0..4u64 {
            cuts.push((cut_seed.wrapping_mul(i + 1) % (values.len() as u64 + 1)) as usize);
        }
        cuts.sort_unstable();
        let mut shards: Vec<QuantileSketch> = cuts
            .windows(2)
            .map(|w| sketch_of(&values[w[0]..w[1]]))
            .collect();

        // Merge in a pseudo-random shard order.
        let mut merged = QuantileSketch::new();
        let mut seed = order_seed;
        while !shards.is_empty() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let shard = shards.swap_remove((seed % shards.len() as u64) as usize);
            merged.merge(&shard);
        }
        prop_assert_eq!(&merged, &whole, "shard order changed the aggregate");
        prop_assert_eq!(merged.count(), values.len() as u64);
    }

    /// Sketch JSON serialization round-trips exactly.
    #[test]
    fn sketch_json_round_trips(
        values in proptest::collection::vec(0u64..10_000_000_000, 0..80),
    ) {
        let sketch = sketch_of(&values);
        let doc = sketch.to_json();
        // Through the value tree…
        let direct = QuantileSketch::from_json(&doc).expect("own JSON must parse");
        prop_assert_eq!(&direct, &sketch);
        // …and through the serialized text.
        let mut text = String::new();
        write_json(&mut text, &doc);
        let reparsed = QuantileSketch::from_json(&parse(&text).expect("serialized sketch parses"))
            .expect("reparsed sketch reconstructs");
        prop_assert_eq!(reparsed, sketch);
    }
}
