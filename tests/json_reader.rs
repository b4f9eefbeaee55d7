//! Generative checks of the vendored JSON library, whose one grammar
//! reads every request body the server gets.
//!
//! * Generated values — nesting up to `MAX_DEPTH`, escapes, non-ASCII
//!   text, u64/i64/f64 extremes — round-trip: `from_slice(to_string(v))
//!   == v`, and serialising again gives the same text.
//! * The borrowed `Reader` yields the same sequence of keys and scalars
//!   as a walk of `from_slice`'s tree.
//! * Arbitrary and mutated bytes never panic either reader, both accept
//!   exactly what an independent recogniser of the grammar accepts, and
//!   every error's offset is at most the input length.
//! * Nesting deeper than `MAX_DEPTH` is rejected, and the deepest allowed
//!   nesting is not.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use proptest::TestRng;
use serde_json::{Event, Map, Number, Reader, Value, MAX_DEPTH};

/// Characters strings are drawn from: ASCII, every escape the writer
/// emits, control bytes, and multi-byte UTF-8 of every length.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '€',
    '中',
    '\u{2028}',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(10))
        .map(|_| {
            if rng.below(4) == 0 {
                // Any scalar value.
                char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('?')
            } else {
                CHARS[rng.below(CHARS.len() as u64) as usize]
            }
        })
        .collect()
}

fn number(rng: &mut TestRng) -> Number {
    match rng.below(3) {
        0 => Number::U64(match rng.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => i64::MAX as u64 + 1,
            _ => rng.next_u64(),
        }),
        // The writer only ever emits negative integers as i64.
        1 => Number::I64(match rng.below(3) {
            0 => i64::MIN,
            1 => -1,
            _ => -1 - (rng.next_u64() >> 2) as i64,
        }),
        _ => Number::F64(match rng.below(8) {
            0 => f64::MAX,
            1 => f64::MIN,
            2 => f64::MIN_POSITIVE,
            3 => 5e-324,
            4 => -0.0,
            5 => 1e300,
            6 => (rng.next_u64() % 1000) as f64 / 8.0,
            _ => Some(f64::from_bits(rng.next_u64()))
                .filter(|x| x.is_finite())
                .unwrap_or(0.1),
        }),
    }
}

fn leaf(rng: &mut TestRng) -> Value {
    match rng.below(9) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2..=4 => Value::Number(number(rng)),
        5 | 6 => Value::String(text(rng)),
        7 => Value::Array((0..rng.below(3)).map(|_| leaf_scalar(rng)).collect()),
        _ => Value::Object(
            (0..rng.below(3))
                .map(|_| (text(rng), leaf_scalar(rng)))
                .collect(),
        ),
    }
}

fn leaf_scalar(rng: &mut TestRng) -> Value {
    match rng.below(3) {
        0 => Value::Bool(true),
        1 => Value::Number(number(rng)),
        _ => Value::String(text(rng)),
    }
}

/// A chain of `depth` containers, each with a few leaf siblings, around
/// a leaf.
fn chain(rng: &mut TestRng, depth: usize) -> Value {
    if depth == 0 {
        return leaf(rng);
    }
    let inner = chain(rng, depth - 1);
    let siblings = rng.below(3);
    if rng.below(2) == 0 {
        let mut items: Vec<Value> = (0..siblings).map(|_| leaf(rng)).collect();
        let at = rng.below(items.len() as u64 + 1) as usize;
        items.insert(at, inner);
        Value::Array(items)
    } else {
        let mut map = Map::new();
        for _ in 0..siblings {
            map.insert(text(rng), leaf(rng));
        }
        map.insert(text(rng), inner);
        Value::Object(map)
    }
}

/// Values nested up to `MAX_DEPTH` containers around their deepest leaf
/// (whose own contents add at most one more level).
struct ArbValue;

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let depth = match rng.below(4) {
            0 => rng.below(MAX_DEPTH as u64) as usize,
            _ => rng.below(6) as usize,
        };
        chain(rng, depth)
    }
}

/// One token of a document: what both readers must agree on.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open { object: bool },
    Close { object: bool },
    Key(String),
    Scalar(Value),
}

fn reader_tokens(bytes: &[u8]) -> Result<Vec<Token>, serde_json::Error> {
    let mut reader = Reader::new(bytes);
    let mut out = Vec::new();
    while let Some(event) = reader.next_event()? {
        out.push(match event {
            Event::StartObject => Token::Open { object: true },
            Event::EndObject => Token::Close { object: true },
            Event::StartArray => Token::Open { object: false },
            Event::EndArray => Token::Close { object: false },
            Event::Key(k) => Token::Key(k.to_string()),
            Event::Null => Token::Scalar(Value::Null),
            Event::Bool(b) => Token::Scalar(Value::Bool(b)),
            Event::Number(n) => Token::Scalar(Value::Number(n)),
            Event::Str(s) => Token::Scalar(Value::String(s.to_string())),
        });
    }
    Ok(out)
}

fn tree_tokens(value: &Value, out: &mut Vec<Token>) {
    match value {
        Value::Array(items) => {
            out.push(Token::Open { object: false });
            for item in items {
                tree_tokens(item, out);
            }
            out.push(Token::Close { object: false });
        }
        Value::Object(map) => {
            out.push(Token::Open { object: true });
            for (key, item) in map.iter() {
                out.push(Token::Key(key.clone()));
                tree_tokens(item, out);
            }
            out.push(Token::Close { object: true });
        }
        scalar => out.push(Token::Scalar(scalar.clone())),
    }
}

/// An independent recursive-descent recogniser of the same grammar —
/// RFC 8259 structure, numbers as any run of `[0-9.eE+-]` after an
/// optional `-` that parses as a u64, an i64 or a finite f64, and at most
/// `MAX_DEPTH` containers around a value: the oracle for hostile bytes.
struct Oracle<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Oracle<'_> {
    fn accepts(bytes: &[u8]) -> bool {
        let mut o = Oracle { bytes, pos: 0 };
        o.value(0) && {
            o.ws();
            o.pos == bytes.len()
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> bool {
        self.ws();
        if depth > MAX_DEPTH {
            return false;
        }
        match self.peek() {
            Some(b'{') => self.seq(depth, b'}', true),
            Some(b'[') => self.seq(depth, b']', false),
            Some(b'"') => self.string(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => ["null", "true", "false"].iter().any(|lit| {
                let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
                self.pos += if hit { lit.len() } else { 0 };
                hit
            }),
            None => false,
        }
    }

    fn seq(&mut self, depth: usize, close: u8, object: bool) -> bool {
        self.pos += 1;
        if self.eat(close) {
            return true;
        }
        loop {
            if object {
                self.ws();
                if self.peek() != Some(b'"') || !self.string() || !self.eat(b':') {
                    return false;
                }
            }
            if !self.value(depth + 1) {
                return false;
            }
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn string(&mut self) -> bool {
        self.pos += 1;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return false,
                Some(b'"') => break,
                Some(b) if b < 0x20 => return false,
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1
                        }
                        Some(b'u') => {
                            let Some(first) = self.hex4() else {
                                return false;
                            };
                            let code = if (0xD800..0xDC00).contains(&first) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return false;
                                }
                                self.pos += 1;
                                match self.hex4() {
                                    Some(low) if (0xDC00..0xE000).contains(&low) => 0x10000,
                                    _ => return false,
                                }
                            } else {
                                first
                            };
                            if char::from_u32(code).is_none() {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
        // Escapes are ASCII, so the raw token is UTF-8 exactly when the
        // text between them is.
        let valid = std::str::from_utf8(&self.bytes[start..self.pos]).is_ok();
        self.pos += 1;
        valid
    }

    /// After a `\\`, reads `u` and four hex digits.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.bytes.get(self.pos + 1..self.pos + 5)?;
        let text = std::str::from_utf8(digits).ok()?;
        if !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 5;
        u32::from_str_radix(text, 16).ok()
    }

    fn number(&mut self) -> bool {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return false;
        };
        text.parse::<u64>().is_ok()
            || text.parse::<i64>().is_ok()
            || text.parse::<f64>().is_ok_and(f64::is_finite)
    }
}

/// Both readers on hostile bytes: no panic, the oracle's verdict, and an
/// in-range error offset.
fn check_hostile(bytes: &[u8]) -> Result<(), TestCaseError> {
    let tree = serde_json::from_slice(bytes);
    let events = reader_tokens(bytes);
    let want = Oracle::accepts(bytes);
    prop_assert_eq!(
        tree.is_ok(),
        want,
        "tree verdict on {:?}",
        String::from_utf8_lossy(bytes)
    );
    prop_assert_eq!(
        events.is_ok(),
        want,
        "reader verdict on {:?}",
        String::from_utf8_lossy(bytes)
    );
    if let Err(e) = &tree {
        let at = e.offset.expect("parse errors carry an offset");
        prop_assert!(
            at <= bytes.len(),
            "offset {} past {} bytes",
            at,
            bytes.len()
        );
    }
    if let Err(e) = &events {
        let at = e.offset.expect("parse errors carry an offset");
        prop_assert!(
            at <= bytes.len(),
            "offset {} past {} bytes",
            at,
            bytes.len()
        );
    }
    Ok(())
}

/// Bytes that steer mutations into the grammar's corners.
const SYNTAX: &[u8] = b"{}[]\":,\\u0123456789eE.+-tfn \n\xff\xc3";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_values_round_trip(value in ArbValue) {
        let text = serde_json::to_string(&value).expect("serialise");
        let parsed = serde_json::from_slice(text.as_bytes()).expect("parse what we wrote");
        prop_assert_eq!(&parsed, &value);
        prop_assert_eq!(serde_json::to_string(&parsed).expect("serialise again"), text);
        let pretty = serde_json::to_string_pretty(&value).expect("pretty");
        prop_assert_eq!(serde_json::from_str(&pretty).expect("parse pretty"), value);
    }

    #[test]
    fn the_reader_walks_the_tree_in_document_order(value in ArbValue) {
        let text = serde_json::to_string_pretty(&value).expect("serialise");
        let mut want = Vec::new();
        tree_tokens(&serde_json::from_str(&text).expect("parse"), &mut want);
        prop_assert_eq!(reader_tokens(text.as_bytes()).expect("read"), want);
    }

    #[test]
    fn arbitrary_bytes_never_panic_or_misreport(
        bytes in prop_oneof![
            prop::collection::vec(any::<u8>(), 0..=256),
            prop::collection::vec(prop::sample::select(SYNTAX.to_vec()), 0..=256),
        ],
    ) {
        check_hostile(&bytes)?;
    }

    #[test]
    fn mutated_documents_never_panic_or_misreport(
        value in ArbValue,
        edits in prop::collection::vec(
            (0u8..3, any::<u64>(), prop::sample::select(SYNTAX.to_vec())),
            1..=4,
        ),
    ) {
        let mut bytes = serde_json::to_string(&value).expect("serialise").into_bytes();
        for (kind, at, byte) in edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            match kind {
                0 => {
                    if let Some(b) = bytes.get_mut(at) {
                        *b = byte;
                    }
                }
                1 => bytes.truncate(at),
                _ => bytes.insert(at, byte),
            }
        }
        check_hostile(&bytes)?;
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_rejected(
        kinds in prop::collection::vec(any::<bool>(), MAX_DEPTH + 2..=MAX_DEPTH + 2),
        scalar in any::<bool>(),
    ) {
        // `kinds[i]`: whether container `i` (outermost first) is an object.
        let nest = |n: usize| {
            let mut text = String::new();
            for &object in &kinds[..n] {
                text.push_str(if object { "{\"k\":" } else { "[" });
            }
            text.push_str(if scalar { "0" } else { "[]" });
            for &object in kinds[..n].iter().rev() {
                text.push(if object { '}' } else { ']' });
            }
            text
        };
        // A value (the innermost `0` or `[]` included) may sit inside at
        // most MAX_DEPTH containers.
        for (n, ok) in [(MAX_DEPTH, true), (MAX_DEPTH + 1, false)] {
            let doc = nest(n);
            prop_assert_eq!(serde_json::from_str(&doc).is_ok(), ok, "{} containers", n);
            prop_assert_eq!(reader_tokens(doc.as_bytes()).is_ok(), ok, "{} containers", n);
        }
    }
}
