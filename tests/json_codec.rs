//! Property tests for the JSON codec (`rumor_core::obs::json`), the
//! format of every metrics artifact and of the fleet wire protocol.
//!
//! * Rendering then parsing a random document gives the document back,
//!   with strings mixing ASCII, 2–4 byte chars, control chars, and
//!   quotes/backslashes at the edges of plain-text runs.
//! * Parsing never panics on text from a JSON-ish alphabet, on any
//!   truncation of a valid document, or on broken escapes.
//! * String decoding matches a char-at-a-time reference decoder, error
//!   messages and byte offsets included.
//! * A fixed list of malformed documents keeps its exact error
//!   messages.

use proptest::prelude::*;
use rumor_spreading::core::obs::json::Json;

/// Pieces strings are built from: plain runs, multibyte chars, control
/// chars, and the two bytes that end a run (`"` and `\`), so that
/// concatenations put quotes and backslashes at run boundaries.
const STRING_PIECES: &[&str] = &[
    "a",
    "plain text",
    " ",
    "/",
    "é",
    "ß",
    "日本",
    "語",
    "🦀",
    "𝄞",
    "\u{1}",
    "\u{1f}",
    "\u{7f}",
    "\n",
    "\r",
    "\t",
    "\u{8}",
    "\u{c}",
    "\"",
    "\\",
    "\"\"",
    "\\\\",
    "\\\"",
    "u0041",
    "\u{ffff}",
];

/// Pieces of JSON-ish text: structure, literals, number parts, and
/// whole and broken escapes.
const JSONISH_PIECES: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "\n", "true", "null", "false", "tru", "0",
    "-1.5e3", "1", "e", "+", ".", "a", "é", "🦀", "\\u", "\\u00", "\\u0041", "\\ud800", "\\u+12",
    "\\uzzzz", "\\n", "\\q", "\"k\":", "\u{1}",
];

fn pick<'a>(rng: &mut TestRng, pieces: &[&'a str]) -> &'a str {
    pieces[(rng.next_u64() % pieces.len() as u64) as usize]
}

fn random_string(rng: &mut TestRng) -> String {
    let len = rng.next_u64() % 8;
    (0..len).map(|_| pick(rng, STRING_PIECES)).collect()
}

/// A finite number: a small integer, a scaled fraction, or arbitrary
/// finite bits.
fn random_number(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 3 {
        0 => (rng.next_u64() % 2001) as f64 - 1000.0,
        1 => (rng.next_u64() % 1_000_000) as f64 / 997.0,
        _ => {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                x
            } else {
                0.5
            }
        }
    }
}

/// A random document at most `depth` levels deep. Object keys are made
/// unique by a numeric suffix.
fn random_tree(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.next_u64() % kinds {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        4 => {
            let len = rng.next_u64() % 5;
            Json::Arr((0..len).map(|_| random_tree(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.next_u64() % 5;
            Json::Obj(
                (0..len)
                    .map(|i| (format!("{}{i}", random_string(rng)), random_tree(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// The string grammar decoded one char at a time, for a document that
/// is a single string literal starting at byte 0: the decoded value, or
/// the error `Json::parse` gives (trailing data after the literal
/// included).
fn reference_string_document(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    if bytes.first() != Some(&b'"') {
        return Err("expected `\"` at byte 0".to_owned());
    }
    let mut pos = 1;
    let mut s = String::new();
    loop {
        match bytes.get(pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                pos += 1;
                break;
            }
            Some(b'\\') => {
                pos += 1;
                let c = match bytes.get(pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let hex = bytes.get(pos + 1..pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        pos += 4;
                        char::from_u32(code).ok_or("bad \\u code point")?
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                };
                s.push(c);
                pos += 1;
            }
            Some(_) => {
                let c = text[pos..].chars().next().expect("char boundary");
                s.push(c);
                pos += c.len_utf8();
            }
        }
    }
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    if pos == bytes.len() {
        Ok(Json::Str(s))
    } else {
        Err(format!("trailing data at byte {pos}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_then_parse_round_trips(seed in 0u64..u64::MAX) {
        let doc = random_tree(&mut TestRng::new(seed), 4);
        let text = doc.render();
        let parsed = Json::parse(&text);
        prop_assert_eq!(parsed.as_ref(), Ok(&doc), "rendered as:\n{}", text);
        // Rendering is a fixed point.
        prop_assert_eq!(parsed.unwrap().render(), text);
    }

    #[test]
    fn string_decoding_matches_the_char_at_a_time_reference(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let len = rng.next_u64() % 12;
        let mut text = String::from("\"");
        for _ in 0..len {
            let pieces = if rng.next_u64().is_multiple_of(2) { STRING_PIECES } else { JSONISH_PIECES };
            text.push_str(pick(&mut rng, pieces));
        }
        if !rng.next_u64().is_multiple_of(4) {
            text.push('"');
        }
        prop_assert_eq!(Json::parse(&text), reference_string_document(&text), "input {:?}", text);
    }

    #[test]
    fn parse_never_panics_on_jsonish_text(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let len = rng.next_u64() % 24;
        let text: String = (0..len).map(|_| pick(&mut rng, JSONISH_PIECES)).collect();
        // Reaching here at all is the property; the result may be
        // either, but an error names what went wrong.
        if let Err(message) = Json::parse(&text) {
            prop_assert!(!message.is_empty());
        }
    }

    #[test]
    fn parse_never_panics_on_truncated_documents(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let doc = random_tree(&mut rng, 3);
        let text = doc.render();
        let delimited = matches!(doc, Json::Str(_) | Json::Arr(_) | Json::Obj(_));
        let cuts: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        for _ in 0..32 {
            let cut = cuts[(rng.next_u64() % cuts.len() as u64) as usize];
            let parsed = Json::parse(&text[..cut]);
            // Cut before its closing delimiter, a string, array or
            // object document is unfinished (the last byte is `\n`).
            if delimited && cut + 1 < text.len() {
                prop_assert!(parsed.is_err(), "{:?} parsed", &text[..cut]);
            }
        }
    }
}

#[test]
fn malformed_documents_keep_their_error_messages() {
    // Every expected message was produced by the char-at-a-time parser
    // this codec replaced; byte offsets point into the input.
    let deep = "[".repeat(129) + &"]".repeat(129);
    let cases: &[(&str, &str)] = &[
        ("", "unexpected input at byte 0"),
        (" ", "unexpected input at byte 1"),
        ("{", "expected `\"` at byte 1"),
        ("[", "unexpected input at byte 1"),
        ("[1,", "unexpected input at byte 3"),
        ("[1 2]", "expected `,` or `]` at byte 3"),
        ("[1,]", "unexpected input at byte 3"),
        ("{\"a\" 1}", "expected `:` at byte 5"),
        ("{\"a\":1 \"b\":2}", "expected `,` or `}` at byte 7"),
        ("{\"a\":1,}", "expected `\"` at byte 7"),
        ("{1:2}", "expected `\"` at byte 1"),
        ("{\"a\":}", "unexpected input at byte 5"),
        ("tru", "expected `true` at byte 0"),
        ("nul", "expected `null` at byte 0"),
        ("fals", "expected `false` at byte 0"),
        ("1.2.3", "bad number at byte 0"),
        ("-", "bad number at byte 0"),
        ("1e", "bad number at byte 0"),
        ("1 2", "trailing data at byte 2"),
        ("{} extra", "trailing data at byte 3"),
        ("\"a\"\"b\"", "trailing data at byte 3"),
        ("@", "unexpected input at byte 0"),
        ("]", "unexpected input at byte 0"),
        ("\u{feff}1", "unexpected input at byte 0"),
        ("\"unterminated", "unterminated string"),
        ("\"abc\\\"", "unterminated string"),
        ("\"\\x\"", "bad escape at byte 2"),
        ("\"a\\", "bad escape at byte 3"),
        ("\"é\\q\"", "bad escape at byte 4"),
        ("[\"ok\", \"bad\\", "bad escape at byte 12"),
        ("\"\\u12\"", "truncated \\u escape"),
        ("\"\\u12", "truncated \\u escape"),
        ("\"\\u12zz\"", "bad \\u escape"),
        ("\"\\u000é\"", "bad \\u escape"),
        ("\"\\u00é\"", "bad \\u escape"),
        ("\"\\ud800\"", "bad \\u code point"),
        ("{\"k\\u0041\": tru}", "expected `true` at byte 12"),
        (&deep, "nesting deeper than 128 at byte 128"),
    ];
    for &(input, message) in cases {
        assert_eq!(Json::parse(input), Err(message.to_owned()), "input {input:?}");
    }
}

#[test]
fn accepted_oddities_stay_accepted() {
    // Quirks of the grammar the codec has always had, kept as they are:
    // `\u` takes anything `u32::from_str_radix` does (a leading `+`),
    // raw control chars pass through strings, and numbers are whatever
    // Rust's float parser reads.
    let cases: &[(&str, Json)] = &[
        ("\"\\u+123\"", Json::Str("\u{123}".to_owned())),
        ("\"\\u0041\\u00e9\\\\\\/\\b\\f\"", Json::Str("Aé\\/\u{8}\u{c}".to_owned())),
        ("\"raw\u{1}ctl\"", Json::Str("raw\u{1}ctl".to_owned())),
        ("01", Json::Num(1.0)),
        (
            "[\"é\", \"日本\", \"🦀\"]",
            Json::Arr(vec![
                Json::Str("é".to_owned()),
                Json::Str("日本".to_owned()),
                Json::Str("🦀".to_owned()),
            ]),
        ),
    ];
    for (input, expected) in cases {
        assert_eq!(Json::parse(input).as_ref(), Ok(expected), "input {input:?}");
    }
}
