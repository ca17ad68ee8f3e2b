//! Hardening battery for the vendored JSON shim: bit-exact `f64` round
//! trips, string round trips over the awkward corners of Unicode, and a
//! robustness sweep that truncates and corrupts every checked-in JSON
//! document. Malformed input must come back as a named error, never a
//! panic.

use std::borrow::Cow;
use std::path::Path;

use ftsched::serve::AdmissionRequest;
use proptest::prelude::*;
use serde::{Deserialize, Value};

fn bit_exact(x: f64) -> Result<(), TestCaseError> {
    let text = serde_json::to_string(&x).unwrap();
    let back: f64 = serde_json::from_str(&text)
        .map_err(|e| TestCaseError::fail(format!("{x:e} -> {text}: {e}")))?;
    prop_assert!(back.to_bits() == x.to_bits(), "{x:e} -> {text} -> {back:e}");
    // The same bits come back from inside a container.
    let back: Vec<f64> = serde_json::from_str(&serde_json::to_string(&vec![x]).unwrap()).unwrap();
    prop_assert_eq!(back[0].to_bits(), x.to_bits());
    Ok(())
}

#[test]
fn f64_edge_values_round_trip_bit_exactly() {
    let edges = [
        0.0,
        -0.0,
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::MAX,
        f64::MIN,
        2f64.powi(63),
        -(2f64.powi(63)),
        2f64.powi(64),
        1e300,
        -1e-300,
    ];
    for x in edges {
        for v in [x, -x] {
            bit_exact(v).unwrap();
        }
    }
}

#[test]
fn non_finite_floats_are_written_as_null_and_never_read_back() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(serde_json::to_string(&x).unwrap(), "null");
    }
    assert!(serde_json::from_str::<f64>("null").is_err());
    for text in ["NaN", "Infinity", "-Infinity", "inf", "1e309", "-1e309"] {
        assert!(serde_json::from_str::<f64>(text).is_err(), "{text}");
    }
}

/// One character from a mix weighted towards what escaping must get
/// right: quotes, backslashes, control characters, BMP text beyond
/// ASCII, and non-BMP scalars (surrogate pairs when escaped).
fn awkward_char((class, raw): (u8, u32)) -> char {
    let pick = |lo: u32, hi: u32| char::from_u32(lo + raw % (hi - lo)).unwrap_or('\u{fffd}');
    match class {
        0 => pick(0x20, 0x7f),
        1 => '"',
        2 => '\\',
        3 => pick(0, 0x20),
        4 => pick(0x80, 0xd800),
        5 => pick(0xe000, 0x10000),
        _ => pick(0x10000, 0x11_0000),
    }
}

/// `s` with every character written as a `\u` escape, the non-BMP ones
/// as surrogate pairs.
fn fully_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn finite_f64_bit_patterns_round_trip_exactly(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            bit_exact(x)?;
        }
    }

    #[test]
    fn strings_round_trip(chars in prop::collection::vec((0u8..7, any::<u32>()), 0..48)) {
        let s: String = chars.into_iter().map(awkward_char).collect();
        let text = serde_json::to_string(&s).unwrap();
        prop_assert!(
            !text.bytes().any(|b| b < 0x20),
            "raw control byte written in {:?}",
            text
        );
        prop_assert_eq!(&serde_json::from_str::<String>(&text).unwrap(), &s);
        prop_assert_eq!(&serde_json::from_str::<String>(&fully_escaped(&s)).unwrap(), &s);
        // As a map key and inside an array.
        let doc = format!("{{{text}:[{text}]}}");
        let parsed = serde_json::parse_value_complete(&doc).unwrap();
        prop_assert_eq!(
            &parsed,
            &Value::Map(vec![(s.as_str().into(), Value::Seq(vec![Value::Str(s.as_str().into())]))])
        );
        // Only a string the writer had to escape comes back owned.
        let Value::Map(entries) = &parsed else { unreachable!() };
        let escaped = text.contains('\\');
        prop_assert_eq!(matches!(entries[0].0, Cow::Owned(_)), escaped);
        let Value::Seq(items) = &entries[0].1 else { unreachable!() };
        prop_assert_eq!(matches!(items[0], Value::Str(Cow::Owned(_))), escaped);
    }
}

/// Whether `s` points into `text` rather than at a copy of it.
fn points_into(s: &str, text: &str) -> bool {
    text.as_bytes().as_ptr_range().contains(&s.as_ptr())
}

#[test]
fn unescaped_strings_are_borrowed_from_the_input_and_escaped_ones_owned() {
    let text = r#"{"plain": ["run", "", "café \u00e9"], "esc\"aped": "a\nb", "\u0041": 1}"#;
    let value = serde_json::parse_value_complete(text).unwrap();
    let entries = value.as_map().unwrap();
    let keys: Vec<&Cow<'_, str>> = entries.iter().map(|(k, _)| k).collect();
    assert!(matches!(keys[0], Cow::Borrowed(k) if *k == "plain" && points_into(k, text)));
    assert!(matches!(keys[1], Cow::Owned(k) if k == "esc\"aped"));
    assert!(matches!(keys[2], Cow::Owned(k) if k == "A"));

    let items = entries[0].1.as_seq().unwrap();
    assert!(
        matches!(&items[0], Value::Str(Cow::Borrowed(s)) if *s == "run" && points_into(s, text))
    );
    assert!(matches!(&items[1], Value::Str(Cow::Borrowed(""))));
    // Raw non-ASCII text needs no escape; `\u00e9` does.
    assert!(matches!(&items[2], Value::Str(Cow::Owned(s)) if s == "caf\u{e9} \u{e9}"));
    assert!(matches!(&entries[1].1, Value::Str(Cow::Owned(s)) if s == "a\nb"));

    // A whole request line borrows every key and string it holds.
    let log = std::fs::read_to_string(repo_path("examples/serve_requests.jsonl")).unwrap();
    let line = log.lines().next().unwrap();
    let mut strings = 0;
    let mut stack = vec![serde_json::parse_value_complete(line).unwrap()];
    while let Some(v) = stack.pop() {
        match v {
            Value::Str(s) => {
                assert!(
                    matches!(&s, Cow::Borrowed(b) if points_into(b, line)),
                    "{s}"
                );
                strings += 1;
            }
            Value::Seq(items) => stack.extend(items),
            Value::Map(entries) => {
                for (k, v) in entries {
                    assert!(
                        matches!(&k, Cow::Borrowed(b) if points_into(b, line)),
                        "{k}"
                    );
                    strings += 1;
                    stack.push(v);
                }
            }
            _ => {}
        }
    }
    assert!(strings > 80, "only {strings} keys and strings in line 1");
}

// ---------------------------------------------------------------------------
// Robustness sweep.

/// What every decoder error starts with. A message outside this list is
/// an error the shim does not name (or a text that changed unnoticed).
const NAMED_ERRORS: &[&str] = &[
    "unexpected character",
    "unexpected end of input",
    "trailing characters",
    "expected `",
    "unterminated string",
    "invalid escape sequence",
    "invalid \\u escape",
    "truncated \\u escape",
    "unpaired surrogate",
    "expected a low surrogate",
    "control character",
    "invalid number",
    "leading zero",
    "expected a digit after the decimal point",
    "number out of range",
    "nesting deeper than 128 levels",
];

/// Documents up to this size get every truncation and every byte flip.
/// Beyond it the sweep is quadratic in the document's size (every
/// prefix of the 1.2 MB grid-sweep golden is 7e11 bytes of parsing), so
/// larger documents get every cut and flip within their first
/// `WINDOW` bytes plus `STRIDED` cuts and flips spread over the whole
/// document.
const FULL: usize = 16 << 10;
const WINDOW: usize = 8 << 10;
const STRIDED: usize = 32;

/// Flip masks, rotated by position: low bits turn digits into digits
/// and punctuation into other punctuation, 0x20 toggles letter case and
/// `[`/`{`, and 0x80 breaks UTF-8 (the frame's own check answers that).
const MASKS: [u8; 5] = [0x01, 0x02, 0x20, 0x0f, 0x80];

fn repo_path(relative: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// Every JSON document the repository checks in: the report goldens and
/// each line of the admission request log.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut docs = Vec::new();
    let mut goldens: Vec<_> = std::fs::read_dir(repo_path("tests/golden"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    goldens.sort();
    for path in goldens {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        docs.push((name, std::fs::read(&path).unwrap()));
    }
    let log = std::fs::read_to_string(repo_path("examples/serve_requests.jsonl")).unwrap();
    for (i, line) in log.lines().enumerate() {
        docs.push((
            format!("serve_requests.jsonl:{}", i + 1),
            line.as_bytes().to_vec(),
        ));
    }
    assert!(
        docs.len() >= 10,
        "corpus went missing: {} documents",
        docs.len()
    );
    docs
}

/// Decodes `bytes` the way `ftsched serve` decodes a frame (UTF-8 first,
/// then JSON, then the request shape) and checks that any failure is a
/// named error rather than a panic.
fn decode(bytes: &[u8], case: &dyn Fn() -> String) {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return;
    };
    // `from_str` is exactly these two steps.
    let outcome = std::panic::catch_unwind(|| {
        serde_json::parse_value_complete(text)
            .map(|value| AdmissionRequest::from_value(&value).map(drop))
    });
    match outcome {
        Err(_) => panic!("decoder panicked on {}", case()),
        Ok(Err(e)) => {
            let msg = e.to_string();
            assert!(
                NAMED_ERRORS.iter().any(|named| msg.starts_with(named)),
                "unnamed error `{msg}` on {}",
                case()
            );
        }
        Ok(Ok(Err(e))) => assert!(!e.to_string().is_empty(), "empty error on {}", case()),
        Ok(Ok(Ok(()))) => {}
    }
}

/// The cut/flip points of a document of `len` bytes: all of them, or the
/// first `WINDOW` plus `STRIDED` spread over the whole document.
fn sweep_points(len: usize) -> Vec<usize> {
    if len <= FULL {
        return (0..len).collect();
    }
    let stride = len / STRIDED;
    // A varying offset moves the strided points off any period the
    // document's layout might have.
    (0..WINDOW)
        .chain((0..STRIDED).map(|k| k * stride + 7 * k % stride.max(1)))
        .collect()
}

#[test]
fn truncated_documents_give_named_errors() {
    for (name, doc) in corpus() {
        for cut in sweep_points(doc.len()) {
            decode(&doc[..cut], &|| format!("{name} cut at byte {cut}"));
        }
    }
}

#[test]
fn byte_flipped_documents_give_named_errors() {
    for (name, doc) in corpus() {
        let mut flipped = doc.clone();
        for at in sweep_points(doc.len()) {
            let mask = MASKS[at % MASKS.len()];
            flipped[at] ^= mask;
            // Inside the window of a large document, decode the window
            // only: the flip is what is under test, and a flip that keeps
            // the document valid would otherwise re-parse all of it.
            let end = if doc.len() > FULL && at < WINDOW {
                WINDOW
            } else {
                doc.len()
            };
            decode(&flipped[..end], &|| {
                format!("{name} with byte {at} xor {mask:#04x}, first {end} bytes")
            });
            flipped[at] ^= mask;
        }
    }
}
