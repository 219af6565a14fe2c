//! Pins the JSON text of the derive shim's shapes and of the shim's
//! `Result`/`Duration` impls to upstream serde's default encodings, so
//! swapping the registry crates back in cannot silently change a wire
//! format.

use std::fmt::Debug;
use std::time::Duration;

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Shape {
    Exact,
    Anytime { frame_budget: u64 },
    Sgq(Params),
    LocalSearch { restarts: usize, passes: usize },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Params {
    p: usize,
    s: usize,
}

/// `value` encodes to exactly `text`, and `text` decodes back to it.
fn pin<T: Serialize + Deserialize + PartialEq + Debug>(value: T, text: &str) {
    assert_eq!(serde_json::to_string(&value).unwrap(), text);
    assert_eq!(serde_json::from_str::<T>(text).unwrap(), value);
}

#[test]
fn enums_are_externally_tagged_in_snake_case() {
    pin(Shape::Exact, r#""exact""#);
    pin(
        Shape::Anytime { frame_budget: 5 },
        r#"{"anytime":{"frame_budget":5}}"#,
    );
    pin(
        Shape::Sgq(Params { p: 3, s: 1 }),
        r#"{"sgq":{"p":3,"s":1}}"#,
    );
    pin(
        Shape::LocalSearch {
            restarts: 2,
            passes: 1,
        },
        r#"{"local_search":{"restarts":2,"passes":1}}"#,
    );
}

#[test]
fn result_and_duration_match_upstream() {
    pin(Ok::<u32, String>(1), r#"{"Ok":1}"#);
    pin(Err::<u32, String>("x".into()), r#"{"Err":"x"}"#);
    pin(Duration::new(1, 5), r#"{"secs":1,"nanos":5}"#);
}

#[test]
fn malformed_enums_are_decode_errors() {
    let unknown = serde_json::from_str::<Shape>(r#"{"exact_parallel":{"threads":2}}"#)
        .unwrap_err()
        .to_string();
    assert!(
        unknown.contains(
            "unknown variant `exact_parallel`, expected one of \
             `exact`, `anytime`, `sgq`, `local_search`"
        ),
        "{unknown}"
    );
    for bad in [
        // two keys
        r#"{"exact":null,"anytime":{"frame_budget":5}}"#,
        // non-object payloads
        r#"{"anytime":5}"#,
        r#"{"local_search":[2,1]}"#,
        // wrong form for a known tag
        r#""anytime""#,
        r#"{"exact":{}}"#,
        // neither a string nor an object
        "7",
        "[]",
        "null",
    ] {
        assert!(serde_json::from_str::<Shape>(bad).is_err(), "{bad} decoded");
    }
    for bad in [r#"{"Ok":1,"Err":"x"}"#, r#"{"ok":1}"#, r#""Ok""#] {
        assert!(
            serde_json::from_str::<Result<u32, String>>(bad).is_err(),
            "{bad} decoded"
        );
    }
    // Carrying a second out of `nanos` would overflow `secs`.
    let overflow = format!(r#"{{"secs":{},"nanos":1000000000}}"#, u64::MAX);
    assert!(serde_json::from_str::<Duration>(&overflow).is_err());
}
