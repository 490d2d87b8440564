//! JSON in and out, over the repository's `serde_json` stand-in.

use crate::metrics::unit_of;
use serde::Value;

/// A JSON object from (key, value) pairs, in order.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(
        pairs
            .into_iter()
            .map(|(k, v)| (Value::Str(k.to_string()), v))
            .collect(),
    )
}

/// Field `key` of a JSON object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::I64(i) => Some(i as f64),
        Value::U64(u) => Some(u as f64),
        Value::F64(f) => Some(f),
        _ => None,
    }
}

/// Render as JSON text.
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value tree always renders")
}

/// Parse JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

/// The result line the acceptance driver reads: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value)| {
            let m = obj(vec![
                ("value", Value::F64(value)),
                ("unit", Value::Str(unit_of(name).to_string())),
            ]);
            (name, m)
        })
        .collect();
    render(&obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", obj(metrics)),
    ]))
}

/// The (name, value) pairs under `metrics` of a result line.
pub fn metrics_of(line: &Value) -> Vec<(String, f64)> {
    get(line, "metrics")
        .and_then(Value::as_map)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, m)| Some((k.as_str()?.to_string(), num(get(m, "value")?)?)))
        .collect()
}
