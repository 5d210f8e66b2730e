//! The pinned outcomes in `OUTCOMES.json` at the repository root: one
//! place for every pin, so moving one is a reviewed edit of that file.

/// The value `OUTCOMES.json` pins under `group`.`name`: a digest, or a
/// count rendered in decimal.
pub fn pinned(group: &str, name: &str) -> String {
    let outcomes: serde_json::Value =
        serde_json::from_str(include_str!("../../OUTCOMES.json")).expect("OUTCOMES.json parses");
    match &outcomes[group][name]["value"] {
        serde_json::Value::String(value) => value.clone(),
        serde_json::Value::U64(count) => count.to_string(),
        other => panic!("OUTCOMES.json has no string or count at {group}.{name}.value: {other:?}"),
    }
}
