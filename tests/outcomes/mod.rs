//! The pinned outcomes in `OUTCOMES.json` at the repository root: one
//! place for every pin, so moving one is a reviewed edit of that file.

/// The value `OUTCOMES.json` pins under `group`.`name`.
pub fn pinned(group: &str, name: &str) -> String {
    let outcomes: serde_json::Value =
        serde_json::from_str(include_str!("../../OUTCOMES.json")).expect("OUTCOMES.json parses");
    match &outcomes[group][name]["value"] {
        serde_json::Value::String(value) => value.clone(),
        other => panic!("OUTCOMES.json has no string at {group}.{name}.value: {other:?}"),
    }
}
