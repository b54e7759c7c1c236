use crate::json::{self, FromValue, JsonError, ToValue};
use crate::{vmap, Meta, ModelError, Path, Result, Value};

/// A model document: the declarative state of one mock or scene.
///
/// Consists of a [`Meta`] block and a field tree (always a map at the root).
/// Fields follow two conventions (paper, Fig. 3):
///
/// * plain fields — e.g. `triggered: true`;
/// * *pair fields* — a map with `intent` (what the user/app wants) and
///   `status` (what the simulated device reports), e.g.
///   `power: { intent: "on", status: "off" }`.
///
/// Every mutation bumps `revision`. A digi cell compares revisions to tell
/// whether its `on_model` handler changed the model and to skip publishing
/// an unchanged one; checkpoints record the revision they snapshot.
///
/// JSON: `{"fields": .., "meta": .., "revision": ..}`; `revision` defaults
/// to 0 when absent.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    pub meta: Meta,
    /// Root of the field tree; invariant: always `Value::Map`.
    fields: Value,
    /// Monotonic revision; bumped on every mutation.
    revision: u64,
}

impl ToValue for Model {
    fn to_value(&self) -> Value {
        vmap! {
            "fields" => self.fields.clone(),
            "meta" => self.meta.to_value(),
            "revision" => self.revision.to_value(),
        }
    }
}

impl FromValue for Model {
    fn from_value(v: &Value) -> std::result::Result<Model, JsonError> {
        let fields: Value = json::field(v, "fields")?;
        if fields.as_map().is_none() {
            return Err(JsonError::new("field `fields`: model fields must be an object"));
        }
        Ok(Model {
            meta: json::field(v, "meta")?,
            fields,
            revision: json::field_or_default(v, "revision")?,
        })
    }
}

/// Borrowed view of an intent/status pair field.
#[derive(Debug, Clone, PartialEq)]
pub struct PairField {
    pub intent: Value,
    pub status: Value,
}

impl Model {
    /// Create an empty model for the given meta block.
    pub fn new(meta: Meta) -> Model {
        Model { meta, fields: Value::map(), revision: 0 }
    }

    /// Create a model with initial fields. Panics if `fields` is not a map
    /// (a programming error in device libraries, not runtime input).
    pub fn with_fields(meta: Meta, fields: Value) -> Model {
        assert!(fields.as_map().is_some(), "model fields must be a map");
        Model { meta, fields, revision: 0 }
    }

    pub fn revision(&self) -> u64 {
        self.revision
    }

    pub fn fields(&self) -> &Value {
        &self.fields
    }

    /// Replace the whole field tree (used by replay).
    pub fn set_fields(&mut self, fields: Value) -> Result<()> {
        if fields.as_map().is_none() {
            return Err(ModelError::TypeMismatch {
                path: String::new(),
                expected: "map",
                found: fields.type_name(),
            });
        }
        self.fields = fields;
        self.revision += 1;
        Ok(())
    }

    /// Read the value at `path`.
    pub fn get(&self, path: &Path) -> Result<&Value> {
        path.get(&self.fields)
    }

    /// Read the value at `path`, `None` when missing.
    pub fn lookup(&self, path: &Path) -> Option<&Value> {
        path.lookup(&self.fields)
    }

    /// Write `value` at `path`, creating intermediate maps; bumps revision.
    pub fn set(&mut self, path: &Path, value: impl Into<Value>) -> Result<()> {
        path.set(&mut self.fields, value.into())?;
        self.revision += 1;
        Ok(())
    }

    /// Remove the field at `path`; bumps revision.
    pub fn remove(&mut self, path: &Path) -> Result<Value> {
        let v = path.remove(&mut self.fields)?;
        self.revision += 1;
        Ok(v)
    }

    /// Shallow-merge a map of updates into the root, like the paper's
    /// `dbox.model.update({...})`.
    pub fn update(&mut self, updates: Value) -> Result<()> {
        let map = updates.as_map().ok_or(ModelError::TypeMismatch {
            path: String::new(),
            expected: "map",
            found: "scalar",
        })?;
        // Shallow merge targets root-level keys only, so insert directly
        // into the root map instead of routing each key through Path::set.
        let fields = self.fields.as_map_mut().expect("model fields are always a map");
        for (k, v) in map {
            fields.insert(k.clone(), v.clone());
        }
        self.revision += 1;
        Ok(())
    }

    /// Read a pair field (`{intent, status}`) at `path`.
    pub fn pair(&self, path: &Path) -> Result<PairField> {
        let v = self.get(path)?;
        let m = v.as_map().ok_or_else(|| ModelError::TypeMismatch {
            path: path.to_string(),
            expected: "pair map",
            found: v.type_name(),
        })?;
        match (m.get("intent"), m.get("status")) {
            (Some(i), Some(s)) => Ok(PairField { intent: i.clone(), status: s.clone() }),
            _ => Err(ModelError::SchemaViolation {
                path: path.to_string(),
                reason: "pair field requires both `intent` and `status`".into(),
            }),
        }
    }

    /// Set the `intent` half of a pair field (what `dbox edit` does).
    pub fn set_intent(&mut self, path: &Path, value: impl Into<Value>) -> Result<()> {
        self.set(&path.child("intent"), value)
    }

    /// Set the `status` half of a pair field (what simulators do).
    pub fn set_status(&mut self, path: &Path, value: impl Into<Value>) -> Result<()> {
        self.set(&path.child("status"), value)
    }

    /// Convenience: read `path.status`.
    pub fn status(&self, path: &Path) -> Result<&Value> {
        self.get(&path.child("status"))
    }

    /// Convenience: read `path.intent`.
    pub fn intent(&self, path: &Path) -> Result<&Value> {
        self.get(&path.child("intent"))
    }

    /// Iterate `(path, value)` over all scalar leaves, in sorted order.
    pub fn leaves(&self) -> Vec<(Path, Value)> {
        let mut out = Vec::new();
        collect_leaves(&Path::root(), &self.fields, &mut out);
        out
    }

    /// A stable one-line summary used by `dbox check`.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} ({} {}, rev {}): {}",
            self.meta.kind, self.meta.name, self.meta.kind, self.meta.version, self.revision, self.fields
        )
    }
}

fn collect_leaves(prefix: &Path, v: &Value, out: &mut Vec<(Path, Value)>) {
    match v {
        Value::Map(m) => {
            for (k, child) in m {
                collect_leaves(&prefix.child(k), child, out);
            }
        }
        other => out.push((prefix.clone(), other.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    fn lamp() -> Model {
        Model::with_fields(
            Meta::new("Lamp", "v1", "L1"),
            vmap! {
                "power" => vmap! { "intent" => "on", "status" => "off" },
                "intensity" => vmap! { "intent" => 0.2, "status" => 0.4 },
            },
        )
    }

    #[test]
    fn pair_roundtrip() {
        let mut m = lamp();
        let p = Path::from("power");
        let pair = m.pair(&p).unwrap();
        assert_eq!(pair.intent.as_str(), Some("on"));
        assert_eq!(pair.status.as_str(), Some("off"));
        m.set_status(&p, "on").unwrap();
        assert_eq!(m.status(&p).unwrap().as_str(), Some("on"));
    }

    #[test]
    fn revision_bumps_on_mutation() {
        let mut m = lamp();
        let r0 = m.revision();
        m.set(&Path::from("power.status"), "on").unwrap();
        assert_eq!(m.revision(), r0 + 1);
        m.update(vmap! { "triggered" => true }).unwrap();
        assert_eq!(m.revision(), r0 + 2);
        m.remove(&Path::from("triggered")).unwrap();
        assert_eq!(m.revision(), r0 + 3);
    }

    #[test]
    fn update_is_shallow_merge() {
        let mut m = lamp();
        m.update(vmap! { "triggered" => true }).unwrap();
        assert_eq!(m.get(&Path::from("triggered")).unwrap(), &Value::Bool(true));
        // existing fields survive
        assert!(m.get(&Path::from("power.intent")).is_ok());
    }

    #[test]
    fn pair_missing_half_is_violation() {
        let m = Model::with_fields(
            Meta::new("Lamp", "v1", "L2"),
            vmap! { "power" => vmap! { "intent" => "on" } },
        );
        assert!(matches!(
            m.pair(&Path::from("power")),
            Err(ModelError::SchemaViolation { .. })
        ));
    }

    #[test]
    fn leaves_enumerates_scalars() {
        let m = lamp();
        let leaves = m.leaves();
        let paths: Vec<String> = leaves.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(
            paths,
            ["intensity.intent", "intensity.status", "power.intent", "power.status"]
        );
    }

    #[test]
    fn json_roundtrip_preserves_revision() {
        let mut m = lamp();
        m.set(&Path::from("power.status"), "on").unwrap();
        let json = json::encode(&m);
        assert_eq!(
            json,
            concat!(
                r#"{"fields":{"intensity":{"intent":0.2,"status":0.4},"power":{"intent":"on","status":"on"}},"#,
                r#""meta":{"managed":false,"name":"L1","type":"Lamp","version":"v1"},"revision":1}"#
            )
        );
        let back: Model = json::decode(&json).unwrap();
        assert_eq!(m, back);
        // `revision` defaults; `fields` must be an object
        let meta = r#""meta":{"type":"Lamp","version":"v1","name":"L1"}"#;
        let bare: Model = json::decode(format!(r#"{{"fields":{{}},{meta}}}"#)).unwrap();
        assert_eq!(bare.revision(), 0);
        assert!(json::decode::<Model>(format!(r#"{{"fields":[],{meta}}}"#)).is_err());
    }
}
