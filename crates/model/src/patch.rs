use crate::json::{self, FromValue, JsonError, ToValue};
use crate::{vmap, Model, Path, Result, Value};

/// One primitive patch operation.
/// JSON: an object tagged by `op` (`set`/`remove`).
#[derive(Debug, Clone, PartialEq)]
pub enum PatchOp {
    /// Set (create or replace) the value at `path`.
    Set { path: Path, value: Value },
    /// Remove the value at `path`.
    Remove { path: Path },
}

impl PatchOp {
    pub fn path(&self) -> &Path {
        match self {
            PatchOp::Set { path, .. } | PatchOp::Remove { path } => path,
        }
    }
}

impl ToValue for PatchOp {
    fn to_value(&self) -> Value {
        match self {
            PatchOp::Set { path, value } => vmap! {
                "op" => "set",
                "path" => path.to_value(),
                "value" => value.clone(),
            },
            PatchOp::Remove { path } => {
                vmap! { "op" => "remove", "path" => path.to_value() }
            }
        }
    }
}

impl FromValue for PatchOp {
    fn from_value(v: &Value) -> std::result::Result<PatchOp, JsonError> {
        match json::field::<String>(v, "op")?.as_str() {
            "set" => {
                Ok(PatchOp::Set { path: json::field(v, "path")?, value: json::field(v, "value")? })
            }
            "remove" => Ok(PatchOp::Remove { path: json::field(v, "path")? }),
            other => Err(json::unknown_variant(other)),
        }
    }
}

/// A structural diff between two field trees, expressed as a list of ops on
/// scalar leaves. Patches are what scene controllers emit, what the logger
/// records as `ModelChange`, and what replay re-applies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Patch {
    pub ops: Vec<PatchOp>,
}

impl ToValue for Patch {
    fn to_value(&self) -> Value {
        vmap! { "ops" => self.ops.to_value() }
    }
}

impl FromValue for Patch {
    fn from_value(v: &Value) -> std::result::Result<Patch, JsonError> {
        Ok(Patch { ops: json::field(v, "ops")? })
    }
}

impl Patch {
    pub fn new() -> Patch {
        Patch::default()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn set(mut self, path: impl Into<Path>, value: impl Into<Value>) -> Patch {
        self.ops.push(PatchOp::Set { path: path.into(), value: value.into() });
        self
    }

    pub fn remove(mut self, path: impl Into<Path>) -> Patch {
        self.ops.push(PatchOp::Remove { path: path.into() });
        self
    }

    /// Apply every op to `model` in order. On error, earlier ops stay
    /// applied; callers that need atomicity apply to a clone.
    pub fn apply(&self, model: &mut Model) -> Result<()> {
        for op in &self.ops {
            match op {
                PatchOp::Set { path, value } => model.set(path, value.clone())?,
                PatchOp::Remove { path } => {
                    model.remove(path)?;
                }
            }
        }
        Ok(())
    }

    /// Apply to a bare value tree (used by replay on snapshots).
    pub fn apply_to_value(&self, root: &mut Value) -> Result<()> {
        for op in &self.ops {
            match op {
                PatchOp::Set { path, value } => path.set(root, value.clone())?,
                PatchOp::Remove { path } => {
                    path.remove(root)?;
                }
            }
        }
        Ok(())
    }
}

/// Compute the patch that transforms field tree `from` into `to`.
///
/// The diff is leaf-granular: changed or added scalar leaves become `Set`
/// ops; leaves present in `from` but absent in `to` become `Remove` ops.
/// Whole subtrees that appear/disappear are handled leaf by leaf (and a
/// `Remove` for the subtree root when it disappears entirely).
pub fn diff(from: &Value, to: &Value) -> Patch {
    let mut patch = Patch::new();
    diff_rec(&Path::root(), from, to, &mut patch);
    patch
}

fn diff_rec(prefix: &Path, from: &Value, to: &Value, patch: &mut Patch) {
    match (from, to) {
        (Value::Map(fm), Value::Map(tm)) => {
            for (k, fv) in fm {
                match tm.get(k) {
                    Some(tv) => diff_rec(&prefix.child(k), fv, tv, patch),
                    None => patch.ops.push(PatchOp::Remove { path: prefix.child(k) }),
                }
            }
            for (k, tv) in tm {
                if !fm.contains_key(k) {
                    patch.ops.push(PatchOp::Set { path: prefix.child(k), value: tv.clone() });
                }
            }
        }
        (f, t) => {
            if f != t {
                patch.ops.push(PatchOp::Set { path: prefix.clone(), value: t.clone() });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vmap, Meta};

    #[test]
    fn diff_then_apply_converges() {
        let from = vmap! {
            "power" => vmap! { "intent" => "on", "status" => "off" },
            "legacy" => 1,
        };
        let to = vmap! {
            "power" => vmap! { "intent" => "on", "status" => "on" },
            "brightness" => 0.5,
        };
        let p = diff(&from, &to);
        let mut v = from.clone();
        p.apply_to_value(&mut v).unwrap();
        assert_eq!(v, to);
    }

    #[test]
    fn diff_of_identical_is_empty() {
        let v = vmap! { "a" => vmap! { "b" => 1 } };
        assert!(diff(&v, &v).is_empty());
    }

    #[test]
    fn scalar_to_map_replacement() {
        let from = vmap! { "x" => 1 };
        let to = vmap! { "x" => vmap! { "y" => 2 } };
        let p = diff(&from, &to);
        let mut v = from.clone();
        p.apply_to_value(&mut v).unwrap();
        assert_eq!(v, to);
    }

    #[test]
    fn apply_to_model_bumps_revision() {
        let mut m = Model::with_fields(Meta::new("Fan", "v1", "F1"), vmap! { "speed" => 1 });
        let r0 = m.revision();
        Patch::new().set("speed", 3).apply(&mut m).unwrap();
        assert!(m.revision() > r0);
        assert_eq!(m.get(&Path::from("speed")).unwrap(), &Value::Int(3));
    }

    #[test]
    fn remove_missing_errors() {
        let mut m = Model::new(Meta::new("Fan", "v1", "F1"));
        assert!(Patch::new().remove("nope").apply(&mut m).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let p = Patch::new().set("a.b", 1).remove("c");
        let json = json::encode(&p);
        assert_eq!(
            json,
            r#"{"ops":[{"op":"set","path":["a","b"],"value":1},{"op":"remove","path":["c"]}]}"#
        );
        let back: Patch = json::decode(&json).unwrap();
        assert_eq!(p, back);
        assert!(json::decode::<Patch>(r#"{"ops":[{"op":"move","path":[]}]}"#).is_err());
    }
}
