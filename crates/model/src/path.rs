use std::cell::RefCell;
use std::collections::HashMap; // keyed lookup only; `dbox audit` (DH0002) checks every iteration site
use std::fmt;
use std::sync::Arc;

use crate::json::{FromValue, JsonError, ToValue};
use crate::{ModelError, Result, Value};

/// A dotted path into a model's field tree, e.g. `power.status`.
///
/// Paths are the addressing scheme used by patches, schemas, scene
/// properties and the `dbox edit` command. Segments may not be empty; the
/// empty path (`Path::root()`) addresses the whole field tree.
///
/// Segments are held behind an `Arc`, so `Clone` is a refcount bump and
/// interned paths ([`Path::interned`]) share one allocation across every
/// handler invocation instead of re-splitting the literal per read/write.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    segments: Arc<[String]>,
}

// JSON: a plain array of segments, so traces and stored models keep their
// format.
impl ToValue for Path {
    fn to_value(&self) -> Value {
        self.segments[..].to_value()
    }
}

impl FromValue for Path {
    fn from_value(v: &Value) -> std::result::Result<Path, JsonError> {
        Ok(Path { segments: Vec::<String>::from_value(v)?.into() })
    }
}

/// Interned `(base, base.intent, base.status)` triple for one field literal.
#[derive(Clone)]
struct InternedField {
    base: Path,
    intent: Path,
    status: Path,
}

thread_local! {
    /// Field-literal intern table. Keys come from device/scene programs and
    /// schemas, a small closed set per process; the cap only guards against
    /// a pathological caller interning unbounded untrusted input.
    static FIELD_CACHE: RefCell<HashMap<Box<str>, InternedField>> =
        RefCell::new(HashMap::new());
}

const FIELD_CACHE_CAP: usize = 4096;

fn interned_field(s: &str) -> Result<InternedField> {
    FIELD_CACHE.with(|c| {
        if let Some(f) = c.borrow().get(s) {
            return Ok(f.clone());
        }
        let base = Path::parse(s)?;
        let f = InternedField {
            intent: base.child("intent"),
            status: base.child("status"),
            base,
        };
        let mut cache = c.borrow_mut();
        if cache.len() >= FIELD_CACHE_CAP {
            cache.clear();
        }
        cache.insert(s.into(), f.clone());
        Ok(f)
    })
}

impl Path {
    /// The root path (addresses the whole tree).
    pub fn root() -> Path {
        Path { segments: Vec::new().into() }
    }

    /// Parse a dotted path literal. Rejects empty segments (`a..b`).
    pub fn parse(s: &str) -> Result<Path> {
        if s.is_empty() {
            return Ok(Path::root());
        }
        let segments: Vec<String> = s.split('.').map(str::to_string).collect();
        if segments.iter().any(String::is_empty) {
            return Err(ModelError::BadPath(s.to_string()));
        }
        Ok(Path { segments: segments.into() })
    }

    /// Parse with interning: repeated calls with the same literal return
    /// clones of one shared parse (the hot path for handler field access).
    pub fn interned(s: &str) -> Result<Path> {
        Ok(interned_field(s)?.base)
    }

    /// Interned `<field>.intent` — pre-resolved once per literal.
    pub fn interned_intent(s: &str) -> Result<Path> {
        Ok(interned_field(s)?.intent)
    }

    /// Interned `<field>.status` — pre-resolved once per literal.
    pub fn interned_status(s: &str) -> Result<Path> {
        Ok(interned_field(s)?.status)
    }

    /// Build a path from pre-split segments.
    pub fn from_segments<I, S>(segs: I) -> Path
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Path { segments: segs.into_iter().map(Into::into).collect::<Vec<_>>().into() }
    }

    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    pub fn is_root(&self) -> bool {
        self.segments.is_empty()
    }

    pub fn len(&self) -> usize {
        self.segments.len()
    }

    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Append a segment, returning the extended path.
    pub fn child(&self, seg: &str) -> Path {
        let mut segments = Vec::with_capacity(self.segments.len() + 1);
        segments.extend(self.segments.iter().cloned());
        segments.push(seg.to_string());
        Path { segments: segments.into() }
    }

    /// The parent path and final segment, or `None` at the root.
    pub fn split_last(&self) -> Option<(Path, &str)> {
        let (last, rest) = self.segments.split_last()?;
        Some((Path { segments: rest.to_vec().into() }, last))
    }

    /// Whether `self` is a prefix of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.segments.len() >= self.segments.len()
            && self.segments.iter().zip(other.segments.iter()).all(|(a, b)| a == b)
    }

    /// Resolve this path against a value tree (read).
    pub fn get<'v>(&self, root: &'v Value) -> Result<&'v Value> {
        let mut cur = root;
        for (i, seg) in self.segments.iter().enumerate() {
            match cur {
                Value::Map(m) => {
                    cur = m.get(seg).ok_or_else(|| {
                        ModelError::MissingField(self.segments[..=i].join("."))
                    })?;
                }
                _ => return Err(ModelError::NotAContainer(self.segments[..i].join("."))),
            }
        }
        Ok(cur)
    }

    /// Resolve this path against a value tree (read, returns `None` on any
    /// missing step instead of an error).
    pub fn lookup<'v>(&self, root: &'v Value) -> Option<&'v Value> {
        let mut cur = root;
        for seg in self.segments.iter() {
            cur = cur.as_map()?.get(seg)?;
        }
        Some(cur)
    }

    /// Set the value at this path, creating intermediate maps as needed.
    /// Fails when the path traverses through an existing scalar.
    pub fn set(&self, root: &mut Value, value: Value) -> Result<()> {
        if self.is_root() {
            *root = value;
            return Ok(());
        }
        let mut cur = root;
        for (i, seg) in self.segments.iter().enumerate() {
            let last = i + 1 == self.segments.len();
            let map = match cur {
                Value::Map(m) => m,
                _ => return Err(ModelError::NotAContainer(self.segments[..i].join("."))),
            };
            if last {
                map.insert(seg.clone(), value);
                return Ok(());
            }
            cur = map.entry(seg.clone()).or_insert_with(Value::map);
        }
        unreachable!("non-root path always has a final segment")
    }

    /// Remove the value at this path. Returns the removed value, or an error
    /// if it does not exist.
    pub fn remove(&self, root: &mut Value) -> Result<Value> {
        let (parent, last) = self
            .split_last()
            .ok_or_else(|| ModelError::BadPath("cannot remove root".into()))?;
        let mut cur = root;
        for (i, seg) in parent.segments.iter().enumerate() {
            match cur {
                Value::Map(m) => {
                    cur = m.get_mut(seg).ok_or_else(|| {
                        ModelError::MissingField(parent.segments[..=i].join("."))
                    })?;
                }
                _ => return Err(ModelError::NotAContainer(parent.segments[..i].join("."))),
            }
        }
        match cur {
            Value::Map(m) => m
                .remove(last)
                .ok_or_else(|| ModelError::MissingField(self.to_string())),
            _ => Err(ModelError::NotAContainer(parent.to_string())),
        }
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.segments.join("."))
    }
}

impl From<&str> for Path {
    /// Panicking conversion for path literals in code; use [`Path::parse`]
    /// for untrusted input.
    fn from(s: &str) -> Path {
        Path::parse(s).expect("invalid path literal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    #[test]
    fn parse_and_display() {
        let p = Path::parse("power.status").unwrap();
        assert_eq!(p.segments(), ["power", "status"]);
        assert_eq!(p.to_string(), "power.status");
        assert!(Path::parse("a..b").is_err());
        assert!(Path::parse("").unwrap().is_root());
    }

    #[test]
    fn get_set_remove() {
        let mut v = vmap! { "power" => vmap! { "status" => "on" } };
        let p = Path::from("power.status");
        assert_eq!(p.get(&v).unwrap().as_str(), Some("on"));
        p.set(&mut v, Value::from("off")).unwrap();
        assert_eq!(p.get(&v).unwrap().as_str(), Some("off"));
        let removed = p.remove(&mut v).unwrap();
        assert_eq!(removed.as_str(), Some("off"));
        assert!(p.get(&v).is_err());
    }

    #[test]
    fn set_creates_intermediates() {
        let mut v = Value::map();
        Path::from("a.b.c").set(&mut v, Value::Int(1)).unwrap();
        assert_eq!(Path::from("a.b.c").get(&v).unwrap(), &Value::Int(1));
    }

    #[test]
    fn set_through_scalar_fails() {
        let mut v = vmap! { "a" => 1 };
        assert!(Path::from("a.b").set(&mut v, Value::Int(2)).is_err());
    }

    #[test]
    fn prefix_relation() {
        let a = Path::from("a.b");
        let b = Path::from("a.b.c");
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(Path::root().is_prefix_of(&a));
    }

    #[test]
    fn interned_paths_share_one_parse() {
        let a = Path::interned("power.status").unwrap();
        let b = Path::interned("power.status").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.segments(), ["power", "status"]);
        assert_eq!(
            Path::interned_intent("power").unwrap(),
            Path::from("power.intent")
        );
        assert_eq!(
            Path::interned_status("power").unwrap(),
            Path::from("power.status")
        );
        assert!(Path::interned("a..b").is_err());
    }

    #[test]
    fn json_format_is_a_plain_array() {
        let p = Path::from("a.b.c");
        let json = crate::json::encode(&p);
        assert_eq!(json, r#"["a","b","c"]"#);
        let back: Path = crate::json::decode(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn lookup_vs_get() {
        let v = vmap! { "a" => 1 };
        assert!(Path::from("b").lookup(&v).is_none());
        assert!(Path::from("b").get(&v).is_err());
        assert_eq!(Path::from("a").lookup(&v), Some(&Value::Int(1)));
    }
}
