use std::fmt;

/// Errors produced by the model layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A path referenced a field that does not exist.
    MissingField(String),
    /// A value had a different type than the operation required.
    TypeMismatch { path: String, expected: &'static str, found: &'static str },
    /// A path tried to traverse through a scalar.
    NotAContainer(String),
    /// Schema validation failed.
    SchemaViolation { path: String, reason: String },
    /// A DML document could not be parsed.
    Parse { line: usize, reason: String },
    /// An invalid path literal (empty segment etc.).
    BadPath(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::MissingField(p) => write!(f, "missing field: {p}"),
            ModelError::TypeMismatch { path, expected, found } => {
                write!(f, "type mismatch at {path}: expected {expected}, found {found}")
            }
            ModelError::NotAContainer(p) => write!(f, "cannot traverse into scalar at {p}"),
            ModelError::SchemaViolation { path, reason } => {
                write!(f, "schema violation at {path}: {reason}")
            }
            ModelError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
            ModelError::BadPath(p) => write!(f, "bad path: {p:?}"),
        }
    }
}

impl std::error::Error for ModelError {}
