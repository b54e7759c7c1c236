//! # digibox-model
//!
//! The model layer of Digibox. A *model* is the declarative document that
//! describes a mockup device (mock) or a scene controller (scene): a tree of
//! key-value pairs holding the current `status` of the digi, the desired
//! `intent`, and a `meta` block with identity and simulation parameters
//! (paper, Fig. 3).
//!
//! This crate provides:
//!
//! * [`Value`] — the dynamically-typed value tree (null/bool/int/float/
//!   string/list/map) used everywhere in Digibox.
//! * [`Path`] — dotted field paths such as `power.status`.
//! * [`Model`] — the model document: a [`Meta`] block plus a field tree, with
//!   intent/status pair conventions and a revision bumped on every mutation.
//! * [`Patch`]/[`diff`] — structural diffs between models, applied as patches
//!   (the unit that the scene controllers, the logger and the replay engine
//!   all operate on).
//! * [`Schema`] — typed field declarations with validation, so mock and scene
//!   authors can declare which fields a model carries (paper §3.2).
//! * [`json`] — the canonical JSON codec: compact and pretty writers, a
//!   parser, and the [`ToValue`]/[`FromValue`] traits for persisted types.
//! * [`dml`] — the *Digibox Model Language*: the YAML-like subset used for
//!   shareable model/config files, with a hand-written parser and printer.

pub mod dml;
mod error;
mod infer;
pub mod json;
mod meta;
mod model;
mod patch;
mod path;
mod schema;
mod value;

pub use error::ModelError;
pub use infer::infer_schema;
pub use json::{FromValue, JsonError, ToValue};
pub use meta::Meta;
pub use model::{Model, PairField};
pub use patch::{diff, Patch, PatchOp};
pub use path::Path;
pub use schema::{FieldKind, FieldSpec, Schema};
pub use value::Value;

/// Convenience result alias for model-layer operations.
pub type Result<T> = std::result::Result<T, ModelError>;
