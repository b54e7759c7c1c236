//! Lint diagnostics: stable codes, severities, structured spans, and the
//! report with pretty-terminal and JSON rendering.
//!
//! Codes are append-only: a code, once shipped, never changes meaning, so
//! suppressions (`lint_allow` params, `--allow`) stay valid across
//! versions.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use digibox_model::json::ToValue;
use digibox_model::{vmap, Value};

/// How serious a finding is. Errors make `dbox lint` exit non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing, usually fine (e.g. an attachment the scene ignores).
    Info,
    /// Probably a mistake, but the ensemble still runs meaningfully.
    Warning,
    /// The ensemble is broken or will misbehave at run time.
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The stable lint codes (`DL` = digibox lint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// DL0001 — a scene writes a child field the child's own (unmanaged)
    /// event generator also writes.
    WriteConflict,
    /// DL0002 — an attachment the parent scene neither reads nor writes.
    InertAttachment,
    /// DL0003 — a handler write targets a path absent from the target's
    /// schema.
    WriteOutsideSchema,
    /// DL0004 — a digi name that breaks the MQTT topic conventions.
    TopicUnsafeName,
    /// DL0005 — an instance references a program kind the catalog doesn't
    /// have.
    UnknownKind,
    /// DL0006 — the attachment graph has a cycle.
    AttachCycle,
    /// DL0007 — an attachment references an undeclared instance.
    DanglingAttach,
    /// DL0008 — two instances share a name.
    DuplicateName,
    /// DL0009 — an attachment parent that is not a scene.
    ParentNotScene,
    /// DL0010 — a child attached to more than one parent.
    MultipleParents,
    /// DL0011 — a property condition references a digi not in the setup.
    UnknownPropertyDigi,
    /// DL0012 — a property condition path absent from the digi's schema
    /// (the condition can never hold).
    VacuousCondition,
    /// DL0013 — a property's condition conjunction is unsatisfiable.
    ContradictoryConditions,
    /// DL0014 — a `leads_to` conclusion no handler can ever make true.
    UnreachableConclusion,
}

impl LintCode {
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::WriteConflict => "DL0001",
            LintCode::InertAttachment => "DL0002",
            LintCode::WriteOutsideSchema => "DL0003",
            LintCode::TopicUnsafeName => "DL0004",
            LintCode::UnknownKind => "DL0005",
            LintCode::AttachCycle => "DL0006",
            LintCode::DanglingAttach => "DL0007",
            LintCode::DuplicateName => "DL0008",
            LintCode::ParentNotScene => "DL0009",
            LintCode::MultipleParents => "DL0010",
            LintCode::UnknownPropertyDigi => "DL0011",
            LintCode::VacuousCondition => "DL0012",
            LintCode::ContradictoryConditions => "DL0013",
            LintCode::UnreachableConclusion => "DL0014",
        }
    }

    /// The fixed severity of findings with this code.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::WriteConflict
            | LintCode::TopicUnsafeName
            | LintCode::UnknownKind
            | LintCode::AttachCycle
            | LintCode::DanglingAttach
            | LintCode::DuplicateName
            | LintCode::ParentNotScene
            | LintCode::MultipleParents => Severity::Error,
            LintCode::WriteOutsideSchema
            | LintCode::UnknownPropertyDigi
            | LintCode::VacuousCondition
            | LintCode::ContradictoryConditions
            | LintCode::UnreachableConclusion => Severity::Warning,
            LintCode::InertAttachment => Severity::Info,
        }
    }

    /// Short human title (the lint-codes table in DESIGN.md).
    pub fn title(self) -> &'static str {
        match self {
            LintCode::WriteConflict => "write-write conflict",
            LintCode::InertAttachment => "inert attachment",
            LintCode::WriteOutsideSchema => "write outside schema",
            LintCode::TopicUnsafeName => "topic-unsafe digi name",
            LintCode::UnknownKind => "unknown program kind",
            LintCode::AttachCycle => "attachment cycle",
            LintCode::DanglingAttach => "dangling attachment",
            LintCode::DuplicateName => "duplicate digi name",
            LintCode::ParentNotScene => "attachment parent is not a scene",
            LintCode::MultipleParents => "multiple parents",
            LintCode::UnknownPropertyDigi => "property references unknown digi",
            LintCode::VacuousCondition => "vacuous property condition",
            LintCode::ContradictoryConditions => "contradictory property conditions",
            LintCode::UnreachableConclusion => "unreachable leads_to conclusion",
        }
    }

    pub fn all() -> [LintCode; 14] {
        [
            LintCode::WriteConflict,
            LintCode::InertAttachment,
            LintCode::WriteOutsideSchema,
            LintCode::TopicUnsafeName,
            LintCode::UnknownKind,
            LintCode::AttachCycle,
            LintCode::DanglingAttach,
            LintCode::DuplicateName,
            LintCode::ParentNotScene,
            LintCode::MultipleParents,
            LintCode::UnknownPropertyDigi,
            LintCode::VacuousCondition,
            LintCode::ContradictoryConditions,
            LintCode::UnreachableConclusion,
        ]
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a finding points: any combination of digi, handler, model path,
/// topic, and property name.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    pub digi: Option<String>,
    pub handler: Option<String>,
    pub path: Option<String>,
    pub topic: Option<String>,
    pub property: Option<String>,
}

impl Span {
    pub fn at_digi(name: &str) -> Span {
        Span { digi: Some(name.to_string()), ..Span::default() }
    }

    pub fn at_property(name: &str) -> Span {
        Span { property: Some(name.to_string()), ..Span::default() }
    }

    pub fn handler(mut self, handler: &str) -> Span {
        self.handler = Some(handler.to_string());
        self
    }

    pub fn path(mut self, path: &str) -> Span {
        self.path = Some(path.to_string());
        self
    }

    pub fn topic(mut self, topic: &str) -> Span {
        self.topic = Some(topic.to_string());
        self
    }

    pub fn digi(mut self, name: &str) -> Span {
        self.digi = Some(name.to_string());
        self
    }

    /// `L1/on_model power.status` — compact location prefix for the pretty
    /// renderer; empty when the span is empty.
    fn render(&self) -> String {
        let mut out = String::new();
        if let Some(d) = &self.digi {
            out.push_str(d);
        }
        if let Some(h) = &self.handler {
            if !out.is_empty() {
                out.push('/');
            }
            out.push_str(h);
        }
        if let Some(p) = &self.property {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str("property ");
            out.push_str(p);
        }
        if let Some(p) = &self.path {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(p);
        }
        if let Some(t) = &self.topic {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(t);
        }
        out
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: LintCode,
    pub severity: Severity,
    pub span: Span,
    pub message: String,
}

/// The collected findings of a lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Findings dropped by `lint_allow` params or `--allow`.
    pub suppressed: usize,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn push(&mut self, code: LintCode, span: Span, message: String) {
        self.diagnostics.push(Diagnostic { code, severity: code.severity(), span, message });
    }

    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == sev).count()
    }

    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Drop findings covered by the global `--allow` set or the per-digi
    /// `lint_allow` params, then order what remains (most severe first,
    /// then by code and span) for stable output.
    pub fn finish(
        &mut self,
        allow: &BTreeSet<String>,
        per_digi: &BTreeMap<String, BTreeSet<String>>,
    ) {
        let before = self.diagnostics.len();
        self.diagnostics.retain(|d| {
            let code = d.code.as_str();
            if allow.contains(code) {
                return false;
            }
            match &d.span.digi {
                Some(digi) => !per_digi.get(digi).is_some_and(|set| set.contains(code)),
                None => true,
            }
        });
        self.suppressed += before - self.diagnostics.len();
        self.diagnostics.sort_by(|a, b| {
            (b.severity, a.code, &a.span, &a.message).cmp(&(a.severity, b.code, &b.span, &b.message))
        });
    }

    /// Terminal rendering: one line per finding plus a summary.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let loc = d.span.render();
            if loc.is_empty() {
                out.push_str(&format!("{} {}: {}\n", d.code, d.severity.as_str(), d.message));
            } else {
                out.push_str(&format!(
                    "{} {} [{}]: {}\n",
                    d.code,
                    d.severity.as_str(),
                    loc,
                    d.message
                ));
            }
        }
        out.push_str(&format!(
            "lint: {} error(s), {} warning(s), {} note(s)",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        if self.suppressed > 0 {
            out.push_str(&format!(", {} suppressed", self.suppressed));
        }
        out.push('\n');
        out
    }
}

/// A finding's span fields sit inline beside its code, severity and
/// message; an absent one is `null`.
impl ToValue for Diagnostic {
    fn to_value(&self) -> Value {
        vmap! {
            "code" => self.code.as_str(),
            "severity" => self.severity.as_str(),
            "message" => self.message.to_value(),
            "digi" => self.span.digi.to_value(),
            "handler" => self.span.handler.to_value(),
            "path" => self.span.path.to_value(),
            "topic" => self.span.topic.to_value(),
            "property" => self.span.property.to_value(),
        }
    }
}

/// The findings in [`Report::finish`] order, then the error, warning,
/// info and suppressed counts.
impl ToValue for Report {
    fn to_value(&self) -> Value {
        vmap! {
            "findings" => self.diagnostics.to_value(),
            "errors" => self.errors(),
            "warnings" => self.warnings(),
            "infos" => self.infos(),
            "suppressed" => self.suppressed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(
            LintCode::InertAttachment,
            Span::at_digi("L1").topic("digibox/digi/L1/set"),
            "attachment to MeetingRoom is inert".into(),
        );
        r.push(
            LintCode::WriteConflict,
            Span::at_digi("T1").handler("on_loop").path("temp_c"),
            "scene MeetingRoom also writes temp_c".into(),
        );
        r
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = LintCode::all().iter().map(|c| c.as_str()).collect();
        let set: BTreeSet<&str> = codes.iter().copied().collect();
        assert_eq!(set.len(), codes.len(), "codes must be unique");
        assert_eq!(codes[0], "DL0001");
        assert_eq!(codes[13], "DL0014");
        for c in LintCode::all() {
            assert!(c.as_str().starts_with("DL0"));
            assert!(!c.title().is_empty());
        }
    }

    #[test]
    fn finish_sorts_errors_first() {
        let mut r = sample();
        r.finish(&BTreeSet::new(), &BTreeMap::new());
        assert_eq!(r.diagnostics[0].code, LintCode::WriteConflict);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.infos(), 1);
        assert!(r.has_errors());
    }

    #[test]
    fn global_and_per_digi_suppression() {
        let mut r = sample();
        let allow: BTreeSet<String> = ["DL0001".to_string()].into();
        r.finish(&allow, &BTreeMap::new());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.suppressed, 1);

        let mut r = sample();
        let per: BTreeMap<String, BTreeSet<String>> =
            [("L1".to_string(), ["DL0002".to_string()].into())].into();
        r.finish(&BTreeSet::new(), &per);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].span.digi.as_deref(), Some("T1"));
        assert_eq!(r.suppressed, 1);
        // per-digi allows don't leak to other digis
        let mut r = sample();
        let per: BTreeMap<String, BTreeSet<String>> =
            [("T1".to_string(), ["DL0002".to_string()].into())].into();
        r.finish(&BTreeSet::new(), &per);
        assert_eq!(r.diagnostics.len(), 2);
    }

    #[test]
    fn pretty_rendering_mentions_code_and_span() {
        let mut r = sample();
        r.finish(&BTreeSet::new(), &BTreeMap::new());
        let text = r.render_pretty();
        assert!(text.contains("DL0001 error [T1/on_loop temp_c]"), "{text}");
        assert!(text.contains("1 error(s), 0 warning(s), 1 note(s)"), "{text}");
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report::new();
        r.push(LintCode::DuplicateName, Span::at_digi("a\"b"), "line\nbreak \\ \"q\"".into());
        r.finish(&BTreeSet::new(), &BTreeMap::new());
        let json = digibox_model::json::encode(&r);
        assert_eq!(
            json,
            "{\"errors\":1,\"findings\":[{\"code\":\"DL0008\",\"digi\":\"a\\\"b\",\
             \"handler\":null,\"message\":\"line\\nbreak \\\\ \\\"q\\\"\",\"path\":null,\
             \"property\":null,\"severity\":\"error\",\"topic\":null}],\"infos\":0,\
             \"suppressed\":0,\"warnings\":0}"
        );
        assert_eq!(Value::from_json(&json).unwrap(), r.to_value());
    }
}
