//! Audit diagnostics: stable `DH` (digibox hazard) codes, file/line/col
//! spans, and the report with pretty-terminal and canonical-JSON output.
//!
//! Same conventions as the `DL` lint codes in [`crate::diag`]: codes are
//! append-only and never change meaning, so `--allow` lists and
//! `// det-ok(DHxxxx)` suppressions stay valid across versions.

use std::collections::BTreeSet;
use std::fmt;

use digibox_model::json::ToValue;
use digibox_model::{vmap, Value};

pub use crate::diag::Severity;

/// The stable hazard codes (`DH` = digibox hazard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HazardCode {
    /// DH0001 — a banned wall-clock/entropy API in simulation code
    /// (`SystemTime::now`, `Instant::now`, `thread_rng`, `rand::random`,
    /// `RandomState`).
    BannedTimeOrEntropy,
    /// DH0002 — iteration over a `HashMap`/`HashSet` in hash order, with
    /// no trailing sort, BTree re-collection, or order-independent
    /// reduction.
    HashOrderIteration,
    /// DH0003 — `std::thread` use outside the sanctioned parallel engines
    /// (`core::sweep` workers, `core::islands` space-parallel engine).
    ThreadOutsideSweep,
    /// DH0004 — pointer identity leaking into observable output (`{:p}`
    /// format specifier, `as *const … as usize` casts).
    PointerIdentityLeak,
    /// DH0005 — floating-point accumulation over a hash-ordered source
    /// (float addition is not associative, so the sum depends on hash
    /// order).
    FloatAccumulation,
    /// DH0090 — a `// det-ok(DHxxxx)` suppression that matches no finding
    /// (the hazard it excused is gone; the annotation must go too).
    StaleSuppression,
    /// DH0091 — a malformed or legacy determinism annotation (bare
    /// `// det-ok:` without a code, unknown code, or missing reason).
    MalformedSuppression,
}

impl HazardCode {
    pub fn as_str(self) -> &'static str {
        match self {
            HazardCode::BannedTimeOrEntropy => "DH0001",
            HazardCode::HashOrderIteration => "DH0002",
            HazardCode::ThreadOutsideSweep => "DH0003",
            HazardCode::PointerIdentityLeak => "DH0004",
            HazardCode::FloatAccumulation => "DH0005",
            HazardCode::StaleSuppression => "DH0090",
            HazardCode::MalformedSuppression => "DH0091",
        }
    }

    /// The fixed severity of findings with this code. Everything is an
    /// error except DH0005, whose float-flow analysis is heuristic.
    pub fn severity(self) -> Severity {
        match self {
            HazardCode::FloatAccumulation => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Short human title (the hazard-codes table in DESIGN.md §13).
    pub fn title(self) -> &'static str {
        match self {
            HazardCode::BannedTimeOrEntropy => "banned time/entropy API",
            HazardCode::HashOrderIteration => "hash-order iteration",
            HazardCode::ThreadOutsideSweep => "thread spawn outside sanctioned engines",
            HazardCode::PointerIdentityLeak => "pointer identity leak",
            HazardCode::FloatAccumulation => "float accumulation over hash order",
            HazardCode::StaleSuppression => "stale det-ok suppression",
            HazardCode::MalformedSuppression => "malformed det-ok annotation",
        }
    }

    pub fn all() -> [HazardCode; 7] {
        [
            HazardCode::BannedTimeOrEntropy,
            HazardCode::HashOrderIteration,
            HazardCode::ThreadOutsideSweep,
            HazardCode::PointerIdentityLeak,
            HazardCode::FloatAccumulation,
            HazardCode::StaleSuppression,
            HazardCode::MalformedSuppression,
        ]
    }

    /// Parse `"DH0002"` back to a code.
    pub fn parse(s: &str) -> Option<HazardCode> {
        HazardCode::all().into_iter().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for HazardCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One audit finding, anchored to a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AuditFinding {
    /// Path as given to the audit (repo-relative in CI).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    pub code: HazardCode,
    pub severity: Severity,
    pub message: String,
}

impl AuditFinding {
    pub fn new(code: HazardCode, file: &str, line: u32, col: u32, message: String) -> AuditFinding {
        AuditFinding { file: file.to_string(), line, col, code, severity: code.severity(), message }
    }
}

/// The collected findings of an audit run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    pub findings: Vec<AuditFinding>,
    /// Findings dropped by `// det-ok(DHxxxx)` annotations.
    pub suppressed: usize,
    /// Findings dropped by the global `--allow` set.
    pub allowed: usize,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

impl AuditReport {
    pub fn new() -> AuditReport {
        AuditReport::default()
    }

    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|d| d.severity == sev).count()
    }

    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Drop findings covered by the global `--allow` set, then order what
    /// remains (most severe first, then by file/line/col/code) so output
    /// is byte-stable across runs and platforms.
    pub fn finish(&mut self, allow: &BTreeSet<String>) {
        let before = self.findings.len();
        self.findings.retain(|d| !allow.contains(d.code.as_str()));
        self.allowed += before - self.findings.len();
        self.findings.sort_by(|a, b| {
            (b.severity, &a.file, a.line, a.col, a.code, &a.message)
                .cmp(&(a.severity, &b.file, b.line, b.col, b.code, &b.message))
        });
    }

    /// Terminal rendering: `DH0002 error crates/x.rs:191:9: message`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&format!(
                "{} {} {}:{}:{}: {}\n",
                d.code,
                d.severity.as_str(),
                d.file,
                d.line,
                d.col,
                d.message
            ));
        }
        out.push_str(&format!(
            "audit: {} file(s), {} error(s), {} warning(s)",
            self.files,
            self.errors(),
            self.warnings()
        ));
        if self.suppressed > 0 {
            out.push_str(&format!(", {} suppressed", self.suppressed));
        }
        if self.allowed > 0 {
            out.push_str(&format!(", {} allowed", self.allowed));
        }
        out.push('\n');
        out
    }
}

impl ToValue for AuditFinding {
    fn to_value(&self) -> Value {
        vmap! {
            "code" => self.code.as_str(),
            "severity" => self.severity.as_str(),
            "file" => self.file.to_value(),
            "line" => self.line.to_value(),
            "col" => self.col.to_value(),
            "message" => self.message.to_value(),
        }
    }
}

/// The findings in [`AuditReport::finish`] order, then the file, error,
/// warning, suppressed and allowed counts — byte-stable, so CI can
/// archive and `cmp` reports.
impl ToValue for AuditReport {
    fn to_value(&self) -> Value {
        vmap! {
            "findings" => self.findings.to_value(),
            "files" => self.files,
            "errors" => self.errors(),
            "warnings" => self.warnings(),
            "suppressed" => self.suppressed,
            "allowed" => self.allowed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditReport {
        let mut r = AuditReport::new();
        r.files = 2;
        r.findings.push(AuditFinding::new(
            HazardCode::FloatAccumulation,
            "crates/x/src/a.rs",
            7,
            5,
            "sum of f64 over hash order".into(),
        ));
        r.findings.push(AuditFinding::new(
            HazardCode::HashOrderIteration,
            "crates/x/src/a.rs",
            3,
            9,
            "iterates `m` (HashMap) in hash order".into(),
        ));
        r
    }

    #[test]
    fn codes_are_stable_unique_and_parse_back() {
        let codes: Vec<&str> = HazardCode::all().iter().map(|c| c.as_str()).collect();
        let set: BTreeSet<&str> = codes.iter().copied().collect();
        assert_eq!(set.len(), codes.len());
        assert_eq!(codes[0], "DH0001");
        assert_eq!(codes[4], "DH0005");
        assert_eq!(codes[5], "DH0090");
        for c in HazardCode::all() {
            assert_eq!(HazardCode::parse(c.as_str()), Some(c));
            assert!(!c.title().is_empty());
        }
        assert_eq!(HazardCode::parse("DL0001"), None);
    }

    #[test]
    fn finish_sorts_errors_first_then_location() {
        let mut r = sample();
        r.finish(&BTreeSet::new());
        assert_eq!(r.findings[0].code, HazardCode::HashOrderIteration);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn allow_drops_and_counts() {
        let mut r = sample();
        r.finish(&["DH0002".to_string()].into());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.allowed, 1);
        assert!(!r.has_errors());
    }

    #[test]
    fn pretty_and_json_are_stable() {
        let mut r = sample();
        r.finish(&BTreeSet::new());
        let text = r.render_pretty();
        assert!(text.contains("DH0002 error crates/x/src/a.rs:3:9:"), "{text}");
        assert!(text.contains("2 file(s), 1 error(s), 1 warning(s)"), "{text}");
        let a = digibox_model::json::encode(&r);
        assert_eq!(
            a,
            "{\"allowed\":0,\"errors\":1,\"files\":2,\"findings\":[{\"code\":\"DH0002\",\
             \"col\":9,\"file\":\"crates/x/src/a.rs\",\"line\":3,\
             \"message\":\"iterates `m` (HashMap) in hash order\",\"severity\":\"error\"},\
             {\"code\":\"DH0005\",\"col\":5,\"file\":\"crates/x/src/a.rs\",\"line\":7,\
             \"message\":\"sum of f64 over hash order\",\"severity\":\"warning\"}],\
             \"suppressed\":0,\"warnings\":1}"
        );
        assert_eq!(a, digibox_model::json::encode(&r.clone()));
        assert_eq!(Value::from_json(&a).unwrap(), r.to_value());
    }
}
