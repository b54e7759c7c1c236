//! The determinism/concurrency rule passes.
//!
//! Every pass works on the lexed token stream of one file, so string
//! literals, comments, and raw strings can never false-positive (see
//! [`super::lexer`]). The passes:
//!
//! * **DH0001** — banned wall-clock/entropy APIs: `SystemTime::now`,
//!   `Instant::now`, `thread_rng`, `rand::random`, `RandomState`. Virtual
//!   time comes from the kernel, randomness from the seeded `Prng`.
//! * **DH0002** — *actual* hash-order iteration: `for _ in map` or an
//!   `.iter()`/`.keys()`/`.values()`/`.drain()`/`.into_iter()` chain whose
//!   receiver was declared `HashMap`/`HashSet` in this file. A site is
//!   clean when hash order provably cannot reach observable state:
//!   the chain re-collects into a `BTreeMap`/`BTreeSet`, ends in an
//!   order-independent reduction (`min`/`max`/`sum`/`count`/`all`/`any`…),
//!   or collects into a local that is sorted within the next two
//!   statements (the workspace's `collect-then-sort` idiom).
//! * **DH0003** — `std::thread` outside `core::sweep`: all simulation
//!   parallelism must go through the deterministic sweep engine.
//! * **DH0004** — pointer identity leaking into observable output: a
//!   `{:p}` format specifier, or an `as *const … as usize` address cast.
//!   Addresses differ run-to-run under ASLR, so they must never reach a
//!   model, digest, or trace.
//! * **DH0005** — float accumulation over a hash-ordered source: a
//!   `sum()`/`product()` reduction over a hash binding whose value type is
//!   `f32`/`f64` (float addition is not associative, so even an
//!   order-independent-looking reduction depends on hash order).
//!
//! The receiver analysis is deliberately an *under*-approximation: a hash
//! map that crosses a function boundary or hides behind a wrapper type is
//! invisible. That is the correct bias for a gate that must hold `dbox
//! audit` to zero false positives on its own sources — cross-file flows
//! are the clippy `iter_over_hash_type` lint's job in full-toolchain CI.

use std::collections::BTreeMap;

use super::lexer::{Token, TokenKind};
use super::report::{AuditFinding, HazardCode};

/// Per-file rule configuration.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// `std::thread` is legal here (the `core::sweep` worker engine).
    pub threads_allowed: bool,
}

/// Iterator-producing methods on hash collections.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain-terminating adapters whose result does not depend on iteration
/// order (for non-float element types).
const ORDER_FREE_REDUCERS: [&str; 12] = [
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "sum",
    "product",
    "count",
    "len",
    "all",
    "any",
];

/// What the file declared a hash-typed binding as.
#[derive(Debug, Clone, Copy)]
struct HashBinding {
    /// The map's value type (or set's element type) mentions `f32`/`f64`.
    float_values: bool,
}

/// Run every pass over one file's tokens.
pub fn scan(file: &str, tokens: &[Token], cfg: &RuleConfig) -> Vec<AuditFinding> {
    // rules never look at comments; spans stay intact on the code tokens
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let mut findings = Vec::new();
    banned_apis(file, &code, &mut findings);
    if !cfg.threads_allowed {
        threads(file, &code, &mut findings);
    }
    pointer_leaks(file, &code, &mut findings);
    let bindings = collect_hash_bindings(&code);
    hash_iteration(file, &code, &bindings, &mut findings);
    findings
}

/// Does `code[i..]` start with this ident/punct pattern? `"::"` in the
/// pattern means two consecutive `:` tokens; a single char matches a
/// punct; anything longer matches an ident.
fn seq(code: &[&Token], i: usize, pattern: &[&str]) -> bool {
    let mut at = i;
    for p in pattern {
        if *p == "::" {
            if !(code.get(at).is_some_and(|t| t.is_punct(':'))
                && code.get(at + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            at += 2;
        } else if p.chars().count() == 1 && !p.chars().next().unwrap().is_alphabetic() {
            if !code.get(at).is_some_and(|t| t.is_punct(p.chars().next().unwrap())) {
                return false;
            }
            at += 1;
        } else {
            if !code.get(at).is_some_and(|t| t.is_ident(p)) {
                return false;
            }
            at += 1;
        }
    }
    true
}

fn banned_apis(file: &str, code: &[&Token], findings: &mut Vec<AuditFinding>) {
    for i in 0..code.len() {
        let t = code[i];
        let hit: Option<&str> = if seq(code, i, &["SystemTime", "::", "now"]) {
            Some("SystemTime::now reads the wall clock — use the kernel's virtual time")
        } else if seq(code, i, &["Instant", "::", "now"]) {
            Some("Instant::now reads the wall clock — use the kernel's virtual time")
        } else if t.is_ident("thread_rng") {
            Some("thread_rng draws OS entropy — use the seeded Prng")
        } else if seq(code, i, &["rand", "::", "random"]) {
            Some("rand::random draws OS entropy — use the seeded Prng")
        } else if t.is_ident("RandomState") {
            Some("RandomState seeds hashers from OS entropy — hash order becomes run-dependent")
        } else {
            None
        };
        if let Some(msg) = hit {
            findings.push(AuditFinding::new(
                HazardCode::BannedTimeOrEntropy,
                file,
                t.line,
                t.col,
                msg.to_string(),
            ));
        }
    }
}

fn threads(file: &str, code: &[&Token], findings: &mut Vec<AuditFinding>) {
    let mut i = 0;
    while i < code.len() {
        let hit = seq(code, i, &["thread", "::", "spawn"]) || seq(code, i, &["std", "::", "thread"]);
        if hit {
            findings.push(AuditFinding::new(
                HazardCode::ThreadOutsideSweep,
                file,
                code[i].line,
                code[i].col,
                "std::thread outside core::sweep/core::islands — simulation parallelism must \
                 go through a deterministic engine"
                    .to_string(),
            ));
            // skip the whole `a :: b` just matched so `std::thread::spawn`
            // yields one finding, not two
            i += 4;
        } else {
            i += 1;
        }
    }
}

fn pointer_leaks(file: &str, code: &[&Token], findings: &mut Vec<AuditFinding>) {
    for (i, t) in code.iter().enumerate() {
        // `{:p}` (or `{name:p}`) inside any string literal: the Display
        // machinery prints an address
        if t.kind == TokenKind::Str && format_string_prints_pointer(&t.text) {
            findings.push(AuditFinding::new(
                HazardCode::PointerIdentityLeak,
                file,
                t.line,
                t.col,
                "format string prints a pointer ({:p}) — addresses differ run-to-run under ASLR"
                    .to_string(),
            ));
        }
        // `as *const T as usize` / `as *mut T as usize`: address as data
        if t.is_ident("as")
            && code.get(i + 1).is_some_and(|t| t.is_punct('*'))
            && code.get(i + 2).is_some_and(|t| t.is_ident("const") || t.is_ident("mut"))
        {
            for j in i + 3..code.len().min(i + 16) {
                if code[j].is_punct(';') || code[j].is_punct('{') {
                    break;
                }
                if code[j].is_ident("as") && code.get(j + 1).is_some_and(|t| t.is_ident("usize")) {
                    findings.push(AuditFinding::new(
                        HazardCode::PointerIdentityLeak,
                        file,
                        t.line,
                        t.col,
                        "pointer cast to usize — the address is run-dependent and must not \
                         reach observable state"
                            .to_string(),
                    ));
                    break;
                }
            }
        }
    }
}

/// `{:p}` / `{name:p}` / `{0:p}` in a format string, ignoring `{{` escapes.
fn format_string_prints_pointer(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2;
                continue;
            }
            let close = s[i + 1..].find('}').map(|o| i + 1 + o);
            if let Some(close) = close {
                let inner = &s[i + 1..close];
                let spec = inner.split_once(':').map(|(_, spec)| spec).unwrap_or("");
                if spec == "p" || spec.ends_with('p') && spec.chars().all(|c| c.is_alphanumeric() || "<>^#0.+-_$ ".contains(c)) && spec.len() <= 4 {
                    return true;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    false
}

/// Pass 1 of DH0002/DH0005: names declared `HashMap`/`HashSet` in this
/// file — `name: HashMap<…>` (fields, params, struct-literal inits via
/// `name: HashMap::new()`) and `name = HashMap::new()` (lets, assigns).
fn collect_hash_bindings(code: &[&Token]) -> BTreeMap<String, HashBinding> {
    let mut out = BTreeMap::new();
    for i in 0..code.len() {
        let t = code[i];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // walk back over a path prefix (`std :: collections :: HashMap`)
        let mut start = i;
        while start >= 2
            && code[start - 1].is_punct(':')
            && code[start - 2].is_punct(':')
        {
            if start >= 3 && code[start - 3].kind == TokenKind::Ident {
                start -= 3;
            } else {
                break;
            }
        }
        if start < 2 {
            continue;
        }
        // `name : HashMap…` (type annotation or struct-literal init) or
        // `name = HashMap::new()`; a `::`-path or `<` before the colon
        // means the hash type is nested inside another type — skip.
        let before = code[start - 1];
        let is_single_colon =
            before.is_punct(':') && !code.get(start.wrapping_sub(2)).is_some_and(|t| t.is_punct(':'));
        let is_assign = before.is_punct('=')
            && !code.get(start.wrapping_sub(2)).is_some_and(|t| {
                // not ==, <=, >=, != etc.
                t.is_punct('=') || t.is_punct('<') || t.is_punct('>') || t.is_punct('!')
            });
        if !(is_single_colon || is_assign) {
            continue;
        }
        let name_tok = code[start - 2];
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        let float_values = generic_args_mention_float(code, i, t.is_ident("HashMap"));
        out.insert(name_tok.text.clone(), HashBinding { float_values });
    }
    out
}

/// Whether the value type (map) / element type (set) of the generic args
/// at `code[at+1..]` mentions `f32`/`f64`.
fn generic_args_mention_float(code: &[&Token], at: usize, is_map: bool) -> bool {
    if !code.get(at + 1).is_some_and(|t| t.is_punct('<')) {
        return false;
    }
    let mut depth = 1usize;
    let mut seen_top_comma = false;
    let mut j = at + 2;
    while j < code.len() && depth > 0 {
        let t = code[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 1 {
            seen_top_comma = true;
        } else if (t.is_ident("f32") || t.is_ident("f64")) && (seen_top_comma || !is_map) {
            return true;
        }
        j += 1;
    }
    false
}

/// Pass 2 of DH0002/DH0005: iteration sites over the collected bindings.
fn hash_iteration(
    file: &str,
    code: &[&Token],
    bindings: &BTreeMap<String, HashBinding>,
    findings: &mut Vec<AuditFinding>,
) {
    if bindings.is_empty() {
        return;
    }
    // ranges of for-loop header expressions, so the chain scan below does
    // not double-report `for x in map.iter()`
    let mut covered: Vec<(usize, usize)> = Vec::new();

    // --- `for pat in expr {` form
    for i in 0..code.len() {
        if !code[i].is_ident("for") {
            continue;
        }
        // `for<'a>` higher-ranked bounds are not loops
        if code.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        // the pattern cannot contain the `in` keyword; find it
        let Some(in_at) = (i + 1..code.len().min(i + 24)).find(|&j| code[j].is_ident("in")) else {
            continue;
        };
        // expression runs to the loop body `{` (struct literals are
        // illegal in for-headers, so the first depth-0 `{` is the body)
        let mut depth = 0i32;
        let mut body_at = None;
        for (j, &t) in code.iter().enumerate().skip(in_at + 1) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth == 0 {
                body_at = Some(j);
                break;
            }
        }
        let Some(body_at) = body_at else { continue };
        covered.push((in_at + 1, body_at));
        // strip leading `&`, `&mut`, `(`
        let mut at = in_at + 1;
        while at < body_at
            && (code[at].is_punct('&') || code[at].is_ident("mut") || code[at].is_punct('('))
        {
            at += 1;
        }
        let Some((base, chain_from)) = receiver_base(code, at, body_at) else { continue };
        let Some(binding) = bindings.get(&base) else { continue };
        let methods = chain_methods(code, chain_from, body_at);
        if !float_reduces(binding, &methods)
            && chain_is_order_safe(code, chain_from, body_at, &methods)
        {
            continue;
        }
        push_iteration_finding(file, code[at], &base, binding, &methods, findings);
    }

    // --- `recv.iter()…` chain form
    for i in 0..code.len() {
        if covered.iter().any(|&(s, e)| i >= s && i < e) {
            continue;
        }
        let t = code[i];
        if !(t.kind == TokenKind::Ident && ITER_METHODS.contains(&t.text.as_str())) {
            continue;
        }
        if !(i >= 2 && code[i - 1].is_punct('.') && code.get(i + 1).is_some_and(|t| t.is_punct('('))) {
            continue;
        }
        // receiver: `name.iter()` or `self.name.iter()` / `x.name.iter()`
        let recv = code[i - 2];
        if recv.kind != TokenKind::Ident {
            continue; // complex receiver — out of scope (under-approximate)
        }
        let Some(binding) = bindings.get(&recv.text) else { continue };
        let chain_end = chain_end(code, i);
        let mut methods = vec![t.text.clone()];
        methods.extend(chain_methods(code, i + 1, chain_end));
        // a float sum/product is the DH0005 hazard itself, so the
        // order-free-reducer escape below must not swallow it
        if !float_reduces(binding, &methods) && chain_is_order_safe(code, i, chain_end, &methods) {
            continue;
        }
        // `let v = …collect();` followed by `v.sort…()` within two
        // statements is the workspace's collect-then-sort idiom
        if methods.last().is_some_and(|m| m == "collect")
            && collected_into_sorted_or_btree(code, i, chain_end)
        {
            continue;
        }
        push_iteration_finding(file, t, &recv.text, binding, &methods, findings);
    }
}

/// The base identifier of a receiver expression starting at `at`:
/// `name…` → (`name`, after) or `self . name…` / `x . name…` → (`name`,
/// after). Returns the index where a method chain would continue.
fn receiver_base(code: &[&Token], at: usize, limit: usize) -> Option<(String, usize)> {
    let first = code.get(at)?;
    if first.kind != TokenKind::Ident || first.is_ident("mut") {
        return None;
    }
    // `a . b …`: if the next two tokens are `.` + ident + (not a call),
    // treat `b` as a field access extending the base
    let mut base = first.text.clone();
    let mut end = at + 1;
    while end + 1 < limit
        && code[end].is_punct('.')
        && code[end + 1].kind == TokenKind::Ident
        && !code.get(end + 2).is_some_and(|t| t.is_punct('('))
    {
        base = code[end + 1].text.clone();
        end += 2;
    }
    Some((base, end))
}

/// Method names in a `. m ( … )` chain between `from` and `to`, skipping
/// balanced parens (closure bodies stay invisible) and turbofish.
fn chain_methods(code: &[&Token], from: usize, to: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut j = from;
    while j < to {
        let t = code[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0
            && t.is_punct('.')
            && code.get(j + 1).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            out.push(code[j + 1].text.clone());
            j += 1;
        }
        j += 1;
    }
    out
}

/// Where a method chain starting at the method token `i` ends: the last
/// token of the final `. m ( … )` link at depth 0.
fn chain_end(code: &[&Token], i: usize) -> usize {
    let mut j = i + 1; // the `(` after the iter method
    let mut depth = 0i32;
    let mut end = i;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                break;
            }
            if depth == 0 {
                end = j;
                // chain continues only through `.` or turbofish `::<…>`
                let next = code.get(j + 1);
                let continues = next.is_some_and(|t| t.is_punct('.'))
                    || (next.is_some_and(|t| t.is_punct(':'))
                        && code.get(j + 2).is_some_and(|t| t.is_punct(':')));
                if !continues {
                    break;
                }
            }
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            break;
        }
        j += 1;
    }
    end + 1
}

/// Hash order cannot reach observable state through this chain: it
/// re-collects into a BTree (turbofish or annotated let), or terminates
/// in an order-independent reduction.
fn chain_is_order_safe(code: &[&Token], from: usize, to: usize, methods: &[String]) -> bool {
    // any BTreeMap/BTreeSet/BinaryHeap mention in the chain's turbofish
    for t in code.iter().take(to).skip(from) {
        if t.kind == TokenKind::Ident && t.text.starts_with("BTree") {
            return true;
        }
    }
    matches!(methods.last(), Some(last) if ORDER_FREE_REDUCERS.contains(&last.as_str()))
}

/// For a chain ending in `collect`: does the enclosing statement collect
/// into a BTree-typed let, or into a local that is `.sort*()`ed within
/// the next two statements?
fn collected_into_sorted_or_btree(code: &[&Token], i: usize, chain_end: usize) -> bool {
    // find the start of the statement (previous `;` / `{` / `}`)
    let mut start = i;
    while start > 0 {
        let t = code[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    // `let [mut] name [: Type] = …`
    if !code.get(start).is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    let mut at = start + 1;
    if code.get(at).is_some_and(|t| t.is_ident("mut")) {
        at += 1;
    }
    let Some(name_tok) = code.get(at) else { return false };
    if name_tok.kind != TokenKind::Ident {
        return false;
    }
    // BTree-typed annotation counts immediately
    for t in code.iter().take(i).skip(at + 1) {
        if t.kind == TokenKind::Ident && t.text.starts_with("BTree") {
            return true;
        }
    }
    // look for `name . sort*` within the next two statements
    let name = &name_tok.text;
    let mut semis = 0;
    let mut j = chain_end;
    while j < code.len() && semis < 3 {
        if code[j].is_punct(';') {
            semis += 1;
        } else if code[j].is_ident(name)
            && code.get(j + 1).is_some_and(|t| t.is_punct('.'))
            && code.get(j + 2).is_some_and(|t| {
                t.kind == TokenKind::Ident && t.text.starts_with("sort")
            })
        {
            return true;
        }
        j += 1;
    }
    false
}

/// An accumulating reduction over float values: the DH0005 shape.
fn float_reduces(binding: &HashBinding, methods: &[String]) -> bool {
    binding.float_values && methods.iter().any(|m| m == "sum" || m == "product" || m == "fold")
}

fn push_iteration_finding(
    file: &str,
    at: &Token,
    name: &str,
    binding: &HashBinding,
    methods: &[String],
    findings: &mut Vec<AuditFinding>,
) {
    if float_reduces(binding, methods) {
        findings.push(AuditFinding::new(
            HazardCode::FloatAccumulation,
            file,
            at.line,
            at.col,
            format!(
                "float accumulation over `{name}` (hash-ordered, f32/f64 values) — float \
                 addition is not associative, so the result depends on hash order; sort first"
            ),
        ));
        return;
    }
    // an order-free integer reduction was already filtered out; what is
    // left iterates in hash order
    findings.push(AuditFinding::new(
        HazardCode::HashOrderIteration,
        file,
        at.line,
        at.col,
        format!(
            "iterates `{name}` (declared HashMap/HashSet in this file) in hash order — sort \
             first, re-collect into a BTree, or reduce order-independently"
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::lexer::lex;

    fn scan_src(src: &str) -> Vec<AuditFinding> {
        let tokens = lex(src);
        scan("fixture.rs", &tokens, &RuleConfig::default())
    }

    fn codes(src: &str) -> Vec<&'static str> {
        scan_src(src).into_iter().map(|f| f.code.as_str()).collect()
    }

    // ---- DH0001 -------------------------------------------------------

    #[test]
    fn dh0001_fires_on_banned_apis() {
        assert_eq!(codes("let t = SystemTime::now();"), ["DH0001"]);
        assert_eq!(codes("let t = std::time::Instant::now();"), ["DH0001"]);
        assert_eq!(codes("let r = thread_rng();"), ["DH0001"]);
        assert_eq!(codes("let x: u8 = rand::random();"), ["DH0001"]);
        assert_eq!(codes("let s = RandomState::new();"), ["DH0001"]);
    }

    #[test]
    fn dh0001_never_fires_in_strings_docs_or_comments() {
        assert!(codes("let s = \"SystemTime::now\";").is_empty());
        assert!(codes("// SystemTime::now is banned\nlet x = 1;").is_empty());
        assert!(codes("/// Unlike `Instant::now`, virtual time is seeded.\nfn f() {}").is_empty());
        assert!(codes(r###"let s = r#"thread_rng() and rand::random()"#;"###).is_empty());
        assert!(codes("/* RandomState */ let x = 1;").is_empty());
    }

    #[test]
    fn dh0001_spans_point_at_the_call() {
        let f = &scan_src("let t =\n    SystemTime::now();")[0];
        assert_eq!((f.line, f.col), (2, 5));
    }

    // ---- DH0002 -------------------------------------------------------

    const MAP_DECL: &str = "let mut m: HashMap<String, u32> = HashMap::new();\n";

    #[test]
    fn dh0002_fires_on_for_loop_over_hash_map() {
        let src = format!("{MAP_DECL}for (k, v) in &m {{ out.push(k); }}");
        assert_eq!(codes(&src), ["DH0002"]);
    }

    #[test]
    fn dh0002_fires_on_iter_chain_methods() {
        for m in ["iter", "keys", "values", "drain", "into_iter"] {
            let src = format!("{MAP_DECL}for x in m.{m}() {{ use_it(x); }}");
            assert_eq!(codes(&src), ["DH0002"], "method {m}");
        }
        let src = format!("{MAP_DECL}let v: Vec<_> = m.iter().map(|(k, _)| k).collect();");
        assert_eq!(codes(&src), ["DH0002"]);
    }

    #[test]
    fn dh0002_resolves_self_fields() {
        let src = "struct S { sessions: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) { for s in self.sessions.values() { p(s); } } }";
        assert_eq!(codes(src), ["DH0002"]);
    }

    #[test]
    fn dh0002_ignores_btreemap_and_unknown_receivers() {
        assert!(codes("let m: BTreeMap<u32, u32> = BTreeMap::new();\nfor x in &m {}").is_empty());
        // receiver declared in another file: invisible, under-approximate
        assert!(codes("fn f(m: &SomeWrapper) { for x in m.iter() {} }").is_empty());
    }

    #[test]
    fn dh0002_sorted_collect_idiom_is_clean() {
        let src = format!(
            "{MAP_DECL}let mut v: Vec<(String, u32)> = m.into_iter().collect();\nv.sort_unstable();"
        );
        assert!(codes(&src).is_empty(), "{:?}", scan_src(&src));
        // sort via sort_by_key two statements later
        let src = format!(
            "{MAP_DECL}let mut v: Vec<_> = m.iter().collect();\nlog();\nv.sort_by_key(|(k, _)| k.clone());"
        );
        assert!(codes(&src).is_empty(), "{:?}", scan_src(&src));
    }

    #[test]
    fn dh0002_collect_into_btree_is_clean() {
        let src = format!("{MAP_DECL}let b: BTreeMap<String, u32> = m.into_iter().collect();");
        assert!(codes(&src).is_empty(), "{:?}", scan_src(&src));
        let src = format!("{MAP_DECL}let b = m.into_iter().collect::<BTreeMap<_, _>>();");
        assert!(codes(&src).is_empty(), "{:?}", scan_src(&src));
    }

    #[test]
    fn dh0002_order_free_reductions_are_clean() {
        let src = format!("{MAP_DECL}let n = m.values().map(|v| v + 1).min();");
        assert!(codes(&src).is_empty(), "{:?}", scan_src(&src));
        let src = format!("{MAP_DECL}let n: u32 = m.values().copied().sum();");
        assert!(codes(&src).is_empty(), "{:?}", scan_src(&src));
        let src = format!("{MAP_DECL}let any = m.keys().any(|k| k.is_empty());");
        assert!(codes(&src).is_empty(), "{:?}", scan_src(&src));
    }

    #[test]
    fn dh0002_unsorted_collect_still_fires() {
        let src = format!("{MAP_DECL}let v: Vec<_> = m.keys().cloned().collect();\nemit(v);");
        assert_eq!(codes(&src), ["DH0002"]);
    }

    // ---- DH0003 -------------------------------------------------------

    #[test]
    fn dh0003_fires_on_thread_spawn() {
        assert_eq!(codes("let h = std::thread::spawn(|| {});"), ["DH0003"]);
        assert_eq!(codes("use std::thread;\nfn f() { thread::spawn(run); }").len(), 2);
    }

    #[test]
    fn dh0003_exempts_the_sweep_engine() {
        let tokens = lex("let h = std::thread::spawn(|| {});");
        let f = scan("core/src/sweep.rs", &tokens, &RuleConfig { threads_allowed: true });
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dh0003_exempts_the_island_engine() {
        // thread::scope is the island engine's idiom; the exemption covers it.
        let tokens = lex("std::thread::scope(|s| { s.spawn(|| {}); });");
        let f = scan("core/src/islands.rs", &tokens, &RuleConfig { threads_allowed: true });
        assert!(f.is_empty(), "{f:?}");
        let f = scan("core/src/testbed.rs", &tokens, &RuleConfig::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, HazardCode::ThreadOutsideSweep);
    }

    // ---- DH0004 -------------------------------------------------------

    #[test]
    fn dh0004_fires_on_pointer_formats_and_casts() {
        assert_eq!(codes("let s = format!(\"cell at {:p}\", cell);"), ["DH0004"]);
        assert_eq!(codes("let id = (&cell as *const Cell) as usize;"), ["DH0004"]);
    }

    #[test]
    fn dh0004_ignores_braces_that_are_not_pointer_specs() {
        assert!(codes("let s = format!(\"{{:p}} literal {x}\");").is_empty());
        assert!(codes("let s = format!(\"{name:>8}\");").is_empty());
        // const pointer without an integer round-trip is fine (FFI etc.)
        assert!(codes("let p = &x as *const u8; read(p);").is_empty());
    }

    // ---- DH0005 -------------------------------------------------------

    #[test]
    fn dh0005_fires_on_float_sum_over_hash_values() {
        let src = "let w: HashMap<u32, f64> = HashMap::new();\nlet total: f64 = w.values().sum();";
        assert_eq!(codes(src), ["DH0005"]);
    }

    #[test]
    fn dh0005_spares_integer_sums_and_float_btrees() {
        let src = "let w: HashMap<u32, u64> = HashMap::new();\nlet total: u64 = w.values().sum();";
        assert!(codes(src).is_empty());
        let src = "let w: BTreeMap<u32, f64> = BTreeMap::new();\nlet total: f64 = w.values().sum();";
        assert!(codes(src).is_empty());
    }
}
