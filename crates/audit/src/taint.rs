//! Interprocedural secret-taint analysis over the syntactic call graph.
//!
//! Taint is seeded at *declared* secret sources — functions whose return
//! value is key material or pre-redaction payload bytes — and propagated
//! statement by statement through assignments, `{ident}` inline format
//! captures, and call edges (via per-function summaries iterated to a
//! global monotone fixpoint). A finding is produced when tainted data
//! reaches a declared observable sink (span/metric labels, ledger
//! records, black-box snapshots, bench emitters), carrying the full
//! source→sink hop list as a counterexample chain.
//!
//! Declared *sanitizers* (digest/HMAC/redaction functions) clear taint:
//! a value that only ever flows through a sanitizer argument list is
//! clean, which is exactly the FORENSICS.md redaction contract —
//! secrets may be recorded only after measurement.

use std::collections::{BTreeMap, BTreeSet};

use crate::facts::inline_captures;
use crate::graph::{CallGraph, FnId};
use crate::lex::Tok;
use crate::syntax::ParsedFile;

/// One hop of a taint counterexample chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What happened at this hop.
    pub note: String,
}

/// A source→sink witness: ordered hops.
pub type Chain = Vec<Step>;

/// A secret value reaching an observable sink.
#[derive(Clone, Debug)]
pub struct TaintFinding {
    /// File of the sink call.
    pub path: String,
    /// Line of the sink call.
    pub line: u32,
    /// One-line description naming the sink.
    pub message: String,
    /// The full counterexample chain, source first.
    pub chain: Chain,
}

/// Source / sink / sanitizer sets as resolved function ids.
#[derive(Debug, Default)]
pub struct TaintConfig {
    /// Functions whose return value is secret.
    pub sources: BTreeSet<FnId>,
    /// Functions whose arguments become normal-world observable.
    pub sinks: BTreeSet<FnId>,
    /// Functions that launder taint (digest, HMAC, redaction).
    pub sanitizers: BTreeSet<FnId>,
}

/// What a callee does with taint, learned by the fixpoint.
#[derive(Clone, Debug, Default)]
struct Summary {
    /// The function returns secret data (chain explains why).
    returns_secret: Option<Chain>,
    /// Some parameter flows to the return value.
    returns_param: bool,
    /// Some parameter flows into a sink inside the function; the chain
    /// holds the internal hops.
    param_to_sink: Option<Chain>,
}

/// Runs the analysis over the whole graph. Deterministic: findings are
/// ordered by (path, line, message) and chains are built in statement
/// order.
pub fn analyze(g: &CallGraph, files: &[ParsedFile], cfg: &TaintConfig) -> Vec<TaintFinding> {
    let mut summaries: Vec<Summary> = vec![Summary::default(); g.fns.len()];
    // Global fixpoint: summary fields only ever go from unknown to
    // known, so this terminates; the cap is a safety net.
    for _ in 0..g.fns.len().max(1) {
        let mut changed = false;
        for f in 0..g.fns.len() {
            if g.fns[f].item.is_test || cfg.sanitizers.contains(&f) {
                continue;
            }
            let s = run_fn(f, g, files, cfg, &summaries, None);
            let cur = &mut summaries[f];
            if cur.returns_secret.is_none() && s.returns_secret.is_some() {
                cur.returns_secret = s.returns_secret;
                changed = true;
            }
            if !cur.returns_param && s.returns_param {
                cur.returns_param = true;
                changed = true;
            }
            if cur.param_to_sink.is_none() && s.param_to_sink.is_some() {
                cur.param_to_sink = s.param_to_sink;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut findings = Vec::new();
    for f in 0..g.fns.len() {
        if g.fns[f].item.is_test || cfg.sanitizers.contains(&f) {
            continue;
        }
        run_fn(f, g, files, cfg, &summaries, Some(&mut findings));
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    findings
}

/// Analyzes one function: local taint fixpoint over its statements,
/// then one reporting pass that fills the summary and (optionally)
/// emits sink findings.
fn run_fn(
    f: FnId,
    g: &CallGraph,
    files: &[ParsedFile],
    cfg: &TaintConfig,
    summaries: &[Summary],
    mut findings: Option<&mut Vec<TaintFinding>>,
) -> Summary {
    let node = &g.fns[f];
    let file = &files[node.file];
    let path = file.path.as_str();
    let facts = &node.facts;
    let mut out = Summary::default();

    // Taint cells: variable name → chain that tainted it.
    let mut secret: BTreeMap<String, Chain> = BTreeMap::new();
    // Parameter-derived cells, for the callee summary.
    let mut param: BTreeSet<String> = node.item.params.iter().cloned().collect();

    // Local fixpoint: assignments only. Monotone (cells are only ever
    // added), so it terminates.
    loop {
        let mut changed = false;
        for stmt in &facts.stmts {
            let sv = stmt_view(f, g, files, cfg, summaries, &secret, &param, stmt);
            if let Some(chain) = &sv.secret {
                for t in &stmt.targets {
                    if !secret.contains_key(t) {
                        let mut c = chain.clone();
                        c.push(step(path, stmt.line, format!("assigned to `{t}`")));
                        secret.insert(t.clone(), c);
                        changed = true;
                    }
                }
            }
            if sv.param {
                for t in &stmt.targets {
                    if param.insert(t.clone()) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Reporting pass: returns, and sink calls.
    for stmt in &facts.stmts {
        let sv = stmt_view(f, g, files, cfg, summaries, &secret, &param, stmt);
        // Container cutoff: a return whose value is a struct literal
        // (`Self { .. }`, `SecureMonitor { .. }`) constructs an opaque
        // container. The analysis is field-insensitive, so treating the
        // container itself as a secret value would taint every handle
        // built over key material (`Spm`, `CronusSystem`, ...). Taint
        // stops at construction and is re-seeded at the accessors named
        // in `rules::SOURCE_PATHS`. Local propagation is unaffected: a
        // freshly built record passed straight into a sink still trips.
        if stmt.is_return && !constructs_container(&file.tokens, stmt.range) {
            if let Some(chain) = &sv.secret {
                if out.returns_secret.is_none() {
                    let mut c = chain.clone();
                    c.push(step(path, stmt.line, "returned to caller".into()));
                    out.returns_secret = Some(c);
                }
            }
            if sv.param {
                out.returns_param = true;
            }
        }
        for &ci in &stmt.calls {
            let targets = &g.call_targets[f][ci];
            if targets.is_empty() {
                continue;
            }
            let site = &facts.calls[ci];
            // Method calls resolve by name to every same-named method, so a
            // call that may land on a declared sink is a sink call: the
            // resolution over-approximates, and so does the check.
            let sink = targets.iter().copied().find(|t| cfg.sinks.contains(t));
            let forwards = sink.is_none()
                && targets
                    .iter()
                    .all(|t| summaries[*t].param_to_sink.is_some());
            if sink.is_none() && !forwards {
                continue;
            }
            let callee = &g.fns[sink.unwrap_or(targets[0])].item;
            if let Some(mut chain) = range_secret(f, g, files, &secret, site.args, &sv) {
                let (message, note) = if sink.is_some() {
                    (
                        format!("secret value reaches observable sink `{}`", callee.qual),
                        format!("passed into sink `{}`", callee.name),
                    )
                } else {
                    (
                        format!(
                            "secret value reaches an observable sink via `{}`",
                            callee.qual
                        ),
                        format!("passed to `{}`", callee.name),
                    )
                };
                chain.push(step(path, site.line, note));
                if forwards {
                    if let Some(inner) = &summaries[targets[0]].param_to_sink {
                        chain.extend(inner.iter().cloned());
                    }
                }
                if let Some(fs) = findings.as_deref_mut() {
                    fs.push(TaintFinding {
                        path: path.to_string(),
                        line: site.line,
                        message,
                        chain,
                    });
                }
            }
            if out.param_to_sink.is_none() && range_param(f, g, files, &param, site.args, &sv) {
                let mut c = vec![step(
                    path,
                    site.line,
                    format!(
                        "argument of `{}` forwarded into `{}`",
                        node.item.name, callee.name
                    ),
                )];
                if forwards {
                    if let Some(inner) = &summaries[targets[0]].param_to_sink {
                        c.extend(inner.iter().cloned());
                    }
                }
                out.param_to_sink = Some(c);
            }
        }
    }
    out
}

/// Per-statement taint classification, computed fresh each pass.
struct StmtView {
    /// The statement's value is secret (chain explains why).
    secret: Option<Chain>,
    /// The statement's value derives from a parameter.
    param: bool,
    /// Call index → chain, for calls in this statement that *produce*
    /// secret values.
    call_secret: BTreeMap<usize, Chain>,
    /// Calls in this statement that produce parameter-derived values.
    call_param: BTreeSet<usize>,
    /// Token ranges of sanitizer-call argument lists: uses inside them
    /// do not taint.
    sanitized: Vec<(usize, usize)>,
}

#[allow(clippy::too_many_arguments)]
fn stmt_view(
    f: FnId,
    g: &CallGraph,
    files: &[ParsedFile],
    cfg: &TaintConfig,
    summaries: &[Summary],
    secret: &BTreeMap<String, Chain>,
    param: &BTreeSet<String>,
    stmt: &crate::facts::Stmt,
) -> StmtView {
    let node = &g.fns[f];
    let file = &files[node.file];
    let path = file.path.as_str();
    let facts = &node.facts;

    // Sanitizer argument ranges first: they mask idents everywhere else.
    // For method-call sanitizers (`dh.public()`) the mask is extended
    // backwards over the receiver's postfix chain, so the declassified
    // value (`dh`) does not keep tainting the statement.
    let mut sanitized: Vec<(usize, usize)> = Vec::new();
    for &ci in &stmt.calls {
        let targets = &g.call_targets[f][ci];
        if !targets.is_empty() && targets.iter().all(|t| cfg.sanitizers.contains(t)) {
            let site = &facts.calls[ci];
            let start = match site.callee {
                crate::facts::Callee::Method(_) => receiver_start(&file.tokens, site.at),
                crate::facts::Callee::Path(_) => site.args.0,
            };
            sanitized.push((start, site.args.1));
        }
    }

    // Classify calls innermost-first (call sites are recorded in token
    // order, so nested calls have higher indices).
    let mut call_secret: BTreeMap<usize, Chain> = BTreeMap::new();
    let mut call_param: BTreeSet<usize> = BTreeSet::new();
    for &ci in stmt.calls.iter().rev() {
        let site = &facts.calls[ci];
        let targets = &g.call_targets[f][ci];
        if targets.is_empty() || covered(site.at, &sanitized) {
            continue;
        }
        if targets.iter().all(|t| cfg.sanitizers.contains(t)) {
            continue;
        }
        let callee = &g.fns[targets[0]].item;
        if targets.iter().all(|t| cfg.sources.contains(t)) {
            call_secret.insert(
                ci,
                vec![step(
                    path,
                    site.line,
                    format!("secret source `{}` called", callee.qual),
                )],
            );
            continue;
        }
        if targets
            .iter()
            .all(|t| summaries[*t].returns_secret.is_some())
        {
            if let Some(inner) = &summaries[targets[0]].returns_secret {
                let mut c = inner.clone();
                c.push(step(
                    path,
                    site.line,
                    format!("secret returned by `{}`", callee.name),
                ));
                call_secret.insert(ci, c);
                continue;
            }
        }
        if targets.iter().all(|t| summaries[*t].returns_param) {
            if let Some(mut c) = ident_secret_in(
                &file.tokens,
                site.args,
                &sanitized,
                secret,
                &call_secret,
                facts,
            ) {
                c.push(step(
                    path,
                    site.line,
                    format!("secret flows through `{}`", callee.name),
                ));
                call_secret.insert(ci, c);
            }
            if ident_param_in(
                &file.tokens,
                site.args,
                &sanitized,
                param,
                &call_param,
                facts,
            ) {
                call_param.insert(ci);
            }
        }
    }

    // The statement's own value: a tainted ident used outside sanitizer
    // arguments, or a secret-producing call.
    let mut sv_secret = ident_secret_in(
        &file.tokens,
        stmt.range,
        &sanitized,
        secret,
        &call_secret,
        facts,
    );
    if sv_secret.is_none() {
        sv_secret = stmt
            .calls
            .iter()
            .find_map(|ci| call_secret.get(ci).cloned());
    }
    let sv_param = ident_param_in(
        &file.tokens,
        stmt.range,
        &sanitized,
        param,
        &call_param,
        facts,
    ) || stmt.calls.iter().any(|ci| call_param.contains(ci));

    StmtView {
        secret: sv_secret,
        param: sv_param,
        call_secret,
        call_param,
        sanitized,
    }
}

/// First secret ident (or secret-producing nested call) inside a token
/// range, skipping sanitizer argument sub-ranges.
fn range_secret(
    f: FnId,
    g: &CallGraph,
    files: &[ParsedFile],
    secret: &BTreeMap<String, Chain>,
    range: (usize, usize),
    sv: &StmtView,
) -> Option<Chain> {
    let node = &g.fns[f];
    let file = &files[node.file];
    ident_secret_in(
        &file.tokens,
        range,
        &sv.sanitized,
        secret,
        &sv.call_secret,
        &node.facts,
    )
}

/// Parameter-derived analogue of [`range_secret`].
fn range_param(
    f: FnId,
    g: &CallGraph,
    files: &[ParsedFile],
    param: &BTreeSet<String>,
    range: (usize, usize),
    sv: &StmtView,
) -> bool {
    let node = &g.fns[f];
    let file = &files[node.file];
    ident_param_in(
        &file.tokens,
        range,
        &sv.sanitized,
        param,
        &sv.call_param,
        &node.facts,
    )
}

/// Walks backwards from a method name token (`tokens[at]`, preceded by
/// `.`) over the receiver's postfix chain — idents, literals, `?`, `::`
/// paths and balanced `(…)`/`[…]` groups — and returns the index of the
/// chain's first token. Used to extend a sanitizer's masked range over
/// its receiver.
fn receiver_start(tokens: &[crate::lex::Token], at: usize) -> usize {
    let mut i = at; // start of the consumed region
                    // `tokens[at - 1]` is the `.` between receiver and method name.
    if i == 0 || !matches!(&tokens[i - 1].tok, Tok::Punct(p) if *p == ".") {
        return at;
    }
    i -= 1;
    loop {
        if i == 0 {
            return i;
        }
        // Consume one receiver segment, right to left.
        match &tokens[i - 1].tok {
            Tok::Close(c) => {
                let open = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => return i, // `}` block: stop, not a postfix chain
                };
                let mut depth = 0usize;
                let mut j = i - 1;
                loop {
                    match &tokens[j].tok {
                        Tok::Close(x) if *x == *c => depth += 1,
                        Tok::Open(x) if *x == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        return i;
                    }
                    j -= 1;
                }
                i = j;
                // A call group may itself follow a name: `get(k)`.
                if i > 0 && matches!(&tokens[i - 1].tok, Tok::Ident(_)) {
                    i -= 1;
                }
            }
            Tok::Ident(_) | Tok::Num(_) | Tok::Str(_) | Tok::Char(_) => i -= 1,
            Tok::Punct(p) if *p == "?" => {
                i -= 1;
                continue; // postfix `?` glues to the next segment left
            }
            _ => return i,
        }
        // Continue only across `.` / `::` separators.
        if i == 0 {
            return i;
        }
        match &tokens[i - 1].tok {
            Tok::Punct(p) if *p == "." || *p == "::" => i -= 1,
            _ => return i,
        }
    }
}

/// True when the range contains a struct-literal construction: `Self`
/// or an uppercase-initial identifier immediately followed by `{`.
/// Tuple wrappers (`Some(key)`, `Ok(key)`) do not match — the inner
/// identifier keeps carrying taint through them.
fn constructs_container(tokens: &[crate::lex::Token], range: (usize, usize)) -> bool {
    let (a, b) = range;
    let end = b.min(tokens.len());
    for i in a..end.saturating_sub(1) {
        if let Tok::Ident(id) = &tokens[i].tok {
            let type_like =
                id == "Self" || id.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            if type_like && matches!(tokens[i + 1].tok, Tok::Open('{')) {
                return true;
            }
        }
    }
    false
}

fn ident_secret_in(
    tokens: &[crate::lex::Token],
    range: (usize, usize),
    sanitized: &[(usize, usize)],
    secret: &BTreeMap<String, Chain>,
    call_secret: &BTreeMap<usize, Chain>,
    facts: &crate::facts::FnFacts,
) -> Option<Chain> {
    let (a, b) = range;
    for (i, t) in tokens.iter().enumerate().take(b.min(tokens.len())).skip(a) {
        if covered(i, sanitized) {
            continue;
        }
        match &t.tok {
            Tok::Ident(id) => {
                if let Some(c) = secret.get(id) {
                    return Some(c.clone());
                }
            }
            Tok::Str(s) => {
                let mut caps = Vec::new();
                inline_captures(s, &mut caps);
                for cap in caps {
                    if let Some(c) = secret.get(&cap) {
                        return Some(c.clone());
                    }
                }
            }
            _ => {}
        }
    }
    for (ci, chain) in call_secret {
        let at = facts.calls[*ci].at;
        if at >= a && at < b && !covered(at, sanitized) {
            return Some(chain.clone());
        }
    }
    None
}

fn ident_param_in(
    tokens: &[crate::lex::Token],
    range: (usize, usize),
    sanitized: &[(usize, usize)],
    param: &BTreeSet<String>,
    call_param: &BTreeSet<usize>,
    facts: &crate::facts::FnFacts,
) -> bool {
    let (a, b) = range;
    for (i, t) in tokens.iter().enumerate().take(b.min(tokens.len())).skip(a) {
        if covered(i, sanitized) {
            continue;
        }
        match &t.tok {
            Tok::Ident(id) if param.contains(id) => {
                return true;
            }
            Tok::Str(s) => {
                let mut caps = Vec::new();
                inline_captures(s, &mut caps);
                if caps.iter().any(|c| param.contains(c)) {
                    return true;
                }
            }
            _ => {}
        }
    }
    call_param
        .iter()
        .any(|ci| facts.calls[*ci].at >= a && facts.calls[*ci].at < b)
}

fn covered(i: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i < b)
}

fn step(path: &str, line: u32, note: String) -> Step {
    Step {
        path: path.to_string(),
        line,
        note,
    }
}

/// Renders a chain as indented `file:line: note` lines.
pub fn render_chain(chain: &Chain) -> String {
    let mut out = String::new();
    for s in chain {
        out.push_str(&format!("    {}:{}: {}\n", s.path, s.line, s.note));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract;
    use crate::graph::CallGraph;
    use crate::lex::lex;
    use crate::syntax::parse;

    fn world(extra: &str) -> (Vec<ParsedFile>, CallGraph) {
        let files = [
            (
                "crates/crypto/src/lib.rs",
                "crypto",
                "pub fn derive_key(seed: &str) -> Vec<u8> { vec![0u8] }\n\
                 pub fn measure(data: &[u8]) -> u64 { 0 }\n",
            ),
            (
                "crates/obs/src/lib.rs",
                "obs",
                "pub struct Rec;\nimpl Rec {\n    pub fn label(&self, v: &str) { let _ = v; }\n}\n",
            ),
            ("crates/app/src/lib.rs", "app", extra),
        ];
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(p, m, text)| parse(p, m, lex(text)))
            .collect();
        let facts: Vec<Vec<_>> = parsed
            .iter()
            .map(|f| f.fns.iter().map(|i| extract(&f.tokens, i)).collect())
            .collect();
        let g = CallGraph::build(&parsed, &facts);
        (parsed, g)
    }

    fn cfg_of(g: &CallGraph) -> TaintConfig {
        TaintConfig {
            sources: g.find("derive_key").into_iter().collect(),
            sinks: g.find("Rec::label").into_iter().collect(),
            sanitizers: g.find("measure").into_iter().collect(),
        }
    }

    #[test]
    fn direct_leak_through_format_capture() {
        let (files, g) = world(
            "pub fn leak(r: &Rec) {\n\
             let key = derive_key(\"s\");\n\
             let msg = format!(\"k={key}\");\n\
             r.label(&msg);\n\
             }\n",
        );
        let findings = analyze(&g, &files, &cfg_of(&g));
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.path, "crates/app/src/lib.rs");
        assert!(f.message.contains("Rec::label"), "{}", f.message);
        let notes: Vec<&str> = f.chain.iter().map(|s| s.note.as_str()).collect();
        assert!(notes[0].contains("secret source"), "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("`key`")), "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("`msg`")), "{notes:?}");
        assert!(notes.last().unwrap().contains("sink"), "{notes:?}");
    }

    #[test]
    fn interprocedural_leak_via_forwarding_helper() {
        let (files, g) = world(
            "fn emit(r: &Rec, v: &str) { r.label(v); }\n\
             pub fn leak2(r: &Rec) {\n\
             let k = derive_key(\"s\");\n\
             let s = format!(\"{k}\");\n\
             emit(r, &s);\n\
             }\n",
        );
        let findings = analyze(&g, &files, &cfg_of(&g));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("via `app::emit`"));
        let notes: Vec<&str> = findings[0].chain.iter().map(|s| s.note.as_str()).collect();
        assert!(
            notes.iter().any(|n| n.contains("forwarded")),
            "callee-internal hops appended: {notes:?}"
        );
    }

    #[test]
    fn leak_via_secret_returning_helper() {
        let (files, g) = world(
            "fn get() -> String { let k = derive_key(\"s\"); format!(\"{k}\") }\n\
             pub fn leak3(r: &Rec) {\n\
             let v = get();\n\
             r.label(&v);\n\
             }\n",
        );
        let findings = analyze(&g, &files, &cfg_of(&g));
        assert_eq!(findings.len(), 1, "{findings:?}");
        let notes: Vec<&str> = findings[0].chain.iter().map(|s| s.note.as_str()).collect();
        assert!(notes.iter().any(|n| n.contains("returned")), "{notes:?}");
        assert!(
            notes.iter().any(|n| n.contains("secret returned by `get`")),
            "{notes:?}"
        );
    }

    #[test]
    fn sanitizer_clears_taint() {
        let (files, g) = world(
            "pub fn fine(r: &Rec) {\n\
             let key = derive_key(\"s\");\n\
             let h = measure(&key);\n\
             let msg = format!(\"h={h}\");\n\
             r.label(&msg);\n\
             }\n",
        );
        let findings = analyze(&g, &files, &cfg_of(&g));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn untainted_labels_are_clean_and_tests_are_skipped() {
        let (files, g) = world(
            "pub fn fine(r: &Rec, n: u64) {\n\
             let msg = format!(\"count={n}\");\n\
             r.label(&msg);\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             pub fn t(r: &super::Rec) { let k = super::derive_key(\"s\"); r.label(&format!(\"{k}\")); }\n\
             }\n",
        );
        let findings = analyze(&g, &files, &cfg_of(&g));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn direct_source_call_in_sink_args() {
        let (files, g) =
            world("pub fn leak4(r: &Rec) { r.label(&format!(\"{:?}\", derive_key(\"s\"))); }\n");
        let findings = analyze(&g, &files, &cfg_of(&g));
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "pub fn leak(r: &Rec) {\n\
                   let key = derive_key(\"s\");\n\
                   r.label(&format!(\"{key}\"));\n\
                   }\n";
        let (files, g) = world(src);
        let a = format!("{:?}", analyze(&g, &files, &cfg_of(&g)));
        let (files2, g2) = world(src);
        let b = format!("{:?}", analyze(&g2, &files2, &cfg_of(&g2)));
        assert_eq!(a, b);
    }
}
