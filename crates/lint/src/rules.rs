//! The rule implementations. Every rule is a token-level heuristic; the
//! doc comment of each function states exactly what pattern it matches
//! and what escapes exist, because a lint nobody can predict is a lint
//! people turn off.

use crate::lex::{Kind, Lexed};
use crate::Diagnostic;

/// A parsed `// lint: name(reason)` annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Annotation {
    /// 1-based line the annotation comment is on.
    pub line: usize,
    /// Annotation name, e.g. `cast-ok`.
    pub name: String,
    /// The written justification (may be empty — DV007 catches that).
    pub reason: String,
}

/// Annotation names the rules understand.
pub const KNOWN_ANNOTATIONS: &[&str] = &[
    "float-ord-ok",
    "nondeterministic-ok",
    "cast-ok",
    "relaxed-ok",
];

/// Shared per-file context handed to each rule.
pub struct Ctx<'a> {
    /// Workspace-relative path (reporting + scoping).
    pub path: &'a str,
    /// The lexed source.
    pub lexed: &'a Lexed,
    /// All annotations in the file.
    pub annotations: &'a [Annotation],
    /// Line spans of `#[cfg(test)] mod … { … }` regions.
    pub test_spans: &'a [(usize, usize)],
    /// True when the whole file is test/example code by location.
    pub in_test_tree: bool,
}

impl Ctx<'_> {
    fn diag(&self, line: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.path.to_string(),
            line,
            rule,
            message,
        }
    }

    /// Is `line` inside a `#[cfg(test)] mod` block?
    fn in_test_span(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// Is there an annotation `name` on `line` or the line above?
    fn annotated(&self, line: usize, name: &str) -> bool {
        self.annotations
            .iter()
            .any(|a| a.name == name && (a.line == line || a.line + 1 == line))
    }

    /// Is there an annotation `name` anywhere in the file (file-scoped
    /// annotations, used by DV005)?
    fn file_annotated(&self, name: &str) -> bool {
        self.annotations.iter().any(|a| a.name == name)
    }
}

/// True for files that are test or example code by location: anything
/// under a `tests/` or `examples/` directory, or a `benches/` harness.
/// DV002 and DV005 do not apply there — panicking asserts and relaxed
/// test counters are fine outside production code.
pub fn is_test_tree(path: &str) -> bool {
    let p = format!("/{path}");
    p.contains("/tests/") || p.contains("/examples/") || p.contains("/benches/")
}

/// Is `name` a plausible annotation name? Kebab-case ending in `-ok` —
/// this keeps prose like "run the lint: cargo run …" from being parsed
/// as an annotation attempt, while still catching misspelled `-ok`
/// names via DV007.
fn plausible_annotation_name(name: &str) -> bool {
    !name.is_empty()
        && name.ends_with("-ok")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// Extracts every `lint: name(reason)` annotation from the comments.
pub fn parse_annotations(lexed: &Lexed) -> Vec<Annotation> {
    let mut out = Vec::new();
    for (line, text) in &lexed.comments {
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("lint:") {
            rest = &rest[pos + "lint:".len()..];
            let rest_trim = rest.trim_start();
            let Some(open) = rest_trim.find('(') else {
                // `lint:` with no parenthesised reason — record it (if the
                // name is plausible) so DV007 can complain about it.
                let name: String = rest_trim
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                if plausible_annotation_name(&name) {
                    out.push(Annotation {
                        line: *line,
                        name,
                        reason: String::new(),
                    });
                }
                break;
            };
            let name = rest_trim[..open].trim().to_string();
            if !plausible_annotation_name(&name) {
                rest = &rest_trim[open + 1..];
                continue;
            }
            // Balanced-paren scan so reasons may contain parentheses.
            let mut depth = 0usize;
            let mut end = None;
            for (i, c) in rest_trim.char_indices().skip(open) {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(i);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let (reason, consumed) = match end {
                Some(e) => (rest_trim[open + 1..e].trim().to_string(), e + 1),
                None => (rest_trim[open + 1..].trim().to_string(), rest_trim.len()),
            };
            out.push(Annotation {
                line: *line,
                name,
                reason,
            });
            rest = &rest_trim[consumed.min(rest_trim.len())..];
        }
    }
    out
}

/// DV007 — every annotation must carry a non-empty reason and a known
/// name. An annotation is a reviewed claim; "`cast-ok()`" claims nothing.
pub fn annotation_reasons(path: &str, annotations: &[Annotation], out: &mut Vec<Diagnostic>) {
    for a in annotations {
        if !KNOWN_ANNOTATIONS.contains(&a.name.as_str()) {
            out.push(Diagnostic {
                file: path.to_string(),
                line: a.line,
                rule: "DV007",
                message: format!(
                    "unknown lint annotation `{}` (known: {})",
                    a.name,
                    KNOWN_ANNOTATIONS.join(", ")
                ),
            });
        } else if a.reason.is_empty() {
            out.push(Diagnostic {
                file: path.to_string(),
                line: a.line,
                rule: "DV007",
                message: format!(
                    "annotation `{}` has no reason — write why the site is sound",
                    a.name
                ),
            });
        }
    }
}

/// Line spans of `#[cfg(test)] mod name { … }` blocks, located by token
/// scan and brace matching.
pub fn test_spans(lexed: &Lexed) -> Vec<(usize, usize)> {
    let t = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < t.len() {
        // #[cfg(test…)]
        let is_cfg_test = t[i].is_punct('#')
            && t[i + 1].is_punct('[')
            && t[i + 2].is_word("cfg")
            && t[i + 3].is_punct('(')
            && t[i + 4].is_word("test");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip to the closing `]` of the attribute, then past any
        // further attributes, to `mod name {`.
        let mut j = i + 5;
        while j < t.len() && !t[j].is_punct(']') {
            j += 1;
        }
        j += 1;
        while j + 1 < t.len() && t[j].is_punct('#') && t[j + 1].is_punct('[') {
            while j < t.len() && !t[j].is_punct(']') {
                j += 1;
            }
            j += 1;
        }
        if j < t.len() && t[j].is_word("pub") {
            j += 1;
        }
        if j + 2 < t.len() && t[j].is_word("mod") && t[j + 2].is_punct('{') {
            let open_line = t[j + 2].line;
            let mut depth = 0i64;
            let mut k = j + 2;
            let mut close_line = open_line;
            while k < t.len() {
                if t[k].is_punct('{') {
                    depth += 1;
                } else if t[k].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        close_line = t[k].line;
                        break;
                    }
                }
                k += 1;
            }
            spans.push((open_line, close_line.max(open_line)));
            i = k;
        } else {
            i = j;
        }
    }
    spans
}

/// Does the raw line at 1-based `line` look like a comment or attribute
/// line (the lines DV001 is allowed to scan across)?
fn is_comment_or_attr_line(lexed: &Lexed, line: usize) -> bool {
    let Some(text) = lexed.lines.get(line.wrapping_sub(1)) else {
        return false;
    };
    let t = text.trim_start();
    t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") || t.starts_with('*')
}

fn line_has_safety(lexed: &Lexed, line: usize) -> bool {
    lexed
        .lines
        .get(line.wrapping_sub(1))
        .is_some_and(|t| t.contains("SAFETY:") || t.contains("# Safety"))
}

/// DV001 — every `unsafe` keyword (block or fn) must be immediately
/// preceded by a safety argument: a `// SAFETY:` line comment for
/// blocks, or a doc comment with a `# Safety` section for `unsafe fn`
/// declarations (the rustdoc convention clippy's `missing_safety_doc`
/// enforces for public functions). "Immediately preceded" means the
/// contiguous run of comment/attribute lines directly above the token's
/// line (or a trailing comment on the same line). Applies everywhere,
/// tests included — unsoundness does not care where it lives.
pub fn unsafe_needs_safety(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    'tok: for tok in &ctx.lexed.tokens {
        if !tok.is_word("unsafe") {
            continue;
        }
        if line_has_safety(ctx.lexed, tok.line) {
            continue;
        }
        let mut l = tok.line - 1;
        while l >= 1 && is_comment_or_attr_line(ctx.lexed, l) {
            if line_has_safety(ctx.lexed, l) {
                continue 'tok;
            }
            l -= 1;
        }
        out.push(
            ctx.diag(
                tok.line,
                "DV001",
                "`unsafe` without an immediately preceding `// SAFETY:` comment \
             (or `# Safety` doc section) stating the invariants it relies on"
                    .to_string(),
            ),
        );
    }
}

/// DV002 — no `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`,
/// `todo!` or `unimplemented!` in daemon-facing modules: a panic in the
/// serve path is an outage, so errors must propagate (count them via
/// darkvec-obs where a connection must be dropped). `#[cfg(test)]`
/// modules inside those files are exempt. `assert!` is deliberately NOT
/// banned: the daemon uses it only for startup preconditions and
/// programmer-bug guards, which *should* fail loudly.
pub fn daemon_no_panic(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    if ctx.in_test_tree {
        return;
    }
    let t = &ctx.lexed.tokens;
    for i in 0..t.len() {
        if ctx.in_test_span(t[i].line) {
            continue;
        }
        let hit = match t[i].text.as_str() {
            "unwrap" | "expect" if t[i].kind == Kind::Word => {
                i > 0 && t[i - 1].is_punct('.') && t.get(i + 1).is_some_and(|n| n.is_punct('('))
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if t[i].kind == Kind::Word => {
                t.get(i + 1).is_some_and(|n| n.is_punct('!'))
            }
            _ => false,
        };
        if hit {
            out.push(ctx.diag(
                t[i].line,
                "DV002",
                format!(
                    "`{}` in a daemon-facing module — propagate the error instead \
                     (record a fault via darkvec-obs if the connection must drop)",
                    t[i].text
                ),
            ));
        }
    }
}

/// DV003 — float comparisons must be total: `.partial_cmp(` is banned
/// everywhere (use `f32::total_cmp`/`f64::total_cmp`, which PR 4
/// adopted after a NaN similarity broke a sort). A `fn partial_cmp`
/// *definition* (a `PartialOrd` impl delegating to `Ord::cmp`) is
/// exempt. Escape hatch: `// lint: float-ord-ok(reason)` for genuinely
/// non-float comparisons the heuristic cannot see.
pub fn float_total_cmp(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let t = &ctx.lexed.tokens;
    for i in 0..t.len() {
        if !t[i].is_word("partial_cmp") {
            continue;
        }
        if i > 0 && t[i - 1].is_word("fn") {
            continue; // PartialOrd impl definition
        }
        if ctx.annotated(t[i].line, "float-ord-ok") {
            continue;
        }
        out.push(
            ctx.diag(
                t[i].line,
                "DV003",
                "`partial_cmp` call — NaN makes this order partial; use `total_cmp` \
             (or annotate `// lint: float-ord-ok(reason)` if no floats are involved)"
                    .to_string(),
            ),
        );
    }
}

/// DV005 — `Ordering::Relaxed` is reserved for modules that *are*
/// Hogwild kernels or metrics counters, declared by a file-scoped
/// `// lint: relaxed-ok(reason)` annotation in the module header.
/// Anywhere else, a relaxed atomic in new code is far more likely to be
/// a misremembered `SeqCst` than a deliberate weak-memory design. The
/// heuristic matches the bare identifier `Relaxed`; test trees and
/// `#[cfg(test)]` modules are exempt.
pub fn relaxed_ordering(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    if ctx.in_test_tree || ctx.file_annotated("relaxed-ok") {
        return;
    }
    for tok in &ctx.lexed.tokens {
        if tok.is_word("Relaxed") && !ctx.in_test_span(tok.line) {
            out.push(
                ctx.diag(
                    tok.line,
                    "DV005",
                    "`Ordering::Relaxed` outside a module annotated \
                 `// lint: relaxed-ok(reason)` — only Hogwild kernels and \
                 metrics counters may use relaxed atomics"
                        .to_string(),
                ),
            );
        }
    }
}

/// Narrow integer cast targets DV006 flags. `usize`/`u64`/`i64` are
/// excluded (widening on every supported target), floats are excluded
/// (not silently *wrapping*, and float conversion legitimately rounds).
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// DV006 — in wire-protocol modules, every `as` cast to a narrow
/// integer type must carry a `// lint: cast-ok(reason)` annotation
/// stating why the value fits: a silently wrapping length or code
/// corrupts bytes on the wire instead of failing. `#[cfg(test)]` modules
/// are exempt.
pub fn truncating_cast(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let t = &ctx.lexed.tokens;
    for i in 0..t.len() {
        if !t[i].is_word("as") || ctx.in_test_span(t[i].line) {
            continue;
        }
        let Some(next) = t.get(i + 1) else { continue };
        if next.kind != Kind::Word || !NARROW_TARGETS.contains(&next.text.as_str()) {
            continue;
        }
        if ctx.annotated(t[i].line, "cast-ok") {
            continue;
        }
        out.push(ctx.diag(
            t[i].line,
            "DV006",
            format!(
                "`as {}` in a wire-protocol module without \
                 `// lint: cast-ok(reason)` — state the bound that makes the \
                 cast lossless (or check it and propagate an error)",
                next.text
            ),
        ));
    }
}

/// Hash-container iteration methods DV004 watches for.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// DV004 — in determinism-critical modules, iterating a `HashMap` /
/// `HashSet` is flagged unless annotated
/// `// lint: nondeterministic-ok(reason)`: iteration order is seeded
/// per-process, so any float accumulation, serialization or output
/// ordering fed from it silently breaks the bit-identity gates.
///
/// Heuristic, in two passes: (1) collect identifiers *declared* with a
/// hash type — `name: [&][mut] HashMap<…>` (fields, params, lets) and
/// `let [mut] name = HashMap::new()` — then (2) flag
/// `name.iter()`-style calls and `for … in` expressions mentioning a
/// tracked name. Aliases that launder a map through another binding are
/// not caught; the committed allowlist documents known false positives
/// (same-named non-hash fields).
pub fn hash_iteration(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let t = &ctx.lexed.tokens;
    let mut tracked: Vec<&str> = Vec::new();

    // Pass 1a: `name : [&]['a][mut][std::collections::] HashMap|HashSet`
    for i in 0..t.len() {
        if !t[i].is_punct(':') || i == 0 || t[i - 1].kind != Kind::Word {
            continue;
        }
        // Skip `::` paths (the previous token of `a::b` is a word too).
        if i >= 2 && t[i - 2].is_punct(':') {
            continue;
        }
        if t.get(i + 1).is_some_and(|n| n.is_punct(':')) {
            continue; // `name::…`, not a type ascription
        }
        let mut j = i + 1;
        while j < t.len()
            && (t[j].is_punct('&')
                || t[j].kind == Kind::Lifetime
                || t[j].is_word("mut")
                || t[j].is_word("std")
                || t[j].is_word("collections")
                || t[j].is_punct(':'))
        {
            j += 1;
        }
        if t.get(j)
            .is_some_and(|w| w.is_word("HashMap") || w.is_word("HashSet"))
        {
            tracked.push(t[i - 1].text.as_str());
        }
    }
    // Pass 1b: `let [mut] name = HashMap::new()` etc.
    for i in 0..t.len() {
        if !t[i].is_word("let") {
            continue;
        }
        let mut j = i + 1;
        if t.get(j).is_some_and(|w| w.is_word("mut")) {
            j += 1;
        }
        let Some(name) = t.get(j).filter(|w| w.kind == Kind::Word) else {
            continue;
        };
        if t.get(j + 1).is_some_and(|p| p.is_punct('='))
            && t.get(j + 2)
                .is_some_and(|w| w.is_word("HashMap") || w.is_word("HashSet"))
        {
            tracked.push(name.text.as_str());
        }
    }
    if tracked.is_empty() {
        return;
    }

    let mut flagged: Vec<(usize, String)> = Vec::new();
    // Pass 2a: `name.iter()` / `name.keys()` / …
    for i in 0..t.len() {
        let is_iter_call = t[i].kind == Kind::Word
            && ITER_METHODS.contains(&t[i].text.as_str())
            && i >= 2
            && t[i - 1].is_punct('.')
            && t[i - 2].kind == Kind::Word
            && tracked.contains(&t[i - 2].text.as_str())
            && t.get(i + 1).is_some_and(|n| n.is_punct('('));
        if is_iter_call {
            flagged.push((t[i].line, t[i - 2].text.clone()));
        }
    }
    // Pass 2b: `for pat in <expr mentioning a tracked name> {`
    let mut i = 0usize;
    while i < t.len() {
        if t[i].is_word("for") {
            let mut j = i + 1;
            while j < t.len() && !t[j].is_word("in") && !t[j].is_punct('{') {
                j += 1;
            }
            if j < t.len() && t[j].is_word("in") {
                let mut k = j + 1;
                while k < t.len() && !t[k].is_punct('{') {
                    if t[k].kind == Kind::Word && tracked.contains(&t[k].text.as_str()) {
                        flagged.push((t[i].line, t[k].text.clone()));
                        break;
                    }
                    k += 1;
                }
                i = j;
            }
        }
        i += 1;
    }

    flagged.sort();
    flagged.dedup();
    for (line, name) in flagged {
        if ctx.in_test_span(line) || ctx.annotated(line, "nondeterministic-ok") {
            continue;
        }
        out.push(ctx.diag(
            line,
            "DV004",
            format!(
                "iteration over hash container `{name}` in a determinism-critical \
                 module — sort first, or annotate \
                 `// lint: nondeterministic-ok(reason)` explaining why order \
                 cannot reach an output"
            ),
        ));
    }
}
