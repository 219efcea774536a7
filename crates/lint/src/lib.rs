//! # darkvec-lint
//!
//! A repo-specific static-analysis pass over the DarkVec workspace — the
//! invariants PR 4 (NaN-safe ordering), PR 6 (panic-free serving) and
//! PR 8 (bit-identity gates) fixed by hand, turned into machine checks
//! so no future change can quietly reintroduce them. Std-only and
//! token-level by design: [`lex`](lex::lex) strips comments and literal
//! contents, and each rule is an explicitly documented heuristic over
//! the token stream. See `DESIGN.md` §14 for the rule catalogue.
//!
//! ## Rules
//!
//! | id | name | scope |
//! |----|------|-------|
//! | DV001 | `unsafe-needs-safety` | workspace |
//! | DV002 | `daemon-no-panic` | daemon modules |
//! | DV003 | `float-total-cmp` | workspace |
//! | DV004 | `hash-iteration` | determinism-critical modules |
//! | DV005 | `relaxed-ordering` | workspace (non-test) |
//! | DV006 | `truncating-cast` | wire-protocol modules |
//! | DV007 | `annotation-reason` | anywhere an annotation appears |
//! | DV008 | `stale-allowlist` | the allowlist file |
//!
//! ## Annotation grammar
//!
//! A violation site is blessed by a comment annotation on the same line
//! or the line directly above:
//!
//! ```text
//! // lint: <name>(<reason>)
//! ```
//!
//! where `<name>` is one of `float-ord-ok` (DV003), `nondeterministic-ok`
//! (DV004), `cast-ok` (DV006), and `relaxed-ok` (DV005 — file-scoped:
//! one annotation in the module header blesses every `Relaxed` in the
//! file, declaring it a Hogwild/metrics-counter module). The reason is
//! mandatory (DV007) — an annotation is a reviewed claim, not a mute
//! button.

pub mod allow;
pub mod lex;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id, e.g. `DV001`.
    pub rule: &'static str,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which files each module-scoped rule applies to. Paths are matched by
/// suffix against the workspace-relative file path, so test callers can
/// use short fake paths.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// DV002: long-running daemon code — a panic here is an outage.
    pub daemon_modules: Vec<String>,
    /// DV004: modules whose outputs must be bit-deterministic (cache
    /// keys, corpus/shard merge, wire replies, manifest serialization).
    pub determinism_modules: Vec<String>,
    /// DV006: binary wire formats — a silently truncating cast here
    /// corrupts data instead of crashing.
    pub cast_modules: Vec<String>,
}

impl LintConfig {
    /// The committed policy for this repository.
    pub fn repo_policy() -> Self {
        LintConfig {
            daemon_modules: vec![
                "crates/darkvec/src/serve.rs".into(),
                "crates/darkvec/src/protocol.rs".into(),
                "crates/darkvec/src/cache.rs".into(),
                "crates/darkvec/src/window.rs".into(),
                "crates/obs/src/serve.rs".into(),
                "crates/types/src/codec.rs".into(),
            ],
            determinism_modules: vec![
                "crates/darkvec/src/cache.rs".into(),
                "crates/darkvec/src/corpus.rs".into(),
                "crates/darkvec/src/shard.rs".into(),
                "crates/darkvec/src/protocol.rs".into(),
                "crates/darkvec/src/serve.rs".into(),
                "crates/darkvec/src/window.rs".into(),
                "crates/obs/src/manifest.rs".into(),
            ],
            cast_modules: vec![
                "crates/darkvec/src/protocol.rs".into(),
                "crates/types/src/codec.rs".into(),
            ],
        }
    }

    fn applies(list: &[String], path: &str) -> bool {
        list.iter().any(|m| path.ends_with(m.as_str()))
    }

    /// Whether DV002 applies to `path`.
    pub fn is_daemon(&self, path: &str) -> bool {
        Self::applies(&self.daemon_modules, path)
    }

    /// Whether DV004 applies to `path`.
    pub fn is_determinism(&self, path: &str) -> bool {
        Self::applies(&self.determinism_modules, path)
    }

    /// Whether DV006 applies to `path`.
    pub fn is_cast(&self, path: &str) -> bool {
        Self::applies(&self.cast_modules, path)
    }
}

/// Lints one source file. `path` is the workspace-relative path used for
/// scoping and reporting; it does not need to exist on disk.
pub fn lint_source(path: &str, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    let lexed = lex::lex(src);
    let annotations = rules::parse_annotations(&lexed);
    let mut diags = Vec::new();
    rules::annotation_reasons(path, &annotations, &mut diags);
    let ctx = rules::Ctx {
        path,
        lexed: &lexed,
        annotations: &annotations,
        test_spans: &rules::test_spans(&lexed),
        in_test_tree: rules::is_test_tree(path),
    };
    rules::unsafe_needs_safety(&ctx, &mut diags);
    rules::float_total_cmp(&ctx, &mut diags);
    rules::relaxed_ordering(&ctx, &mut diags);
    if cfg.is_daemon(path) {
        rules::daemon_no_panic(&ctx, &mut diags);
    }
    if cfg.is_determinism(path) {
        rules::hash_iteration(&ctx, &mut diags);
    }
    if cfg.is_cast(path) {
        rules::truncating_cast(&ctx, &mut diags);
    }
    diags.sort();
    diags
}

/// Collects every lintable `.rs` file under `root`: the workspace's own
/// code (`crates/`, `src/`, `tests/`, `examples/`), skipping build
/// output (`target/`) and the vendored third-party stubs (`vendor/` —
/// not this repo's code to annotate).
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | ".git") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived the allowlist, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files: usize,
}

/// Lints `files` (paths made `root`-relative for reporting), applying
/// `allowlist`. Stale allowlist entries are themselves violations
/// (DV008), so the committed allowlist can only shrink honestly.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    cfg: &LintConfig,
    allowlist: &mut allow::Allowlist,
) -> io::Result<Report> {
    let mut report = Report::default();
    // path -> source lines, for allowlist fragment matching.
    let mut line_cache: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in files {
        let src = fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let diags = lint_source(&rel, &src, cfg);
        if !diags.is_empty() {
            line_cache.insert(rel.clone(), src.lines().map(str::to_string).collect());
        }
        for d in diags {
            let line_text = line_cache
                .get(&d.file)
                .and_then(|lines| lines.get(d.line.saturating_sub(1)))
                .map(String::as_str)
                .unwrap_or("");
            if !allowlist.absolves(&d, line_text) {
                report.diagnostics.push(d);
            }
        }
        report.files += 1;
    }
    report.diagnostics.extend(allowlist.stale_entries());
    report.diagnostics.sort();
    Ok(report)
}
