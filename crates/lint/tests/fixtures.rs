//! Fixture tests: one known-bad and one known-good snippet per rule,
//! plus annotation and allowlist behaviour. Fake paths are chosen to
//! land in (or out of) the module sets of [`LintConfig::repo_policy`].

use darkvec_lint::allow::Allowlist;
use darkvec_lint::{lint_source, Diagnostic, LintConfig};

fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
    let cfg = LintConfig::repo_policy();
    let mut rules: Vec<&'static str> = lint_source(path, src, &cfg)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------- DV001

#[test]
fn dv001_unsafe_without_safety_comment_is_flagged() {
    let src = "fn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n";
    assert_eq!(rules_hit("crates/x/src/a.rs", src), ["DV001"]);
}

#[test]
fn dv001_safety_comment_above_is_accepted() {
    let src = "fn f(p: *const f32) -> f32 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn dv001_trailing_safety_comment_is_accepted() {
    let src = "fn f(p: *const f32) -> f32 {\n    unsafe { *p } // SAFETY: caller guarantees p is valid\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn dv001_safety_doc_section_is_accepted() {
    let src = "/// Does a thing.\n///\n/// # Safety\n/// `p` must be valid for reads.\npub unsafe fn f(p: *const f32) -> f32 {\n    // SAFETY: contract forwarded from the fn's # Safety section\n    unsafe { *p }\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn dv001_comment_block_must_be_contiguous() {
    // A blank code line between the SAFETY comment and the unsafe token
    // breaks the association.
    let src = "fn f(p: *const f32) -> f32 {\n    // SAFETY: too far away\n    let _x = 1;\n    unsafe { *p }\n}\n";
    assert_eq!(rules_hit("crates/x/src/a.rs", src), ["DV001"]);
}

#[test]
fn dv001_applies_even_in_test_trees() {
    let src = "fn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n";
    assert_eq!(rules_hit("crates/x/tests/a.rs", src), ["DV001"]);
}

// ---------------------------------------------------------------- DV002

#[test]
fn dv002_unwrap_in_daemon_module_is_flagged() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(rules_hit("crates/darkvec/src/serve.rs", src), ["DV002"]);
}

#[test]
fn dv002_expect_and_panic_macros_are_flagged() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    if x.is_none() { panic!(\"no\"); }\n    x.expect(\"checked\")\n}\n";
    let cfg = LintConfig::repo_policy();
    let diags = lint_source("crates/darkvec/src/protocol.rs", src, &cfg);
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.rule == "DV002"));
}

#[test]
fn dv002_does_not_apply_outside_daemon_modules() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert!(rules_hit("crates/x/src/other.rs", src).is_empty());
}

#[test]
fn dv002_cfg_test_module_is_exempt() {
    let src = "fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1u32).unwrap();\n    }\n}\n";
    assert!(rules_hit("crates/darkvec/src/serve.rs", src).is_empty());
}

#[test]
fn dv002_unwrap_inside_string_literal_is_not_code() {
    let src = "fn f() -> &'static str {\n    \"call .unwrap() and panic!\"\n}\n";
    assert!(rules_hit("crates/darkvec/src/serve.rs", src).is_empty());
}

#[test]
fn dv002_unwrap_or_else_is_not_unwrap() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or_else(|| 0)\n}\n";
    assert!(rules_hit("crates/darkvec/src/serve.rs", src).is_empty());
}

// ---------------------------------------------------------------- DV003

#[test]
fn dv003_partial_cmp_call_is_flagged() {
    let src = "fn f(v: &mut Vec<f32>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let rules = rules_hit("crates/x/src/a.rs", src);
    assert!(rules.contains(&"DV003"), "{rules:?}");
}

#[test]
fn dv003_total_cmp_is_clean() {
    let src = "fn f(v: &mut Vec<f32>) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn dv003_partial_ord_impl_definition_is_exempt() {
    let src = "impl PartialOrd for W {\n    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {\n        Some(self.cmp(other))\n    }\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn dv003_float_ord_ok_annotation_is_honoured() {
    let src = "fn f(a: &u32, b: &u32) {\n    // lint: float-ord-ok(u32 keys, no floats in this comparison)\n    let _ = a.partial_cmp(b);\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

// ---------------------------------------------------------------- DV004

#[test]
fn dv004_hashmap_iteration_in_determinism_module_is_flagged() {
    let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u64>) -> u64 {\n    m.values().sum()\n}\n";
    assert_eq!(rules_hit("crates/darkvec/src/cache.rs", src), ["DV004"]);
}

#[test]
fn dv004_for_loop_over_tracked_map_is_flagged() {
    let src = "use std::collections::HashMap;\nfn f() {\n    let mut m = HashMap::new();\n    m.insert(1u32, 2u64);\n    for (k, v) in &m {\n        let _ = (k, v);\n    }\n}\n";
    assert_eq!(rules_hit("crates/darkvec/src/shard.rs", src), ["DV004"]);
}

#[test]
fn dv004_does_not_apply_outside_determinism_modules() {
    let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u64>) -> u64 {\n    m.values().sum()\n}\n";
    assert!(rules_hit("crates/x/src/other.rs", src).is_empty());
}

#[test]
fn dv004_btreemap_iteration_is_clean() {
    let src = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u64>) -> u64 {\n    m.values().sum()\n}\n";
    assert!(rules_hit("crates/darkvec/src/cache.rs", src).is_empty());
}

#[test]
fn dv004_nondeterministic_ok_annotation_is_honoured() {
    let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u64>) -> u64 {\n    // lint: nondeterministic-ok(integer sum is commutative)\n    m.values().sum()\n}\n";
    assert!(rules_hit("crates/darkvec/src/cache.rs", src).is_empty());
}

// ---------------------------------------------------------------- DV005

#[test]
fn dv005_relaxed_outside_annotated_module_is_flagged() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
    assert_eq!(rules_hit("crates/x/src/a.rs", src), ["DV005"]);
}

#[test]
fn dv005_file_scoped_relaxed_ok_blesses_whole_module() {
    let src = "// lint: relaxed-ok(this module holds metrics counters only)\nuse std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n    c.load(Ordering::Relaxed);\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn dv005_test_trees_are_exempt() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
    assert!(rules_hit("crates/x/tests/a.rs", src).is_empty());
}

#[test]
fn dv005_seqcst_is_always_clean() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::SeqCst);\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

// ---------------------------------------------------------------- DV006

#[test]
fn dv006_narrow_cast_in_wire_module_is_flagged() {
    let src = "fn f(v: &[u8]) -> u16 {\n    v.len() as u16\n}\n";
    assert_eq!(rules_hit("crates/darkvec/src/protocol.rs", src), ["DV006"]);
}

#[test]
fn dv006_cast_ok_annotation_is_honoured() {
    let src = "fn f(v: &[u8]) -> u16 {\n    v.len() as u16 // lint: cast-ok(caller caps v at MAX_FRAME which fits u16)\n}\n";
    assert!(rules_hit("crates/darkvec/src/protocol.rs", src).is_empty());
}

#[test]
fn dv006_widening_casts_are_clean() {
    let src = "fn f(v: &[u8]) -> u64 {\n    v.len() as u64\n}\n";
    assert!(rules_hit("crates/darkvec/src/protocol.rs", src).is_empty());
}

#[test]
fn the_codec_reader_is_a_daemon_and_a_cast_module() {
    // Every decoder of untrusted bytes reads through it.
    let src = "fn f(v: &[u8]) -> u16 {\n    v.first().copied().unwrap() as u16\n}\n";
    assert_eq!(
        rules_hit("crates/types/src/codec.rs", src),
        ["DV002", "DV006"]
    );
}

#[test]
fn dv006_does_not_apply_outside_cast_modules() {
    let src = "fn f(v: &[u8]) -> u16 {\n    v.len() as u16\n}\n";
    assert!(rules_hit("crates/x/src/other.rs", src).is_empty());
}

// ---------------------------------------------------------------- DV007

#[test]
fn dv007_annotation_without_reason_is_flagged() {
    let src = "fn f(v: &[u8]) -> u16 {\n    v.len() as u16 // lint: cast-ok()\n}\n";
    let rules = rules_hit("crates/darkvec/src/protocol.rs", src);
    assert!(rules.contains(&"DV007"), "{rules:?}");
}

#[test]
fn dv007_unknown_ok_annotation_name_is_flagged() {
    let src = "fn f() {\n    // lint: casts-ok(typo in the annotation name)\n    let _ = 1;\n}\n";
    assert_eq!(rules_hit("crates/x/src/a.rs", src), ["DV007"]);
}

#[test]
fn dv007_prose_mentioning_lint_colon_is_not_an_annotation() {
    let src = "fn f() {\n    // run the lint: cargo run -p darkvec-lint\n    let _ = 1;\n}\n";
    assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
}

// ------------------------------------------------------- DV008 allowlist

fn one_diag(path: &str, src: &str) -> (Diagnostic, String) {
    let cfg = LintConfig::repo_policy();
    let diags = lint_source(path, src, &cfg);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = diags.into_iter().next().expect("asserted nonempty");
    let line_text = src
        .lines()
        .nth(d.line - 1)
        .expect("diagnostic points into src")
        .to_string();
    (d, line_text)
}

#[test]
fn allowlist_entry_absolves_matching_diagnostic() {
    let (d, line_text) = one_diag(
        "crates/darkvec/src/serve.rs",
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let mut allow = Allowlist::parse(
        "lint.allow",
        "DV002 | serve.rs | x.unwrap() | fixture: documented false positive\n",
    );
    assert!(allow.absolves(&d, &line_text));
    assert!(allow.stale_entries().is_empty());
}

#[test]
fn allowlist_mismatched_fragment_does_not_absolve_and_goes_stale() {
    let (d, line_text) = one_diag(
        "crates/darkvec/src/serve.rs",
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let mut allow = Allowlist::parse(
        "lint.allow",
        "DV002 | serve.rs | some_other_code | fixture: stale entry\n",
    );
    assert!(!allow.absolves(&d, &line_text));
    let stale = allow.stale_entries();
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].rule, "DV008");
}

#[test]
fn allowlist_entry_without_reason_is_a_violation() {
    let allow = Allowlist::parse("lint.allow", "DV002 | serve.rs | x.unwrap() |\n");
    let stale = allow.stale_entries();
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].rule, "DV008");
    assert!(
        stale[0].message.contains("no reason"),
        "{}",
        stale[0].message
    );
}

#[test]
fn allowlist_malformed_line_is_a_violation() {
    let allow = Allowlist::parse("lint.allow", "DV002 serve.rs whatever\n");
    let stale = allow.stale_entries();
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].rule, "DV008");
}

#[test]
fn allowlist_comments_and_blank_lines_are_ignored() {
    let allow = Allowlist::parse("lint.allow", "# a comment\n\n   \n# another\n");
    assert!(allow.entries.is_empty());
    assert!(allow.stale_entries().is_empty());
}

// ------------------------------------------------------------ reporting

#[test]
fn diagnostics_carry_file_line_and_rule() {
    let cfg = LintConfig::repo_policy();
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let diags = lint_source("crates/darkvec/src/cache.rs", src, &cfg);
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/darkvec/src/cache.rs:2: DV002 "),
        "{rendered}"
    );
}
