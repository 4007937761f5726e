//! CLI-level tests for the interprocedural rules (`hot_path_purity`,
//! `opaque_call_budget`) over the seeded fixture trees
//! in `tests/fixtures/callgraph/` plus scratch trees for waiver
//! behaviour, and for the `callgraph` export subcommand.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::run_with;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/callgraph")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-graph-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("src")).expect("mkdir");
    dir
}

fn run(root: &Path, args: &[&str]) -> (i32, String) {
    let mut full: Vec<String> = vec![args[0].to_string()];
    full.push("--root".to_string());
    full.push(root.to_str().expect("utf8").to_string());
    full.extend(args[1..].iter().map(|s| s.to_string()));
    let mut out = Vec::new();
    let code = run_with(&full, &mut out);
    (code, String::from_utf8(out).expect("utf8 output"))
}

// ---- seeded fixtures: one violation each, the right one ----

/// The acceptance case: a hot-path entry whose panic lives two hops
/// away in another crate root. The diagnostic must carry the full
/// multi-hop blame path.
#[test]
fn purity_catches_cross_file_unwrap_with_blame_path() {
    let (code, out) = run(&fixture("purity_cross_file"), &["lint"]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[hot_path_purity]"), "{out}");
    assert!(out.contains("`Eng::ingest`"), "{out}");
    assert!(out.contains("`.unwrap()` (panic)"), "{out}");
    // Entry, intermediate hop and effect site all named, in order.
    assert!(
        out.contains(
            "call chain: Eng::ingest (core/src/hot.rs:10) -> \
             normalize (util/src/convert.rs:4) -> scale (util/src/convert.rs:8)"
        ),
        "{out}"
    );
    // Anchored at the entry point, not the effect site.
    assert!(out.contains("core/src/hot.rs:10:"), "{out}");
}

/// `use crate::helpers::quiet as calm;` must not launder the panic —
/// alias resolution connects the renamed call to the definition.
#[test]
fn purity_sees_through_use_renames() {
    let (code, out) = run(&fixture("rename_evasion"), &["lint"]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[hot_path_purity]"), "{out}");
    assert!(out.contains("-> quiet (src/helpers.rs:1)"), "{out}");
}

/// A panic behind a trait-method call on a typed receiver stays
/// visible: the declared type pins the impl.
#[test]
fn purity_sees_through_trait_method_indirection() {
    let (code, out) = run(&fixture("trait_indirection"), &["lint"]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[hot_path_purity]"), "{out}");
    assert!(
        out.contains("-> Widget::step (src/stage.rs:8) -> deep (src/stage.rs:13)"),
        "{out}"
    );
}

/// Two fn-pointer invocations against a budget of one; the sibling fn
/// within budget stays clean.
#[test]
fn opaque_budget_counts_indirect_calls() {
    let (code, out) = run(&fixture("opaque"), &["lint"]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[opaque_call_budget]"), "{out}");
    assert!(
        out.contains("2 unresolved indirect call(s) (budget 1)"),
        "{out}"
    );
    assert!(!out.contains("within_budget"), "{out}");
}

// ---- waiver behaviour ----

/// A `lint:allow(hot_path_purity)` on the *effect site* statement
/// waives the transitive finding.
#[test]
fn purity_waiver_at_effect_site_suppresses() {
    let root = scratch("waived");
    fs::write(
        root.join("src/hot.rs"),
        "pub fn entry(v: Option<u64>) -> u64 {\n    crate::util::helper(v)\n}\n",
    )
    .expect("write");
    fs::write(
        root.join("src/util.rs"),
        "pub fn helper(v: Option<u64>) -> u64 {\n\
         \x20   // lint:allow(hot_path_purity): fixture waiver\n\
         \x20   v.unwrap()\n}\n",
    )
    .expect("write");
    fs::write(
        root.join("lint.toml"),
        "[paths]\nroots = [\"src\"]\n\n[callgraph]\nentries = [\"src/hot.rs::entry\"]\n\
         purity_deny = [\"panic\"]\n",
    )
    .expect("write");
    let (code, out) = run(&root, &["lint"]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains("clean (1 waived)"), "{out}");
    let _ = fs::remove_dir_all(&root);
}

/// A graph-rule waiver on a statement nothing reaches is itself a
/// violation — the graph phase, not the per-file pass, owns that check.
#[test]
fn unused_graph_waiver_is_flagged() {
    let root = scratch("unusedwaiver");
    fs::write(
        root.join("src/hot.rs"),
        "pub fn entry() -> u64 {\n    1\n}\n\
         pub fn cold(v: Option<u64>) -> u64 {\n\
         \x20   // lint:allow(hot_path_purity): nothing reaches this\n\
         \x20   v.unwrap()\n}\n",
    )
    .expect("write");
    fs::write(
        root.join("lint.toml"),
        "[paths]\nroots = [\"src\"]\n\n[callgraph]\nentries = [\"src/hot.rs::entry\"]\n\
         purity_deny = [\"panic\"]\n",
    )
    .expect("write");
    let (code, out) = run(&root, &["lint"]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[unused_waiver]"), "{out}");
    assert!(
        out.contains("suppresses nothing reachable from the configured entry points"),
        "{out}"
    );
    let _ = fs::remove_dir_all(&root);
}

// ---- configuration errors ----

/// An entry spec that names a real file but no function in it is a
/// configuration error (exit 2) and the message lists what *is* there.
#[test]
fn unresolvable_entry_exits_two_and_lists_candidates() {
    let root = scratch("badentry");
    fs::write(
        root.join("src/hot.rs"),
        "pub fn real_entry() -> u64 {\n    1\n}\n",
    )
    .expect("write");
    fs::write(
        root.join("lint.toml"),
        "[paths]\nroots = [\"src\"]\n\n[callgraph]\nentries = [\"src/hot.rs::missing\"]\n",
    )
    .expect("write");
    let (code, out) = run(&root, &["lint"]);
    assert_eq!(code, 2, "output: {out}");
    assert!(out.contains("does not resolve to a function"), "{out}");
    assert!(out.contains("real_entry"), "{out}");
    let _ = fs::remove_dir_all(&root);
}

/// An entry spec naming a file that does not exist dies at config
/// validation, like any dangling path in lint.toml.
#[test]
fn entry_with_missing_file_exits_two() {
    let root = scratch("badentryfile");
    fs::write(root.join("src/hot.rs"), "pub fn f() -> u64 { 1 }\n").expect("write");
    fs::write(
        root.join("lint.toml"),
        "[paths]\nroots = [\"src\"]\n\n[callgraph]\nentries = [\"src/nope.rs::f\"]\n",
    )
    .expect("write");
    let (code, out) = run(&root, &["lint"]);
    assert_eq!(code, 2, "output: {out}");
    assert!(out.contains("src/nope.rs"), "{out}");
    let _ = fs::remove_dir_all(&root);
}

// ---- the `callgraph` export subcommand ----

#[test]
fn callgraph_dot_is_the_default_format() {
    let (code, out) = run(&fixture("purity_cross_file"), &["callgraph"]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.starts_with("digraph callgraph {"), "{out}");
    assert!(out.contains("Eng::ingest"), "{out}");
    assert!(out.contains(" -> "), "{out}");
    assert!(out.trim_end().ends_with('}'), "{out}");
}

#[test]
fn callgraph_json_lists_fns_and_edges() {
    let (code, out) = run(
        &fixture("purity_cross_file"),
        &["callgraph", "--format", "json"],
    );
    assert_eq!(code, 0, "output: {out}");
    assert!(out.starts_with("{\"fns\":["), "{out}");
    assert!(out.contains("\"edges\":["), "{out}");
    assert!(out.contains("\"name\":\"ingest\""), "{out}");
    assert!(out.contains("\"effects\":[\"panic\"]"), "{out}");
}

#[test]
fn callgraph_unknown_format_exits_two() {
    let (code, out) = run(
        &fixture("purity_cross_file"),
        &["callgraph", "--format", "xml"],
    );
    assert_eq!(code, 2, "output: {out}");
    assert!(out.contains("unknown format"), "{out}");
}

/// Ambiguous edges render dashed in dot so the conservative guesses are
/// visually distinct from pinned calls.
#[test]
fn callgraph_dot_marks_ambiguous_edges_dashed() {
    let root = scratch("dotdashed");
    fs::write(
        root.join("src/a.rs"),
        "pub struct A;\nimpl A {\n    pub fn tick(&self) -> u64 { 1 }\n}\n\
         pub struct B;\nimpl B {\n    pub fn tick(&self) -> u64 { 2 }\n}\n\
         pub fn entry(x: &dyn std::fmt::Debug) -> u64 {\n    let h = pick();\n    h.tick()\n}\n\
         fn pick() -> A {\n    A\n}\n",
    )
    .expect("write");
    fs::write(
        root.join("lint.toml"),
        "[paths]\nroots = [\"src\"]\n\n[callgraph]\nentries = [\"src/a.rs::entry\"]\n",
    )
    .expect("write");
    let (code, out) = run(&root, &["callgraph"]);
    assert_eq!(code, 0, "output: {out}");
    // `h` has no declared type (`pick()` is lowercase, not a `Type::ctor`
    // inference), so `h.tick()` fans out to both workspace `tick`s.
    assert!(out.contains("[style=dashed]"), "{out}");
    let _ = fs::remove_dir_all(&root);
}
