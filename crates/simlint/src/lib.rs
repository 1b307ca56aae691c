//! `simlint` — workspace-wide determinism & soundness lints for the
//! Frontier simulator.
//!
//! The repro's headline guarantee — every figure and table renders
//! byte-identical whether run `--serial` or in parallel — is enforced
//! dynamically by the CI `cmp` gate on one small-scale run. This crate
//! enforces the *source-level* discipline that makes the guarantee hold
//! at every scale, on every code path, including the ones a small run
//! never exercises.
//!
//! # The rules
//!
//! Every rule is a per-file token rule that sees one lexed file at a
//! time:
//!
//! * [`rules::WALLCLOCK`] — wall-clock reads only in `sim-core::metrics`;
//! * [`rules::UNKEYED_RNG`] — all randomness keyed & seeded;
//! * [`rules::PAR_RAW_ATOMIC`] — only commutative metric updates inside
//!   `par::` closures;
//! * [`rules::PANIC_IN_LIB`] — panic budget in library crates, ratcheted
//!   downward via `simlint.ratchet`;
//! * [`rules::BARE_ALLOW`] — every suppression carries a justification;
//! * [`rules::HASH_ITER_REACH`] — no hash-ordered iteration in production
//!   code (any function may feed a render sink), and no hash container
//!   at all in a render-path file;
//! * [`rules::GLOBAL_METRICS`] — no `metrics::global()` in libraries;
//! * [`rules::RAW_THREADS`] — threads are made only in
//!   `sim-core::par`, which installs the caller's metrics scope on every
//!   helper and has no reduction, so no scope can drop and no float
//!   result can follow the schedule.
//!
//! The analysis is a hand-rolled token-level pass (see [`lexer`]): a
//! linter that must gate CI should not depend on the code it audits —
//! or on anything else.
//!
//! Run it with `cargo run -p simlint`; suppress a justified finding with
//! `// simlint::allow(<rule>): <why this is sound>`.
//!
//! # Writing a new rule
//!
//! 1. Add an id const and a [`rules::Rule`] entry (summary, invariant,
//!    `explain` text for `--explain`, and whether pre-existing debt is
//!    tolerated via the ratchet).
//! 2. Implement the check as a `fn(&SourceFile, &mut Vec<Diagnostic>)`
//!    wired into [`rules::check_file`]; it can use token text,
//!    [`source::FileKind`], `in_test_region`, and `in_par_region`.
//! 3. Keep it deterministic: `BTree*` collections only, iterate tokens
//!    in index order — the self-check runs simlint on itself.
//! 4. Add fixture tests in `tests/rules.rs` (positive, clean, and
//!    suppressed shapes), then audit the workspace: fix every real
//!    finding or justify it with `simlint::allow(<rule>): why`, so the
//!    self-check stays clean.
//! 5. Over-approximate in the flagging direction. A lint for a
//!    determinism guarantee must not miss real flows; a false positive
//!    costs one reviewed `allow` comment, a false negative costs a
//!    nondeterministic artifact nobody notices.

pub mod diag;
pub mod lexer;
pub mod ratchet;
pub mod rules;
pub mod source;

use diag::Diagnostic;
use ratchet::{Ratchet, RatchetDelta};
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that hold lintable sources.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Directory names never descended into: build output, lint fixtures
/// (deliberate violations), VCS internals.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

/// The full outcome of linting a workspace.
pub struct Outcome {
    /// Every diagnostic, sorted by (file, line, rule), with suppression
    /// and ratchet status applied.
    pub diagnostics: Vec<Diagnostic>,
    pub ratchet_delta: RatchetDelta,
    /// Current ratchetable debt (what `--update-ratchet` would write).
    pub current_debt: Ratchet,
}

impl Outcome {
    /// Diagnostics that gate the build.
    pub fn failures(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_failure())
    }

    pub fn is_clean(&self) -> bool {
        self.failures().next().is_none() && self.ratchet_delta.over.is_empty()
    }
}

/// Recursively collect `.rs` files under `root`'s scan roots, returning
/// workspace-relative paths with `/` separators, sorted.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint a set of `(workspace-relative path, source)` files: every rule on
/// each file, then suppressions, then a sort by (file, line, rule).
pub fn analyze_files(inputs: &[(String, String)]) -> Vec<Diagnostic> {
    let files: Vec<SourceFile> = inputs
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel, src))
        .collect();
    let mut diags = Vec::new();
    for f in &files {
        rules::check_file(f, &mut diags);
    }
    rules::apply_suppressions(&files, &mut diags);
    diag::sort(&mut diags);
    diags
}

/// Lint one source text under its workspace-relative path. This is the
/// fixture-test entry point: the path determines the file's kind and
/// which path-scoped rules apply.
pub fn analyze_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    analyze_files(&[(rel.to_string(), src.to_string())])
}

/// Lint the whole workspace at `root` against its `simlint.ratchet`
/// (missing ratchet = zero tolerated debt).
pub fn run_workspace(root: &Path) -> std::io::Result<Outcome> {
    let ratchet_text =
        std::fs::read_to_string(root.join(ratchet::RATCHET_FILE)).unwrap_or_default();
    let ratchet = Ratchet::parse(&ratchet_text);

    let mut inputs: Vec<(String, String)> = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        inputs.push((rel, src));
    }
    let mut diags = analyze_files(&inputs);

    let ratchet_delta = ratchet.apply(&mut diags);
    let current_debt = Ratchet::current(&diags);
    Ok(Outcome {
        diagnostics: diags,
        ratchet_delta,
        current_debt,
    })
}

/// The workspace root when running via `cargo run -p simlint` or in this
/// crate's tests: two levels above this crate's manifest.
pub fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
