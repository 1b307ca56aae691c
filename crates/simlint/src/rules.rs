//! The rule registry. Every rule encodes one invariant the simulator's
//! parallel ≡ serial reproducibility guarantee rests on (see DESIGN
//! §3.8); each has fixture tests in `tests/rules.rs` proving it catches
//! its target pattern and respects suppressions.
//!
//! Every rule is a per-file token rule that sees one [`SourceFile`] at a
//! time.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Static description of one lint rule.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    /// The invariant the rule protects, surfaced by `--list-rules`.
    pub invariant: &'static str,
    /// Long-form rationale and fix guidance, surfaced by `--explain`.
    pub explain: &'static str,
    /// Ratchetable rules tolerate pre-existing debt recorded in
    /// `simlint.ratchet`; the debt may shrink but never grow.
    pub ratchet: bool,
}

pub const WALLCLOCK: &str = "wallclock";
pub const UNKEYED_RNG: &str = "unkeyed-rng";
pub const PAR_RAW_ATOMIC: &str = "par-raw-atomic";
pub const PANIC_IN_LIB: &str = "panic-in-lib";
pub const BARE_ALLOW: &str = "bare-allow";
pub const HASH_ITER_REACH: &str = "hash-iter-reach";
pub const GLOBAL_METRICS: &str = "global-metrics";
pub const RAW_THREADS: &str = "raw-threads";

pub const RULES: &[Rule] = &[
    Rule {
        id: WALLCLOCK,
        summary: "no Instant/SystemTime outside sim-core::metrics (wallclock module)",
        invariant: "wall-clock reads are the one sanctioned nondeterminism and live \
                    in the metrics wallclock section, which determinism diffs exclude",
        explain: "Simulated time comes from the event calendar, never the host \
                  clock. The one legitimate wall-clock consumer is the metrics \
                  wallclock family in sim-core, whose snapshot section the \
                  determinism diff deliberately excludes. An Instant::now() \
                  anywhere else either influences simulation behavior (broken) or \
                  is timing telemetry in the wrong place (move it into the \
                  wallclock metric family).",
        ratchet: false,
    },
    Rule {
        id: UNKEYED_RNG,
        summary: "no thread_rng/from_entropy/OsRng — all randomness is keyed & seeded",
        invariant: "every random draw comes from a stream keyed by (seed, component, \
                    index), so serial and parallel schedules see identical draws",
        explain: "Randomness is reproducible only when every draw is a pure \
                  function of (seed, component, index) — sim-core::rng::StreamRng. \
                  thread_rng/from_entropy/OsRng pull from process entropy, so even \
                  a test using them cannot pin behavior. The rule therefore flags \
                  entropy sources in test code too.",
        ratchet: false,
    },
    Rule {
        id: PAR_RAW_ATOMIC,
        summary: "no raw atomic read-modify-write inside par:: closures",
        invariant: "metric updates under parallelism go through the commutative \
                    sim-core::metrics API; raw fetch_* orderings leak the schedule",
        explain: "A fetch_add inside a par:: closure is only safe when the final \
                  value is schedule-independent, and raw atomics give no such \
                  guarantee for anything beyond a commutative counter — and even \
                  then the intermediate values observed by other threads depend on \
                  the schedule. The sim-core::metrics counters are the audited \
                  commutative path; use them, or restructure the parallel loop to \
                  write disjoint slices.",
        ratchet: false,
    },
    Rule {
        id: PANIC_IN_LIB,
        summary: "no unwrap/expect/panic! in library code outside tests",
        invariant: "library crates surface typed errors or documented-invariant \
                    expects; panics are budgeted and ratcheted downward",
        explain: "Library crates return typed errors; a panic on a par helper \
                  unwinds the whole parallel region mid-simulation and loses the \
                  deterministic drain. Pre-existing panic debt is frozen per (rule, file) in \
                  simlint.ratchet — it may shrink (run --update-ratchet after \
                  fixing) but a commit can never grow it. A deliberate invariant \
                  panic stays allowed with simlint::allow(panic-in-lib): <why>.",
        ratchet: true,
    },
    Rule {
        id: BARE_ALLOW,
        summary: "every simlint::allow carries a justification",
        invariant: "suppressions are audit records; an allow without a reason \
                    cannot be reviewed",
        explain: "simlint::allow comments are the audit trail for every tolerated \
                  violation; one without a `: why this is sound` tail is a \
                  suppression nobody can review. This meta-rule cannot itself be \
                  suppressed.",
        ratchet: false,
    },
    Rule {
        id: HASH_ITER_REACH,
        summary: "no hash-ordered iteration in production code, no hash containers \
                  in render-path files",
        invariant: "any production function may feed a render sink, so none may \
                    iterate hash-ordered containers; order leaks transitively into \
                    emitted bytes",
        explain: "Per-file rule that treats every production function as reachable \
                  from a render sink, instead of tracing which ones are. In a Lib or \
                  Bin file, iterating a name declared with a HashMap/HashSet type \
                  (for ... in &m, m.iter(), m.keys(), m.drain(), ...) is flagged, \
                  while a keyed lookup leaks no order and is clean. In a render-path \
                  file (sim-core's table/trace/json/metrics/stats/hist modules and \
                  the bench and campaign crates) every hash-container mention is \
                  flagged. Fix: use BTreeMap/BTreeSet, or sort before iterating; a \
                  registry that only ever does keyed get-or-insert can say so with \
                  simlint::allow-file(hash-iter-reach): <why>.",
        ratchet: true,
    },
    Rule {
        id: GLOBAL_METRICS,
        summary: "no metrics::global() in library crates — use active()/shared()",
        invariant: "library instrumentation resolves through the scope stack \
                    (metrics::active) or the shared-resource escape hatch \
                    (metrics::shared); binding the global registry directly \
                    would bypass scoped attribution and break per-variant and \
                    per-section snapshots",
        explain: "Binaries own the process-level registry (snapshot/reset at \
                  exit) and sim-core is the scope machinery itself; every other \
                  crate records through metrics::active() so a caller-installed \
                  scope claims the update, or metrics::shared() when attribution \
                  to one scope would be a race. metrics::global() in a library \
                  hard-binds the process registry and silently defeats both.",
        ratchet: false,
    },
    Rule {
        id: RAW_THREADS,
        summary: "threads are made only in sim-core::par",
        invariant: "one module makes threads, and it installs the caller's metrics \
                    scope on each and returns results in item order",
        explain: "sim-core::par is where the simulator's parallelism lives: its \
                  map/join/for_each run helpers under the caller's metrics scope, \
                  return results in item order, and never reduce, so no float result \
                  can follow the schedule. A thread::spawn or thread::scope elsewhere \
                  gets none of that, and neither would a thread-pool crate (any \
                  mention of rayon is flagged). Fix: call par::map, par::for_each \
                  or par::join.",
        ratchet: false,
    },
];

pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Files whose output feeds the byte-compared artifacts (tables, traces,
/// metric snapshots, the repro binary). Hash-ordered containers here are
/// exactly where iteration order could leak into rendered bytes, so
/// hash-iter-reach flags every mention of one in these files.
fn is_render_path(rel: &str) -> bool {
    const RENDER_FILES: &[&str] = &[
        "crates/sim-core/src/table.rs",
        "crates/sim-core/src/trace.rs",
        "crates/sim-core/src/json.rs",
        "crates/sim-core/src/metrics.rs",
        "crates/sim-core/src/stats.rs",
        "crates/sim-core/src/hist.rs",
    ];
    RENDER_FILES.contains(&rel)
        || rel.starts_with("crates/bench/src/")
        || rel.starts_with("crates/campaign/src/")
}

/// The one module allowed to read the wall clock: the metrics registry's
/// wallclock family, whose snapshot section determinism diffs exclude.
fn is_wallclock_module(rel: &str) -> bool {
    rel == "crates/sim-core/src/metrics.rs"
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

const RAW_RMW: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
];

/// Run every per-file rule over one parsed file, appending raw (not yet
/// suppression-evaluated) diagnostics.
pub fn check_file(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    check_wallclock(f, out);
    check_unkeyed_rng(f, out);
    check_par_raw_atomic(f, out);
    check_panic_in_lib(f, out);
    check_bare_allow(f, out);
    check_global_metrics(f, out);
    check_threads_outside_par(f, out);
    check_hash_iter_reach(f, out);
}

/// R7: hash-ordered containers in code whose output can reach emitted
/// bytes. Every production fn counts as reachable from a render sink: in
/// render-path files every hash-container mention is flagged; elsewhere
/// only *iteration* over a hash-typed name is — a keyed lookup leaks no
/// order.
fn check_hash_iter_reach(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const KINDS: &[FileKind] = &[FileKind::Lib, FileKind::Bin];
    if !KINDS.contains(&f.kind) {
        return;
    }
    let toks = &f.tokens;
    let render_file = is_render_path(&f.rel);
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) || !prod_code(f, KINDS, t.line) {
            continue;
        }
        if i >= 2 {
            let prev = &toks[i - 1];
            let name = &toks[i - 2];
            if (prev.is_punct(':') || prev.is_punct('=')) && name.kind == TokKind::Ident {
                hash_names.insert(name.text.as_str());
            }
        }
        if render_file && flagged_lines.insert(t.line) {
            out.push(Diagnostic::new(
                HASH_ITER_REACH,
                &f.rel,
                t.line,
                format!(
                    "hash-ordered `{}` in a render-path file; use BTreeMap/BTreeSet \
                     or sort before emitting",
                    t.text
                ),
            ));
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !hash_names.contains(t.text.as_str())
            || !prod_code(f, KINDS, t.line)
        {
            continue;
        }
        let method_iter = i + 2 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str());
        let mut j = i;
        while j > 0 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        let for_iter = j > 0 && toks[j - 1].is_ident("in");
        if (method_iter || for_iter) && flagged_lines.insert(t.line) {
            out.push(Diagnostic::new(
                HASH_ITER_REACH,
                &f.rel,
                t.line,
                format!(
                    "iteration over hash-ordered `{}` in production code; its order \
                     can leak into emitted bytes",
                    t.text
                ),
            ));
        }
    }
}

/// Apply suppressions: a diagnostic on an allowed line (or in a file
/// with a file-wide allow for its rule) is marked suppressed, not
/// dropped — the JSON report still shows it.
pub fn apply_suppressions(files: &[SourceFile], diags: &mut [Diagnostic]) {
    let by_rel: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.rel.as_str(), f)).collect();
    for d in diags.iter_mut() {
        // The bare-allow rule polices the suppression mechanism itself
        // and therefore cannot be silenced by it.
        if d.rule == BARE_ALLOW {
            continue;
        }
        let Some(f) = by_rel.get(d.file.as_str()) else {
            continue;
        };
        if f.suppressed(d.rule, d.line) {
            d.suppressed = true;
        }
    }
}

fn prod_code(f: &SourceFile, kind_ok: &[FileKind], line: u32) -> bool {
    kind_ok.contains(&f.kind) && !f.in_test_region(line)
}

/// R2: wall-clock reads outside the metrics wallclock module.
fn check_wallclock(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if is_wallclock_module(&f.rel) {
        return;
    }
    for t in &f.tokens {
        if !(t.is_ident("Instant") || t.is_ident("SystemTime")) {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            WALLCLOCK,
            &f.rel,
            t.line,
            format!(
                "`{}` outside sim-core::metrics; route timing through the \
                 wallclock metric family (its snapshot section is excluded \
                 from determinism diffs)",
                t.text
            ),
        ));
    }
}

/// R3: entropy-derived RNG anywhere — tests included, since a test that
/// draws from process entropy cannot pin determinism either.
fn check_unkeyed_rng(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &f.tokens {
        if t.kind == TokKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            out.push(Diagnostic::new(
                UNKEYED_RNG,
                &f.rel,
                t.line,
                format!(
                    "`{}` draws from process entropy; all RNG must be a keyed, \
                     seeded stream (sim-core::rng::StreamRng)",
                    t.text
                ),
            ));
        }
    }
}

/// R4: raw atomic read-modify-write lexically inside a `par::` call.
fn check_par_raw_atomic(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !f.has_par_regions() {
        return;
    }
    for (i, t) in f.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || !RAW_RMW.contains(&t.text.as_str()) {
            continue;
        }
        if i == 0 || !f.tokens[i - 1].is_punct('.') || !f.in_par_region(i) {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            PAR_RAW_ATOMIC,
            &f.rel,
            t.line,
            format!(
                "raw `{}` inside a par:: closure; update metrics through the \
                 commutative sim-core::metrics API instead",
                t.text
            ),
        ));
    }
}

/// R5: unwrap/expect/panic! in library code outside tests. Captured
/// `&mut` accumulation in par closures is rustc's job; this rule and
/// the ratchet handle the panic budget.
fn check_panic_in_lib(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => {
                i > 0
                    && toks[i - 1].is_punct('.')
                    && i + 1 < toks.len()
                    && toks[i + 1].is_punct('(')
            }
            "panic" => i + 1 < toks.len() && toks[i + 1].is_punct('!'),
            _ => false,
        };
        if !hit || !prod_code(f, &[FileKind::Lib], t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            PANIC_IN_LIB,
            &f.rel,
            t.line,
            format!(
                "`{}` in library code; return a typed error, or document the \
                 invariant and suppress with simlint::allow({PANIC_IN_LIB}): <why>",
                t.text
            ),
        ));
    }
}

/// R10: `metrics::global()` bound directly in library code. Binaries own
/// the process and may snapshot/reset the global registry; sim-core is
/// the scope machinery itself; everyone else records through
/// `metrics::active()` so a caller-installed scope can claim the update
/// (or `metrics::shared()` when scope attribution would be a race).
fn check_global_metrics(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.rel.starts_with("crates/sim-core/") {
        return;
    }
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if i < 3 || !t.is_ident("global") {
            continue;
        }
        if !(toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("metrics"))
        {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib], t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            GLOBAL_METRICS,
            &f.rel,
            t.line,
            "`metrics::global()` in library code bypasses scoped attribution; \
             record through `metrics::active()` (scope-aware) or \
             `metrics::shared()` (shared-resource telemetry)"
                .to_string(),
        ));
    }
}

/// R11: `rayon`, `thread::spawn` or `thread::scope` outside `sim-core::par`,
/// in any kind of file.
fn check_threads_outside_par(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.rel == "crates/sim-core/src/par.rs" {
        return;
    }
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        let what = if t.is_ident("rayon") {
            "rayon".to_string()
        } else if (t.is_ident("spawn") || t.is_ident("scope"))
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("thread")
        {
            format!("thread::{}", t.text)
        } else {
            continue;
        };
        out.push(Diagnostic::new(
            RAW_THREADS,
            &f.rel,
            t.line,
            format!(
                "`{what}` outside sim-core::par; run parallel work through \
                 par::map, par::for_each or par::join"
            ),
        ));
    }
}

/// Meta-rule: every allow must say why.
fn check_bare_allow(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for a in &f.allows {
        if !a.justified {
            out.push(Diagnostic::new(
                BARE_ALLOW,
                &f.rel,
                a.line,
                format!(
                    "simlint::allow({}) without a justification; append `: <why \
                     this is sound>`",
                    a.rules.join(", ")
                ),
            ));
        }
    }
}
