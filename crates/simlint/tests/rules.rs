//! Per-rule fixture tests (positive / negative / suppressed) plus the
//! workspace self-check: the lint must run clean on this repository with
//! an exactly-tight ratchet, and the workspace fixes must be load-bearing
//! (deleting any allow or sort fix reintroduces a gating diagnostic,
//! which these tests would then fail to observe as "suppressed").

use simlint::diag::Diagnostic;
use simlint::rules::{
    BARE_ALLOW, GLOBAL_METRICS, HASH_ITER_REACH, PANIC_IN_LIB, PAR_RAW_ATOMIC, RAW_THREADS,
    UNKEYED_RNG, WALLCLOCK,
};

/// (rule, line, suppressed) triples for compact assertions.
fn shape(diags: &[Diagnostic]) -> Vec<(&'static str, u32, bool)> {
    diags
        .iter()
        .map(|d| (d.rule, d.line, d.suppressed))
        .collect()
}

fn lint(rel: &str, src: &str) -> Vec<Diagnostic> {
    simlint::analyze_source(rel, src)
}

const RENDER_PATH: &str = "crates/sim-core/src/table.rs";
const LIB_PATH: &str = "crates/fabric/src/solver.rs";

// ---- R7 on render paths -------------------------------------------------

#[test]
fn r7_flags_every_hash_mention_in_render_paths() {
    // In a render-path file declarations count as well as iteration.
    let diags = lint(RENDER_PATH, include_str!("fixtures/r7_render_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (HASH_ITER_REACH, 1, false),  // use std::collections::HashMap
            (HASH_ITER_REACH, 4, false),  // let m: HashMap<..> = HashMap::new()
            (HASH_ITER_REACH, 6, false),  // for (k, v) in &m
            (HASH_ITER_REACH, 10, false)  // m.keys()
        ]
    );
}

#[test]
fn r7_ignores_btreemap_and_test_mods() {
    let clean = include_str!("fixtures/r7_render_clean.rs");
    assert!(lint(RENDER_PATH, clean).is_empty());
}

#[test]
fn r7_outside_render_paths_flags_only_iteration() {
    // Outside a render path only the *iteration* sites leak order.
    let positive = include_str!("fixtures/r7_render_positive.rs");
    let diags = lint("crates/fabric/src/topology.rs", positive);
    assert_eq!(
        shape(&diags),
        vec![(HASH_ITER_REACH, 6, false), (HASH_ITER_REACH, 10, false)]
    );
}

#[test]
fn r7_suppressions_mark_but_do_not_gate() {
    let diags = lint(
        RENDER_PATH,
        include_str!("fixtures/r7_render_suppressed.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![(HASH_ITER_REACH, 2, true), (HASH_ITER_REACH, 6, true)]
    );
    assert!(diags.iter().all(|d| !d.is_failure()));
}

// ---- R2: wallclock -------------------------------------------------------

#[test]
fn r2_flags_clock_reads_in_lib_and_bin() {
    let src = include_str!("fixtures/r2_positive.rs");
    let diags = lint(LIB_PATH, src);
    assert_eq!(
        shape(&diags),
        vec![
            (WALLCLOCK, 1, false),
            (WALLCLOCK, 4, false),
            (WALLCLOCK, 9, false)
        ]
    );
    assert!(!lint("crates/bench/src/bin/repro.rs", src).is_empty());
}

#[test]
fn r2_allows_the_wallclock_module_and_tests() {
    let src = include_str!("fixtures/r2_positive.rs");
    assert!(lint("crates/sim-core/src/metrics.rs", src).is_empty());
    assert!(lint("crates/fabric/tests/proptests.rs", src).is_empty());
}

#[test]
fn r2_suppressed_with_justification() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r2_suppressed.rs"));
    assert_eq!(
        shape(&diags),
        vec![(WALLCLOCK, 2, true), (WALLCLOCK, 5, true)]
    );
}

// ---- R3: unkeyed-rng -----------------------------------------------------

#[test]
fn r3_flags_entropy_sources_everywhere_even_tests() {
    let src = include_str!("fixtures/r3_positive.rs");
    let diags = lint(LIB_PATH, src);
    assert_eq!(
        shape(&diags),
        vec![
            (UNKEYED_RNG, 1, false),
            (UNKEYED_RNG, 4, false),
            (UNKEYED_RNG, 6, false)
        ]
    );
    // Determinism discipline extends to test code.
    assert_eq!(lint("crates/fabric/tests/proptests.rs", src).len(), 3);
}

#[test]
fn r3_keyed_streams_are_clean() {
    assert!(lint(LIB_PATH, include_str!("fixtures/r3_clean.rs")).is_empty());
}

// ---- R4: par-raw-atomic --------------------------------------------------

#[test]
fn r4_flags_raw_rmw_inside_par_calls() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r4_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (PAR_RAW_ATOMIC, 6, false),  // fetch_add in par::for_each closure
            (PAR_RAW_ATOMIC, 12, false), // fetch_max in par::join arm
            (PAR_RAW_ATOMIC, 13, false),
            (PAR_RAW_ATOMIC, 23, false) // fetch_max in windowed par::for_each group
        ]
    );
}

#[test]
fn r4_serial_rmw_and_commutative_metrics_are_clean() {
    assert!(lint(LIB_PATH, include_str!("fixtures/r4_clean.rs")).is_empty());
}

// ---- R5: panic-in-lib ----------------------------------------------------

#[test]
fn r5_flags_unwrap_expect_panic_in_lib_code() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r5_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (PANIC_IN_LIB, 2, false),
            (PANIC_IN_LIB, 3, false),
            (PANIC_IN_LIB, 5, false)
        ]
    );
}

#[test]
fn r5_spares_tests_bins_and_fallible_combinators() {
    assert!(lint(LIB_PATH, include_str!("fixtures/r5_clean.rs")).is_empty());
    // The same panicky code in a binary target is allowed.
    let positive = include_str!("fixtures/r5_positive.rs");
    assert!(lint("crates/bench/src/bin/repro.rs", positive).is_empty());
}

#[test]
fn r5_suppression_and_the_bare_allow_meta_rule() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r5_suppressed.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (PANIC_IN_LIB, 3, true), // justified allow: suppressed
            (BARE_ALLOW, 8, false),  // allow without justification: gates
            (PANIC_IN_LIB, 8, true)  // ... though it does still suppress
        ]
    );
}

// ---- R7: hash-iter-reach outside render paths ----------------------------

#[test]
fn r7_flags_hash_iteration_in_lib_code() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r7_reach_positive.rs"));
    assert_eq!(shape(&diags), vec![(HASH_ITER_REACH, 6, false)]);
}

#[test]
fn r7_flags_iteration_in_any_fn_but_not_keyed_lookups() {
    // No emitter calls `tally`, but every production fn counts as
    // reachable, so its iteration is flagged; `snapshot_one` only does a
    // keyed lookup, which leaks no order.
    let diags = lint(LIB_PATH, include_str!("fixtures/r7_iter_and_lookup.rs"));
    assert_eq!(shape(&diags), vec![(HASH_ITER_REACH, 6, false)]);
}

// ---- R10: global-metrics -------------------------------------------------

#[test]
fn r10_flags_global_registry_binding_in_lib_code() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r10_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![(GLOBAL_METRICS, 4, false), (GLOBAL_METRICS, 8, false)]
    );
}

#[test]
fn r10_spares_active_shared_tests_bins_and_sim_core() {
    assert!(lint(LIB_PATH, include_str!("fixtures/r10_clean.rs")).is_empty());
    let positive = include_str!("fixtures/r10_positive.rs");
    // Binaries own the process-level registry (snapshot/reset at exit).
    assert!(lint("crates/campaign/src/bin/campaign.rs", positive).is_empty());
    // Integration tests pin global behavior directly.
    assert!(lint("crates/fabric/tests/metrics_proptests.rs", positive).is_empty());
    // sim-core is the scope machinery itself.
    assert!(lint("crates/sim-core/src/trace.rs", positive).is_empty());
}

// ---- R11: raw-threads --------------------------------------------

#[test]
fn r11_flags_threads_and_rayon_outside_par() {
    let positive = include_str!("fixtures/r11_positive.rs");
    let expect = vec![
        (RAW_THREADS, 4, false), // thread::spawn
        (RAW_THREADS, 5, false), // thread::scope
        (RAW_THREADS, 6, false), // rayon
    ];
    assert_eq!(shape(&lint(LIB_PATH, positive)), expect);
    // Tests and binaries make no threads of their own either.
    assert_eq!(
        shape(&lint("crates/fabric/tests/proptests.rs", positive)),
        expect
    );
    // par itself is the one place allowed to.
    assert!(lint("crates/sim-core/src/par.rs", positive).is_empty());
}

#[test]
fn r11_par_calls_comments_and_strings_are_clean() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r11_clean.rs"));
    assert!(diags.is_empty(), "{:?}", shape(&diags));
}

// ---- workspace self-check ------------------------------------------------

#[test]
fn workspace_is_clean() {
    let outcome = simlint::run_workspace(&simlint::default_root()).expect("scan workspace");
    let failures: Vec<String> = outcome
        .failures()
        .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(
        failures.is_empty() && outcome.ratchet_delta.over.is_empty(),
        "simlint found gating diagnostics:\n{}\nratchet over:\n{}",
        failures.join("\n"),
        outcome.ratchet_delta.over.join("\n")
    );
}

#[test]
fn workspace_ratchet_is_exactly_tight() {
    let outcome = simlint::run_workspace(&simlint::default_root()).expect("scan workspace");
    assert!(
        outcome.ratchet_delta.under.is_empty(),
        "debt shrank below simlint.ratchet — run `cargo run -p simlint -- --update-ratchet`:\n{}",
        outcome.ratchet_delta.under.join("\n")
    );
}

#[test]
fn workspace_rules_are_live_not_vacuous() {
    let outcome = simlint::run_workspace(&simlint::default_root()).expect("scan workspace");
    let suppressed_rules: Vec<&str> = outcome
        .diagnostics
        .iter()
        .filter(|d| d.suppressed)
        .map(|d| d.rule)
        .collect();
    // The workspace carries real, justified suppressions for these rules;
    // deleting any one allow comment turns the suppressed diagnostic into
    // a gating failure (see workspace_is_clean).
    for rule in [HASH_ITER_REACH, WALLCLOCK, PANIC_IN_LIB] {
        assert!(
            suppressed_rules.contains(&rule),
            "expected at least one justified suppression for `{rule}` in the workspace"
        );
    }
    // And the panic budget is non-empty but bounded by the ratchet.
    assert!(
        outcome.diagnostics.iter().any(|d| d.ratcheted),
        "expected ratcheted panic-in-lib debt outside fabric/sim-core"
    );
}
