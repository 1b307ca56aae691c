//! `cargo run -p simlint` — lint the workspace for determinism and
//! soundness violations. Exit 0 when clean (suppressed + ratcheted debt
//! tolerated), 1 on any gating diagnostic or ratchet growth, 2 on usage
//! or I/O errors.

// A linter CLI reports to stdout/stderr by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use simlint::{diag, ratchet, rules};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: simlint [--root DIR] [--json FILE] [--update-ratchet] [--list-rules]\n\
         \x20              [--explain RULE] [--github-annotations]\n\n\
         Workspace-wide determinism & soundness lints (see DESIGN.md §3.8).\n\n\
         options:\n  \
         --root DIR            workspace root (default: this workspace)\n  \
         --json FILE           write the full diagnostic report as JSON\n  \
         --update-ratchet      rewrite simlint.ratchet with the current debt\n  \
         --list-rules          print every rule and the invariant it protects\n  \
         --explain RULE        print the long-form rationale for one rule\n  \
         --github-annotations  emit ::error workflow commands for failures"
    );
    ExitCode::from(2)
}

fn explain(rule_id: &str) -> ExitCode {
    match rules::rule(rule_id) {
        Some(r) => {
            println!("{} — {}", r.id, r.summary);
            println!("\ninvariant: {}", r.invariant);
            println!("\n{}", r.explain);
            if r.ratchet {
                println!(
                    "\nPre-existing debt for this rule is frozen per (rule, file) in \
                     {}; it may shrink but never grow.",
                    ratchet::RATCHET_FILE
                );
            }
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "simlint: unknown rule `{rule_id}`; known rules: {}",
                rules::RULES
                    .iter()
                    .map(|r| r.id)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut update_ratchet = false;
    let mut github_annotations = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--json" => match args.next() {
                Some(f) => json_out = Some(PathBuf::from(f)),
                None => return usage(),
            },
            "--update-ratchet" => update_ratchet = true,
            "--github-annotations" => github_annotations = true,
            "--explain" => match args.next() {
                Some(r) => return explain(&r),
                None => return usage(),
            },
            "--list-rules" => {
                for r in rules::RULES {
                    println!("{:<16} {}", r.id, r.summary);
                    println!("{:<16}   invariant: {}", "", r.invariant);
                    if r.ratchet {
                        println!("{:<16}   (ratcheted via {})", "", ratchet::RATCHET_FILE);
                    }
                }
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let root = root.unwrap_or_else(simlint::default_root);
    let outcome = match simlint::run_workspace(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simlint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if update_ratchet {
        let path = root.join(ratchet::RATCHET_FILE);
        if let Err(e) = std::fs::write(&path, outcome.current_debt.render()) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "simlint: wrote {} ({} entries)",
            path.display(),
            outcome.current_debt.counts.len()
        );
    }

    if let Some(path) = &json_out {
        let json = diag::render_json(
            &outcome.diagnostics,
            &outcome.ratchet_delta.over,
            &outcome.ratchet_delta.under,
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if github_annotations {
        for d in outcome.failures() {
            // GitHub workflow commands strip newlines; messages are one line.
            println!(
                "::error file={},line={},title=simlint {}::{}",
                d.file, d.line, d.rule, d.message
            );
        }
    }

    print!("{}", diag::render_human(&outcome.diagnostics));
    for over in &outcome.ratchet_delta.over {
        println!("ratchet exceeded: {over}");
    }
    for under in &outcome.ratchet_delta.under {
        println!("ratchet is stale (debt shrank — run --update-ratchet): {under}");
    }

    let total = outcome.diagnostics.len();
    let failing = outcome.failures().count();
    let suppressed = outcome.diagnostics.iter().filter(|d| d.suppressed).count();
    let ratcheted = outcome.diagnostics.iter().filter(|d| d.ratcheted).count();
    println!(
        "simlint: {total} diagnostics — {failing} failing, {suppressed} suppressed, \
         {ratcheted} ratcheted"
    );

    if update_ratchet || outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
