//! The `campaign` binary's handling of its output path and of specs it
//! cannot run.

use std::process::Command;
use std::time::Instant;

/// An unwritable `--out` fails before the sweep: exit code 1, the error
/// names the path, and stdout stays empty (the plan line that precedes a
/// sweep never prints).
#[test]
fn unwritable_out_path_fails_before_the_sweep() {
    let dir = env!("CARGO_MANIFEST_DIR");
    // A path below a regular file cannot be created, whoever runs this.
    let out = format!("{dir}/Cargo.toml/results.jsonl");
    let run = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([&format!("{dir}/tests/data/reference.toml"), "--out", &out])
        .output()
        .expect("campaign starts");
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.starts_with(&format!("campaign: cannot write {out}: ")),
        "{stderr}"
    );
    assert!(
        run.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&run.stdout)
    );
}

/// A spec whose machine is past the size ceiling fails validation: exit
/// code 1 within a second, the error names the ceiling, and nothing is
/// built or printed. (100,000 groups would otherwise ask for a 40 GB
/// global-pipe table and abort the process.)
#[test]
fn oversized_machine_fails_before_the_sweep() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (spec, out) = (format!("{dir}/huge.toml"), format!("{dir}/huge.jsonl"));
    std::fs::write(&spec, "[machine]\ngroups = [100000]\n").unwrap();
    #[expect(
        clippy::disallowed_methods,
        reason = "the test bounds the binary's wall time"
    )]
    let t0 = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([&spec, "--out", &out])
        .output()
        .expect("campaign starts");
    assert!(t0.elapsed().as_secs_f64() < 1.0, "{:?}", t0.elapsed());
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("51200000 endpoints, above the ceiling of 303104 (8x Frontier's 37888)"),
        "{stderr}"
    );
    assert!(run.stdout.is_empty());
}
