//! The `campaign` binary's handling of its output path.

use std::process::Command;

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
