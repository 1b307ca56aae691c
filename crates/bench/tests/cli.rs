//! The `repro` binary's handling of its arguments and output paths.

use std::process::Command;

/// An unwritable `--metrics` or `--trace` path fails before any section
/// renders: exit code 1, the error names the path, and stdout is empty.
#[test]
fn unwritable_output_paths_fail_before_rendering() {
    // A path below a regular file cannot be created, whoever runs this.
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out.json");
    for flag in ["--metrics", "--trace"] {
        let run = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--small", flag, bad, "table1"])
            .output()
            .expect("repro starts");
        assert_eq!(run.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.starts_with(&format!("repro: cannot write {bad}: ")),
            "{flag}: {stderr}"
        );
        assert!(run.stdout.is_empty(), "{flag}");
    }
}

/// A `--jobs` budget above the host's hardware threads is rejected while
/// the arguments are parsed: exit code 2, the usage text, the host's
/// thread count named, and nothing rendered (so no helper ever starts).
#[test]
fn jobs_above_host_parallelism_is_a_usage_error() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--small", "--jobs", "1000000", "table1"])
        .output()
        .expect("repro starts");
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    let why = format!("repro: --jobs 1000000 exceeds this host's {host} hardware threads");
    assert!(stderr.starts_with(&why), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(run.stdout.is_empty());
}
