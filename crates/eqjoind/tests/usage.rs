//! Command-line refusals: a value the daemon cannot honour is a usage
//! error (exit 2, before binding a socket), never a silent substitute.

mod harness;

use harness::{scratch_data_dir, Daemon};
use std::time::Duration;

/// On the same command line 0 means auto or unlimited for `--threads`,
/// `--workers`, `--max-inflight`, `--queue-depth` and `--io-timeout`.
/// A decrypt-cache cap has neither reading (the store keeps at least one
/// entry), so `--decrypt-cache-cap 0` is refused rather than run as 1.
#[test]
fn a_zero_decrypt_cache_cap_is_a_usage_error() {
    let data_dir = scratch_data_dir("usage-cap-zero");
    let (status, stderr) = Daemon::spawn_expecting_exit(
        &data_dir,
        &["--decrypt-cache-cap", "0"],
        &[],
        Duration::from_secs(10),
    );
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--decrypt-cache-cap: N must be at least 1"),
        "stderr names the flag and the rule, got: {stderr}"
    );
    assert!(stderr.contains("usage: eqjoind"), "usage follows: {stderr}");

    // `--help` states the range.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_eqjoind"))
        .arg("--help")
        .output()
        .unwrap();
    let help = String::from_utf8(output.stdout).unwrap();
    assert!(
        help.contains("--decrypt-cache-cap N   decrypt-cache entries kept per store, N >= 1"),
        "{help}"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}
