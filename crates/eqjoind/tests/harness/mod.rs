//! Shared test harness: spawn a **real** `eqjoind` process on an
//! ephemeral port, parse the bound address from its banner, and make
//! sure a failing assert can never leak the process.
//!
//! Each integration-test binary compiles its own copy (`mod harness;`),
//! so not every helper is used by every binary.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A spawned `eqjoind` that is killed on drop.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
}

impl Daemon {
    /// Start `eqjoind --engine mock --listen 127.0.0.1:0 --data-dir
    /// {dir}` and parse the chosen ephemeral port from its banner.
    pub fn spawn(data_dir: &std::path::Path) -> Daemon {
        Self::spawn_with(data_dir, &[])
    }

    /// [`Daemon::spawn`] with extra flags (e.g. `--metrics-addr`).
    pub fn spawn_with(data_dir: &std::path::Path, extra: &[&str]) -> Daemon {
        Self::spawn_with_env(data_dir, extra, &[])
    }

    /// [`Daemon::spawn_with`] plus environment variables — the chaos
    /// suite hands fault plans down via `EQJOIN_FAILPOINTS`.
    pub fn spawn_with_env(
        data_dir: &std::path::Path,
        extra: &[&str],
        env: &[(&str, &str)],
    ) -> Daemon {
        let mut child = Self::command(data_dir, extra, env)
            .spawn()
            .expect("spawn eqjoind");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let banner = loop {
            match lines.next() {
                Some(Ok(line)) if line.contains("listening on") => break line,
                Some(Ok(_)) => continue,
                other => panic!("eqjoind exited before its banner: {other:?}"),
            }
        };
        // "eqjoind: listening on 127.0.0.1:PORT (engine mock, …)"
        let addr = banner
            .split_whitespace()
            .find(|w| w.starts_with("127.0.0.1:"))
            .expect("banner carries the bound address")
            .to_owned();
        // Drain the rest of stderr on a detached thread so the daemon
        // never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon {
            child: Some(child),
            addr,
        }
    }

    /// Spawn `eqjoind` expecting it to exit **without** ever serving
    /// (e.g. a fault plan that fails the startup snapshot load):
    /// returns its exit status and captured stderr. Panics if the
    /// process is still alive after `timeout`.
    pub fn spawn_expecting_exit(
        data_dir: &std::path::Path,
        extra: &[&str],
        env: &[(&str, &str)],
        timeout: Duration,
    ) -> (ExitStatus, String) {
        let child = Self::command(data_dir, extra, env)
            .spawn()
            .expect("spawn eqjoind");
        let deadline = Instant::now() + timeout;
        let mut child = child;
        let status = loop {
            match child.try_wait().expect("wait for eqjoind") {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("eqjoind stayed alive {timeout:?} when it was expected to exit");
                }
            }
        };
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            use std::io::Read;
            let _ = pipe.read_to_string(&mut stderr);
        }
        (status, stderr)
    }

    fn command(data_dir: &std::path::Path, extra: &[&str], env: &[(&str, &str)]) -> Command {
        let mut command = Command::new(env!("CARGO_BIN_EXE_eqjoind"));
        command
            .args([
                "--engine",
                "mock",
                "--listen",
                "127.0.0.1:0",
                "--data-dir",
                data_dir.to_str().expect("utf-8 temp path"),
            ])
            .args(extra)
            .envs(env.iter().map(|(k, v)| (k.to_owned(), v.to_owned())))
            .stderr(Stdio::piped());
        command
    }

    /// Hard kill (SIGKILL): the abrupt-crash path.
    pub fn kill(mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Graceful shutdown: send SIGTERM and wait (bounded) for the
    /// process to drain and exit, returning its exit status.
    pub fn terminate_and_wait(mut self, timeout: Duration) -> ExitStatus {
        let child = self.child.take().expect("daemon already reaped");
        let pid = child.id().to_string();
        // No libc crate in this workspace: deliver the signal through
        // the standard `kill` utility.
        let sent = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("run kill")
            .success();
        assert!(sent, "kill -TERM {pid} failed");
        Self::reap(child, timeout, "SIGTERM")
    }

    /// Wait (bounded) for the process to exit on its own — e.g. after
    /// a client-initiated drain request — returning its exit status.
    pub fn wait_exit(mut self, timeout: Duration) -> ExitStatus {
        let child = self.child.take().expect("daemon already reaped");
        Self::reap(child, timeout, "a drain")
    }

    fn reap(mut child: Child, timeout: Duration, trigger: &str) -> ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            match child.try_wait().expect("wait for eqjoind") {
                Some(status) => return status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("eqjoind did not exit within {timeout:?} after {trigger}");
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Flatten a `JoinExecuted` response into comparable bytes plus its
/// (rows_decrypted, decrypt_cache_hits) counters.
pub fn join_response_bytes(response: &eqjoin_db::Response) -> (Vec<u8>, usize, u64) {
    match response {
        eqjoin_db::Response::JoinExecuted {
            result,
            observation,
        } => {
            let mut bytes = Vec::new();
            for (l, r) in observation.pairs() {
                bytes.extend_from_slice(&(l as u64).to_le_bytes());
                bytes.extend_from_slice(&(r as u64).to_le_bytes());
            }
            for (row, payloads) in result.left_rows.iter().chain(&result.right_rows) {
                bytes.extend_from_slice(&(*row as u64).to_le_bytes());
                for payload in payloads {
                    bytes.extend_from_slice(payload);
                }
            }
            (
                bytes,
                result.stats.rows_decrypted,
                result.stats.decrypt_cache_hits,
            )
        }
        other => panic!("expected JoinExecuted, got {other:?}"),
    }
}

/// A scratch data dir unique to this process+thread, wiped on entry.
pub fn scratch_data_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eqjoin-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
