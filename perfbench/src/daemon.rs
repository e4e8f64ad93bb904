//! Spawning and stopping real `matchd` processes.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `matchd`. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Start `matchd` on an ephemeral loopback port with `extra` flags and
    /// wait until it has written its address file.
    pub fn spawn(
        matchd: &Path,
        workdir: &Path,
        name: &str,
        extra: &[String],
    ) -> io::Result<Daemon> {
        let addr_file: PathBuf = workdir.join(format!("{name}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(matchd)
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                if !addr.trim().is_empty() {
                    daemon.addr = addr.trim().to_string();
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!("matchd exited early: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("matchd did not report its address"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident set size (`VmHWM`) so far, in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
