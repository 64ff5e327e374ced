//! Starting and stopping `ampc-serve`, and reading its `/proc` counters.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client;

/// Flags the benchmark passes: an ephemeral loopback port, every other
/// setting at the shipped default.
pub const SERVER_FLAGS: &[&str] = &["--addr=127.0.0.1:0"];

/// A running `ampc-serve` child process. Dropping it kills and reaps the
/// process.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and reads the address it bound from its first
    /// stdout line.
    pub fn spawn(binary: &Path) -> Result<Server, String> {
        let mut command = Command::new(binary);
        command
            .args(SERVER_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // SAFETY: the hook runs in the forked child before exec and only
        // calls prctl(2), which is async-signal-safe and touches no memory
        // of ours.
        unsafe {
            command.pre_exec(|| {
                kill_with_parent();
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|addr| addr.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "ampc-serve did not announce its address: `{}`",
                    line.trim()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `/healthz` until it answers 200.
    pub fn wait_healthy(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match client::get(self.addr, "/healthz") {
                Ok((200, _)) => return Ok(()),
                _ if Instant::now() >= deadline => {
                    return Err(format!("/healthz not 200 within {timeout:?}"))
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The server keeps no state worth a graceful drain between runs.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Asks the kernel to SIGKILL the calling process when the thread that
/// spawned it exits, so a benchmark killed mid-run leaves no server behind
/// (the servers are spawned from the main thread).
fn kill_with_parent() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: prctl with PR_SET_PDEATHSIG reads only its integer arguments.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
    }
}

/// Cumulative counters of a process, from `/proc/<pid>/{stat,status}`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User plus system CPU time, in milliseconds.
    pub cpu_ms: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Voluntary plus involuntary context switches over all threads.
    pub ctx_switches: u64,
    pub threads: u64,
    /// Peak resident set (`VmHWM`), in KiB.
    pub peak_rss_kib: u64,
}

impl ProcSample {
    pub fn read(pid: u32) -> Result<ProcSample, String> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name, starting at field 3.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let field = |number: usize| -> Result<u64, String> {
            fields
                .get(number - 3)
                .and_then(|f| f.parse().ok())
                .ok_or(format!("/proc/{pid}/stat has no field {number}"))
        };
        let ticks = (field(14)? + field(15)?) as f64;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        let mut ctx_switches = 0;
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
                    ctx_switches += status_field(&text, "voluntary_ctxt_switches").unwrap_or(0)
                        + status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
                }
            }
        }
        Ok(ProcSample {
            cpu_ms: ticks * 1000.0 / clock_ticks_per_second(),
            minor_faults: field(10)?,
            ctx_switches,
            threads: status_field(&status, "Threads").unwrap_or(0),
            peak_rss_kib: status_field(&status, "VmHWM").unwrap_or(0),
        })
    }
}

/// The leading number of a `Name:\tvalue` line of a `/proc` status file.
fn status_field(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(name)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// `sysconf(_SC_CLK_TCK)`, the unit of the `/proc` CPU times.
fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and returns an integer; it reads no
    // memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Facts about the machine recorded with every result.
pub fn host_facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![("nproc", nproc.to_string()), ("cpu", cpu)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_are_read_by_name() {
        let text = "Name:\tampc-serve\nThreads:\t9\nVmHWM:\t  123456 kB\n\
                    voluntary_ctxt_switches:\t40\nnonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(status_field(text, "Threads"), Some(9));
        assert_eq!(status_field(text, "VmHWM"), Some(123_456));
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), Some(40));
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), Some(2));
        assert_eq!(status_field(text, "VmRSS"), None);
    }

    #[test]
    fn this_process_can_be_sampled() {
        let sample = ProcSample::read(std::process::id()).unwrap();
        assert!(sample.threads >= 1);
        assert!(sample.peak_rss_kib > 0);
    }
}
