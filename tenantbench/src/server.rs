//! The server under test, seen from outside: the unmodified `abase-server`
//! binary as a child process, its `METRICS` exposition, and `/proc/<pid>`.

use crate::host::CpuSet;
use crate::Result;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Environment variables that tune `abase-server`. They are cleared for the
/// child, so every run uses the defaults the result is stamped with.
const SERVER_ENV: [&str; 5] = [
    "ABASE_BLOCK_CACHE_BYTES",
    "ABASE_IO_THREADS",
    "ABASE_MAX_CLIENTS",
    "ABASE_IDLE_TIMEOUT_SECS",
    "ABASE_SLOWLOG_MICROS",
];

/// A running `abase-server` over a fresh data directory. Dropping it kills
/// the process, waits for it, and removes the directory.
pub struct Server {
    child: Child,
    /// Held open: the server prints to stdout, and a closed pipe would
    /// fail its writes.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub dir: PathBuf,
}

impl Server {
    /// Start `bin` on an ephemeral loopback port over an empty `dir`, pinned
    /// to vCPU `cpu`, and wait until it reports its listening address. The
    /// server is killed if this process dies first.
    pub fn spawn(bin: &Path, dir: PathBuf, cpu: usize) -> Result<Server> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let mut cmd = Command::new(bin);
        cmd.arg("127.0.0.1:0")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for var in SERVER_ENV {
            cmd.env_remove(var);
        }
        let cpus = CpuSet::one(cpu);
        // SAFETY: the closure runs in the forked child before exec and makes
        // two async-signal-safe system calls.
        unsafe {
            cmd.pre_exec(move || {
                cpus.pin_current()?;
                extern "C" {
                    fn prctl(option: i32, ...) -> i32;
                }
                const PR_SET_PDEATHSIG: i32 = 1;
                const SIGKILL: u64 = 9;
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // "abase-server listening on <addr> (...)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(
                format!("abase-server did not report an address: {read:?} {line:?}").into(),
            );
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            dir,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Server CPU time (user + system, all threads, exited ones too) in
    /// microseconds, read from its process CPU clock at nanosecond
    /// resolution.
    pub fn cpu_micros(&self) -> Result<f64> {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let mut clock = 0;
        // SAFETY: the call writes only the clock id, through a pointer to
        // the local above.
        let rc = unsafe { clock_getcpuclockid(self.pid() as i32, &mut clock) };
        if rc != 0 {
            return Err(std::io::Error::from_raw_os_error(rc).into());
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: the call writes only `ts`, which outlives it.
        if unsafe { clock_gettime(clock, &mut ts) } != 0 {
            return Err(std::io::Error::last_os_error().into());
        }
        Ok(ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        Ok(status_field(&status, "VmHWM:").ok_or("no VmHWM")? as f64 / 1024.0)
    }

    /// Context switches, voluntary and not, summed over the server's
    /// threads.
    pub fn context_switches(&self) -> Result<u64> {
        let mut total = 0;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let path = task?.path().join("status");
            // A thread may exit between listing and reading.
            let Ok(status) = std::fs::read_to_string(path) else {
                continue;
            };
            total += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
            total += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
        Ok(total)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Write every file under `dir` through to the disk, so that no set-up
/// data is still dirty in the page cache, waiting for the kernel's
/// writeback, when a phase is timed. A file the server removes meanwhile
/// is skipped.
pub fn sync_dir(dir: &Path) -> Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_dir(&path)?;
            continue;
        }
        match std::fs::File::open(&path) {
            Ok(file) => file.sync_all()?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Total bytes of the regular files under `dir`, and how many are SSTs.
pub fn dir_usage(dir: &Path) -> Result<(u64, u64)> {
    let mut bytes = 0;
    let mut ssts = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            let (b, s) = dir_usage(&entry.path())?;
            bytes += b;
            ssts += s;
        } else {
            bytes += meta.len();
            if entry.path().extension().is_some_and(|e| e == "sst") {
                ssts += 1;
            }
        }
    }
    Ok((bytes, ssts))
}

/// One `METRICS` scrape: every sample by its series text
/// (`name` or `name{label="v"}`).
#[derive(Debug, Default, Clone)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// Parse Prometheus text exposition; comment lines are skipped.
    pub fn parse(text: &str) -> Result<Scrape> {
        let mut series = HashMap::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("bad exposition line {line:?}"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("bad sample value in {line:?}"))?;
            series.insert(name.to_string(), value);
        }
        Ok(Scrape(series))
    }

    /// One series; 0 when the server has not registered it yet (metrics
    /// register on first use).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// A family member: `name{key="label"}`.
    pub fn member(&self, name: &str, key: &str, label: &str) -> f64 {
        self.get(&format!("{name}{{{key}=\"{label}\"}}"))
    }

    /// The sum over every member of a labelled family.
    pub fn family_sum(&self, name: &str) -> f64 {
        let prefix = format!("{name}{{");
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// `self - before`, series by series.
    pub fn delta(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exposition_and_takes_deltas() {
        let before = Scrape::parse(
            "# HELP x y\n# TYPE x counter\nabase_server_commands_total{command=\"GET\"} 5\n",
        )
        .unwrap();
        let after = Scrape::parse(
            "abase_server_commands_total{command=\"GET\"} 12\nabase_server_commands_total{command=\"SET\"} 3\nabase_block_cache_bytes 4096\nh_sum{stage=\"parse\"} 1.5\n",
        )
        .unwrap();
        let d = after.delta(&before);
        assert_eq!(
            d.member("abase_server_commands_total", "command", "GET"),
            7.0
        );
        assert_eq!(
            d.member("abase_server_commands_total", "command", "SET"),
            3.0
        );
        assert_eq!(d.family_sum("abase_server_commands_total"), 10.0);
        assert_eq!(d.get("abase_block_cache_bytes"), 4096.0);
        assert_eq!(d.get("never_registered"), 0.0);
        assert_eq!(d.member("h_sum", "stage", "parse"), 1.5);
        assert!(Scrape::parse("nonsense").is_err());
    }
}
