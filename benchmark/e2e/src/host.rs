//! Host measurements read from Linux `/proc`: peak resident memory and a
//! noise record (process CPU time, host CPU steal) kept beside wall time.
//!
//! The noise record never drops a run. Its steal reading also corrects
//! `sim_speed` (see [`crate::throughput`]).

use std::fmt;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Peak resident memory of this process so far (`VmHWM`). (MB)
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time the hypervisor has stolen from this machine so far, summed
/// over its CPUs (`steal` in `/proc/stat`). (s)
pub(crate) fn stolen_s() -> Option<f64> {
    host_user_steal_ticks().map(|(_, steal)| steal as f64 / USER_HZ)
}

/// Process CPU ticks (user + system) from `/proc/self/stat`.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Host-wide (user, steal) ticks from the first line of `/proc/stat`.
fn host_user_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.first()?, *fields.get(7)?))
}

/// One reading of the clocks the noise record compares.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    wall: Instant,
    cpu_ticks: Option<u64>,
    user_steal: Option<(u64, u64)>,
}

impl HostSample {
    /// Reads every clock now.
    pub fn now() -> HostSample {
        HostSample {
            wall: Instant::now(),
            cpu_ticks: process_cpu_ticks(),
            user_steal: host_user_steal_ticks(),
        }
    }

    /// The record of the interval from `self` to `later`.
    pub fn until(&self, later: &HostSample) -> NoiseRecord {
        let ticks = |a: Option<u64>, b: Option<u64>| Some(b?.saturating_sub(a?));
        NoiseRecord {
            wall_s: later.wall.duration_since(self.wall).as_secs_f64(),
            cpu_s: ticks(self.cpu_ticks, later.cpu_ticks).map(|t| t as f64 / USER_HZ),
            host_user_ticks: ticks(self.user_steal.map(|p| p.0), later.user_steal.map(|p| p.0)),
            host_steal_ticks: ticks(self.user_steal.map(|p| p.1), later.user_steal.map(|p| p.1)),
        }
    }
}

/// Wall time beside the process's CPU time and the host's CPU steal over
/// the same interval.
#[derive(Debug, Clone, Copy)]
pub struct NoiseRecord {
    /// Wall time. (s)
    pub wall_s: f64,
    /// Process CPU time, user + system. (s)
    pub cpu_s: Option<f64>,
    /// Host-wide user ticks.
    pub host_user_ticks: Option<u64>,
    /// Host-wide steal ticks.
    pub host_steal_ticks: Option<u64>,
}

impl fmt::Display for NoiseRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host: wall {:.3} s", self.wall_s)?;
        match self.cpu_s {
            Some(cpu) => write!(
                f,
                ", process cpu {cpu:.2} s ({:.2} cores)",
                cpu / self.wall_s
            )?,
            None => write!(f, ", process cpu unavailable")?,
        }
        match (self.host_user_ticks, self.host_steal_ticks) {
            (Some(user), Some(steal)) => write!(
                f,
                ", host steal {steal} ticks ({:.1}% of {user} user ticks)",
                100.0 * steal as f64 / user.max(1) as f64
            ),
            _ => write!(f, ", host steal unavailable"),
        }
    }
}
