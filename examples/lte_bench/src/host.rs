//! Host facts and process accounting read from `/proc`.

use std::process::Command;

use crate::json::{FlatJson, Value};

/// Kernel clock ticks per second behind the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI; reading it
/// properly needs `sysconf`, which the standard library does not expose.
const USER_HZ: f64 = 100.0;

/// Process CPU time so far: `(user seconds, system seconds)`, all
/// threads including ones that already exited.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|text| parse_stat(&text))
            .map(|(utime, stime)| CpuTimes {
                user_s: utime as f64 / USER_HZ,
                sys_s: stime as f64 / USER_HZ,
            })
            .unwrap_or_default()
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// System time as a share of the total (park/wake syscalls show here).
    pub fn sys_share(self) -> f64 {
        self.sys_s / self.total_s().max(1e-9)
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Extracts `(utime, stime)` in clock ticks from the text of
/// `/proc/<pid>/stat`. The second field is the executable name in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Reads a `Key:   <n> kB` line of `/proc/self/status`, in megabytes.
fn status_mb(text: &str, key: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| status_mb(&t, "VmHWM:"))
        .unwrap_or(f64::NAN)
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Worker threads the benchmark uses: every core up to four. The
/// coordinator thread sleeps between ticks, so it needs no core of its
/// own.
pub fn bench_workers() -> usize {
    lte_uplink_repro::sched::host_parallelism().min(4)
}

/// The facts a reader needs before comparing two result files.
pub fn host_facts(seed: u64, workers: usize) -> FlatJson {
    let nproc = lte_uplink_repro::sched::host_parallelism();
    let mut j = FlatJson::new();
    j.push("host.nproc", Value::Num(nproc as f64));
    j.push("host.workers", Value::Num(workers as f64));
    j.push(
        "host.workers_effective",
        Value::Num(workers.min(nproc) as f64),
    );
    j.push("host.cpu_model", Value::Str(cpu_model()));
    j.push(
        "host.simd",
        Value::Str(lte_uplink_repro::dsp::simd::dispatch_label().into()),
    );
    j.push(
        "host.rustc",
        Value::Str(first_line_of("rustc", &["--version"])),
    );
    j.push(
        "host.git_commit",
        Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
    );
    j.push("host.seed", Value::Num(seed as f64));
    j.push("host.load1_start", Value::Num(load_average()));
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let plain = "42 (lte_bench) R 1 42 42 0 -1 4194304 100 0 0 0 321 45 0 0 20 0 3 0";
        assert_eq!(parse_stat(plain), Some((321, 45)));
        let nasty = "42 (evil) name (x) R 1 42 42 0 -1 4194304 100 0 0 0 7 9 0 0 20 0 3 0";
        assert_eq!(parse_stat(nasty), Some((7, 9)));
        assert_eq!(parse_stat("no paren at all"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(CpuTimes::now().total_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn status_lines_parse_to_megabytes() {
        let text = "Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(status_mb(text, "VmHWM:"), Some(20.0));
        assert_eq!(status_mb(text, "VmSwap:"), None);
    }
}
