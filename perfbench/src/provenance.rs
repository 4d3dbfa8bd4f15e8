//! Where a result came from: commit, CPU, caches, threads and kernel.

use std::fs;
use std::process::Command;

/// Host facts printed in the report header.
pub struct Host {
    pub commit: String,
    pub cpu: String,
    pub flags: String,
    pub nproc: usize,
    pub kernel: &'static str,
    pub l2_bytes: Option<u64>,
    pub llc_bytes: Option<u64>,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            commit: commit(),
            cpu: cpu_model(),
            flags: cpu_flags(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: mpcbf_bitvec::Kernel::active().name(),
            l2_bytes: cache_bytes(|level| level == 2),
            llc_bytes: cache_bytes(|_| true),
        }
    }

    pub fn header(&self) -> String {
        let size = |b: Option<u64>| b.map_or("unknown".to_string(), |b| format!("{}KiB", b >> 10));
        format!(
            "# commit={} cpu=\"{}\" flags={} available_parallelism={} kernel={} l2={} llc={}",
            self.commit,
            self.cpu,
            self.flags,
            self.nproc,
            self.kernel,
            size(self.l2_bytes),
            size(self.llc_bytes)
        )
    }
}

/// The checkout's commit, when it is a git work tree.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        format!(
            "popcnt={},bmi2={},avx512f={}",
            std::arch::is_x86_feature_detected!("popcnt"),
            std::arch::is_x86_feature_detected!("bmi2"),
            std::arch::is_x86_feature_detected!("avx512f")
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".to_string()
    }
}

/// Size of the highest-level data or unified cache of CPU 0 whose level
/// passes `want`, from sysfs.
fn cache_bytes(want: impl Fn(u32) -> bool) -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if kind.trim() == "Instruction" || !want(level) {
            continue;
        }
        let Some(bytes) = parse_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Parses sysfs sizes such as `2048K` or `300M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * scale)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
    }
}
