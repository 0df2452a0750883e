//! The host fingerprint every report carries.
//!
//! Two reports are comparable only when their fingerprints match on the
//! host fields (`nproc`, CPU model, `rustc`, kernel path, shard count);
//! the git SHA records which code ran and is expected to differ between
//! the two sides of a comparison.

use std::process::Command;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_sha: String,
    /// The SIMD kernel path `stembed_runtime::kernel` resolved
    /// (`STEMBED_KERNEL` or CPU detection).
    pub kernel: String,
    /// Shards every runtime in the run is pinned to.
    pub shards: usize,
}

/// Output of a command run to completion, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn fingerprint(shards: usize) -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        cpu_model,
        rustc: command_line("rustc", &["--version"]),
        git_sha: command_line("git", &["rev-parse", "HEAD"]),
        kernel: format!("{:?}", stembed_runtime::kernel::active_path()),
        shards,
    }
}
