//! Host fingerprint and process memory, read from `/proc`, `/sys` and the
//! checkout's `.git` with the standard library only.

use std::fs;

/// Threads the host offers (`available_parallelism`, at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a wall-clock number depends on besides the code: CPU model, the
/// threads offered and used, the data/unified caches of CPU 0 and the git
/// revision.
pub fn fingerprint(threads_used: usize) -> String {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "cpu=\"{cpu_model}\" available_parallelism={} threads_used={threads_used} caches=[{}] git_rev={}",
        nproc(),
        caches().join(" "),
        git_rev()
    )
}

/// `L<level>=<size>` of each data or unified cache of CPU 0.
fn caches() -> Vec<String> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("{base}/index{i}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(size), Ok(kind)) = (read("level"), read("size"), read("type")) else {
            continue;
        };
        if kind != "Instruction" {
            out.push(format!("L{level}={size}"));
        }
    }
    out
}

/// Commit the checkout is at, from `.git/HEAD` (a detached hash, or a ref
/// resolved through `.git/<ref>` or `.git/packed-refs`); `unknown` outside
/// a git checkout.
fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
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
