//! Process measurements read from `/proc`, on-disk sizes, and provenance.

use std::path::Path;

/// Clock ticks per second of `/proc/*/stat` CPU times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |k| k as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// User + system CPU seconds from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> f64 {
    let Ok(s) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let Some(rest) = s.rfind(')').map(|i| &s[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// CPU seconds used by the whole process, exited threads included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds used by the calling thread.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Host-wide CPU ticks `(stolen, total)` from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
pub fn host_ticks() -> (u64, u64) {
    let Ok(s) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = s.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Share of host CPU time stolen between two [`host_ticks`] readings, %.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    fn read(p: &str) -> Option<String> {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    }
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{name}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built this binary (recorded by the build script).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}
