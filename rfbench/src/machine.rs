//! Machine fingerprint stamped on every result, and process memory.

/// CPU time counters from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Sum of every field, in clock ticks.
    pub total: u64,
    /// Time stolen by the hypervisor, in clock ticks.
    pub steal: u64,
}

/// Reads `/proc/stat`; zeros where it is unavailable.
pub fn cpu_times() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return CpuTimes::default();
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuTimes {
        // guest time is already included in user time.
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Share of all CPU time between two readings that the hypervisor stole.
pub fn steal_share(before: CpuTimes, after: CpuTimes) -> f64 {
    crate::stats::ratio(
        after.steal.saturating_sub(before.steal) as f64,
        after.total.saturating_sub(before.total) as f64,
    )
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) in MiB, 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The fingerprint as one JSON object.
pub fn fingerprint_json(workers: usize, steal: f64) -> String {
    format!(
        "{{\"nproc\": {}, \"workers\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"steal_share\": {}}}",
        nproc(),
        workers,
        cpu_model().replace(['"', '\\'], ""),
        env!("RFBENCH_RUSTC_VERSION").replace(['"', '\\'], ""),
        steal
    )
}
