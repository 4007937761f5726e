//! Host fingerprint.

use crate::json;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of cpu0's unified or data cache at `level`, as the kernel prints it.
fn cache_size(level: &str) -> String {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl = read_trimmed(&format!("{dir}/level"))?;
            let kind = read_trimmed(&format!("{dir}/type"))?;
            (lvl == level && kind != "Instruction").then(|| read_trimmed(&format!("{dir}/size")))?
        })
        .next()
        .unwrap_or_else(|| "unknown".to_string())
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_string())
}

/// The host fingerprint as a JSON object. `rustc`, the target CPU and the
/// source revision come from the launcher (`run.py`), which built the binary.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"l2\":{},\"l3\":{},\"rustc\":{},\"target_cpu\":{},\"git_commit\":{},\"source_digest\":{}}}",
        json::string(&cpu_model()),
        json::string(&cache_size("2")),
        json::string(&cache_size("3")),
        json::string(&env_or("PERFBENCH_RUSTC", "unknown")),
        json::string(&env_or("PERFBENCH_TARGET_CPU", "unknown")),
        json::string(&env_or("PERFBENCH_GIT_COMMIT", "unknown")),
        json::string(&env_or("PERFBENCH_SOURCE_DIGEST", "unknown")),
    )
}
