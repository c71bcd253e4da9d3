//! Process-level readings from procfs.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) used so far by this process, including
/// threads that have already exited.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat: field {} unreadable", i + 3))
    };
    // utime and stime are fields 14 and 15.
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Peak resident set size of this process so far (MiB).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_parse() {
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
