//! Process CPU time and peak memory, read from `/proc`. Every reader
//! returns `None` where `/proc` is absent or unparsable — the benchmark
//! then reports the metric as `null` instead of failing.

/// Kernel clock ticks per second for the `utime`/`stime` fields. `USER_HZ`
/// is 100 on every Linux ABI in use; reading it properly needs `sysconf`,
/// which needs libc.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (`utime + stime`, all threads) from the text of
/// `/proc/<pid>/stat`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces and parentheses, so fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// Peak resident set size in MB (`VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// Seconds of CPU the hypervisor gave to someone else (`steal`, summed over
/// all cores) from the text of `/proc/stat`.
pub fn parse_stat_steal_seconds(stat: &str) -> Option<f64> {
    let mut fields = stat.lines().next()?.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal …
    let steal: u64 = fields.nth(7)?.parse().ok()?;
    Some(steal as f64 / CLK_TCK)
}

/// CPU seconds this process has consumed so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Seconds of CPU stolen from this machine since boot.
pub fn steal_seconds() -> Option<f64> {
    parse_stat_steal_seconds(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a run of this benchmark; the command name is edited
    /// to contain the characters that break naive whitespace splitting.
    const STAT: &str = "4242 (dice bench) x) R 4100 4242 4100 34816 4242 4194304 31415 0 2 0 \
        1234 56 0 0 20 0 3 0 9876543 104857600 25600 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 \
        0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tdice-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  210000 kB\nVmSize:\t  200000 kB\nVmHWM:\t  126464 kB\nVmRSS:\t  100000 kB\n\
        Threads:\t3\n";

    /// Head of `/proc/stat` on the reference host.
    const SYSTEM_STAT: &str = "cpu  473966 0 15505 738144 3934 0 352 14102 0 0\n\
        cpu0 230598 0 9467 372683 2354 0 194 7149 0 0\n\
        cpu1 243367 0 6038 365461 1579 0 158 6953 0 0\nintr 1 2 3\n";

    #[test]
    fn system_stat_steal_is_the_eighth_counter_of_the_summary_line() {
        assert_eq!(parse_stat_steal_seconds(SYSTEM_STAT), Some(141.02));
        // Kernels before 2.6.11 print fewer counters.
        assert_eq!(parse_stat_steal_seconds("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_stat_steal_seconds("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_stat_steal_seconds(""), None);
    }

    #[test]
    fn stat_cpu_time_survives_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu_seconds(STAT), Some(12.9));
    }

    #[test]
    fn status_peak_rss_reads_vmhwm_not_vmrss() {
        assert_eq!(parse_status_peak_rss_mb(STATUS), Some(123.5));
    }

    #[test]
    fn garbage_parses_to_none_not_a_panic() {
        assert_eq!(parse_stat_cpu_seconds(""), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 2 3"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis at all"), None);
        assert_eq!(parse_status_peak_rss_mb(""), None);
        assert_eq!(parse_status_peak_rss_mb("VmHWM:\tlots\n"), None);
        assert_eq!(parse_status_peak_rss_mb("VmRSS:\t 5 kB\n"), None);
    }
}
