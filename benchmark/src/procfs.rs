//! The few `/proc` fields the benchmark reads, parsed from text so the
//! parsers can be tested on fixture strings.

/// Host accounting a child reads about itself just before it exits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfUsage {
    /// User-mode CPU seconds, all threads, exited ones included.
    pub cpu_user_s: f64,
    /// Kernel-mode CPU seconds, all threads, exited ones included.
    pub cpu_sys_s: f64,
    /// Peak resident set (`VmHWM`), KiB.
    pub peak_rss_kb: u64,
    /// Live threads.
    pub threads: u64,
}

/// Clock ticks per second of `/proc/*/stat` times. Linux has reported
/// `USER_HZ` = 100 on every architecture since 2.6, whatever `CONFIG_HZ`.
const USER_HZ: f64 = 100.0;

/// `(utime, stime)` in seconds from a `/proc/<pid>/stat` line. The
/// command name may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime as f64 / USER_HZ, stime as f64 / USER_HZ))
}

/// First whitespace-separated token after `key` in a `/proc/*/status`
/// text (`"VmHWM:"` → `"1195128"`).
pub fn status_field<'s>(status: &'s str, key: &str) -> Option<&'s str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
}

/// Parse the process's own `/proc` entries.
pub fn parse_self_usage(stat: &str, status: &str) -> Option<SelfUsage> {
    let (cpu_user_s, cpu_sys_s) = parse_stat_cpu(stat)?;
    Some(SelfUsage {
        cpu_user_s,
        cpu_sys_s,
        peak_rss_kb: status_field(status, "VmHWM:")?.parse().ok()?,
        threads: status_field(status, "Threads:")?.parse().ok()?,
    })
}

/// This process's usage; zeros where `/proc` is unavailable.
pub fn self_usage() -> SelfUsage {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    parse_self_usage(&read("/proc/self/stat"), &read("/proc/self/status")).unwrap_or_default()
}

/// The last CPU of a `Cpus_allowed_list` value such as `0-1` or `0,2-5`.
pub fn last_cpu(list: &str) -> Option<u32> {
    let last = list.trim().rsplit(',').next()?;
    last.rsplit('-').next()?.trim().parse().ok()
}

/// The last CPU this process may run on.
pub fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    last_cpu(status_field(&status, "Cpus_allowed_list:")?)
}

/// Where the threads of a stuck process are parked: its `Threads:` count
/// and how many threads sit in each kernel wait channel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ThreadSample {
    /// `Threads:` of `/proc/<pid>/status`.
    pub threads: u64,
    /// `(wchan, threads in it)`, most common first.
    pub wchan: Vec<(String, u64)>,
}

/// Fold one `wchan` string per thread into counts.
pub fn fold_wchan(threads: u64, per_thread: impl IntoIterator<Item = String>) -> ThreadSample {
    let mut counts = std::collections::BTreeMap::<String, u64>::new();
    for w in per_thread {
        // An empty or "0" wchan means the thread is not blocked in the kernel.
        let w = match w.trim() {
            "" | "0" => "running".to_string(),
            other => other.to_string(),
        };
        *counts.entry(w).or_default() += 1;
    }
    let mut wchan: Vec<_> = counts.into_iter().collect();
    wchan.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ThreadSample { threads, wchan }
}

/// Sample process `pid` (best effort: threads may exit mid-scan).
pub fn sample_threads(pid: u32) -> ThreadSample {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let threads = status_field(&status, "Threads:")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let per_thread = std::fs::read_dir(format!("/proc/{pid}/task"))
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("wchan")).ok());
    fold_wchan(threads, per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (sim) worker (x)) S 1 4242 4242 0 -1 4194304 1087 0 0 0 \
                        1234 567 0 0 20 0 174 0 1000 2000 300 18446744073709551615";
    const STATUS: &str = "Name:\tbenchmark\nVmPeak:\t 2000000 kB\nVmHWM:\t 1195128 kB\n\
                          Threads:\t174\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";

    #[test]
    fn stat_cpu_times_survive_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu(STAT), Some((12.34, 5.67)));
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu(""), None);
    }

    #[test]
    fn self_usage_reads_hwm_and_threads() {
        let u = parse_self_usage(STAT, STATUS).unwrap();
        assert_eq!(u.peak_rss_kb, 1_195_128);
        assert_eq!(u.threads, 174);
        assert_eq!((u.cpu_user_s, u.cpu_sys_s), (12.34, 5.67));
        assert_eq!(parse_self_usage(STAT, "Name:\tx\n"), None);
    }

    #[test]
    fn last_cpu_of_ranges_and_lists() {
        assert_eq!(
            last_cpu(status_field(STATUS, "Cpus_allowed_list:").unwrap()),
            Some(1)
        );
        assert_eq!(last_cpu("0,2-5"), Some(5));
        assert_eq!(last_cpu("0-3,7"), Some(7));
        assert_eq!(last_cpu("3\n"), Some(3));
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn wchan_counts_sort_by_frequency() {
        let s = fold_wchan(
            4,
            ["futex_do_wait", "0", "futex_do_wait\n", "do_nanosleep"].map(String::from),
        );
        assert_eq!(
            s.wchan,
            vec![
                ("futex_do_wait".to_string(), 2),
                ("do_nanosleep".to_string(), 1),
                ("running".to_string(), 1)
            ]
        );
        assert_eq!(s.threads, 4);
    }
}
