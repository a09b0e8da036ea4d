//! Process CPU time and peak memory from `/proc/self`, with no
//! dependency beyond the standard library.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux reports them in `USER_HZ`, which its
/// user-space ABI fixes at 100.
const USER_HZ: u64 = 100;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is in parentheses and may itself hold
/// spaces and parentheses, so fields are counted from the last `)`:
/// the state is the first field after it and `utime`, `stime` (fields
/// 14 and 15 of `proc(5)`) are the 12th and 13th.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in kB of `key` (e.g. `VmHWM`) in the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU time of this process (every thread, live or
/// exited), in nanoseconds, at 10 ms resolution.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable or malformed: the
/// benchmark's CPU metrics cannot be measured without it.
pub fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime")
        * (1_000_000_000 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in kB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM`.
pub fn peak_rss_kb() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_kb(&status, "VmHWM").expect("/proc/self/status has VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let stat = "4242 (we (ird) name) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    731 129 0 0 20 0 3 0 98765 123456789 4321 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 129));
    }

    #[test]
    fn truncated_or_garbled_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 abc 3"),
            None
        );
    }

    #[test]
    fn status_lookup_reads_the_named_kb_field() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(100));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn live_process_values_are_readable() {
        assert!(peak_rss_kb() > 0);
        let t0 = cpu_ns();
        let mut x = 1u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns() >= t0);
    }
}
