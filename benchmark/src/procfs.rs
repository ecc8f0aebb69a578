//! The operating system's view of a rank process, read from `/proc`.

/// Kernel clock ticks per second that `/proc/<pid>/stat` counts CPU time
/// in. `sysconf(_SC_CLK_TCK)` is 100 on every Linux this builds for, and
/// the vendored `libc` stand-in does not declare `sysconf`.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time and context switches of one process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSnapshot {
    /// User-mode CPU seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary context switches of the main thread (each one is a block
    /// on a socket, channel or lock).
    pub vol_ctx: f64,
    /// Peak resident set size, MiB.
    pub hwm_mib: f64,
}

/// Parses the `utime` and `stime` fields of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

/// The calling process's parent, from `/proc/self/stat` (field 4).
pub fn parent_pid() -> Option<u32> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat[stat.rfind(')')? + 1..]
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Reads the number of a `/proc/<pid>/status` field such as `VmHWM` (kB)
/// or `voluntary_ctxt_switches`.
pub fn parse_status_field(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Snapshot of process `pid` (`"self"` for the caller). Fields the kernel
/// does not report read 0.
pub fn snapshot(pid: &str) -> ProcSnapshot {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let (user_s, sys_s) = parse_stat_cpu(&stat).unwrap_or_default();
    ProcSnapshot {
        user_s,
        sys_s,
        vol_ctx: parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or_default(),
        hwm_mib: parse_status_field(&status, "VmHWM").unwrap_or_default() / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_odd_command_names() {
        let stat = "1234 (sar bench) x) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((2.5, 0.5)));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_name() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\n\
                      voluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(2048.0));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(42.0)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn own_process_reports_memory_and_cpu() {
        assert!(parent_pid().is_some_and(|p| p > 0));
        let s = snapshot("self");
        assert!(s.hwm_mib > 0.0);
        assert!(s.user_s >= 0.0 && s.sys_s >= 0.0);
    }
}
