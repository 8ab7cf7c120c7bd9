//! Readings of a process from outside, through `/proc`.

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// One reading of a process's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStats {
    /// `utime + stime`, seconds, over all its threads (live and exited).
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches summed over its live
    /// threads.
    pub ctxsw: u64,
    /// Live threads.
    pub threads: u64,
    /// Peak resident set (`VmHWM`), kB.
    pub vm_hwm_kb: u64,
}

impl ProcStats {
    /// Reads `/proc/<pid>` (`"self"` for this process).
    pub fn read(pid: &str) -> Result<Self, String> {
        let base = format!("/proc/{pid}");
        let stat = std::fs::read_to_string(format!("{base}/stat"))
            .map_err(|e| format!("cannot read {base}/stat: {e}"))?;
        // Fields after the parenthesised command name, which may itself
        // contain spaces; utime and stime are fields 14 and 15 overall.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        let cpu_s = (ticks(11) + ticks(12)) as f64 / USER_HZ;
        let status = std::fs::read_to_string(format!("{base}/status"))
            .map_err(|e| format!("cannot read {base}/status: {e}"))?;
        let field = |text: &str, key: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
                .unwrap_or(0)
        };
        let mut ctxsw = 0;
        if let Ok(tasks) = std::fs::read_dir(format!("{base}/task")) {
            for task in tasks.flatten() {
                if let Ok(s) = std::fs::read_to_string(task.path().join("status")) {
                    ctxsw += field(&s, "voluntary_ctxt_switches:")
                        + field(&s, "nonvoluntary_ctxt_switches:");
                }
            }
        }
        Ok(Self {
            cpu_s,
            ctxsw,
            threads: field(&status, "Threads:"),
            vm_hwm_kb: field(&status, "VmHWM:"),
        })
    }

    /// Counters accumulated between `earlier` and `self`; `threads` and
    /// `vm_hwm_kb` keep the later reading.
    pub fn since(&self, earlier: &ProcStats) -> ProcStats {
        ProcStats {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let s = ProcStats::read("self").unwrap();
        assert!(s.threads >= 1);
        assert!(s.vm_hwm_kb > 0);
        assert!(s.ctxsw > 0);
    }
}
