//! Process facts the standard library does not expose: this process's
//! peak resident memory, and a child's exit status together with its
//! peak resident memory.

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn own_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPU time of the whole machine from `/proc/stat`, in clock ticks: the
/// total over every state, and the part the hypervisor stole.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    let line = stat.lines().next().ok_or("empty /proc/stat")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse::<u64>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal ...
    let steal = *fields.get(7).ok_or("no steal column in /proc/stat")?;
    Ok((fields.iter().take(8).sum(), steal))
}

/// Reset this process's peak resident set size to its current resident
/// size (`echo 5 > /proc/self/clear_refs`), so the next
/// [`own_peak_rss_mb`] reading covers only what runs after this call.
pub fn reset_own_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {}", e))
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, wstatus: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    pub peak_rss_mb: f64,
}

/// Block until the child `pid` exits and reap it, returning its exit code
/// and the peak resident memory the kernel recorded for it. The caller
/// owns the child's `Child` handle and, once this returns `Ok`, must not
/// signal or wait on it again.
pub fn wait_with_rusage(pid: u32) -> Result<Reaped, String> {
    let pid = i32::try_from(pid).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals of the types wait4 writes (`int` and a `struct rusage`
        // laid out as above). wait4 only writes through them.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({}): {}", pid, err));
        }
    }
    // WIFEXITED / WEXITSTATUS from <sys/wait.h>.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Reaped {
        code,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn own_peak_is_positive_and_resets() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = own_peak_rss_mb().unwrap();
        drop(big);
        reset_own_peak_rss().unwrap();
        let after = own_peak_rss_mb().unwrap();
        assert!(after > 0.0);
        assert!(
            after < with_big - 32.0,
            "peak {} after reset, {} before",
            after,
            with_big
        );
    }

    #[test]
    fn cpu_ticks_grow() {
        let (total, steal) = cpu_ticks().unwrap();
        assert!(total > 0 && steal <= total);
    }

    // `wait_with_rusage` is what reaps these children.
    #[allow(clippy::zombie_processes)]
    #[test]
    fn reaps_exit_code_and_memory() {
        let child = Command::new("sh").args(["-c", "exit 3"]).spawn().unwrap();
        let r = wait_with_rusage(child.id()).unwrap();
        assert_eq!(r.code, Some(3));
        assert!(r.peak_rss_mb > 0.0);
        let mut killed = Command::new("sleep").arg("5").spawn().unwrap();
        killed.kill().unwrap();
        assert_eq!(wait_with_rusage(killed.id()).unwrap().code, None);
    }
}
