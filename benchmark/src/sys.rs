//! Process accounting read straight from the kernel: CPU time, peak memory,
//! core count and CPU model.

/// `struct rusage` of x86-64/aarch64 Linux: two `timeval`s then 14 longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// User + system CPU seconds this process has used so far, all threads,
/// including threads that already exited.
pub fn cpu_seconds() -> f64 {
    let mut ru = RUsage::default();
    // SAFETY: `getrusage` only writes a `struct rusage` through the pointer;
    // `RUsage` is `repr(C)` with that struct's Linux LP64 layout (144 bytes)
    // and lives for the whole call. RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    rusage_seconds(&ru)
}

fn rusage_seconds(ru: &RUsage) -> f64 {
    (ru.utime_sec + ru.stime_sec) as f64 + (ru.utime_usec + ru.stime_usec) as f64 * 1e-6
}

/// Value in kB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key) && l[key.len()..].starts_with(':'))?;
    line[key.len() + 1..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of this process in MB of 1024 kB, or
/// `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    cpuinfo_model(&info).unwrap_or("unknown").to_string()
}

fn cpuinfo_model(info: &str) -> Option<&str> {
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_adds_user_and_system_time() {
        let ru = RUsage {
            utime_sec: 2,
            utime_usec: 250_000,
            stime_sec: 1,
            stime_usec: 500_000,
            ..Default::default()
        };
        assert!((rusage_seconds(&ru) - 3.75).abs() < 1e-12);
        assert_eq!(std::mem::size_of::<RUsage>(), 144);
    }

    #[test]
    fn cpu_seconds_advances_under_load() {
        let before = cpu_seconds();
        let mut x = 1u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn status_parser_reads_the_named_line_only() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmHWMx:\t 1 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(status_kb(status, "VmRSS"), None);
        assert!(peak_rss_mb().is_none_or(|mb| mb > 0.5));
    }

    #[test]
    fn cpuinfo_parser_takes_the_first_model() {
        let info = "processor\t: 0\nmodel name\t: Fast CPU @ 2GHz\nmodel name\t: other\n";
        assert_eq!(cpuinfo_model(info), Some("Fast CPU @ 2GHz"));
        assert_eq!(cpuinfo_model("processor: 0\n"), None);
    }
}
