//! Peak-RSS instrumentation for the memory benchmarks.
//!
//! Linux exposes a process's resident-set high-water mark as the
//! `VmHWM` field of `/proc/self/status` (and the current RSS as
//! `VmRSS`). `bench_report`'s pool section spawns one subprocess per
//! measured configuration precisely because `VmHWM` is a *high-water*
//! mark: it never decreases, so two configurations measured in one
//! process would shadow each other.

/// Peak resident set size (`VmHWM`) of this process, in bytes.
/// `None` on platforms without `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_kb("VmHWM").map(|kb| kb * 1024)
}

/// Current resident set size (`VmRSS`) of this process, in bytes.
/// `None` on platforms without `/proc/self/status`.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_kb("VmRSS").map(|kb| kb * 1024)
}

/// Reads one `kB`-denominated field from `/proc/self/status`.
fn read_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, field)
}

/// Parses `"<field>:   <n> kB"` out of a `/proc/<pid>/status` document.
///
/// A line that merely *starts* with `field` (`VmRSSAnon` when asked for
/// `VmRSS`, say) is not a match: the prefix must be followed by `:`.
/// Such near-misses skip to the next line rather than aborting the
/// scan — an earlier version `?`-returned from inside the loop, so one
/// prefix-sharing line could hide the real field below it.
fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    for line in status.lines() {
        let Some(rest) = line.strip_prefix(field) else {
            continue;
        };
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let digits = rest.split_whitespace().next()?;
        return digits.parse().ok();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_status_format() {
        let doc = "Name:\tcargo\nVmRSS:\t  123456 kB\nVmHWM:\t  234567 kB\nThreads:\t8\n";
        assert_eq!(parse_status_kb(doc, "VmRSS"), Some(123_456));
        assert_eq!(parse_status_kb(doc, "VmHWM"), Some(234_567));
        assert_eq!(parse_status_kb(doc, "VmSwap"), None);
    }

    #[test]
    fn prefix_sharing_line_does_not_hide_the_real_field() {
        // `VmRSSx` shares the `VmRSS` prefix but is a different field;
        // it appears *before* the real one, which the buggy
        // early-return parser never reached.
        let doc = "Name:\tcargo\nVmRSSx:\t  999 kB\nVmRSS:\t  123456 kB\n";
        assert_eq!(parse_status_kb(doc, "VmRSS"), Some(123_456));
        // A document with only the near-miss yields None, not a wrong
        // number.
        let near_miss_only = "VmRSSx:\t  999 kB\n";
        assert_eq!(parse_status_kb(near_miss_only, "VmRSS"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_readings_are_sane() {
        let peak = peak_rss_bytes().expect("Linux exposes VmHWM");
        let now = current_rss_bytes().expect("Linux exposes VmRSS");
        // The kernel batches per-thread RSS accounting, so VmHWM can
        // trail VmRSS by a few pages at any instant — only a gross
        // inversion would indicate a parsing bug.
        assert!(
            peak * 2 >= now,
            "high-water {peak} implausibly below current {now}"
        );
        assert!(now > 1024 * 1024, "a test process uses > 1 MiB");
        assert!(peak > 1024 * 1024, "a test process peaks > 1 MiB");
    }

    #[test]
    fn peak_never_decreases_after_an_allocation() {
        let before = peak_rss_bytes();
        // Touch 32 MiB so the pages actually become resident.
        let mut v = vec![0u8; 32 << 20];
        for page in v.chunks_mut(4096) {
            page[0] = 1;
        }
        let after = peak_rss_bytes();
        drop(v);
        if let (Some(b), Some(a)) = (before, after) {
            assert!(a >= b);
            assert!(a - b >= 24 << 20, "HWM grew only {} bytes", a - b);
        }
    }
}
