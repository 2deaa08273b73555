//! Readers for the Linux `/proc` memory figures the benchmark reports.

/// A `Key:   1234 kB` field of `/proc/<pid>/status` or
/// `/proc/<pid>/smaps_rollup`, in KiB.
pub fn field_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    field_kb(&status, "VmHWM").map(kib_to_mib)
}

/// Resident memory split into anonymous and file-backed pages, MiB.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Resident {
    /// Anonymous pages (heap, stacks).
    pub anon_mb: f64,
    /// File-backed pages (mapped corpus, binary).
    pub file_mb: f64,
}

/// Splits an `smaps_rollup` document: `Anonymous` is the anonymous
/// share, the rest of `Rss` is file-backed.
pub fn parse_rollup(text: &str) -> Option<Resident> {
    let rss = field_kb(text, "Rss")?;
    let anon = field_kb(text, "Anonymous")?;
    Some(Resident {
        anon_mb: kib_to_mib(anon),
        file_mb: kib_to_mib(rss.saturating_sub(anon)),
    })
}

/// This process's current resident split.
pub fn resident_self() -> Option<Resident> {
    parse_rollup(&std::fs::read_to_string("/proc/self/smaps_rollup").ok()?)
}

fn kib_to_mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\tlpr\nVmPeak:\t  900000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\n";

    const ROLLUP: &str = "557e19e7b000-7ffc558d4000 ---p 00000000 00:00 0  [rollup]\n\
        Rss:                3072 kB\n\
        Pss:                 323 kB\n\
        Pss_Anon:            100 kB\n\
        Anonymous:          1024 kB\n\
        AnonHugePages:         0 kB\n";

    #[test]
    fn status_fields_parse_by_exact_key() {
        assert_eq!(field_kb(STATUS, "VmHWM"), Some(2048));
        assert_eq!(field_kb(STATUS, "VmRSS"), Some(1024));
        assert_eq!(field_kb(STATUS, "VmHW"), None);
        assert_eq!(field_kb(STATUS, "Name"), None);
    }

    #[test]
    fn rollup_splits_anon_from_file_backed() {
        let r = parse_rollup(ROLLUP).unwrap();
        assert_eq!(
            r,
            Resident {
                anon_mb: 1.0,
                file_mb: 2.0
            }
        );
    }

    #[test]
    fn rollup_without_anonymous_is_refused() {
        assert_eq!(parse_rollup("Rss: 10 kB\n"), None);
    }

    #[test]
    fn live_process_figures_are_readable() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        assert!(resident_self().unwrap().anon_mb > 0.0);
    }
}
