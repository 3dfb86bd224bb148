//! Percentiles over raw samples, and the process's resident memory.

/// Nearest-rank percentile (`q` in [0, 1]) of nanosecond samples, in
/// microseconds. Sorts `samples` in place; 0 when there are none.
pub fn pct_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1000.0
}

/// Median of a small set of values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean of the best quarter of the values (at least one): the lowest ones
/// when lower is better, else the highest; 0 when there are none.
pub fn best_quarter_mean(values: &mut [f64], lower_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    if !lower_is_better {
        values.reverse();
    }
    let kept = &values[..values.len().div_ceil(4)];
    ratio(kept.iter().sum(), kept.len() as f64)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Resident memory of this process now, in MB, from the kernel's own
/// account of it (`VmRSS` in `/proc/self/status`). A high-water mark such
/// as `getrusage`'s would carry the launching process's peak across exec.
pub fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading own status: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).ok_or("no VmRSS line in own status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmRSS line {line:?}"))?;
    Ok(kb / 1024.0)
}
