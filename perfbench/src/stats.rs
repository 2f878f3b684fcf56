//! Small measurement helpers: quantiles, process counters, and the result
//! line.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

static START: OnceLock<Instant> = OnceLock::new();

/// Starts the progress clock.
pub fn start_clock() {
    START.get_or_init(Instant::now);
}

/// A progress line on standard error, stamped with seconds since start.
pub fn note(message: &str) {
    let t = START.get().map_or(0.0, |s| s.elapsed().as_secs_f64());
    eprintln!("perfbench [{t:7.2} s] {message}");
}

/// The `q`-quantile of `values` (nearest rank on the sorted values); 0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn proc_field(file: &str, key: &str) -> u64 {
    std::fs::read_to_string(file)
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                let rest = line.strip_prefix(key)?.strip_prefix(':')?;
                rest.split_whitespace().next()?.parse().ok()
            })
        })
        .unwrap_or(0)
}

/// Bytes this process has caused to be written to storage (the kernel's
/// `write_bytes` accounting in `/proc/self/io`).
pub fn proc_io_write_bytes() -> u64 {
    proc_field("/proc/self/io", "write_bytes")
}

/// This machine's CPU ticks so far (first row of `/proc/stat`): busy ones
/// (neither idle nor waiting for I/O) and, among them, those the host stole
/// for other machines.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    busy: u64,
    stolen: u64,
}

impl CpuTicks {
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|v| v.parse().ok())
            .collect();
        let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        Self {
            busy: ticks.iter().sum::<u64>() - at(3) - at(4),
            stolen: at(7),
        }
    }

    /// The share of the busy CPU time since `earlier` that the host gave
    /// this machine rather than stole; 1 when nothing was busy.
    pub fn given_since(&self, earlier: &CpuTicks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        if busy == 0 {
            return 1.0;
        }
        1.0 - self.stolen.saturating_sub(earlier.stolen) as f64 / busy as f64
    }
}

/// Peak resident set size of this process in MiB.
pub fn rss_peak_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM") as f64 / 1024.0
}

/// Total size of the regular files under a directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
