//! [`RunManifest`] — the reproducibility record stamped into every
//! `BENCH_*.json`.
//!
//! A perf number without a record of *what ran* is a rumor. The manifest
//! pins the code revision, the deterministic seed, the benchmark's
//! schedule and topology descriptors, the machine the harness ran on,
//! and the estimator/stopping settings the numbers were computed under —
//! enough to re-run the measurement and to notice when two documents are
//! not comparable.

use serde::{Deserialize, Serialize};

/// Version of the BENCH document schema this crate writes. Bump on any
/// field-layout change; the schema gate in CI parses every checked-in
/// document against it.
pub const SCHEMA_VERSION: u32 = 2;

/// Estimator and stopping-rule settings the document's numbers were
/// computed under.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EstimatorSettings {
    /// Headline point estimator ("median").
    pub statistic: String,
    /// Interval method ("binomial-order-statistic" or
    /// "percentile-bootstrap").
    pub ci_method: String,
    /// Confidence level of every interval in the document.
    pub confidence: f64,
    /// Adaptive stopping target: relative CI half-width at which
    /// sampling stops.
    pub rel_half_width_target: f64,
    /// Samples always drawn before the first convergence check.
    pub min_reps: u64,
    /// Hard per-measurement rep budget.
    pub max_reps: u64,
    /// How outliers are treated ("flagged at modified z-score > 3.5,
    /// never dropped").
    pub outlier_policy: String,
}

impl EstimatorSettings {
    /// The settings corresponding to an
    /// [`AdaptiveConfig`](crate::AdaptiveConfig) driving
    /// [`measure_adaptive`](crate::measure_adaptive).
    pub fn for_adaptive(cfg: &crate::AdaptiveConfig) -> EstimatorSettings {
        EstimatorSettings {
            statistic: "median".to_string(),
            ci_method: "binomial-order-statistic".to_string(),
            confidence: cfg.confidence,
            rel_half_width_target: cfg.rel_half_width_target,
            min_reps: cfg.min_reps as u64,
            max_reps: cfg.max_reps as u64,
            outlier_policy: "flagged at modified z-score > 3.5, never dropped".to_string(),
        }
    }
}

/// The machine the harness ran on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostInfo {
    /// Operating system (compile-time `std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (compile-time `std::env::consts::ARCH`).
    pub arch: String,
    /// Logical CPUs visible to the process.
    pub logical_cpus: u64,
}

impl HostInfo {
    /// Captures the current host.
    pub fn capture() -> HostInfo {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            logical_cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
        }
    }
}

/// The reproducibility manifest serialized into every BENCH document.
///
/// Serde impls are hand-written (not derived) because
/// [`RunManifest::peak_rss_bytes`] is an *additive optional* field:
/// it is omitted from the serialization when `None` and tolerated when
/// missing on read, so schema-2 documents written before the gauge
/// existed stay byte-identical and parseable. The derive would demand
/// the key's presence.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// BENCH document schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark identifier (matches the document's `benchmark` key).
    pub benchmark: String,
    /// Git revision of the code that produced the numbers
    /// (`git rev-parse --short=12 HEAD`, or "unknown" outside a work
    /// tree).
    pub git_rev: String,
    /// Deterministic seed every simulated measurement derives from.
    pub seed: u64,
    /// Measurement-schedule descriptor (e.g.
    /// "ProfilingConfig::default (paper §IV-A)").
    pub schedule: String,
    /// Topology/machine-model descriptor (e.g. "P/8 dual quad-core
    /// nodes, round-robin mapping").
    pub topology: String,
    /// Host the harness process ran on.
    pub host: HostInfo,
    /// Exact command line of the run.
    pub command_line: Vec<String>,
    /// Estimator and stopping settings.
    pub estimator: EstimatorSettings,
    /// Peak resident set size of the harness process in bytes
    /// ([`peak_rss_bytes`]), read at capture time — the bins capture
    /// their manifest after the workload, so this gauges the whole run.
    /// `None` on platforms without a gauge and in documents written
    /// before the field existed.
    pub peak_rss_bytes: Option<u64>,
}

impl Serialize for RunManifest {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("benchmark".to_string(), self.benchmark.to_value()),
            ("git_rev".to_string(), self.git_rev.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("schedule".to_string(), self.schedule.to_value()),
            ("topology".to_string(), self.topology.to_value()),
            ("host".to_string(), self.host.to_value()),
            ("command_line".to_string(), self.command_line.to_value()),
            ("estimator".to_string(), self.estimator.to_value()),
        ];
        if let Some(peak) = self.peak_rss_bytes {
            fields.push(("peak_rss_bytes".to_string(), peak.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for RunManifest {
    fn from_value(value: &serde::Value) -> Result<Self, String> {
        let field = |key: &str| serde::__field(value, key, "RunManifest");
        let peak_rss_bytes = match value.get("peak_rss_bytes") {
            None | Some(serde::Value::Null) => None,
            Some(v) => {
                Some(u64::from_value(v).map_err(|e| format!("RunManifest.peak_rss_bytes: {e}"))?)
            }
        };
        Ok(RunManifest {
            schema_version: u32::from_value(field("schema_version")?)?,
            benchmark: String::from_value(field("benchmark")?)?,
            git_rev: String::from_value(field("git_rev")?)?,
            seed: u64::from_value(field("seed")?)?,
            schedule: String::from_value(field("schedule")?)?,
            topology: String::from_value(field("topology")?)?,
            host: HostInfo::from_value(field("host")?)?,
            command_line: Vec::<String>::from_value(field("command_line")?)?,
            estimator: EstimatorSettings::from_value(field("estimator")?)?,
            peak_rss_bytes,
        })
    }
}

impl RunManifest {
    /// Builds a manifest for `benchmark`, capturing git revision, host,
    /// command line, and peak RSS from the environment.
    pub fn capture(
        benchmark: &str,
        seed: u64,
        schedule: &str,
        topology: &str,
        estimator: EstimatorSettings,
    ) -> RunManifest {
        RunManifest {
            schema_version: SCHEMA_VERSION,
            benchmark: benchmark.to_string(),
            git_rev: git_rev(),
            seed,
            schedule: schedule.to_string(),
            topology: topology.to_string(),
            host: HostInfo::capture(),
            command_line: std::env::args().collect(),
            estimator,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// The process's high-water resident set size in bytes — `VmHWM` from
/// `/proc/self/status` on Linux, `None` where no portable gauge exists.
/// This is the kernel's own account of the worst moment of the run,
/// which is what a memory-ceiling claim must be judged against (any
/// instantaneous sampling can miss the peak).
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kib: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
                return Some(kib * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The working tree's short revision, or "unknown" when git is absent
/// (e.g. a source tarball).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_fills_environment_fields() {
        let m = RunManifest::capture(
            "unit",
            42,
            "fast",
            "2x2x4",
            EstimatorSettings::for_adaptive(&crate::AdaptiveConfig::default()),
        );
        assert_eq!(m.schema_version, SCHEMA_VERSION);
        assert!(!m.git_rev.is_empty());
        assert!(!m.command_line.is_empty());
        assert_eq!(m.host.os, std::env::consts::OS);
        if cfg!(target_os = "linux") {
            assert!(m.peak_rss_bytes.is_some(), "VmHWM must gauge on linux");
        }
    }

    #[test]
    fn peak_rss_gauge_is_sane_on_linux() {
        let Some(peak) = peak_rss_bytes() else {
            assert!(std::env::consts::OS != "linux", "VmHWM must gauge on linux");
            return;
        };
        // A running test process has touched at least a few hundred KiB
        // and (here) far less than a terabyte; the gauge is monotone.
        assert!(peak > 64 * 1024, "peak {peak} implausibly small");
        assert!(peak < 1 << 40, "peak {peak} implausibly large");
        let _ballast = vec![7u8; 4 << 20];
        let after = peak_rss_bytes().expect("still linux");
        assert!(after >= peak, "VmHWM went backwards: {peak} -> {after}");
    }
}
