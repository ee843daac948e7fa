//! # hyperstream-bench
//!
//! Benchmark harness for the hierarchical hypersparse GraphBLAS
//! reproduction.  Two kinds of artifacts live here:
//!
//! * **Criterion micro-benchmarks** (`benches/`) — kernel-level timings of
//!   the GraphBLAS operations, the hierarchical cascade, and the baseline
//!   stores; and
//! * **experiment binaries** (`src/bin/`) — long-running harnesses that
//!   regenerate each figure/claim of the paper's evaluation (the root
//!   `README.md`, "Benchmarks & figures", indexes all of them; most write
//!   their results to a `BENCH_<name>.json` in the working directory):
//!
//! | binary | experiment |
//! |--------|-----------|
//! | `single_rate` | E1 — single-instance update rate (the ">1,000,000 updates/s" claim) |
//! | `fig2` | E2/E3 — update rate vs. number of servers for every system |
//! | `cut_sweep` | E4 — ablation over cut schedules and level counts |
//! | `memory_pressure` | E5 — fast- vs slow-memory traffic, flat vs hierarchical |
//! | `query_tradeoff` | E6 — throughput vs. query (materialisation) frequency |
//!
//! All binaries take a `--quick` flag to run a reduced configuration and
//! print the same tables.

#![forbid(unsafe_code)]

use hyperstream_graphblas::StreamingSink;
use hyperstream_workload::{Edge, PowerLawConfig, PowerLawGenerator, StreamConfig};

/// Shared helper: the paper's per-instance workload (power-law edges in
/// batches of 100,000), scaled to `batches` batches.
pub fn paper_batches(batches: usize, seed: u64) -> Vec<Vec<Edge>> {
    let gen = PowerLawGenerator::new(PowerLawConfig {
        seed,
        ..PowerLawConfig::paper()
    });
    let cfg = StreamConfig::scaled_down(batches);
    hyperstream_workload::StreamPartitioner::new(gen, cfg)
        .batches()
        .collect()
}

/// Shared helper: time [`hyperstream_cluster::drive_sink`] over `batches`
/// and return `(updates, seconds)` — the one timing wrapper every
/// experiment binary uses, so their reported rates stay comparable.
pub fn timed_drive<S: StreamingSink<u64> + ?Sized>(
    sink: &mut S,
    batches: &[Vec<Edge>],
) -> (u64, f64) {
    let updates: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let start = std::time::Instant::now();
    hyperstream_cluster::drive_sink(sink, batches).expect("healthy sink ingests the stream");
    (updates, start.elapsed().as_secs_f64().max(1e-9))
}

/// Shared helper: parse a `--quick` flag from the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Shared helper: parse a `--flag value` integer argument.
pub fn arg_value(flag: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Run metadata recorded in every machine-readable benchmark artifact so
/// successive commits and machines can be compared.
#[derive(Debug, Clone)]
pub struct BenchMeta {
    /// Available hardware threads on the measuring machine.
    pub threads: usize,
    /// `git rev-parse HEAD` of the measured tree ("unknown" outside a
    /// checkout).
    pub git_commit: String,
    /// Wall-clock time of the run (seconds since the Unix epoch).
    pub unix_time: u64,
    /// Failpoint fires observed in this process (always 0 unless the
    /// `failpoints` feature is compiled in AND a site was armed); recorded
    /// so artifacts from fault-capable builds attest the measurement ran
    /// clean.
    pub faults_injected: u64,
    /// WAL fsync policy (or policy sweep) the measurement ran under —
    /// `None` for experiments that never touch the durable store, and
    /// then omitted from the artifact entirely.  Durability artifacts are
    /// meaningless without it: an `EveryBatch` rate and a `Never` rate
    /// are different experiments.
    pub fsync_policy: Option<String>,
}

/// Collect the run metadata for a benchmark artifact.
pub fn bench_meta() -> BenchMeta {
    let git_commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    BenchMeta {
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        git_commit,
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        #[cfg(feature = "failpoints")]
        faults_injected: hyperstream_hier::failpoint::total_fired(),
        #[cfg(not(feature = "failpoints"))]
        faults_injected: 0,
        fsync_policy: None,
    }
}

impl BenchMeta {
    /// Record the WAL fsync policy (or sweep label) this run used.
    pub fn with_fsync_policy(mut self, policy: impl Into<String>) -> Self {
        self.fsync_policy = Some(policy.into());
        self
    }

    /// The metadata rendered as JSON object fields (no surrounding braces),
    /// ready to splice into a benchmark artifact.
    pub fn json_fields(&self) -> String {
        let fsync = match &self.fsync_policy {
            Some(p) => format!("  \"fsync_policy\": \"{}\",\n", p.replace(['"', '\\'], "?")),
            None => String::new(),
        };
        format!(
            "  \"threads\": {},\n  \"git_commit\": \"{}\",\n  \"unix_time\": {},\n  \"faults_injected\": {},\n{fsync}",
            self.threads,
            self.git_commit.replace(['"', '\\'], "?"),
            self.unix_time,
            self.faults_injected
        )
    }
}

/// Format a rate with engineering-notation style used in the reports.
pub fn fmt_rate(rate: f64) -> String {
    format!("{rate:.3e}")
}

/// Per-trial rates of one best-of-N measurement, recorded verbatim in the
/// benchmark artifacts: on a 1-core container whose host speed drifts
/// ±30%, folding trials into a silent best-of hides the noise floor — the
/// spread belongs in the JSON so artifact consumers can judge it.
#[derive(Debug, Clone, Default)]
pub struct TrialRates {
    /// One measured rate per trial, in run order.
    pub rates: Vec<f64>,
}

impl TrialRates {
    /// Record one trial's rate.
    pub fn push(&mut self, rate: f64) {
        self.rates.push(rate);
    }

    /// The reported (best) rate: max across trials, 0 when none ran.
    pub fn best(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// Number of trials.
    pub fn best_of(&self) -> usize {
        self.rates.len()
    }

    /// Relative spread `(max - min) / max` — 0 for a single trial; the
    /// per-artifact record of the host's drift during this measurement.
    pub fn spread(&self) -> f64 {
        let max = self.best();
        if self.rates.len() < 2 || max <= 0.0 {
            return 0.0;
        }
        let min = self.rates.iter().copied().fold(f64::INFINITY, f64::min);
        (max - min) / max
    }

    /// The trial fields rendered as JSON object fields (no surrounding
    /// braces or trailing comma), ready to splice into an artifact entry.
    /// Key names derive from `name` so several metrics' trials can live in
    /// one object without duplicate keys (the caller writes `best_of`
    /// itself, once).
    pub fn json_fields(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut rates = String::new();
        for (i, r) in self.rates.iter().enumerate() {
            let _ = write!(rates, "{}{:.1}", if i == 0 { "" } else { ", " }, r);
        }
        format!(
            "\"trial_{name}\": [{rates}], \"trial_{name}_spread\": {:.4}",
            self.spread()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_batches_shape() {
        let b = paper_batches(2, 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].len(), 100_000);
        // Deterministic for the same seed.
        let b2 = paper_batches(2, 1);
        assert_eq!(b[0][..10], b2[0][..10]);
    }

    #[test]
    fn bench_meta_fsync_policy_is_optional() {
        let meta = bench_meta();
        assert!(!meta.json_fields().contains("fsync_policy"));
        let with = meta.with_fsync_policy("every-batch");
        assert!(with
            .json_fields()
            .contains("\"fsync_policy\": \"every-batch\""));
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(75e9), "7.500e10");
    }

    #[test]
    fn trial_rates_best_and_spread() {
        let mut t = TrialRates::default();
        assert_eq!(t.best(), 0.0);
        assert_eq!(t.spread(), 0.0);
        t.push(100.0);
        assert_eq!(t.spread(), 0.0);
        t.push(80.0);
        t.push(90.0);
        assert_eq!(t.best(), 100.0);
        assert_eq!(t.best_of(), 3);
        assert!((t.spread() - 0.2).abs() < 1e-12);
        let json = t.json_fields("insert_rates");
        assert!(json.contains("\"trial_insert_rates\": [100.0, 80.0, 90.0]"));
        assert!(json.contains("\"trial_insert_rates_spread\": 0.2000"));
        assert!(!json.contains("\"best_of\""), "caller writes best_of once");
    }
}
