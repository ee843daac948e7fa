//! Weak-scaling measurement: run N independent instances concurrently on
//! real threads and measure aggregate throughput and parallel efficiency.

use crate::measure::SystemKind;
use hyperstream_workload::{PowerLawConfig, PowerLawGenerator};
use std::time::Instant;

/// One point of a weak-scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Number of concurrent instances (threads).
    pub instances: usize,
    /// Total updates applied across all instances.
    pub updates: u64,
    /// Wall-clock seconds for the slowest instance.
    pub seconds: f64,
}

impl ScalingPoint {
    /// Aggregate updates per second.
    pub fn aggregate_rate(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.updates as f64 / self.seconds
        }
    }

    /// Per-instance updates per second.
    pub fn per_instance_rate(&self) -> f64 {
        self.aggregate_rate() / self.instances.max(1) as f64
    }
}

/// Parallel efficiency of a scaling curve relative to its first point
/// (`efficiency[i] = per_instance_rate[i] / per_instance_rate[0]`).
pub fn efficiencies(points: &[ScalingPoint]) -> Vec<f64> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let base = first.per_instance_rate().max(1e-12);
    points
        .iter()
        .map(|p| (p.per_instance_rate() / base).min(1.5))
        .collect()
}

/// Run a weak-scaling experiment: for each requested instance count, spawn
/// that many threads, each streaming `updates_per_instance` power-law edges
/// into its own private matrix instance, and time the run.
///
/// Only `SystemKind::HierGraphBlas` and `SystemKind::FlatGraphBlas` are
/// supported here (they are the systems whose scaling we measure rather than
/// replay from published results).
pub fn measure_scaling(
    system: SystemKind,
    instance_counts: &[usize],
    updates_per_instance: u64,
    dim: u64,
) -> Vec<ScalingPoint> {
    assert!(
        matches!(
            system,
            SystemKind::HierGraphBlas | SystemKind::FlatGraphBlas
        ),
        "scaling is measured for GraphBLAS systems only"
    );
    let mut out = Vec::with_capacity(instance_counts.len());
    for &n in instance_counts {
        let n = n.max(1);
        let start = Instant::now();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for instance_id in 0..n {
                handles.push(scope.spawn(move || {
                    run_one_instance(system, instance_id as u64, updates_per_instance, dim)
                }));
            }
            for h in handles {
                h.join().expect("instance thread panicked");
            }
        });
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        out.push(ScalingPoint {
            instances: n,
            updates: updates_per_instance * n as u64,
            seconds,
        });
    }
    out
}

fn run_one_instance(system: SystemKind, instance_id: u64, updates: u64, dim: u64) {
    let mut gen = PowerLawGenerator::new(PowerLawConfig {
        vertices: 1 << 20,
        dim,
        seed: 0x5EED_0000 + instance_id,
        ..PowerLawConfig::default()
    });
    const BATCH: usize = 10_000;
    let mut sink = crate::measure::make_sink(system, dim);
    let mut remaining = updates;
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    while remaining > 0 {
        let take = remaining.min(BATCH as u64) as usize;
        let batch = gen.batch(take);
        hyperstream_workload::edges_to_tuples_into(&batch, &mut rows, &mut cols, &mut vals);
        sink.insert_batch(&rows, &cols, &vals).expect("in bounds");
        remaining -= take as u64;
    }
    sink.flush().expect("flush completes");
    std::hint::black_box(sink.total_weight());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_points_math() {
        let p = ScalingPoint {
            instances: 4,
            updates: 4000,
            seconds: 2.0,
        };
        assert_eq!(p.aggregate_rate(), 2000.0);
        assert_eq!(p.per_instance_rate(), 500.0);
    }

    #[test]
    fn efficiencies_relative_to_first() {
        let pts = vec![
            ScalingPoint {
                instances: 1,
                updates: 100,
                seconds: 1.0,
            },
            ScalingPoint {
                instances: 2,
                updates: 200,
                seconds: 1.25,
            },
        ];
        let eff = efficiencies(&pts);
        assert!((eff[0] - 1.0).abs() < 1e-12);
        assert!((eff[1] - 0.8).abs() < 1e-12);
        assert!(efficiencies(&[]).is_empty());
    }

    #[test]
    fn measure_scaling_runs_threads() {
        let pts = measure_scaling(SystemKind::HierGraphBlas, &[1, 2], 20_000, 1 << 32);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].instances, 1);
        assert_eq!(pts[1].instances, 2);
        assert_eq!(pts[0].updates, 20_000);
        assert_eq!(pts[1].updates, 40_000);
        // Both counts ran and were timed.  Which of them was faster is the
        // host scheduler's answer, not this code's: it is not asserted.
        assert!(pts.iter().all(|p| p.aggregate_rate() > 0.0));
    }

    #[test]
    #[should_panic]
    fn scaling_rejects_replayed_systems() {
        measure_scaling(SystemKind::TpcCLike, &[1], 100, 1 << 20);
    }
}
