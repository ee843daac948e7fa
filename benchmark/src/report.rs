//! The names every later performance claim must use: the declared
//! workloads and metrics (mirrored by `BENCHMARK.json`, checked by a test),
//! how a run's results are printed and stored, and `--compare`.

use crate::json::{self, Value};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the engine sees.  `bound` is the
/// share of the parent's median by which it may get worse before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these from its untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "updates_per_s",
        unit: "updates/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "over_flat",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_p95_over_mean",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "analytics_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mem_bytes_per_entry",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// A per-layer metric of the traced run: name, unit, direction.  A layer
/// a workload never enters reports 0 there.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("workload.gen_edges_per_s", "1/s", Better::Higher),
    ("workload.dup_ratio", "ratio", Better::Lower),
    ("matrix.append_ns_per_update", "ns", Better::Lower),
    ("matrix.flat_wait_s", "s", Better::Lower),
    ("matrix.flat_batch_p95_ms", "ms", Better::Lower),
    ("matrix.flat_updates_per_s", "updates/s", Better::Higher),
    ("coo.settle_ns_per_tuple", "ns", Better::Lower),
    ("coo.dedup_ratio", "ratio", Better::Lower),
    ("merge.ns_per_elem_r1", "ns", Better::Lower),
    ("merge.ns_per_elem_r8", "ns", Better::Lower),
    ("merge.ns_per_elem_r64", "ns", Better::Lower),
    ("merge.galloped_share", "ratio", Better::Higher),
    ("merge.bulk_share", "ratio", Better::Higher),
    ("merge.branchless_share", "ratio", Better::Higher),
    ("hier.append_batch_s", "s", Better::Lower),
    ("hier.cascade_l0_s", "s", Better::Lower),
    ("hier.cascade_l1_s", "s", Better::Lower),
    ("hier.cascade_l2_s", "s", Better::Lower),
    ("hier.cascades_l0", "count", Better::Lower),
    ("hier.cascades_l1", "count", Better::Lower),
    ("hier.cascades_l2", "count", Better::Lower),
    ("hier.entries_moved_l0", "count", Better::Lower),
    ("hier.entries_moved_l1", "count", Better::Lower),
    ("hier.entries_moved_l2", "count", Better::Lower),
    ("hier.write_amp", "ratio", Better::Lower),
    ("hier.fast_update_fraction", "ratio", Better::Higher),
    ("hier.batch_p95_ms", "ms", Better::Lower),
    ("hier.flush_s", "s", Better::Lower),
    ("hier.mem_bytes", "bytes", Better::Lower),
    ("hier.over_flat", "ratio", Better::Higher),
    ("hier.cuts_4k8_updates_per_s", "updates/s", Better::Higher),
    ("hier.cuts_64k8_updates_per_s", "updates/s", Better::Higher),
    ("read.settle_ms", "ms", Better::Lower),
    ("read.get_p50_us", "us", Better::Lower),
    ("read.row_p50_us", "us", Better::Lower),
    ("read.row_degree_p50_us", "us", Better::Lower),
    ("read.col_p50_us", "us", Better::Lower),
    ("read.col_first_ms", "ms", Better::Lower),
    ("read.col_degree_p50_us", "us", Better::Lower),
    ("read.top_k_p50_us", "us", Better::Lower),
    ("read.in_top_k_p50_us", "us", Better::Lower),
    ("read.nnz_ms", "ms", Better::Lower),
    ("read.query_time_share", "ratio", Better::Lower),
    ("cursor.levels_per_read", "count", Better::Lower),
    ("index.activation_ms", "ms", Better::Lower),
    ("index.ingest_tax", "ratio", Better::Lower),
    ("algo.pagerank_iter_ms", "ms", Better::Lower),
    ("algo.bfs_ms", "ms", Better::Lower),
    ("ops.spa_scatter_flops", "count", Better::Lower),
    ("ops.spa_dense_flops", "count", Better::Lower),
    ("persist.ingest_tax", "ratio", Better::Lower),
    ("persist.wal_appends", "count", Better::Lower),
    ("persist.wal_syncs", "count", Better::Lower),
    ("persist.checkpoints", "count", Better::Lower),
    ("persist.checkpoint_batch_p50_ms", "ms", Better::Lower),
    ("persist.wchar_per_update", "bytes", Better::Lower),
    ("persist.store_bytes", "bytes", Better::Lower),
    ("persist.store_bytes_per_entry", "bytes", Better::Lower),
    ("persist.open_clean_ms", "ms", Better::Lower),
    ("persist.open_replay_ms", "ms", Better::Lower),
    ("persist.wal_replayed", "count", Better::Lower),
    ("persist.every_batch_tax", "ratio", Better::Lower),
    ("sharded.partition_ns_per_update", "ns", Better::Lower),
    ("sharded.insert_batch_s", "s", Better::Lower),
    ("sharded.flush_barrier_ms", "ms", Better::Lower),
    ("sharded.chunks_sent", "count", Better::Lower),
    ("sharded.rounds", "count", Better::Lower),
    ("sharded.shard_skew", "ratio", Better::Lower),
    ("sharded.fanout_get_p50_us", "us", Better::Lower),
    ("sharded.fanout_top_k_p50_us", "us", Better::Lower),
    ("sharded.read_nnz_ms", "ms", Better::Lower),
    ("sharded.over_single", "ratio", Better::Higher),
    ("host.clock_ms", "ms", Better::Lower),
    ("host.slowdown", "ratio", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.coverage", "ratio", Better::Higher),
    ("proc.peak_rss_mb", "MiB", Better::Lower),
];

/// The metrics of one workload's run, keyed by declared name.
pub struct Metrics {
    traced: bool,
    values: BTreeMap<&'static str, Summary>,
}

impl Metrics {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            values: BTreeMap::new(),
        }
    }

    fn declared(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Record a metric.  Only declared names exist: a typo must not
    /// silently report 0 under the right name.
    pub fn set(&mut self, name: &str, value: Summary) {
        let declared = self
            .declared()
            .into_iter()
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared for this kind of run"));
        self.values.insert(declared.0, value);
    }

    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    /// Every declared metric in declaration order; one never set is a
    /// layer this workload did not enter and reads 0.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, Summary)> {
        self.declared()
            .into_iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .get(name)
                    .copied()
                    .unwrap_or(Summary::exact(0.0));
                (name, unit, v)
            })
            .collect()
    }
}

/// The result of running one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One `workload metric value unit (q1..q3, n)` line per metric.
    pub fn print_lines(&self) {
        for (name, unit, s) in self.metrics.rows() {
            println!(
                "{} {} {} {} ({}..{}, n={})",
                self.workload, name, s.median, unit, s.q1, s.q3, s.n
            );
        }
        println!(
            "{} failed_share {} fraction ({} of {} calls and checks)",
            self.workload,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            println!("{} note: {note}", self.workload);
        }
    }

    /// The one-object result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, s)) in self.metrics.rows().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                s.median
            );
        }
        out.push_str("}}");
        out
    }

    fn results_member(&self) -> String {
        let mut out = format!(
            "    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n",
            self.workload,
            self.correct(),
            self.attempted,
            self.failed
        );
        let rows = self.metrics.rows();
        for (i, (name, unit, s)) in rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "      \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}{}",
                s.median,
                s.q1,
                s.q3,
                s.n,
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        out.push_str("    }}");
        out
    }
}

/// `results.json`: everything one invocation measured.
pub fn results_json(outcomes: &[Outcome], seed: u64, traced: bool, smoke: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n  \"seed\": {seed},\n  \"trace\": {traced},\n  \"smoke\": {smoke},\n  \"available_parallelism\": {cores},\n  \"workloads\": {{\n"
    );
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&o.results_member());
        out.push_str(if i + 1 < outcomes.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// One row of `--compare`.
#[derive(Debug, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`: the change, with A as its base.
    pub delta: f64,
    pub bound: f64,
    pub verdict: &'static str,
}

fn summary_of(metric: &Value) -> Option<Summary> {
    Some(Summary {
        median: metric.get("value")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        n: metric.get("n")?.as_f64()? as usize,
    })
}

/// One side's value of `metric` on `workload`.  From one results file it
/// is that run's median with the run's own quartiles; from several (one per
/// run) it is the median of the runs' medians with the quartiles *across*
/// runs — the spread that matters on a host whose speed drifts between
/// runs more than within them.
fn side_summary(files: &[Value], workload: &str, metric: &str) -> Option<Summary> {
    let per_file: Vec<Summary> = files
        .iter()
        .filter_map(|f| {
            summary_of(
                f.get("workloads")?
                    .get(workload)?
                    .get("metrics")?
                    .get(metric)?,
            )
        })
        .collect();
    match per_file.as_slice() {
        [] => None,
        [one] => Some(*one),
        many => Some(stats::summarize(
            &many.iter().map(|s| s.median).collect::<Vec<_>>(),
        )),
    }
}

/// Compare two sides, each one or more `results.json` documents: per
/// workload and end-to-end metric, B's median against A's.  `worse` means B
/// is beyond the bound in the bad direction; `unresolved` means either
/// side's own spread is wider than the bound, so the comparison cannot
/// tell.
pub fn compare(a: &[Value], b: &[Value]) -> Result<Vec<Comparison>, String> {
    let workloads = a
        .first()
        .and_then(|f| f.get("workloads"))
        .ok_or("no `workloads` member")?
        .members();
    let mut rows = Vec::new();
    for (name, _) in workloads {
        for m in END_TO_END {
            let (Some(sa), Some(sb)) =
                (side_summary(a, name, m.name), side_summary(b, name, m.name))
            else {
                continue;
            };
            let delta = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median
            };
            let worsening = match m.better {
                Better::Lower => delta,
                Better::Higher => -delta,
            };
            let verdict = if sa.spread() > m.bound || sb.spread() > m.bound {
                "unresolved"
            } else if worsening > m.bound {
                "worse"
            } else {
                "ok"
            };
            rows.push(Comparison {
                workload: name.clone(),
                metric: m.name,
                a: sa.median,
                b: sb.median,
                delta,
                bound: m.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sides share no workload with end-to-end metrics".into());
    }
    Ok(rows)
}

/// `--compare A B`: each side one results file or a comma-separated list of
/// them (one per run; alternate the runs of the two sides).  Prints the
/// table, returns whether any row is `worse`.
pub fn compare_files(side_a: &str, side_b: &str) -> Result<bool, String> {
    let load = |side: &str| -> Result<Vec<Value>, String> {
        side.split(',')
            .map(|p| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
            })
            .collect()
    };
    let (a, b) = (load(side_a)?, load(side_b)?);
    let rows = compare(&a, &b)?;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict ({} run(s) against {})",
        "workload",
        "metric",
        "A (base)",
        "B",
        "B vs A",
        "bound",
        a.len(),
        b.len()
    );
    for r in &rows {
        println!(
            "{:<16} {:<20} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.delta * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    Ok(rows.iter().any(|r| r.verdict == "worse"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The names the program emits are the names `BENCHMARK.json` declares,
    /// in the same order, with the same units, directions and bounds.
    #[test]
    fn declared_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();

        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_array()
            .iter()
            .map(|m| {
                let bound = m.get("bound").unwrap().as_f64().unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_array()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.as_str().into()))
            .collect();
        assert_eq!(declared, ours);

        let mut all: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        all.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        all.extend(PER_LAYER.iter().map(|m| m.0.to_string()));
        assert!(all.iter().all(|n| name_ok(n)), "a name breaks the rules");
        let unique: std::collections::BTreeSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        for traced in [false, true] {
            let mut m = Metrics::new(traced);
            let first = m.declared()[0].0;
            m.set_exact(first, 3.5);
            let rows = m.rows();
            assert_eq!(rows.len(), m.declared().len());
            assert_eq!(rows[0].2.median, 3.5);
            assert!(rows[1..].iter().all(|r| r.2.median == 0.0));
            let o = Outcome {
                workload: "unit",
                attempted: 4,
                failed: 0,
                metrics: m,
                notes: vec![],
            };
            let line = json::parse(&o.result_line()).unwrap();
            let keys: Vec<&str> = line.members().iter().map(|m| m.0.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<String> = line
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|m| m.0.clone())
                .collect();
            let want: Vec<&str> = o.metrics.declared().iter().map(|d| d.0).collect();
            assert_eq!(names, want);
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_refused() {
        Metrics::new(false).set_exact("updates_per_sec", 1.0);
    }

    fn results(rate: (f64, f64, f64), p95: f64) -> Value {
        let text = format!(
            r#"{{"workloads": {{"w": {{"metrics": {{
                "updates_per_s": {{"value": {}, "unit": "updates/s", "q1": {}, "q3": {}, "n": 7}},
                "query_p95_us": {{"value": {p95}, "unit": "us", "q1": {p95}, "q3": {p95}, "n": 7}}
            }}}}}}}}"#,
            rate.0, rate.1, rate.2
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn compare_reports_ok_worse_and_unresolved() {
        let base = results((100.0, 99.0, 101.0), 10.0);
        let verdicts = |b: &Value| -> Vec<(&'static str, &'static str)> {
            compare(std::slice::from_ref(&base), std::slice::from_ref(b))
                .unwrap()
                .iter()
                .map(|r| (r.metric, r.verdict))
                .collect()
        };
        // within the bounds (rate -5%, p95 +10%, of 25% each)
        assert_eq!(
            verdicts(&results((95.0, 94.0, 96.0), 11.0)),
            [("updates_per_s", "ok"), ("query_p95_us", "ok")]
        );
        // a higher-is-better metric that fell 30%, a lower-is-better that rose 30%
        assert_eq!(
            verdicts(&results((70.0, 69.0, 71.0), 13.0)),
            [("updates_per_s", "worse"), ("query_p95_us", "worse")]
        );
        // improvements are never `worse`
        assert_eq!(
            verdicts(&results((150.0, 149.0, 151.0), 5.0)),
            [("updates_per_s", "ok"), ("query_p95_us", "ok")]
        );
        // a spread wider than the bound cannot resolve the comparison
        assert_eq!(
            verdicts(&results((80.0, 60.0, 100.0), 10.0))[0],
            ("updates_per_s", "unresolved")
        );
        let one = std::slice::from_ref(&base);
        let rows = compare(one, &[results((70.0, 69.0, 71.0), 13.0)]).unwrap();
        assert!((rows[0].delta + 0.3).abs() < 1e-12 && rows[0].a == 100.0);
        assert!(compare(one, &[json::parse("{\"workloads\": {}}").unwrap()]).is_err());

        // Several runs per side: the median of the runs' medians, and the
        // spread across runs decides `unresolved`, not the runs' own.
        let tight = |rate: f64| results((rate, rate - 0.5, rate + 0.5), 10.0);
        let steady = [
            tight(99.0),
            tight(100.0),
            tight(101.0),
            tight(100.5),
            tight(99.5),
        ];
        let slower = [
            tight(69.0),
            tight(70.0),
            tight(71.0),
            tight(70.5),
            tight(69.5),
        ];
        let drifting = [
            tight(60.0),
            tight(100.0),
            tight(140.0),
            tight(80.0),
            tight(120.0),
        ];
        let rows = compare(&steady, &slower).unwrap();
        assert_eq!(
            (rows[0].a, rows[0].b, rows[0].verdict),
            (100.0, 70.0, "worse")
        );
        assert_eq!(
            compare(&steady, &drifting).unwrap()[0].verdict,
            "unresolved"
        );
    }
}
