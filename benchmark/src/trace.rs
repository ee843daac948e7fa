//! Spans recorded by the benchmark around each call into a layer's public
//! functions.  Nothing inside the engine is instrumented: a span is what
//! the caller saw.  Spans stay in memory until the run ends and are then
//! written as Chrome trace-event JSON (open in Perfetto).
//!
//! A span's name starts with its layer (`hier.insert.cascade_l0`,
//! `read.col`, `persist.open`); a layer's self time is the time of its
//! spans minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Repetition the span belongs to: every span of one rep shares it.
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span recorder.  Disabled, every method is a branch and a
/// return, so the untraced run pays nothing measurable.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Pause or resume recording (the traced run interleaves untraced
    /// repetitions to measure its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a new repetition; returns its id.
    pub fn next_rep(&mut self) -> u32 {
        self.rep += 1;
        self.rep
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open an enclosing span (a rep, a timed window) now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rep: self.rep,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Record a finished call.  The caller already holds both instants,
    /// because it measures the call's latency with or without tracing.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rep: self.rep,
        });
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover (children of one parent do not overlap,
    /// the benchmark being a single closed loop).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                own[p as usize] = own[p as usize].saturating_sub(hi.saturating_sub(lo));
            }
        }
        own
    }

    /// Totals per span name over the spans of repetition `rep`.
    pub fn totals(&self, rep: u32) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            if s.rep == rep {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += own;
            }
        }
        out
    }

    /// Share of repetition `rep`'s root span covered by calls into layers
    /// (its leaf spans): what is left is the harness's own time between
    /// calls.
    pub fn coverage(&self, rep: u32) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p as usize] = true;
            }
        }
        let mut root = 0u64;
        let mut leaves = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.rep != rep {
                continue;
            }
            if s.parent.is_none() {
                root += s.dur_ns();
            } else if !has_child[i] {
                leaves += s.dur_ns();
            }
        }
        if root == 0 {
            0.0
        } else {
            leaves as f64 / root as f64
        }
    }

    /// Write every span as a Chrome trace-event "complete" event.  `pid`
    /// groups by repetition, `args.parent` carries the causing span.
    pub fn write_chrome(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": 1, \"args\": {{\"id\": {}, \"parent\": {}, \"workload\": \"{}\", \"rep\": {}}}}}",
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.rep,
                i,
                parent,
                workload,
                s.rep,
            )?;
            writeln!(w, "{}", if i + 1 < self.spans.len() { "," } else { "" })?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, ns: u64) -> Instant {
        t.epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let rep = t.next_rep();
        let root = t.open("rep", None);
        let win = t.open("window", root);
        let (a, b, c, d) = (at(&t, 1000), at(&t, 1400), at(&t, 1500), at(&t, 1800));
        t.record("hier.insert.append", win, a, b);
        t.record("hier.flush", win, c, d);
        t.spans[win.unwrap() as usize].start_ns = 900;
        t.spans[win.unwrap() as usize].end_ns = 2000;
        t.spans[root.unwrap() as usize].start_ns = 0;
        t.spans[root.unwrap() as usize].end_ns = 3000;

        // parent linkage
        assert_eq!(t.spans()[2].parent, win);
        assert_eq!(t.spans()[1].parent, root);
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans().iter().all(|s| s.rep == rep));

        let own = t.self_times();
        assert_eq!(own[0], 3000 - 1100, "root loses only the window");
        assert_eq!(own[1], 1100 - 400 - 300, "window loses its two calls");
        assert_eq!(own[2], 400);
        assert_eq!(own[3], 300);

        let totals = t.totals(rep);
        assert_eq!(totals["hier.flush"].total_ns, 300);
        assert_eq!(totals["window"].self_ns, 400);
        assert_eq!(totals["rep"].count, 1);
        // leaves cover 700 of the root's 3000 ns
        assert!((t.coverage(rep) - 700.0 / 3000.0).abs() < 1e-12);
    }

    #[test]
    fn reps_are_kept_apart_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let r1 = t.next_rep();
        let root1 = t.open("rep", None);
        t.close(root1);
        let r2 = t.next_rep();
        let root2 = t.open("rep", None);
        let (a, b) = (at(&t, 10), at(&t, 20));
        t.record("read.get", root2, a, b);
        t.close(root2);
        assert_ne!(r1, r2);
        assert!(!t.totals(r1).contains_key("read.get"));
        assert_eq!(t.totals(r2)["read.get"].count, 1);

        t.set_enabled(false);
        assert_eq!(t.open("rep", None), None);
        t.record("read.get", None, a, b);
        t.close(None);
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new(true);
        t.next_rep();
        let root = t.open("rep", None);
        let (a, b) = (at(&t, 10), at(&t, 20));
        t.record("read.get", root, a, b);
        t.close(root);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/tmp/test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.write_chrome(&path, "unit").unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("read.get"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
