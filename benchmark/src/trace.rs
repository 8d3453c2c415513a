//! Spans around the calls the benchmark makes into a layer: kept in
//! memory, written out when the run ends. A layer's self time is its
//! span's duration minus the part its child spans cover.

use crate::json::quote;
use dial_core::ServeClock;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The one time source of a run: spans, due times and the query
/// service's admission/completion stamps all read it, so a latency is a
/// difference of two readings of the same clock.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl ServeClock for Clock {
    fn now_ns(&self) -> u64 {
        Clock::now_ns(self)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request or round the span belongs to.
    pub id: u64,
}

/// Handle of an open span; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    pub clock: Clock,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, clock: Clock) -> Tracer {
        Tracer { on, clock, spans: Vec::new(), stack: Vec::new() }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let ix = self.spans.len();
        let now = self.clock.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(ix);
        Open(Some(ix))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(ix) = open.0 {
            self.spans[ix].end_ns = self.clock.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(ix), "spans must close innermost first");
        }
    }

    /// Time one call into a layer.
    pub fn call<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Record a span from clock readings taken elsewhere (a request's
    /// stages are stamped by the generator and by the service).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent, id });
        Some(self.spans.len() - 1)
    }

    /// Append the spans another thread's tracer recorded on the same
    /// clock, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// What recording this run's spans cost, measured by recording as
    /// many again: the difference of two passes cannot resolve a cost
    /// this small on a shared box.
    pub fn cost_note(&self, pass_seconds: f64) -> String {
        let n = self.spans.len().max(1);
        let mut scratch = Tracer::new(true, self.clock);
        let t = Instant::now();
        for i in 0..n as u64 {
            let now = scratch.clock.now_ns();
            scratch.record("cost", i, now, now, None);
        }
        let secs = t.elapsed().as_secs_f64();
        format!(
            "tracer: {n} spans at {:.0} ns each (clock reading included) = {:.3} % of the traced pass",
            secs * 1e9 / n as f64,
            secs / pass_seconds * 100.0
        )
    }

    pub fn table(&self) -> Vec<LayerRow> {
        layer_table(&self.spans)
    }

    /// Write every span as JSON; parents are indexes into the same list.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"workload\":{},\"seed\":{seed},\"spans\":[", quote(workload))?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                if i == 0 { "" } else { "," },
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.id
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Per span name: how often it ran, its total time and its self time.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Only the part of the child inside its parent's interval
            // counts against the parent.
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            child_ns[p] += hi.saturating_sub(lo);
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.count += 1;
        row.total_s += dur as f64 / 1e9;
        row.self_s += dur.saturating_sub(covered) as f64 / 1e9;
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            Span { name: "round", start_ns: 0, end_ns: 100, parent: None, id: 0 },
            Span { name: "train", start_ns: 10, end_ns: 40, parent: Some(0), id: 0 },
            Span { name: "score", start_ns: 50, end_ns: 90, parent: Some(0), id: 0 },
            Span { name: "probe", start_ns: 55, end_ns: 60, parent: Some(2), id: 0 },
        ];
        let t = layer_table(&spans);
        let row = |n: &str| t.iter().find(|r| r.name == n).unwrap().clone();
        assert!((row("round").self_s - 30e-9).abs() < 1e-15);
        assert!((row("round").total_s - 100e-9).abs() < 1e-15);
        assert!((row("score").self_s - 35e-9).abs() < 1e-15);
        assert!((row("probe").self_s - 5e-9).abs() < 1e-15);
        assert_eq!(row("train").count, 1);
    }

    #[test]
    fn nesting_follows_begin_and_end_and_off_records_nothing() {
        let mut t = Tracer::new(true, Clock::start());
        let outer = t.begin("outer", 7);
        let inner = t.call("inner", 7, || 41 + 1);
        t.end(outer);
        assert_eq!(inner, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let req = t.record("request", 9, 5, 3, None);
        assert_eq!(t.spans()[req.unwrap()].end_ns, 5, "a span never ends before it starts");

        let mut other = Tracer::new(true, t.clock);
        let o = other.begin("elsewhere", 1);
        other.call("child", 1, || ());
        other.end(o);
        t.absorb(other);
        assert_eq!(t.spans().len(), 5);
        assert_eq!(t.spans()[4].parent, Some(3), "absorbed parents are re-based");

        let mut off = Tracer::new(false, Clock::start());
        let o = off.begin("outer", 0);
        off.end(o);
        assert_eq!(off.call("x", 0, || 1), 1);
        assert!(off.record("r", 0, 0, 1, None).is_none());
        assert!(off.spans().is_empty());
    }
}
