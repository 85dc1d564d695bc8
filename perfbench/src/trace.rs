//! Benchmark-owned spans for the traced run.
//!
//! The benchmark wraps its own spans around the calls it makes into the
//! program's layers; nothing inside the program is instrumented. Spans
//! stay in memory and are written out as JSONL when the run ends.
//!
//! A span's self time is its duration minus its children's durations.
//! Children are attached by explicit parent id, so a replayed layer call
//! made after its parent closed still counts against that parent: on
//! `table1-sweep` each `run_sweep` span is followed by a replay of its
//! cells through the layer functions, and the engine's self time is the
//! call minus what the replay says the layers inside it cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished (or open) span.
#[derive(Debug, Clone)]
struct Span {
    /// Dotted name; the layer is the part before the first dot.
    name: &'static str,
    /// Start, in ns since the tracer's epoch.
    start_ns: u64,
    /// End, in ns since the tracer's epoch (0 while open).
    end_ns: u64,
    /// Index of the parent span in the same tracer.
    parent: Option<usize>,
    /// Request id (serve traffic only).
    request: Option<u64>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        self.enter_under(parent, name, None)
    }

    /// Opens a span under an explicit parent (possibly already closed).
    pub fn enter_under(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        request: Option<u64>,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        self.stack.push(id);
        id
    }

    /// Records a root span whose start and end were measured elsewhere
    /// (ns since this tracer's epoch).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: Option<u64>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` inside a span named `name` under an explicit parent.
    pub fn time_under<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter_under(Some(parent), name, None);
        let out = f();
        self.exit(id);
        out
    }

    /// Total duration of span `id` in ns.
    pub fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].dur_ns()
    }

    /// Self time per span name, in ns.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let request = s
                .request
                .map_or_else(|| "null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_including_late_replays() {
        let mut t = Tracer::new(Instant::now());
        let root = t.enter("engine.run_sweep");
        let inner = t.enter("yds.solve");
        t.exit(inner);
        t.exit(root);
        // A replayed child recorded after its parent closed.
        t.time_under(root, "bkp.arrive", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let by_name = t.self_ns_by_name();
        assert_eq!(by_name.len(), 3);
        let root_dur = t.dur_ns(root);
        let children = t.dur_ns(inner) + t.dur_ns(2);
        assert_eq!(
            by_name["engine.run_sweep"],
            root_dur.saturating_sub(children)
        );
        assert!(by_name["bkp.arrive"] >= 1_000_000);
        assert_eq!(layer_of("bkp.arrive"), "bkp");
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("in-memory write");
        assert_eq!(String::from_utf8(buf).expect("utf8").lines().count(), 3);
    }
}
