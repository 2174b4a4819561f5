//! Spans the benchmark records around each call it makes into a layer:
//! name, start, end, parent span and run id, kept in memory and written
//! out as JSON lines when the run ends, together with each layer's self
//! time (its spans' duration minus the part their child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    run: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Total and self time of one layer over all of its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// The in-memory span log of one benchmark process.
pub struct Spans {
    epoch: Instant,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, the innermost open one, and returns its duration
    /// in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`; returns its result and duration
    /// in milliseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = std::hint::black_box(f());
        (out, self.close(id))
    }

    /// Total and self time per layer name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line, then one line per layer with its
    /// span count, total and self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"span\": {id}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.run, s.start_ns, s.end_ns
            );
        }
        for (name, t) in self.layer_times() {
            let _ = writeln!(
                text,
                "{{\"layer\": \"{name}\", \"spans\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                t.count, t.total_ms, t.self_ms
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
