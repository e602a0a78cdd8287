//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and (when it serves one
//! query) the query's id. Spans stay in memory and are written out once
//! the run ends. A layer's self time is the time its spans cover minus
//! the time their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub query: Option<u32>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; when off, [`span`](Tracer::span) only calls
/// the closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Self::new(false)
    }

    pub fn on() -> Tracer {
        Self::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, query: Option<u32>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                query,
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Count and summed duration of every span named `name`, in ns.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(n, t), s| (n + 1, t + s.duration_ns()))
}

/// Self time per layer, ns: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        *out.entry(s.layer()).or_insert(0) += s.duration_ns() - c;
    }
    out
}

/// The spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"query\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            opt(s.query.map(|q| q as usize)),
            opt(s.parent),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::on();
        t.span("bench.outer", None, || {
            t.span("core.inner", Some(3), || std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].query, Some(3));
        let selfs = self_times(&spans);
        assert_eq!(
            selfs["bench"] + selfs["core"],
            spans[0].duration_ns(),
            "self times partition the root span"
        );
        assert_eq!(total(&spans, "core.inner").0, 1);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("core.x", None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
