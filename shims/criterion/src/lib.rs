//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this shim provides the
//! subset of the criterion 0.5 API the workspace's benches use, backed by a
//! plain `Instant`-based timing loop: enough to compile, run and print
//! per-benchmark wall-clock numbers, without criterion's statistics.
//!
//! Like criterion, the first command-line argument that does not start
//! with `-` filters by substring: `cargo bench --bench components --
//! event_queue` runs only the benchmarks whose id contains `event_queue`.

// Timing shim: wall-clock use is its whole point. Opt out of the
// workspace-wide ambient-clock ban (clippy.toml / ambient-nondet).
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target measurement time per benchmark.
const MEASURE_TARGET: Duration = Duration::from_millis(300);

/// Top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {
    sample_size: usize,
    /// Only benchmarks whose id contains this substring run.
    filter: Option<String>,
}

impl Criterion {
    pub fn new() -> Self {
        Self {
            sample_size: 20,
            filter: None,
        }
    }

    /// Filter by the first command-line argument that does not start
    /// with `-`, if any (what `criterion_group!` harnesses do).
    pub fn configure_from_args(self) -> Self {
        match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Run only the benchmarks whose id contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            parent: self,
        }
    }

    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run(name, self.sample_size, f);
        self
    }

    fn run(&self, id: &str, sample_size: usize, f: impl FnMut(&mut Bencher)) {
        if self.filter.as_ref().is_none_or(|s| id.contains(s.as_str())) {
            run_bench(id, sample_size, f);
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    parent: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    pub fn bench_function(&mut self, name: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.parent
            .run(&format!("{}/{}", self.name, name), self.sample_size, f);
        self
    }

    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.parent
            .run(&format!("{}/{}", self.name, id.0), self.sample_size, |b| {
                f(b, input)
            });
        self
    }

    pub fn finish(self) {}
}

/// Benchmark identifier (`function_name/parameter`).
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self(format!("{name}/{parameter}"))
    }
}

/// Declared throughput; accepted and ignored (no per-element rates).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Per-benchmark timing driver passed to the closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_bench(name: &str, sample_size: usize, mut f: impl FnMut(&mut Bencher)) {
    // Calibrate: time one iteration, then size the batch so the whole
    // sample run lands near MEASURE_TARGET.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let once = b.elapsed.max(Duration::from_nanos(1));
    let budget = MEASURE_TARGET.as_nanos() / sample_size.max(1) as u128;
    let iters = (budget / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..sample_size.max(1) {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        total += b.elapsed;
        best = best.min(b.elapsed);
    }
    let samples = sample_size.max(1) as u64;
    let mean_ns = total.as_nanos() as f64 / (samples * iters) as f64;
    let best_ns = best.as_nanos() as f64 / iters as f64;
    println!("bench {name:<50} mean {mean_ns:>12.1} ns/iter   best {best_ns:>12.1} ns/iter   ({samples} samples x {iters} iters)");
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::new().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        let mut ran = 0u64;
        g.bench_function("count", |b| b.iter(|| ran += 1));
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn filter_skips_benchmarks_whose_id_lacks_it() {
        let mut c = Criterion::new().with_filter("event_queue");
        let mut ran = Vec::new();
        {
            let mut g = c.benchmark_group("event_queue");
            g.sample_size(1);
            g.bench_function("push_pop", |b| b.iter(|| ran.push("push_pop")));
            g.finish();
        }
        {
            let mut g = c.benchmark_group("coalescer");
            g.sample_size(1);
            g.bench_function("event_queue_like", |b| b.iter(|| ran.push("coalescer")));
            g.finish();
        }
        c.bench_function("cache/probe", |b| b.iter(|| ran.push("probe")));
        assert!(ran.contains(&"push_pop"));
        assert!(
            ran.contains(&"coalescer"),
            "substring of the name part matches"
        );
        assert!(!ran.contains(&"probe"));
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("push_pop", 1000).0, "push_pop/1000");
    }
}
