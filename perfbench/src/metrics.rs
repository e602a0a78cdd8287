//! Metric definitions: names and units as `BENCHMARK.json` lists them,
//! and how each is computed from a run.

use crate::trace::{self, Span};
use crate::workload::Sequence;
use crate::{Rep, Timing};
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_ms", "ms"),
    ("sim_link_gbps", "GB/s"),
    ("io_amp", "ratio"),
    ("sim_qps", "1/s"),
    ("sim_lat_p50_ms", "ms"),
    ("sim_lat_p90_ms", "ms"),
    ("deadline_hit_rate", "ratio"),
    ("host_s", "s"),
    ("sim_req_per_host_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.cost_model_new_ms", "ms"),
    ("graph.frontier_cost_ns", "ns"),
    ("sim.pcie.read_requests", "count"),
    ("sim.pcie.req128_share", "ratio"),
    ("sim.pcie.link_busy_share", "ratio"),
    ("sim.dram.bytes", "B"),
    ("sim.cxl.read_requests", "count"),
    ("sim.cxl.bytes", "B"),
    ("sim.pcie.read_complete_ns", "ns"),
    ("sim.cxl.read_ns", "ns"),
    ("sim.events.push_pop_ns", "ns"),
    ("sim.copy_engine.submit_drain_ns", "ns"),
    ("gpu.l2.hit_rate", "ratio"),
    ("gpu.l2.sector_misses", "count"),
    ("gpu.coalesce.efficiency", "ratio"),
    ("gpu.coalesce.ns_per_warp", "ns"),
    ("gpu.l2.probe_ns", "ns"),
    ("uvm.decide_tiered_ns", "ns"),
    ("runtime.kernel_launches", "count"),
    ("runtime.transfer.staged_regions", "count"),
    ("runtime.transfer.staged_bytes", "B"),
    ("runtime.transfer.pool_fallbacks", "count"),
    ("runtime.transfer.cxl_staged_regions", "count"),
    ("runtime.prefetch.accuracy", "ratio"),
    ("runtime.prefetch.wasted_bytes", "B"),
    ("runtime.prefetch.stall_ms", "ms"),
    ("runtime.prefetch.hidden_ms", "ms"),
    ("runtime.group.busiest_link_share", "ratio"),
    ("runtime.plan_iteration_us", "us"),
    ("runtime.rank_candidates_us", "us"),
    ("core.sharded.exchange_bytes", "B"),
    ("core.load_ms", "ms"),
    ("core.query_host_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batched_share", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.submit_us", "us"),
    ("serve.run_pending_ms", "ms"),
    ("serve.plan_batches_us", "us"),
    ("bench.wall_host_s", "s"),
    ("bench.wall_setup_s", "s"),
    ("bench.reference_s", "s"),
    ("trace.host_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_bench_ms", "ms"),
    ("trace.self_graph_ms", "ms"),
    ("trace.self_core_ms", "ms"),
    ("trace.self_serve_ms", "ms"),
];

/// A report: metric values in one of the tables' order.
#[derive(Debug, Clone)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Lay `values` out in `table` order; every name must be present.
    fn from_table(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Metrics {
        Metrics(
            table
                .iter()
                .map(|&(name, unit)| {
                    let v = *values
                        .get(name)
                        .unwrap_or_else(|| panic!("metric {name} was not computed"));
                    assert!(v.is_finite(), "metric {name} is {v}");
                    (name, v, unit)
                })
                .collect(),
        )
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.0.iter().copied()
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.5)
}

/// Linear-interpolated percentile of sorted samples.
fn percentile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Simulated latencies, ns: the latency class on serve-mixed, every
/// query elsewhere (each runs alone, so its latency is its run time).
pub fn latency_samples(seq: &Sequence) -> Vec<f64> {
    let serving = seq.serve.is_some();
    let mut v: Vec<f64> = seq
        .queries
        .iter()
        .filter(|q| !serving || q.dated)
        .filter(|q| q.stats.elapsed_ns > 0)
        .map(|q| q.latency_ns as f64)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Host timings of a run: medians over the timed repetitions, scaled
/// (see `calib`) and as wall time.
pub struct HostTimes {
    pub host_s: f64,
    pub setup_s: f64,
    pub wall_host_s: f64,
    pub wall_setup_s: f64,
    pub ref_s: f64,
}

impl HostTimes {
    pub fn of(timings: &[Timing], refs: &[f64]) -> HostTimes {
        let med = |f: fn(&Timing) -> f64| median(timings.iter().map(f).collect());
        HostTimes {
            host_s: med(|t| t.host.scaled_s),
            setup_s: med(|t| t.setup.scaled_s),
            wall_host_s: med(|t| t.host.wall_s),
            wall_setup_s: med(|t| t.setup.wall_s),
            ref_s: median(refs.to_vec()),
        }
    }
}

pub fn end_to_end(first: &Rep, host: &HostTimes, peak_rss_mb: f64) -> Metrics {
    let seq = &first.sequence;
    let t = &seq.totals;
    let sim_ns = t.elapsed_ns as f64;
    let executed = seq
        .queries
        .iter()
        .filter(|q| q.stats.elapsed_ns > 0)
        .count() as f64;
    let lat = latency_samples(seq);
    // Dated queries that were refused or expired count as misses.
    let dated = seq.queries.iter().filter(|q| q.dated).count() as f64;
    let met = seq.queries.iter().filter(|q| q.dated && q.met).count() as f64;
    let host_s = host.host_s;
    let values = BTreeMap::from([
        ("sim_ms", sim_ns / 1e6),
        (
            "sim_link_gbps",
            ratio((t.host_bytes + t.cxl_bytes) as f64, sim_ns),
        ),
        (
            "io_amp",
            ratio(
                (t.host_bytes + t.cxl_bytes) as f64,
                first.inputs.edge_list_bytes() as f64,
            ),
        ),
        ("sim_qps", ratio(executed, sim_ns * 1e-9)),
        ("sim_lat_p50_ms", percentile_sorted(&lat, 0.5) / 1e6),
        ("sim_lat_p90_ms", percentile_sorted(&lat, 0.9) / 1e6),
        // No query outside serve-mixed carries a deadline; as in
        // `ServerStats::deadline_hit_rate`, that reads 1.0.
        (
            "deadline_hit_rate",
            if dated == 0.0 { 1.0 } else { met / dated },
        ),
        ("host_s", host_s),
        (
            "sim_req_per_host_s",
            ratio((t.pcie_read_requests + t.cxl_read_requests) as f64, host_s),
        ),
        ("setup_s", host.setup_s),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    Metrics::from_table(END_TO_END, &values)
}

/// Mean span duration of spans named in `names`, ns.
fn mean_span(spans: &[Span], names: &[&str]) -> f64 {
    let (n, total) = names.iter().fold((0, 0), |(n, t), name| {
        let (k, d) = trace::total(spans, name);
        (n + k, t + d)
    });
    ratio(total as f64, n as f64)
}

pub fn per_layer(
    first: &Rep,
    traced: &Rep,
    spans: &[Span],
    micro: &[(&'static str, f64)],
    host: &HostTimes,
) -> Metrics {
    let seq = &first.sequence;
    let t = &seq.totals;
    let sim_ns = t.elapsed_ns as f64;
    let links = seq.link_bytes.len() as f64;
    let link_total: u64 = seq.link_bytes.iter().sum();
    let busiest = seq.link_bytes.iter().copied().max().unwrap_or(0);
    let executed: Vec<_> = seq
        .queries
        .iter()
        .filter(|q| q.stats.elapsed_ns > 0)
        .collect();
    let serve = seq.serve.unwrap_or_default();
    let self_ns = trace::self_times(spans);
    let self_ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    let p = &t.prefetch;
    let x = &t.transfer;
    let mut values: BTreeMap<&str, f64> = micro.iter().copied().collect();
    values.extend([
        (
            "graph.generate_s",
            mean_span(spans, &["graph.generate"]) / 1e9,
        ),
        ("sim.pcie.read_requests", t.pcie_read_requests as f64),
        ("sim.pcie.req128_share", t.request_sizes.fraction(128)),
        (
            "sim.pcie.link_busy_share",
            ratio(t.host_bytes as f64, sim_ns * seq.link_gbps * links),
        ),
        ("sim.dram.bytes", t.host_dram_bytes as f64),
        ("sim.cxl.read_requests", t.cxl_read_requests as f64),
        ("sim.cxl.bytes", t.cxl_bytes as f64),
        ("gpu.l2.hit_rate", t.l2_hit_rate()),
        ("gpu.l2.sector_misses", t.l2_sector_misses as f64),
        ("gpu.coalesce.efficiency", t.coalescing_efficiency()),
        ("runtime.kernel_launches", t.kernel_launches as f64),
        ("runtime.transfer.staged_regions", x.staged_regions as f64),
        ("runtime.transfer.staged_bytes", x.staged_bytes as f64),
        ("runtime.transfer.pool_fallbacks", x.pool_fallbacks as f64),
        (
            "runtime.transfer.cxl_staged_regions",
            x.cxl_staged_regions as f64,
        ),
        (
            "runtime.prefetch.accuracy",
            ratio(p.hit_bytes as f64, p.prefetched_bytes as f64),
        ),
        ("runtime.prefetch.wasted_bytes", p.wasted_bytes as f64),
        ("runtime.prefetch.stall_ms", p.stall_ns as f64 / 1e6),
        ("runtime.prefetch.hidden_ms", p.hidden_ns as f64 / 1e6),
        (
            "runtime.group.busiest_link_share",
            ratio(busiest as f64, link_total as f64),
        ),
        ("core.sharded.exchange_bytes", seq.exchange_bytes as f64),
        ("core.load_ms", mean_span(spans, &["core.load"]) / 1e6),
        (
            "core.query_host_ms",
            mean_span(
                spans,
                &["core.bfs", "core.sssp", "core.cc", "core.pagerank"],
            ) / 1e6,
        ),
        ("serve.batches", serve.batches as f64),
        (
            "serve.batched_share",
            ratio(serve.batched_queries as f64, serve.executed as f64),
        ),
        (
            "serve.queue_wait_ms",
            if seq.serve.is_some() {
                ratio(
                    executed.iter().map(|q| q.wait_ns as f64).sum(),
                    executed.len() as f64,
                ) / 1e6
            } else {
                0.0
            },
        ),
        ("serve.rejected", serve.rejected as f64),
        ("serve.expired", serve.expired as f64),
        ("serve.submit_us", mean_span(spans, &["serve.submit"]) / 1e3),
        (
            "serve.run_pending_ms",
            mean_span(spans, &["serve.run_pending"]) / 1e6,
        ),
        ("bench.wall_host_s", host.wall_host_s),
        ("bench.wall_setup_s", host.wall_setup_s),
        ("bench.reference_s", host.ref_s),
        ("trace.host_s", traced.sequence.host.wall_s),
        (
            "trace.overhead_s",
            traced.sequence.host.wall_s - host.wall_host_s,
        ),
        ("trace.self_bench_ms", self_ms("bench")),
        ("trace.self_graph_ms", self_ms("graph")),
        ("trace.self_core_ms", self_ms("core")),
        ("trace.self_serve_ms", self_ms("serve")),
    ]);
    Metrics::from_table(PER_LAYER, &values)
}
