//! Layer microbenchmarks with their own timing loops. Inputs come from
//! the workload's seeded graph: a seeded sample of vertices stands in for
//! a frontier, and its neighbour lists give the addresses, regions and
//! byte ranges each component sees.

use crate::workload::{pick_sources, Inputs, SplitMix, SERVE_LATENCY, SERVE_SSSP};
use emogi_gpu::{Coalescer, LaneAccess, SectoredCache, Space, Transaction, LINE_BYTES};
use emogi_graph::analysis::CostModel;
use emogi_graph::VertexId;
use emogi_runtime::transfer::UNMAPPED;
use emogi_runtime::{
    Machine, PrefetchConfig, Prefetcher, TransferConfig, TransferManager, HOST_BASE,
};
use emogi_serve::{plan_batches, Pending, Priority, Query, QueryId, SchedPolicy};
use emogi_sim::{
    CopyEngine, CopyEngineConfig, CxlConfig, CxlLink, Dram, EventQueue, PcieLink, ReadOutcome,
    TrafficMonitor,
};
use emogi_uvm::{MemoryTier, TierDecision, TransferPolicy, TransferPolicyConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed samples per microbenchmark; the median is reported.
const SAMPLES: usize = 7;
/// Frontier sample size.
const FRONTIER: usize = 2048;
/// Most warps replayed through the coalescer and cache.
const MAX_WARPS: usize = 8192;
/// Frontiers fed to the transfer planner per sample.
const PLAN_ROUNDS: usize = 8;
/// Elements per 128-byte line at the engines' 8-byte element size.
const ELEMS_PER_LINE: u64 = LINE_BYTES / 8;
const STREAM_MICRO: u64 = 9;

/// Shortest timed span of one sample: short operations repeat until
/// they fill it, so timer overhead stays negligible.
const MIN_SAMPLE: Duration = Duration::from_millis(2);

/// Median over `SAMPLES` samples of `run`'s time per operation, ns
/// (`run` does `ops` operations on fresh `setup()` state; set-up is not
/// timed).
fn per_op<S>(ops: usize, mut setup: impl FnMut() -> S, mut run: impl FnMut(S) -> u64) -> f64 {
    black_box(run(setup()));
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (mut spent, mut done) = (Duration::ZERO, 0);
            while spent < MIN_SAMPLE {
                let s = setup();
                let t = Instant::now();
                black_box(run(s));
                spent += t.elapsed();
                done += ops.max(1);
            }
            spent.as_nanos() as f64 / done as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[SAMPLES / 2]
}

/// Region index and touched bytes of each 64 KiB region the frontier's
/// neighbour lists read, sorted by region.
fn touched_regions(ranges: &[(u64, u64)], region_bytes: u64) -> Vec<(u32, u64)> {
    let mut per: std::collections::BTreeMap<u32, u64> = Default::default();
    for &(lo, hi) in ranges {
        let mut at = lo;
        while at < hi {
            let r = at / region_bytes;
            let end = hi.min((r + 1) * region_bytes);
            *per.entry(r as u32).or_insert(0) += end - at;
            at = end;
        }
    }
    per.into_iter()
        .map(|(r, b)| (r, b.min(region_bytes)))
        .collect()
}

/// Every microbenchmark, as `(metric name, value)` in the units the
/// names carry.
pub fn run(inputs: &Inputs, seed: u64) -> Vec<(&'static str, f64)> {
    let g = &inputs.graph;
    let m = &inputs.machine;
    let mut rng = SplitMix::new(seed, STREAM_MICRO);
    let frontier: Vec<VertexId> = pick_sources(g, FRONTIER, &mut rng);
    let ranges: Vec<(u64, u64)> = frontier
        .iter()
        .map(|&v| (g.neighbor_start(v) * 8, g.neighbor_end(v) * 8))
        .collect();

    // Merged+Aligned warps: each walks its list from the line-aligned
    // element below its start, 32 lanes per step.
    let mut warps: Vec<Vec<LaneAccess>> = Vec::new();
    'outer: for &v in &frontier {
        let (start, end) = (g.neighbor_start(v), g.neighbor_end(v));
        let mut e = start / ELEMS_PER_LINE * ELEMS_PER_LINE;
        while e < end {
            let lanes = (e..e + 32)
                .filter(|&i| i >= start && i < end)
                .map(|i| LaneAccess::load(HOST_BASE + i * 8, 8, Space::HostPinned))
                .collect();
            warps.push(lanes);
            if warps.len() == MAX_WARPS {
                break 'outer;
            }
            e += 32;
        }
    }
    let mut coalescer = Coalescer::new();
    let mut txns: Vec<Transaction> = Vec::new();
    for w in &warps {
        coalescer.coalesce(w, &mut txns);
    }

    let mut out = Vec::new();

    out.push((
        "gpu.coalesce.ns_per_warp",
        per_op(
            warps.len(),
            || (),
            |()| {
                let mut buf = Vec::with_capacity(8);
                let mut n = 0;
                for w in &warps {
                    buf.clear();
                    coalescer.coalesce(black_box(w), &mut buf);
                    n += buf.len() as u64;
                }
                n
            },
        ),
    ));

    let mut cache = SectoredCache::new(&m.gpu.cache);
    out.push((
        "gpu.l2.probe_ns",
        per_op(
            txns.len(),
            || (),
            |()| {
                let mut hits = 0u64;
                for t in &txns {
                    let mask = t.sector_mask();
                    let hit = cache.probe(t.line(), mask);
                    if hit != mask {
                        cache.fill(t.line(), mask & !hit);
                    }
                    hits += u64::from(hit.count_ones());
                }
                hits
            },
        ),
    ));

    out.push((
        "sim.events.push_pop_ns",
        per_op(txns.len(), EventQueue::<u32>::new, |mut q| {
            for (i, t) in txns.iter().enumerate() {
                q.push((t.addr >> 4) % 1_000_003, i as u32);
            }
            let mut sum = 0u64;
            while let Some((at, _)) = q.pop() {
                sum = sum.wrapping_add(at);
            }
            sum
        }),
    ));

    out.push((
        "sim.pcie.read_complete_ns",
        per_op(
            txns.len(),
            || {
                (
                    PcieLink::new(m.pcie.clone()),
                    Dram::new(m.host_dram.clone()),
                    TrafficMonitor::new(m.monitor_window_ns),
                )
            },
            |(mut link, mut dram, mut mon)| {
                let mut released = Vec::new();
                let mut now = 0;
                for (i, t) in txns.iter().enumerate() {
                    now += 10;
                    if let ReadOutcome::Issued { complete_at } =
                        link.read(now, i as u64, t.addr, t.size, &mut dram, &mut mon)
                    {
                        link.complete(complete_at, t.size, &mut dram, &mut mon, &mut released);
                        released.clear();
                    }
                }
                mon.read_requests
            },
        ),
    ));

    out.push((
        "sim.cxl.read_ns",
        per_op(
            txns.len(),
            || CxlLink::new(m.cxl.clone().unwrap_or_else(CxlConfig::external_x8)),
            |mut link| {
                let mut now = 0;
                let mut last = 0;
                for t in &txns {
                    now += 10;
                    last = link.read(now, t.addr - HOST_BASE, t.size);
                }
                last
            },
        ),
    ));

    let tcfg = TransferConfig::default();
    let region_bytes = tcfg.region_bytes;
    let len_bytes = inputs.edge_list_bytes();
    let regions = len_bytes.div_ceil(region_bytes) as usize;
    let copy_cfg = CopyEngineConfig::from_pcie(&m.pcie);
    out.push((
        "sim.copy_engine.submit_drain_ns",
        per_op(
            regions,
            || CopyEngine::new(copy_cfg.clone()),
            |mut lane| {
                let mut drained = 0u64;
                for r in 0..regions as u64 {
                    let len = region_bytes.min(len_bytes - r * region_bytes);
                    lane.submit(r * 1_000, len);
                    if r % 16 == 15 {
                        drained += lane.drain_completed(lane.lane_free_at()).len() as u64;
                    }
                }
                drained + lane.drain_completed(lane.lane_free_at()).len() as u64
            },
        ),
    ));

    // Host/CXL split as the workload's placement makes it.
    let host_bytes = m.host_capacity_bytes.map_or(len_bytes, |cap| {
        (cap / region_bytes * region_bytes).min(len_bytes)
    });
    let host_regions = (host_bytes / region_bytes) as usize;
    let touched = touched_regions(&ranges, region_bytes);
    let density = |r: u32, b: u64| {
        b as f64 / region_bytes.min(len_bytes - u64::from(r) * region_bytes) as f64
    };
    let mut policy = TransferPolicy::new(regions, TransferPolicyConfig::default());
    for &(r, b) in &touched {
        policy.note_zero_copy(r as usize, density(r, b) / 2.0);
    }
    out.push((
        "uvm.decide_tiered_ns",
        per_op(
            touched.len(),
            || (),
            |()| {
                let mut staged = 0u64;
                for &(r, b) in &touched {
                    let home = if (r as usize) < host_regions {
                        MemoryTier::Host
                    } else {
                        MemoryTier::Cxl
                    };
                    let d = policy.decide_tiered(r as usize, density(r, b), home);
                    staged += u64::from(d == TierDecision::StageToHbm);
                }
                staged
            },
        ),
    ));

    let chunk = ranges.len().div_ceil(PLAN_ROUNDS);
    out.push((
        "runtime.plan_iteration_us",
        per_op(
            PLAN_ROUNDS,
            || {
                let machine = Machine::new(m.clone());
                let tm = TransferManager::with_tiers(&machine, len_bytes, host_bytes, tcfg.clone());
                (machine, tm)
            },
            |(mut machine, mut tm)| {
                let mut changed = 0u64;
                for round in ranges.chunks(chunk) {
                    changed += u64::from(tm.plan_iteration(&mut machine, round.iter().copied()));
                }
                changed
            },
        ) / 1e3,
    ));

    let table = vec![UNMAPPED; regions];
    let prefetcher = Prefetcher::new(regions, PrefetchConfig::default(), copy_cfg.clone());
    const RANK_CALLS: usize = 16;
    out.push((
        "runtime.rank_candidates_us",
        per_op(
            RANK_CALLS,
            || (),
            |()| {
                let mut n = 0u64;
                for _ in 0..RANK_CALLS {
                    n += prefetcher
                        .rank_candidates(&policy, &table, &touched, region_bytes, len_bytes)
                        .len() as u64;
                }
                n
            },
        ) / 1e3,
    ));

    // One serve-mixed round as the scheduler sees it.
    let weights = Arc::new(Vec::new());
    let round: Vec<Pending> = frontier
        .iter()
        .take(SERVE_LATENCY + SERVE_SSSP + 1)
        .enumerate()
        .map(|(i, &src)| {
            let (query, deadline_ns) = if i < SERVE_LATENCY {
                let q = Query::bfs(src).with_priority(Priority::Latency);
                (q, Some(1_000_000 + (rng.below(1_000) * 1_000)))
            } else if i < SERVE_LATENCY + SERVE_SSSP {
                (Query::sssp(src, Arc::clone(&weights)), None)
            } else {
                (Query::cc(), None)
            };
            Pending {
                id: QueryId::from_raw(i as u64),
                query,
                deadline_ns,
            }
        })
        .collect();
    const PLANS: usize = 256;
    out.push((
        "serve.plan_batches_us",
        per_op(
            PLANS,
            || vec![round.clone(); PLANS],
            |rounds| {
                let mut n = 0u64;
                for r in rounds {
                    n += plan_batches(r, SchedPolicy::Edf, 16).len() as u64;
                }
                n
            },
        ) / 1e3,
    ));

    let cost = CostModel::new(g);
    out.push((
        "graph.frontier_cost_ns",
        per_op(
            frontier.len(),
            || (),
            |()| {
                frontier
                    .iter()
                    .map(|&v| cost.frontier_cost(black_box(g.degree(v)), 8).iterations)
                    .sum()
            },
        ),
    ));
    out.push((
        "graph.cost_model_new_ms",
        per_op(1, || (), |()| CostModel::new(black_box(g)).est_depth()) / 1e6,
    ));
    out
}
