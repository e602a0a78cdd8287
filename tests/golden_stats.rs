//! Golden statistics: fixed-seed scenarios whose every [`RunStats`]
//! counter and every output is folded into an FNV-1a digest and compared
//! against a checked-in constant.
//!
//! The differential harnesses compare engines against each other within
//! one build; this file pins the absolute numbers across builds. A
//! refactor of the iteration drivers, the transfer planner or the
//! counter plumbing that is meant to be behaviour-preserving must leave
//! every digest unchanged — simulated clock included. The matrix covers
//! the solo [`Engine`] under every transport (zero-copy, frontier
//! reorder, hybrid, pipelined, CXL-spilled pipelined, UVM), batched
//! execution with reordering on, a two-device pipelined hybrid
//! [`ShardedEngine`] (per-device stats and exchange included) and one
//! [`QueryServer`] round.
//!
//! When a change is *meant* to move simulated numbers, the failure
//! message prints the new digest; update the constant in the same
//! change and say why in its description.

use emogi_repro::core::layout::SPILL_ALIGN;
use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine, ShardedRun};
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use emogi_repro::sim::interconnect::LinkStats;
use emogi_repro::sim::monitor::SizeHistogram;
use std::sync::Arc;

const BFS_SOURCES: [u32; 3] = [1, 77, 513];
const SSSP_SOURCE: u32 = 5;
const PAGERANK_ITERS: u32 = 5;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(u64::from(v));
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v.to_bits());
        }
    }

    /// Every `RunStats` field. The destructuring has no `..`, so a new
    /// counter cannot be added without deciding how it is digested.
    fn stats(&mut self, s: &RunStats) {
        let RunStats {
            elapsed_ns,
            kernel_launches,
            pcie_read_requests,
            request_sizes: SizeHistogram { buckets, other },
            host_bytes,
            avg_pcie_gbps,
            page_faults,
            pages_migrated,
            host_dram_bytes,
            l2_sector_hits,
            l2_sector_misses,
            lane_bytes,
            txn_bytes,
            cxl_read_requests,
            cxl_bytes,
            transfer:
                TransferStats {
                    staged_regions,
                    staged_bytes,
                    pool_fallbacks,
                    staging_rounds,
                    cxl_staged_regions,
                    cxl_staged_bytes,
                    demoted_regions,
                },
            prefetch:
                PrefetchStats {
                    prefetched_regions,
                    prefetched_bytes,
                    hit_regions,
                    hit_bytes,
                    wasted_bytes,
                    stall_ns,
                    hidden_ns,
                },
            shared_fetch,
        } = s;
        for v in [
            *elapsed_ns,
            *kernel_launches,
            *pcie_read_requests,
            buckets[0],
            buckets[1],
            buckets[2],
            buckets[3],
            *other,
            *host_bytes,
            avg_pcie_gbps.to_bits(),
            *page_faults,
            *pages_migrated,
            *host_dram_bytes,
            *l2_sector_hits,
            *l2_sector_misses,
            *lane_bytes,
            *txn_bytes,
            *cxl_read_requests,
            *cxl_bytes,
            *staged_regions,
            *staged_bytes,
            *pool_fallbacks,
            *staging_rounds,
            *cxl_staged_regions,
            *cxl_staged_bytes,
            *demoted_regions,
            *prefetched_regions,
            *prefetched_bytes,
            *hit_regions,
            *hit_bytes,
            *wasted_bytes,
            *stall_ns,
            *hidden_ns,
            u64::from(*shared_fetch),
        ] {
            self.u64(v);
        }
    }

    fn link(&mut self, l: &LinkStats) {
        self.u64(l.bytes);
        self.u64(l.transfers);
        self.u64(l.busy_ns);
    }

    fn sharded<O>(&mut self, run: &ShardedRun<O>) {
        self.stats(&run.stats);
        self.u64(run.per_device.len() as u64);
        for s in &run.per_device {
            self.stats(s);
        }
        self.link(&run.exchange);
        self.u64(run.iterations);
    }
}

/// A skewed graph with hubs above the sharded hub-split degree, small
/// enough for a quick test and large enough to oversubscribe the shrunk
/// L2 below.
fn graph() -> CsrGraph {
    generators::kronecker(11, 8, 20261017)
}

fn weights(g: &CsrGraph) -> Vec<u32> {
    generate_weights(g.num_edges(), 20261017)
}

/// V100 platform with the L2 shrunk below the edge list, so reuse,
/// staging and reordering all have something to do.
fn machine() -> MachineConfig {
    let mut m = MachineConfig::v100_gen3();
    m.gpu.cache.capacity_bytes = 32 << 10;
    m
}

fn zero_copy() -> EngineConfig {
    EngineConfig::emogi_v100().with_machine(machine())
}

/// Small regions and a bounded staging pool: staging stays partial, so
/// reordering sees a mix of device and host addresses.
fn transfer() -> TransferConfig {
    TransferConfig {
        region_bytes: 4 << 10,
        pool_bytes: Some(96 << 10),
        ..TransferConfig::default()
    }
}

fn hybrid() -> EngineConfig {
    zero_copy().with_transfer(transfer())
}

fn pipelined() -> EngineConfig {
    hybrid().pipelined()
}

/// Host DRAM capped at one spill granule below the edge list, the tail
/// homed in an attached CXL tier, cold staged regions demoted.
fn cxl_spilled(g: &CsrGraph) -> EngineConfig {
    let edge_bytes = g.edge_list_bytes(8);
    let cap = (edge_bytes / SPILL_ALIGN * SPILL_ALIGN).saturating_sub(SPILL_ALIGN);
    let m = machine()
        .with_cxl(CxlConfig::external_x8())
        .with_host_capacity(cap.max(SPILL_ALIGN));
    let t = TransferConfig {
        demote_cold_after: Some(2),
        ..transfer()
    };
    pipelined().with_machine(m).with_transfer(t)
}

/// Warm sequence on one engine: three BFS, SSSP (unless UVM, whose
/// managed span is fixed by the first kernel), CC, PageRank.
fn engine_digest(cfg: EngineConfig, g: &CsrGraph, with_sssp: bool) -> u64 {
    let w = weights(g);
    let mut e = Engine::load(cfg, g);
    let mut h = Fnv::new();
    for src in BFS_SOURCES {
        let r = e.bfs(src);
        h.stats(&r.stats);
        h.u32s(&r.levels);
    }
    if with_sssp {
        let r = e.sssp(&w, SSSP_SOURCE);
        h.stats(&r.stats);
        h.u32s(&r.dist);
    }
    let r = e.cc();
    h.stats(&r.stats);
    h.u32s(&r.comp);
    h.u64(r.hook_passes);
    let r = e.pagerank(0.85, PAGERANK_ITERS);
    h.stats(&r.stats);
    h.f64s(&r.ranks);
    h.u64(u64::from(r.iterations));
    h.0
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: digest {got:#018x} differs from the golden {want:#018x}"
    );
}

#[test]
fn engine_zero_copy() {
    let g = graph();
    check(
        "zero-copy",
        engine_digest(zero_copy(), &g, true),
        0x2262_d315_175a_c8d7,
    );
}

/// On an identity layout without staging, neighbour lists already sit
/// in vertex order, so reordering the sorted frontier is a no-op: the
/// digest equals plain zero-copy's.
#[test]
fn engine_zero_copy_reorder() {
    let g = graph();
    check(
        "zero-copy+reorder",
        engine_digest(zero_copy().with_frontier_reorder(true), &g, true),
        0x2262_d315_175a_c8d7,
    );
}

#[test]
fn engine_hybrid() {
    let g = graph();
    check(
        "hybrid",
        engine_digest(hybrid(), &g, true),
        0x1cac_d364_8f34_97d8,
    );
}

#[test]
fn engine_pipelined_reorder() {
    let g = graph();
    let cfg = pipelined().with_frontier_reorder(true);
    check(
        "pipelined+reorder",
        engine_digest(cfg, &g, true),
        0x0fbc_e834_8799_95f4,
    );
}

#[test]
fn engine_cxl_spilled_pipelined() {
    let g = graph();
    check(
        "cxl-spilled pipelined",
        engine_digest(cxl_spilled(&g), &g, true),
        0x326c_413b_d598_2a96,
    );
}

#[test]
fn engine_uvm() {
    let g = graph();
    let cfg = EngineConfig::uvm_v100().with_machine(machine());
    check("uvm", engine_digest(cfg, &g, false), 0xce3a_e506_87d9_d4e1);
}

#[test]
fn batch_with_reorder() {
    let g = graph();
    let mut h = Fnv::new();
    for cfg in [
        zero_copy().with_frontier_reorder(true),
        pipelined().with_frontier_reorder(true),
    ] {
        let mut e = Engine::load(cfg, &g);
        let batch = e.run_batch(
            BFS_SOURCES
                .iter()
                .map(|&s| BfsProgram::new(&g, s))
                .collect::<Vec<_>>(),
        );
        h.stats(&batch.stats);
        for r in &batch.runs {
            h.stats(&r.stats);
            h.u32s(&r.levels);
        }
    }
    check("run_batch", h.0, 0x3e3a_5cc0_30ad_e629);
}

#[test]
fn sharded_two_device_pipelined_hybrid() {
    let g = graph();
    let w = weights(&g);
    let cfg = ShardedConfig {
        engine: pipelined().with_frontier_reorder(true),
        ..ShardedConfig::hybrid_v100(2)
    };
    let mut e = ShardedEngine::load(cfg, &g);
    let mut h = Fnv::new();
    for src in BFS_SOURCES {
        let r = e.bfs(src);
        h.sharded(&r);
        h.u32s(&r.levels);
    }
    let r = e.sssp(&w, SSSP_SOURCE);
    h.sharded(&r);
    h.u32s(&r.dist);
    let r = e.cc();
    h.sharded(&r);
    h.u32s(&r.comp);
    let r = e.pagerank(0.85, PAGERANK_ITERS);
    h.sharded(&r);
    h.f64s(&r.ranks);
    check("sharded", h.0, 0xf639_cf78_3a81_f9c5);
}

#[test]
fn query_server_round() {
    let g = graph();
    let w = Arc::new(weights(&g));
    let mut s = QueryServer::new(ServerConfig::default(), Engine::load(zero_copy(), &g));
    let mut queries: Vec<Query> = BFS_SOURCES.iter().map(|&v| Query::bfs(v)).collect();
    queries.push(Query::sssp(SSSP_SOURCE, Arc::clone(&w)));
    queries.push(Query::sssp(BFS_SOURCES[1], w));
    queries.push(Query::cc());
    queries.push(Query::pagerank(0.85, PAGERANK_ITERS));
    let ids: Vec<QueryId> = queries
        .into_iter()
        .map(|q| s.submit(q).expect("admitted"))
        .collect();
    s.run_pending();
    let mut h = Fnv::new();
    for id in ids {
        let outcome = s.take(id).expect("one outcome per query");
        h.u64(outcome.completed_ns().expect("executed"));
        let result = outcome.into_result().expect("executed");
        h.stats(result.stats());
        match result {
            QueryResult::Bfs(r) => h.u32s(&r.levels),
            QueryResult::Sssp(r) => h.u32s(&r.dist),
            QueryResult::Cc(r) => h.u32s(&r.comp),
            QueryResult::PageRank(r) => h.f64s(&r.ranks),
        }
    }
    let st = *s.stats();
    for v in [
        st.submitted,
        st.rejected,
        st.served,
        st.deadline_missed,
        st.deadline_cancelled,
        st.cancelled,
        st.deadline_met,
        st.batches,
        st.batched_queries,
        st.busy_ns,
        st.host_bytes,
        s.clock_ns(),
    ] {
        h.u64(v);
    }
    check("query server", h.0, 0x4590_c687_1162_6377);
}
