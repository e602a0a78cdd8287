//! Batched multi-query execution: many frontier-driven queries, one
//! edge-list fetch.
//!
//! EMOGI's premise is that every PCIe cache line counts; once an
//! [`Engine`](crate::engine::Engine) serves many queries against one
//! placement, concurrent queries whose frontiers overlap should *share*
//! those cache lines instead of re-fetching them per query. A
//! [`BatchKernel`] runs one launch over the **union** of the batch's
//! per-query frontiers: each union vertex's neighbour list crosses the
//! link once and is handed to every query that has the vertex active,
//! while each query keeps its own device-resident status array, its own
//! program state and its own next frontier.
//!
//! Correctness contract: per-task contexts are captured at iteration
//! start ([`VertexProgram::source_ctx`]), and the shipped frontier-driven
//! programs' per-edge updates are commutative within an iteration
//! (BFS marks, SSSP takes mins), so a query's frontier sequence — and
//! therefore its output *and* its iteration count — is identical whether
//! it runs alone or inside any batch. [`Engine::run_batch`] runs a batch
//! through the same scan, planning, device-work and measurement stages
//! as a solo run; only the union merge (`merge_frontiers`), this
//! kernel and per-query attribution are batch-specific.
//! `tests/serve_proptests.rs` checks the equivalence on random graphs,
//! query mixes and access modes.
//!
//! [`Engine::run_batch`]: crate::engine::Engine::run_batch

use crate::layout::GraphLayout;
use crate::program::{EdgeEffect, VertexProgram};
use crate::strategy::AccessStrategy;
use crate::walk::{LaneWalk, WarpWalk};
use emogi_gpu::access::{AccessBatch, Space, WARP_SIZE};
use emogi_graph::{CsrGraph, VertexId};
use emogi_runtime::{Kernel, RunStats, StepOutcome};

/// Maximum queries one batch may hold: per-vertex membership is a `u64`
/// bitset over the batch's query slots.
pub const MAX_BATCH_QUERIES: usize = 64;

/// Result of one batched multi-query execution.
///
/// `stats` is the batch-level machine diff — the ground truth for what
/// the batch cost (each shared edge fetch counted exactly once). Each
/// per-query [`Run`](crate::engine::Run) carries the totals of the
/// iterations that query was active in, with
/// [`RunStats::shared_fetch`] set: those bytes also served the other
/// queries of the batch, so per-query stats are attributable but do not
/// sum to the batch total.
#[derive(Debug, Clone)]
pub struct BatchRun<O> {
    /// Per-query outputs and attributable stats, in submission order.
    pub runs: Vec<crate::engine::Run<O>>,
    /// Batch-wide totals: the real cost of the whole execution.
    pub stats: RunStats,
}

/// Merge per-query frontiers (each sorted and deduplicated) into one
/// sorted union worklist plus a parallel membership bitset per union
/// vertex (bit `q` set ⇔ vertex is on query `q`'s frontier).
pub(crate) fn merge_frontiers(
    frontiers: &[Vec<VertexId>],
    union: &mut Vec<VertexId>,
    masks: &mut Vec<u64>,
) {
    union.clear();
    masks.clear();
    let mut pairs: Vec<(VertexId, u32)> = frontiers
        .iter()
        .enumerate()
        .flat_map(|(q, f)| f.iter().map(move |&v| (v, q as u32)))
        .collect();
    pairs.sort_unstable();
    for (v, q) in pairs {
        if union.last() == Some(&v) {
            *masks.last_mut().expect("parallel to union") |= 1 << q;
        } else {
            union.push(v);
            masks.push(1 << q);
        }
    }
}

/// Task state of one batched launch: like
/// [`ProgramTask`](crate::kernel::ProgramTask), but work items are union
/// frontier positions rather than per-query vertices.
#[allow(clippy::large_enum_variant)]
pub enum BatchTask {
    /// Merged/aligned: a warp on one union vertex.
    Warp {
        /// Index into the union worklist.
        u: usize,
        /// Neighbour-list sweep state (`None` until the offsets loaded).
        walk: Option<WarpWalk>,
    },
    /// Naive: 32 lanes on 32 union vertices.
    Lanes {
        /// Indices into the union worklist, one per lane.
        us: Vec<usize>,
        /// Per-lane cursor state (`None` until the offsets loaded).
        walk: Option<LaneWalk>,
    },
}

/// One launch of a batch of same-type programs over the union of their
/// frontiers.
///
/// The *shared* traffic — CSR offset loads, the edge-list stream and (for
/// edge-data programs) the weight stream — is emitted once per union
/// vertex. The *per-query* traffic — the own-status load at task start,
/// the destination-status gather and the conditional status store per
/// edge — is emitted once per member query against that query's own
/// status array.
pub struct BatchKernel<'a, P: VertexProgram> {
    graph: &'a CsrGraph,
    layout: &'a GraphLayout,
    strategy: AccessStrategy,
    programs: &'a mut [P],
    /// Device base address of each query's status array.
    status_bases: &'a [u64],
    /// The merged frontier, sorted and deduplicated.
    union: &'a [VertexId],
    /// CSR over the union: vertex `u`'s members are
    /// `members[member_off[u]..member_off[u + 1]]`.
    member_off: Vec<u32>,
    /// `(query slot, iteration-start context)` pairs.
    members: Vec<(u32, P::Ctx)>,
    /// Per-query next frontiers (activations).
    next: &'a mut [Vec<VertexId>],
    pos: usize,
    loaded_scratch: Vec<(u64, u8)>,
    edge_data: bool,
    source_status: bool,
}

impl<'a, P: VertexProgram> BatchKernel<'a, P> {
    /// Build one batched launch. `masks` is parallel to `union` (bit `q`
    /// set ⇔ the vertex is on query `q`'s frontier); contexts are
    /// captured here, at iteration start, exactly like the single-query
    /// kernel does.
    // A kernel launch wires one borrow per engine-owned resource; a
    // params struct would only rename the argument list.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &'a CsrGraph,
        layout: &'a GraphLayout,
        strategy: AccessStrategy,
        programs: &'a mut [P],
        status_bases: &'a [u64],
        union: &'a [VertexId],
        masks: &[u64],
        next: &'a mut [Vec<VertexId>],
    ) -> Self {
        assert!(!programs.is_empty() && programs.len() <= MAX_BATCH_QUERIES);
        assert_eq!(union.len(), masks.len(), "masks parallel the union");
        assert!(status_bases.len() >= programs.len());
        assert_eq!(next.len(), programs.len());
        let edge_data = programs[0].uses_edge_data();
        if edge_data {
            assert!(
                layout.weight_base.is_some(),
                "programs need edge data but none is placed"
            );
        }
        let source_status = programs[0].reads_source_status();
        let mut member_off = Vec::with_capacity(union.len() + 1);
        let mut members = Vec::new();
        member_off.push(0u32);
        for (&v, &mask) in union.iter().zip(masks) {
            let mut m = mask;
            while m != 0 {
                let q = m.trailing_zeros();
                m &= m - 1;
                members.push((q, programs[q as usize].source_ctx(v)));
            }
            member_off.push(members.len() as u32);
        }
        Self {
            graph,
            layout,
            strategy,
            programs,
            status_bases,
            union,
            member_off,
            members,
            next,
            pos: 0,
            loaded_scratch: Vec::with_capacity(WARP_SIZE),
            edge_data,
            source_status,
        }
    }

    /// Task-start loads for union vertex `u`: the two CSR offsets once
    /// (the vertex list is shared), plus each member query's own status
    /// entry for programs that read it.
    fn open_vertex(&mut self, u: usize, batch: &mut AccessBatch) -> (u64, u64) {
        let v = self.union[u];
        batch.load(self.layout.vertex_addr(u64::from(v)), 8, Space::Device);
        batch.load(self.layout.vertex_addr(u64::from(v) + 1), 8, Space::Device);
        if self.source_status {
            for idx in self.member_off[u]..self.member_off[u + 1] {
                let q = self.members[idx as usize].0 as usize;
                self.status_addr_load(q, u64::from(v), batch);
            }
        }
        (self.graph.neighbor_start(v), self.graph.neighbor_end(v))
    }

    fn status_addr(&self, q: usize, v: u64) -> u64 {
        self.status_bases[q] + v * 4
    }

    fn status_addr_load(&self, q: usize, v: u64, batch: &mut AccessBatch) {
        batch.load(self.status_addr(q, v), 4, Space::Device);
    }

    /// Process edge-list element `i` of union vertex `u` for every member
    /// query: one destination-status gather per member (each against its
    /// own array), then the member program's update and the traffic of
    /// its effect. The edge element itself was already loaded once for
    /// the whole batch.
    fn visit_edge(&mut self, u: usize, i: u64, instr: u8, batch: &mut AccessBatch) {
        let src = self.union[u];
        let dst = self.graph.edge_dst(i);
        for idx in self.member_off[u]..self.member_off[u + 1] {
            let (q, ctx) = self.members[idx as usize];
            let q = q as usize;
            batch.load_instr(self.status_addr(q, u64::from(dst)), 4, Space::Device, instr);
            match self.programs[q].edge(i, src, dst, ctx) {
                EdgeEffect::None => {}
                EdgeEffect::UpdateDst { activate } => {
                    batch.store(self.status_addr(q, u64::from(dst)), 4, Space::Device);
                    if activate {
                        self.next[q].push(dst);
                    }
                }
                EdgeEffect::UpdateSrc => {
                    batch.store(self.status_addr(q, u64::from(src)), 4, Space::Device);
                }
            }
        }
    }
}

impl<P: VertexProgram> Kernel for BatchKernel<'_, P> {
    type Task = BatchTask;

    fn next_task(&mut self) -> Option<Self::Task> {
        let n = self.union.len();
        if self.pos >= n {
            return None;
        }
        if self.strategy.warp_per_vertex() {
            let u = self.pos;
            self.pos += 1;
            Some(BatchTask::Warp { u, walk: None })
        } else {
            let hi = (self.pos + WARP_SIZE).min(n);
            let us: Vec<usize> = (self.pos..hi).collect();
            self.pos = hi;
            Some(BatchTask::Lanes { us, walk: None })
        }
    }

    fn step(&mut self, task: &mut Self::Task, batch: &mut AccessBatch) -> StepOutcome {
        match task {
            BatchTask::Warp { u, walk } => {
                let Some(w) = walk else {
                    let (start, end) = self.open_vertex(*u, batch);
                    if start == end {
                        return StepOutcome::Done;
                    }
                    *walk = Some(WarpWalk::new(start, end, self.strategy, self.layout));
                    return StepOutcome::Continue;
                };
                let (lo, hi) = w.emit_edges(self.layout, batch);
                if self.edge_data {
                    WarpWalk::emit_weights(self.layout, batch, lo, hi);
                }
                let u = *u;
                for i in lo..hi {
                    self.visit_edge(u, i, 128, batch);
                }
                if w.is_done() {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            BatchTask::Lanes { us, walk } => {
                let Some(w) = walk else {
                    let mut ranges = Vec::with_capacity(us.len());
                    for &u in us.iter() {
                        ranges.push(self.open_vertex(u, batch));
                    }
                    let lw = LaneWalk::new(&ranges);
                    if lw.is_done() {
                        return StepOutcome::Done;
                    }
                    *walk = Some(lw);
                    return StepOutcome::Continue;
                };
                let mut loaded = std::mem::take(&mut self.loaded_scratch);
                loaded.clear();
                w.emit_edges(self.layout, batch, &mut loaded);
                if self.edge_data {
                    LaneWalk::emit_weights(self.layout, batch, &loaded);
                }
                for &(i, iter) in &loaded {
                    let lane = us
                        .iter()
                        .position(|&u| {
                            let v = self.union[u];
                            i >= self.graph.neighbor_start(v) && i < self.graph.neighbor_end(v)
                        })
                        .expect("element belongs to some lane");
                    self.visit_edge(us[lane], i, 128 + iter, batch);
                }
                let done = w.is_done();
                self.loaded_scratch = loaded;
                if done {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProgram;
    use crate::engine::{Engine, EngineConfig};
    use crate::sssp::SsspProgram;
    use crate::strategy::AccessMode;
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{algo, generators};

    #[test]
    fn merge_frontiers_builds_sorted_union_with_masks() {
        let fs = vec![vec![1u32, 5, 9], vec![5, 7], vec![]];
        let (mut union, mut masks) = (Vec::new(), Vec::new());
        merge_frontiers(&fs, &mut union, &mut masks);
        assert_eq!(union, vec![1, 5, 7, 9]);
        assert_eq!(masks, vec![0b001, 0b011, 0b010, 0b001]);
    }

    #[test]
    fn batched_bfs_matches_sequential_for_every_mode() {
        let g = generators::kronecker(8, 8, 3);
        let sources = [0u32, 3, 17, 40];
        for mode in AccessMode::all() {
            let cfg = EngineConfig::emogi_v100().with_mode(mode);
            let mut seq = Engine::load(cfg.clone(), &g);
            let seq_runs: Vec<_> = sources.iter().map(|&s| seq.bfs(s)).collect();
            let mut bat = Engine::load(cfg, &g);
            let batch = bat.run_batch(
                sources
                    .iter()
                    .map(|&s| BfsProgram::new(&g, s))
                    .collect::<Vec<_>>(),
            );
            for (q, (sr, br)) in seq_runs.iter().zip(&batch.runs).enumerate() {
                assert_eq!(br.levels, sr.levels, "{mode:?} query {q}");
                assert_eq!(
                    br.stats.kernel_launches, sr.stats.kernel_launches,
                    "{mode:?} query {q} iteration count"
                );
                assert!(br.stats.shared_fetch, "batched stats must be flagged");
                assert!(!sr.stats.shared_fetch);
            }
            assert!(!batch.stats.shared_fetch, "batch total is not shared");
        }
    }

    #[test]
    fn batched_sssp_matches_sequential_and_reference() {
        let g = generators::uniform_random(400, 8, 5);
        let w = generate_weights(g.num_edges(), 5);
        let sources = [2u32, 9, 31];
        let mut seq = Engine::load(EngineConfig::emogi_v100(), &g);
        let seq_runs: Vec<_> = sources.iter().map(|&s| seq.sssp(&w, s)).collect();
        let mut bat = Engine::load(EngineConfig::emogi_v100(), &g);
        let batch = bat.run_batch(
            sources
                .iter()
                .map(|&s| SsspProgram::new(&g, &w, s))
                .collect::<Vec<_>>(),
        );
        for ((q, sr), br) in seq_runs.iter().enumerate().zip(&batch.runs) {
            assert_eq!(br.dist, sr.dist, "query {q}");
            assert_eq!(br.stats.kernel_launches, sr.stats.kernel_launches);
        }
        // And against the CPU reference, belt and braces.
        for (&s, br) in sources.iter().zip(&batch.runs) {
            let want = algo::sssp_distances(&g, &w, s);
            for (v, &expect) in want.iter().enumerate() {
                let got = if br.dist[v] == crate::sssp::INF {
                    algo::UNREACHABLE
                } else {
                    u64::from(br.dist[v])
                };
                assert_eq!(got, expect, "source {s} vertex {v}");
            }
        }
    }

    #[test]
    fn single_query_batch_is_tick_identical_to_a_solo_run() {
        let g = generators::uniform_random(600, 8, 9);
        let mut solo = Engine::load(EngineConfig::emogi_v100(), &g);
        let mut bat = Engine::load(EngineConfig::emogi_v100(), &g);
        let sr = solo.bfs(4);
        let br = bat.run_batch(vec![BfsProgram::new(&g, 4)]);
        assert_eq!(br.runs[0].levels, sr.levels);
        assert_eq!(br.stats.pcie_read_requests, sr.stats.pcie_read_requests);
        assert_eq!(br.stats.host_bytes, sr.stats.host_bytes);
        assert_eq!(br.stats.elapsed_ns, sr.stats.elapsed_ns);
    }

    #[test]
    fn overlapping_queries_fetch_fewer_pcie_bytes_than_sequential() {
        // Skewed graph, several sources: frontiers overlap heavily after
        // the first level, so the union fetch must beat Q solo fetches.
        // The cache is shrunk below the edge list so sequential queries
        // cannot just ride on warmed lines.
        let g = generators::kronecker(10, 8, 7);
        let sources = [0u32, 1, 2, 3, 4, 5, 6, 7];
        let mut cfg = EngineConfig::emogi_v100();
        cfg.machine.gpu.cache.capacity_bytes = 32 << 10;
        let mut seq = Engine::load(cfg.clone(), &g);
        let seq_bytes: u64 = sources.iter().map(|&s| seq.bfs(s).stats.host_bytes).sum();
        let mut bat = Engine::load(cfg, &g);
        let batch = bat.run_batch(
            sources
                .iter()
                .map(|&s| BfsProgram::new(&g, s))
                .collect::<Vec<_>>(),
        );
        assert!(
            batch.stats.host_bytes < seq_bytes,
            "batched {} must beat sequential {}",
            batch.stats.host_bytes,
            seq_bytes
        );
    }

    #[test]
    fn run_batch_degrades_gracefully_when_device_memory_is_exhausted() {
        // Hybrid engine on an oversubscribed graph: solo full-sweep runs
        // let the default transfer pool stage regions until device
        // memory is gone. A later batch must not crash on status-array
        // allocation — it falls back to smaller groups or solo runs,
        // still bit-identical.
        let g = generators::lognormal_dense(2_000, 60.0, 0.5, 16, 5);
        let mut cfg = EngineConfig::hybrid_v100();
        cfg.machine.gpu.cache.capacity_bytes = 64 << 10;
        cfg.machine.gpu.mem_bytes = 256 << 10;
        let mut bat = Engine::load(cfg.clone(), &g);
        let _ = bat.cc(); // full sweep: stages regions until the pool is dry
        let sources = [3u32, 11, 19, 27, 35, 43, 51, 59];
        assert!(
            bat.machine.spaces.device_free() < sources.len() as u64 * g.num_vertices() as u64 * 4,
            "scenario must leave too little device memory for a full batch"
        );
        let batch = bat.run_batch(
            sources
                .iter()
                .map(|&s| BfsProgram::new(&g, s))
                .collect::<Vec<_>>(),
        );
        let mut seq = Engine::load(cfg, &g);
        let _ = seq.cc();
        for (&s, br) in sources.iter().zip(&batch.runs) {
            let sr = seq.bfs(s);
            assert_eq!(br.levels, sr.levels, "source {s}");
            assert_eq!(br.stats.kernel_launches, sr.stats.kernel_launches);
        }
    }

    #[test]
    fn run_batch_on_a_uvm_engine_falls_back_to_solo_runs() {
        // After the first managed kernel the UVM driver freezes the
        // device layout, so no batch status arrays can be allocated:
        // the batch must serve solo, not panic.
        let g = generators::uniform_random(400, 6, 2);
        let mut engine = Engine::load(EngineConfig::uvm_v100(), &g);
        let _ = engine.bfs(0); // initializes the UVM driver
        let batch = engine.run_batch(vec![BfsProgram::new(&g, 3), BfsProgram::new(&g, 9)]);
        assert_eq!(batch.runs[0].levels, algo::bfs_levels(&g, 3));
        assert_eq!(batch.runs[1].levels, algo::bfs_levels(&g, 9));
        assert!(
            !batch.runs[0].stats.shared_fetch,
            "solo fallback shares nothing"
        );
    }

    #[test]
    #[should_panic(expected = "frontier-driven")]
    fn full_sweep_programs_are_rejected() {
        let g = generators::uniform_random(100, 4, 1);
        let mut e = Engine::load(EngineConfig::emogi_v100(), &g);
        let _ = e.run_batch(vec![crate::cc::CcProgram::new(&g)]);
    }
}
