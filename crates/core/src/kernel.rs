//! The one generic traversal kernel: any [`VertexProgram`] over any
//! [`AccessStrategy`].
//!
//! This collapses what used to be three near-identical kernel structs
//! (BFS / SSSP / CC each carried its own `Warp`/`Lanes` task enum, offset
//! loading and walk plumbing) into one. The *memory shape* of a launch is
//! algorithm-independent — per task: two 8-byte CSR offset loads (plus
//! the 4-byte own-status load for programs that declare it), then a
//! [`WarpWalk`] or [`LaneWalk`] over the neighbour list with a 4-byte
//! status gather per edge (plus the 4-byte edge-data stream for programs
//! that declare it), with conditional status stores. Only the per-edge
//! state update is the program's.

use crate::layout::GraphLayout;
use crate::program::{EdgeEffect, VertexProgram};
use crate::strategy::AccessStrategy;
use crate::walk::{LaneWalk, WarpWalk};
use emogi_gpu::access::{AccessBatch, Space, WARP_SIZE};
use emogi_graph::{CsrGraph, VertexId};
use emogi_runtime::{Kernel, StepOutcome};

/// One sharded work item: expand edge-list elements `lo..hi` of vertex
/// `v`'s neighbour list (a sub-range when a mega-hub's list is split
/// cooperatively across devices, the full list otherwise).
pub type WorkSlice = (VertexId, u64, u64);

/// The vertices one launch iterates over.
#[derive(Debug, Clone, Copy)]
pub enum WorkList<'a> {
    /// Frontier-driven: this iteration's active vertices.
    Frontier(&'a [VertexId]),
    /// Full sweep: the contiguous vertex range `lo..hi` a device owns
    /// (`0..n` on a single device).
    Range(VertexId, VertexId),
    /// Frontier-driven, as explicit `(vertex, edge lo, edge hi)` work
    /// items, one per (possibly partial) neighbour-list walk.
    Slices(&'a [WorkSlice]),
}

impl WorkList<'_> {
    /// Number of work items.
    pub(crate) fn len(&self) -> usize {
        match self {
            WorkList::Frontier(f) => f.len(),
            WorkList::Range(lo, hi) => (hi - lo) as usize,
            WorkList::Slices(s) => s.len(),
        }
    }

    /// The vertex of work item `i`.
    pub(crate) fn get(&self, i: usize) -> VertexId {
        match self {
            WorkList::Frontier(f) => f[i],
            WorkList::Range(lo, _) => lo + i as VertexId,
            WorkList::Slices(s) => s[i].0,
        }
    }

    /// The edge-list element range work item `i` walks: the vertex's
    /// whole neighbour list, or the explicit slice of a split one.
    fn item_range(&self, graph: &CsrGraph, i: usize) -> (u64, u64) {
        match self {
            WorkList::Slices(s) => (s[i].1, s[i].2),
            _ => {
                let v = self.get(i);
                (graph.neighbor_start(v), graph.neighbor_end(v))
            }
        }
    }

    /// The edge-list byte ranges a launch over this list reads, for
    /// transfer planning: one per work item, except that a vertex range
    /// reads one dense span.
    pub(crate) fn edge_bytes<'g>(
        self,
        graph: &'g CsrGraph,
        elem_bytes: u64,
    ) -> impl Iterator<Item = (u64, u64)> + 'g
    where
        Self: 'g,
    {
        let spans = match self {
            WorkList::Range(lo, hi) => usize::from(lo < hi),
            _ => self.len(),
        };
        (0..spans).map(move |i| {
            let (lo, hi) = match self {
                WorkList::Range(lo, hi) => (graph.neighbor_start(lo), graph.neighbor_end(hi - 1)),
                _ => self.item_range(graph, i),
            };
            (lo * elem_bytes, hi * elem_bytes)
        })
    }
}

/// Task state: offset loading, then list walking.
///
/// The naive variant carries 32 lane cursors and is much larger than the
/// warp variant; tasks live in pre-sized executor slots, so the size
/// difference is intentional and harmless.
#[allow(clippy::large_enum_variant)]
pub enum ProgramTask<C> {
    /// Merged/aligned: a warp on one vertex (or one slice of a split
    /// mega-hub list).
    Warp {
        /// The vertex this warp expands.
        v: VertexId,
        /// The vertex's iteration-start context.
        ctx: C,
        /// Edge-list element range this task walks (the vertex's whole
        /// neighbour list, or its slice of a cooperatively split one).
        range: (u64, u64),
        /// Neighbour-list sweep state (`None` until the offsets loaded).
        walk: Option<WarpWalk>,
    },
    /// Naive: 32 lanes on 32 vertices.
    Lanes {
        /// The vertices, one per lane.
        vs: Vec<VertexId>,
        /// Their iteration-start contexts, parallel to `vs`.
        ctxs: Vec<C>,
        /// Per-lane edge-list element ranges, parallel to `vs`.
        ranges: Vec<(u64, u64)>,
        /// Per-lane cursor state (`None` until the offsets loaded).
        walk: Option<LaneWalk>,
    },
}

/// One launch of `program` over `work`.
pub struct ProgramKernel<'a, P: VertexProgram> {
    graph: &'a CsrGraph,
    layout: &'a GraphLayout,
    strategy: AccessStrategy,
    program: &'a mut P,
    work: WorkList<'a>,
    /// Per-work-item contexts, captured at kernel construction (i.e. at
    /// iteration start) so a launch's semantics are a pure function of
    /// the iteration-start program state — independent of how warp tasks
    /// interleave in the simulated machine. This is what makes batched
    /// multi-query execution ([`crate::batch`]) bit-identical to
    /// sequential runs.
    ctxs: Vec<P::Ctx>,
    /// Vertices activated this launch (frontier-driven programs).
    next_frontier: &'a mut Vec<VertexId>,
    pos: usize,
    loaded_scratch: Vec<(u64, u8)>,
    /// Cached program capability flags (hot path).
    edge_data: bool,
    source_status: bool,
    /// Full sweeps re-enumerate every vertex anyway, so activations are
    /// meaningless there — don't collect them.
    collect_activations: bool,
}

impl<'a, P: VertexProgram> ProgramKernel<'a, P> {
    /// Build one launch of `program` over `work`. Captures every work
    /// item's [`VertexProgram::source_ctx`] up front (iteration start).
    pub fn new(
        graph: &'a CsrGraph,
        layout: &'a GraphLayout,
        strategy: AccessStrategy,
        program: &'a mut P,
        work: WorkList<'a>,
        next_frontier: &'a mut Vec<VertexId>,
    ) -> Self {
        let ctxs = (0..work.len())
            .map(|i| program.source_ctx(work.get(i)))
            .collect();
        Self::with_ctxs(graph, layout, strategy, program, work, ctxs, next_frontier)
    }

    /// Build one launch over `work` with **pre-captured** contexts,
    /// parallel to the work list. The iteration driver uses this: in a
    /// multi-device iteration every device's contexts must be captured
    /// *before any device's kernel runs* — capturing lazily per device
    /// would let an earlier device's updates leak into a later device's
    /// iteration-start state, breaking bit-identity with a single
    /// device.
    // Like the batch kernel: one borrow per engine-owned resource.
    #[allow(clippy::too_many_arguments)]
    pub fn with_ctxs(
        graph: &'a CsrGraph,
        layout: &'a GraphLayout,
        strategy: AccessStrategy,
        program: &'a mut P,
        work: WorkList<'a>,
        ctxs: Vec<P::Ctx>,
        next_frontier: &'a mut Vec<VertexId>,
    ) -> Self {
        let edge_data = program.uses_edge_data();
        if edge_data {
            assert!(
                layout.weight_base.is_some(),
                "program needs edge data but none is placed"
            );
        }
        assert_eq!(ctxs.len(), work.len(), "one context per work item");
        let source_status = program.reads_source_status();
        let collect_activations = !matches!(work, WorkList::Range(..));
        Self {
            graph,
            layout,
            strategy,
            program,
            work,
            ctxs,
            next_frontier,
            pos: 0,
            loaded_scratch: Vec::with_capacity(WARP_SIZE),
            edge_data,
            source_status,
            collect_activations,
        }
    }

    /// Task-start loads for vertex `v`: the two CSR offsets, and the own
    /// status entry for programs that read it.
    fn open_vertex(&mut self, v: VertexId, batch: &mut AccessBatch) {
        batch.load(self.layout.vertex_addr(u64::from(v)), 8, Space::Device);
        batch.load(self.layout.vertex_addr(u64::from(v) + 1), 8, Space::Device);
        if self.source_status {
            batch.load(self.layout.status_addr(u64::from(v)), 4, Space::Device);
        }
    }

    /// Process the semantics of edge-list element `i` from source `src`:
    /// emit the destination-status gather, run the program's update, emit
    /// the traffic of its effect. `instr` separates the gathers of
    /// different loop iterations.
    fn visit_edge(
        &mut self,
        i: u64,
        src: VertexId,
        ctx: P::Ctx,
        instr: u8,
        batch: &mut AccessBatch,
    ) {
        let dst = self.graph.edge_dst(i);
        batch.load_instr(
            self.layout.status_addr(u64::from(dst)),
            4,
            Space::Device,
            instr,
        );
        match self.program.edge(i, src, dst, ctx) {
            EdgeEffect::None => {}
            EdgeEffect::UpdateDst { activate } => {
                batch.store(self.layout.status_addr(u64::from(dst)), 4, Space::Device);
                if activate && self.collect_activations {
                    self.next_frontier.push(dst);
                }
            }
            EdgeEffect::UpdateSrc => {
                batch.store(self.layout.status_addr(u64::from(src)), 4, Space::Device);
            }
        }
    }
}

impl<P: VertexProgram> Kernel for ProgramKernel<'_, P> {
    type Task = ProgramTask<P::Ctx>;

    fn next_task(&mut self) -> Option<Self::Task> {
        let n = self.work.len();
        if self.pos >= n {
            return None;
        }
        if self.strategy.warp_per_vertex() {
            let v = self.work.get(self.pos);
            let ctx = self.ctxs[self.pos];
            let range = self.work.item_range(self.graph, self.pos);
            self.pos += 1;
            Some(ProgramTask::Warp {
                v,
                ctx,
                range,
                walk: None,
            })
        } else {
            let hi = (self.pos + WARP_SIZE).min(n);
            let vs: Vec<VertexId> = (self.pos..hi).map(|i| self.work.get(i)).collect();
            let ctxs = self.ctxs[self.pos..hi].to_vec();
            let ranges: Vec<(u64, u64)> = (self.pos..hi)
                .map(|i| self.work.item_range(self.graph, i))
                .collect();
            self.pos = hi;
            Some(ProgramTask::Lanes {
                vs,
                ctxs,
                ranges,
                walk: None,
            })
        }
    }

    fn step(&mut self, task: &mut Self::Task, batch: &mut AccessBatch) -> StepOutcome {
        match task {
            ProgramTask::Warp {
                v,
                ctx,
                range,
                walk,
            } => {
                let Some(w) = walk else {
                    let (start, end) = *range;
                    self.open_vertex(*v, batch);
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
                let c = *ctx;
                let src = *v;
                for i in lo..hi {
                    self.visit_edge(i, src, c, 128, batch);
                }
                if w.is_done() {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            ProgramTask::Lanes {
                vs,
                ctxs,
                ranges,
                walk,
            } => {
                let Some(w) = walk else {
                    for &v in vs.iter() {
                        self.open_vertex(v, batch);
                    }
                    let lw = LaneWalk::new(ranges);
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
                    // Identify which lane (= which source vertex) the
                    // element belongs to for the correct context.
                    let lane = vs
                        .iter()
                        .position(|&v| {
                            i >= self.graph.neighbor_start(v) && i < self.graph.neighbor_end(v)
                        })
                        .expect("element belongs to some lane");
                    self.visit_edge(i, vs[lane], ctxs[lane], 128 + iter, batch);
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
    use crate::layout::EdgePlacement;
    use emogi_graph::{algo, generators, UNVISITED};
    use emogi_runtime::machine::MachineConfig;
    use emogi_runtime::{exec, Machine};

    #[test]
    fn worklists_enumerate_their_vertices() {
        let f = [3u32, 9, 11];
        let wl = WorkList::Frontier(&f);
        assert_eq!(wl.len(), 3);
        assert_eq!(wl.get(2), 11);
        let range = WorkList::Range(7, 12);
        assert_eq!(range.len(), 5);
        assert_eq!(range.get(0), 7);
        assert_eq!(range.get(4), 11);
    }

    /// Drive the generic kernel directly (no engine) through a full BFS,
    /// for every strategy — the seam the engine builds on.
    #[test]
    fn generic_kernel_runs_a_program_standalone() {
        for strategy in AccessStrategy::all() {
            let g = generators::uniform_random(500, 6, 42);
            let mut m = Machine::new(MachineConfig::v100_gen3());
            let layout = GraphLayout::place(&mut m, &g, 8, EdgePlacement::ZeroCopyHost, false);
            let mut prog = BfsProgram::new(&g, 3);
            let mut frontier = vec![3u32];
            while !frontier.is_empty() {
                prog.begin_iteration();
                let mut next = Vec::new();
                let mut k = ProgramKernel::new(
                    &g,
                    &layout,
                    strategy,
                    &mut prog,
                    WorkList::Frontier(&frontier),
                    &mut next,
                );
                exec::run_kernel(&mut m, &mut k);
                next.sort_unstable();
                frontier = next;
            }
            let out = prog.finish();
            assert_eq!(out.levels, algo::bfs_levels(&g, 3), "{strategy:?}");
            assert!(m.monitor.read_requests > 0);
            assert!(out.levels.contains(&UNVISITED) || !out.levels.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "edge data")]
    fn edge_data_program_requires_placed_weights() {
        use crate::sssp::SsspProgram;
        let g = generators::uniform_random(50, 4, 1);
        let w = vec![1u32; g.num_edges()];
        let mut m = Machine::new(MachineConfig::v100_gen3());
        // Placed *without* the weight array.
        let layout = GraphLayout::place(&mut m, &g, 8, EdgePlacement::ZeroCopyHost, false);
        let mut prog = SsspProgram::new(&g, &w, 0);
        let frontier = vec![0u32];
        let mut next = Vec::new();
        let _ = ProgramKernel::new(
            &g,
            &layout,
            AccessStrategy::MergedAligned,
            &mut prog,
            WorkList::Frontier(&frontier),
            &mut next,
        );
    }
}
