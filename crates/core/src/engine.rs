//! The place-once, query-many traversal engine.
//!
//! One [`Engine`] owns a simulated machine with a graph placed on it
//! (§4.2's layout) and runs any [`VertexProgram`] against it, launching
//! one kernel per iteration — BFS level, SSSP relaxation round, CC hook
//! pass, PageRank power iteration — mirroring the paper's execution
//! structure. The graph is placed **once** at [`Engine::load`]; every
//! subsequent [`Engine::run`] reuses the placement, the warmed cache and
//! (in hybrid mode) the already-staged regions, which is what makes
//! multi-query scenarios (analytics serving, multi-source BFS) cheap.
//!
//! A solo run is the crate's one iteration driver over a one-device
//! group: one machine, a one-part vertex partition, no exchange — the
//! same stages (active-vertex scan, transfer planning from the work
//! items' byte ranges, launch, the program's device-side inter-launch
//! work) a [`ShardedEngine`](crate::ShardedEngine) runs per device.
//! [`Engine::run_batch`] reuses those stages over the union of a batch's
//! frontiers.

use crate::batch::BatchRun;
use crate::bfs::{BfsOutput, BfsProgram};
use crate::cc::{CcOutput, CcProgram};
use crate::driver::{apply_device_work, charge_vertex_scan, Device, Driver};
use crate::kernel::WorkList;
use crate::layout::{EdgePlacement, GraphLayout};
use crate::pagerank::{PageRankOutput, PageRankProgram};
use crate::program::{AccessPattern, DeviceWork, VertexProgram};
use crate::sssp::{SsspOutput, SsspProgram};
use crate::strategy::{AccessMode, AccessStrategy};
use emogi_graph::{CsrGraph, VertexId, VertexPartition};
use emogi_runtime::exec::run_kernel;
use emogi_runtime::machine::MachineConfig;
use emogi_runtime::report::RunStats;
use emogi_runtime::{Machine, PrefetchConfig, TransferConfig};

/// How to build an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated platform (GPU, PCIe link, host DRAM, UVM template).
    pub machine: MachineConfig,
    /// Kernel-level access strategy (Naive / Merged / Merged+Aligned).
    pub strategy: AccessStrategy,
    /// Where the edge list lives (pinned host vs managed memory).
    pub placement: EdgePlacement,
    /// Simulated edge element size: 8 by default, 4 for the Subway
    /// comparison (§5.6).
    pub elem_bytes: u64,
    /// Hybrid mode: stage hot edge-list regions into device memory via
    /// the runtime's transfer manager. Requires `ZeroCopyHost` placement.
    pub transfer: Option<TransferConfig>,
    /// Pipelined execution: overlap hybrid staging DMA with kernel
    /// compute by speculatively prefetching predicted-reuse regions onto
    /// an asynchronous copy lane. Inert unless `transfer` is also set —
    /// the knob can therefore stay on while sweeping access modes, and
    /// only the hybrid mode pipelines. Outputs, iteration counts and
    /// traffic counters are bit-identical to the synchronous path; only
    /// elapsed time (and the [`RunStats::prefetch`] counters) change.
    pub pipeline: Option<PrefetchConfig>,
    /// Frontier access reordering: sort each iteration's work by the
    /// cache segment (one L2 capacity's worth of edge-list bytes) its
    /// first edge-list access lands in, grouping warps whose reads share
    /// lines. A pure function of iteration-start state (see
    /// [`crate::reorder`]), so outputs and iteration counts are
    /// bit-identical with the knob on or off; traffic statistics and
    /// timing may differ. Off by default.
    pub frontier_reorder: bool,
}

impl EngineConfig {
    /// EMOGI as evaluated: V100, PCIe 3.0, merged + aligned zero-copy.
    pub fn emogi_v100() -> Self {
        Self {
            machine: MachineConfig::v100_gen3(),
            strategy: AccessStrategy::MergedAligned,
            placement: EdgePlacement::ZeroCopyHost,
            elem_bytes: 8,
            transfer: None,
            pipeline: None,
            frontier_reorder: false,
        }
    }

    /// The paper's optimized UVM baseline: same kernels, edge list in
    /// managed memory with read-duplication (§5.1.2 (a)).
    pub fn uvm_v100() -> Self {
        Self {
            machine: MachineConfig::v100_gen3(),
            strategy: AccessStrategy::Merged,
            placement: EdgePlacement::Uvm,
            elem_bytes: 8,
            transfer: None,
            pipeline: None,
            frontier_reorder: false,
        }
    }

    /// Hybrid transport on the V100 platform: merged + aligned kernels,
    /// with dense / recurring edge-list regions bulk-staged into device
    /// memory and the rest read zero-copy.
    pub fn hybrid_v100() -> Self {
        Self::emogi_v100().with_mode(AccessMode::Hybrid)
    }

    /// Pipelined hybrid transport on the V100 platform:
    /// [`hybrid_v100`](Self::hybrid_v100) with staging DMA overlapped
    /// behind kernel compute via the default prefetcher.
    pub fn pipelined_v100() -> Self {
        Self::hybrid_v100().with_pipeline(PrefetchConfig::default())
    }

    /// Replace only the kernel-level access strategy.
    pub fn with_strategy(mut self, s: AccessStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Select a full access mode. A mode bundles kernel strategy *and*
    /// transport, so this always sets `ZeroCopyHost` placement —
    /// overwriting a previously configured UVM placement — and clears
    /// any transfer manager for the three pure zero-copy modes;
    /// `Hybrid` installs the default one. To vary only the kernel
    /// strategy of a UVM configuration, use
    /// [`with_strategy`](Self::with_strategy) instead.
    pub fn with_mode(mut self, mode: AccessMode) -> Self {
        self.strategy = mode.strategy();
        self.placement = EdgePlacement::ZeroCopyHost;
        self.transfer = mode.is_hybrid().then(TransferConfig::default);
        self
    }

    /// Install a custom hybrid transfer configuration.
    pub fn with_transfer(mut self, transfer: TransferConfig) -> Self {
        self.transfer = Some(transfer);
        self
    }

    /// Enable pipelined execution with `pipeline` (see
    /// [`EngineConfig::pipeline`]; inert unless a transfer manager is
    /// configured too). [`with_mode`](Self::with_mode) does not clear
    /// this knob, so it composes with mode sweeps.
    pub fn with_pipeline(mut self, pipeline: PrefetchConfig) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Enable pipelined execution with the default prefetcher.
    pub fn pipelined(self) -> Self {
        self.with_pipeline(PrefetchConfig::default())
    }

    /// Toggle frontier access reordering (see
    /// [`EngineConfig::frontier_reorder`]).
    pub fn with_frontier_reorder(mut self, on: bool) -> Self {
        self.frontier_reorder = on;
        self
    }

    /// Replace the simulated platform.
    pub fn with_machine(mut self, m: MachineConfig) -> Self {
        self.machine = m;
        self
    }

    /// Set the simulated edge element size (8, or 4 for §5.6 protocols).
    pub fn with_elem_bytes(mut self, b: u64) -> Self {
        self.elem_bytes = b;
        self
    }
}

/// Result of one program execution: the program's output plus the run's
/// measurements (which carry their own transfer counters — hybrid runs
/// fill [`RunStats::transfer`], everything else leaves it zeroed).
///
/// `Run` derefs to the output, so `run.levels` / `run.dist` / `run.comp`
/// read exactly like the pre-redesign result structs.
#[derive(Debug, Clone)]
pub struct Run<O> {
    /// The program's output (levels, distances, labels, ranks, ...).
    pub output: O,
    /// The run's measurements.
    pub stats: RunStats,
}

impl<O> std::ops::Deref for Run<O> {
    type Target = O;

    fn deref(&self) -> &O {
        &self.output
    }
}

/// Result of one full BFS.
pub type BfsRun = Run<BfsOutput>;
/// Result of one full SSSP.
pub type SsspRun = Run<SsspOutput>;
/// Result of one full CC.
pub type CcRun = Run<CcOutput>;
/// Result of one full PageRank.
pub type PageRankRun = Run<PageRankOutput>;

/// A graph placed on a machine, ready to run any [`VertexProgram`].
///
/// ```
/// use emogi_core::{BfsProgram, Engine, EngineConfig};
/// use emogi_graph::{algo, generators};
///
/// let graph = generators::uniform_random(2_000, 8, 7);
/// // Place the graph once ...
/// let mut engine = Engine::load(EngineConfig::emogi_v100(), &graph);
/// // ... then serve as many queries as you like against the placement.
/// for src in [0u32, 17, 99] {
///     let run = engine.run(BfsProgram::new(&graph, src));
///     assert_eq!(run.levels, algo::bfs_levels(&graph, src));
///     assert!(run.stats.elapsed_ns > 0);
/// }
/// ```
pub struct Engine<'g> {
    /// The simulated machine the graph is placed on.
    pub machine: Machine,
    /// The placement and the iteration driver, over this one device.
    driver: Driver<'g>,
    /// Device status arrays for batched multi-query execution, one per
    /// query slot, allocated on first use and reused across batches.
    batch_status: Vec<u64>,
}

impl<'g> Engine<'g> {
    /// Place `graph` on a machine built from `cfg`. Auxiliary edge data
    /// (SSSP's weight array) is placed on demand by the first program
    /// that declares it — weights are a program input, not an engine
    /// field.
    pub fn load(cfg: EngineConfig, graph: &'g CsrGraph) -> Self {
        let mut machine = Machine::new(cfg.machine.clone());
        let partition = VertexPartition::contiguous(graph.num_vertices(), 1);
        let driver = Driver::load(&cfg, graph, std::slice::from_mut(&mut machine), partition);
        Self {
            machine,
            driver,
            batch_status: Vec::new(),
        }
    }

    /// The placed graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.driver.graph
    }

    /// Where the graph's arrays live on the machine.
    pub fn layout(&self) -> &GraphLayout {
        &self.device().layout
    }

    /// The kernel-level access strategy every run uses.
    pub fn strategy(&self) -> AccessStrategy {
        self.driver.strategy
    }

    fn device(&self) -> &Device {
        &self.driver.devices[0]
    }

    /// Effective host-link payload bandwidth in bytes per simulated
    /// nanosecond (numerically equal to usable GB/s). The serving
    /// layer's cost-model admission uses this to convert an estimated
    /// `iterations × frontier-bytes` workload into simulated time
    /// before accepting a deadline.
    pub fn link_bytes_per_ns(&self) -> f64 {
        self.machine.cfg.pcie.usable_gbps()
    }

    /// Edge-list bytes as placed (the Figure 10 denominator).
    pub fn dataset_bytes(&self) -> u64 {
        let (graph, layout) = (self.graph(), self.layout());
        let mut b = graph.edge_list_bytes(layout.elem_bytes);
        if layout.weight_base.is_some() {
            b += graph.num_edges() as u64 * 4;
        }
        b
    }

    /// Run `program` to convergence against the placed graph. One generic
    /// driver serves every program; there are no per-algorithm branches —
    /// only pattern dispatch on the program's declared [`AccessPattern`].
    pub fn run<P: VertexProgram>(&mut self, program: P) -> Run<P::Output> {
        let run = self
            .driver
            .run(std::slice::from_mut(&mut self.machine), None, program);
        let [stats] = <[RunStats; 1]>::try_from(run.per_device).expect("one device");
        Run {
            output: run.output,
            stats,
        }
    }

    /// Ensure up to `want` device status arrays for batched execution,
    /// reused across batches (the simulated allocator never frees). In
    /// hybrid mode the transfer manager's staging pool is shrunk by the
    /// same amount, so staging can never outrun the real device
    /// capacity. Best-effort: allocation stops when device memory is
    /// exhausted (e.g. staging already filled it) or when the UVM driver
    /// has pinned the device layout; returns the number of usable slots,
    /// possibly less than `want` — [`run_batch`](Self::run_batch) splits
    /// the batch or falls back to solo runs accordingly.
    fn ensure_batch_status(&mut self, want: usize) -> usize {
        let bytes = self.graph().num_vertices() as u64 * 4;
        let need = bytes.div_ceil(128) * 128;
        while self.batch_status.len() < want {
            if self.machine.uvm.is_some() || self.machine.spaces.device_free() < need {
                break;
            }
            let base = self.machine.alloc_device(bytes);
            if let Some(tm) = self.driver.devices[0].transfer.as_mut() {
                tm.reserve(bytes);
            }
            self.batch_status.push(base);
        }
        self.batch_status.len().min(want)
    }

    /// Run a batch of same-type frontier-driven programs concurrently
    /// over the shared placement: each iteration launches one
    /// [`BatchKernel`](crate::batch::BatchKernel) over the **union** of
    /// the still-active queries'
    /// frontiers, so an edge-list region crosses PCIe once per iteration
    /// no matter how many queries read it.
    ///
    /// Per-query results (outputs *and* iteration counts) are
    /// bit-identical to running the same programs one at a time via
    /// [`run`](Self::run) — contexts are captured at iteration start and
    /// the shipped frontier-driven programs' per-edge updates are
    /// commutative within an iteration, so a query cannot observe its
    /// batch neighbours. Each query's [`RunStats`] accumulates the
    /// machine diff of the iterations it was active in, flagged
    /// [`shared_fetch`](RunStats::shared_fetch); the returned
    /// [`BatchRun::stats`] is the batch-level total in which every
    /// shared fetch is counted exactly once.
    ///
    /// Each query slot needs its own device status array. When device
    /// memory cannot hold one per query — hybrid staging already filled
    /// it, or the UVM driver froze the device layout — the batch
    /// degrades gracefully: it splits into groups sized to the slots
    /// that fit, down to plain back-to-back solo runs. Results are
    /// bit-identical in every case; only the fetch sharing shrinks.
    ///
    /// Panics if the batch is empty, exceeds
    /// [`MAX_BATCH_QUERIES`](crate::batch::MAX_BATCH_QUERIES), or
    /// contains a [`AccessPattern::FullSweep`] program (full sweeps read
    /// everything every launch — there is no frontier to merge; run them
    /// solo).
    pub fn run_batch<P: VertexProgram>(&mut self, programs: Vec<P>) -> BatchRun<P::Output> {
        assert!(!programs.is_empty(), "empty batch");
        assert!(
            programs.len() <= crate::batch::MAX_BATCH_QUERIES,
            "batch exceeds {} queries",
            crate::batch::MAX_BATCH_QUERIES
        );
        for p in &programs {
            assert_eq!(
                p.pattern(),
                AccessPattern::FrontierDriven,
                "batched execution requires frontier-driven programs"
            );
        }
        if programs[0].uses_edge_data() {
            self.driver
                .ensure_edge_data(std::slice::from_mut(&mut self.machine));
        }
        // Best-effort slot acquisition: device memory may already be
        // exhausted (hybrid staging on an oversubscribed graph) or
        // frozen (UVM driver initialized). Degrade instead of crashing:
        // split the batch into groups that fit, or — with no slot at
        // all — serve the queries back-to-back through the solo path.
        // Results stay bit-identical either way; only the sharing (and
        // its savings) shrinks.
        let slots = self.ensure_batch_status(programs.len());

        let base = self.device().counters(&self.machine);
        let mut runs: Vec<Run<P::Output>> = Vec::with_capacity(programs.len());
        let mut total_launches = 0u64;
        if slots == 0 {
            for p in programs {
                let run = self.run(p);
                total_launches += run.stats.kernel_launches;
                runs.push(run);
            }
        } else {
            let mut programs = programs;
            while !programs.is_empty() {
                let rest = programs.split_off(slots.min(programs.len()));
                runs.extend(self.run_batch_group(programs, &mut total_launches));
                programs = rest;
            }
        }
        let stats = self.device().measure(&self.machine, &base, total_launches);
        BatchRun { runs, stats }
    }

    /// One group of the batch, sized to the available status slots. Only
    /// the union merge, the batch kernel and per-query attribution are
    /// batch-specific; the scan, planning, device-work and measurement
    /// stages are the iteration driver's.
    fn run_batch_group<P: VertexProgram>(
        &mut self,
        mut programs: Vec<P>,
        total_launches: &mut u64,
    ) -> Vec<Run<P::Output>> {
        let nq = programs.len();
        let graph = self.graph();
        let mut frontiers: Vec<Vec<VertexId>> = programs
            .iter()
            .map(|p| {
                let mut f = p.initial_frontier();
                f.sort_unstable();
                f.dedup();
                f
            })
            .collect();
        let mut next: Vec<Vec<VertexId>> = vec![Vec::new(); nq];
        // A batch of one shares its fetches with nobody; only real
        // multi-query batches flag their per-query stats.
        let mut per_stats: Vec<RunStats> = vec![
            RunStats {
                shared_fetch: nq > 1,
                ..RunStats::default()
            };
            nq
        ];
        let mut work = DeviceWork::default();
        let mut union: Vec<VertexId> = Vec::new();
        let mut masks: Vec<u64> = Vec::new();
        let machines = std::slice::from_mut(&mut self.machine);
        let dev = &mut self.driver.devices[0];
        loop {
            crate::batch::merge_frontiers(&frontiers, &mut union, &mut masks);
            if union.is_empty() {
                break;
            }
            if let Some(seg) = self.driver.reorder_segment {
                crate::reorder::reorder_union(&dev.layout, graph, &mut union, &mut masks, seg);
            }
            let active: Vec<usize> = (0..nq).filter(|&q| !frontiers[q].is_empty()).collect();
            let base = dev.counters(&machines[0]);
            // The active-vertex scan runs per query (each query's status
            // array is scanned for its own frontier), exactly as many
            // times as the sequential runs would pay it — batching saves
            // edge fetches, not bookkeeping.
            for _ in &active {
                charge_vertex_scan(&mut machines[0], graph.num_vertices());
            }
            dev.plan(&mut machines[0], graph, WorkList::Frontier(&union));
            for &q in &active {
                programs[q].begin_iteration();
            }
            let mut kernel = crate::batch::BatchKernel::new(
                graph,
                &dev.layout,
                self.driver.strategy,
                &mut programs,
                &self.batch_status,
                &union,
                &masks,
                &mut next,
            );
            run_kernel(&mut machines[0], &mut kernel);
            *total_launches += 1;
            for &q in &active {
                apply_device_work(machines, &mut programs[q], &mut work);
            }
            let iter_stats = dev.measure(&machines[0], &base, 1);
            for &q in &active {
                per_stats[q].accumulate(&iter_stats);
                next[q].sort_unstable();
                next[q].dedup();
                std::mem::swap(&mut frontiers[q], &mut next[q]);
                next[q].clear();
            }
        }
        programs
            .into_iter()
            .zip(per_stats)
            .map(|(p, stats)| Run {
                output: p.finish(),
                stats,
            })
            .collect()
    }

    /// Full BFS from `src`; one kernel launch per level.
    pub fn bfs(&mut self, src: VertexId) -> BfsRun {
        self.run(BfsProgram::new(self.graph(), src))
    }

    /// Full SSSP from `src` with per-edge `weights`; relaxation rounds
    /// until no distance changes.
    pub fn sssp(&mut self, weights: &[u32], src: VertexId) -> SsspRun {
        self.run(SsspProgram::new(self.graph(), weights, src))
    }

    /// Full CC; hook passes over the whole edge list until stable, with a
    /// device-side pointer-jumping shortcut after each pass.
    pub fn cc(&mut self) -> CcRun {
        self.run(CcProgram::new(self.graph()))
    }

    /// PageRank: `iterations` damped power iterations over the full edge
    /// list.
    pub fn pagerank(&mut self, damping: f64, iterations: u32) -> PageRankRun {
        self.run(PageRankProgram::new(self.graph(), damping, iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::INF;
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{algo, generators};

    #[test]
    fn emogi_bfs_matches_reference_end_to_end() {
        let g = generators::kronecker(9, 8, 21);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.bfs(1);
        assert_eq!(run.levels, algo::bfs_levels(&g, 1));
        assert!(run.stats.elapsed_ns > 0);
        assert!(run.stats.kernel_launches > 0);
        assert!(run.stats.pcie_read_requests > 0);
        assert_eq!(run.stats.page_faults, 0, "zero-copy never faults");
        assert_eq!(run.stats.transfer.staged_regions, 0, "no transfer manager");
    }

    #[test]
    fn uvm_bfs_matches_reference_and_faults() {
        let g = generators::kronecker(9, 8, 21);
        let mut engine = Engine::load(EngineConfig::uvm_v100(), &g);
        let run = engine.bfs(1);
        assert_eq!(run.levels, algo::bfs_levels(&g, 1));
        assert!(run.stats.page_faults > 0, "UVM must fault pages in");
        assert!(run.stats.pages_migrated > 0);
        assert_eq!(
            run.stats.pcie_read_requests, 0,
            "UVM traffic is migrations, not zero-copy reads"
        );
    }

    #[test]
    fn emogi_sssp_matches_reference() {
        let g = generators::uniform_random(300, 8, 3);
        let w = generate_weights(g.num_edges(), 3);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.sssp(&w, 5);
        let expect = algo::sssp_distances(&g, &w, 5);
        for (v, &want) in expect.iter().enumerate() {
            let got = if run.dist[v] == INF {
                algo::UNREACHABLE
            } else {
                u64::from(run.dist[v])
            };
            assert_eq!(got, want, "vertex {v}");
        }
    }

    #[test]
    fn emogi_cc_matches_reference() {
        let g = generators::uniform_random(400, 4, 8);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.cc();
        assert_eq!(run.comp, algo::cc_labels(&g));
        assert!(run.hook_passes >= 2);
    }

    #[test]
    fn second_bfs_reuses_the_machine() {
        let g = generators::uniform_random(300, 6, 2);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let a = engine.bfs(0);
        let b = engine.bfs(10);
        assert_eq!(b.levels, algo::bfs_levels(&g, 10));
        // Stats are per-run, not cumulative; and this tiny edge list fits
        // in the cache, so the second traversal rides on warmed lines.
        assert!(b.stats.elapsed_ns > 0);
        assert!(a.stats.host_bytes > 0);
        assert!(
            b.stats.host_bytes < a.stats.host_bytes,
            "second run should benefit from the warm cache"
        );
    }

    #[test]
    fn one_engine_serves_many_programs() {
        // The place-once, query-many promise: a single placement runs
        // BFS, SSSP, CC and PageRank back to back, each matching its
        // CPU reference, with edge data placed on demand by SSSP.
        let g = generators::uniform_random(400, 4, 8);
        let w = generate_weights(g.num_edges(), 8);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        assert!(engine.layout().weight_base.is_none());

        let bfs = engine.bfs(0);
        assert_eq!(bfs.levels, algo::bfs_levels(&g, 0));

        let sssp = engine.sssp(&w, 0);
        assert!(
            engine.layout().weight_base.is_some(),
            "edge data placed on demand"
        );
        let expect = algo::sssp_distances(&g, &w, 0);
        for (v, &want) in expect.iter().enumerate() {
            let got = if sssp.dist[v] == INF {
                algo::UNREACHABLE
            } else {
                u64::from(sssp.dist[v])
            };
            assert_eq!(got, want, "vertex {v}");
        }

        let cc = engine.cc();
        assert_eq!(cc.comp, algo::cc_labels(&g));

        let pr = engine.pagerank(0.85, 15);
        let want = algo::pagerank(&g, 0.85, 15);
        for (v, &r) in pr.ranks.iter().enumerate() {
            assert!((r - want[v]).abs() < 1e-9, "vertex {v}: {r} vs {}", want[v]);
        }
    }

    #[test]
    fn hybrid_bfs_matches_reference() {
        let g = generators::kronecker(9, 8, 21);
        let mut engine = Engine::load(EngineConfig::hybrid_v100(), &g);
        let run = engine.bfs(1);
        assert_eq!(run.levels, algo::bfs_levels(&g, 1));
        assert_eq!(run.stats.page_faults, 0, "hybrid never touches UVM");
        assert!(run.stats.elapsed_ns > 0);
    }

    #[test]
    fn hybrid_sssp_and_cc_match_reference() {
        let g = generators::uniform_random(300, 8, 3);
        let w = generate_weights(g.num_edges(), 3);
        let mut engine = Engine::load(EngineConfig::hybrid_v100(), &g);
        let run = engine.sssp(&w, 5);
        let expect = algo::sssp_distances(&g, &w, 5);
        for (v, &want) in expect.iter().enumerate() {
            let got = if run.dist[v] == INF {
                algo::UNREACHABLE
            } else {
                u64::from(run.dist[v])
            };
            assert_eq!(got, want, "vertex {v}");
        }
        let g2 = generators::uniform_random(400, 4, 8);
        let mut engine2 = Engine::load(EngineConfig::hybrid_v100(), &g2);
        assert_eq!(engine2.cc().comp, algo::cc_labels(&g2));
    }

    #[test]
    fn hybrid_stays_pure_zero_copy_on_a_sparse_one_shot_bfs() {
        // A single sparse BFS reads each region at most ~once in total:
        // the ski-rental policy must never stage, so hybrid and pure
        // merged+aligned are the *same* simulation, tick for tick.
        let g = generators::uniform_random(2_000, 16, 1);
        let mut zc = Engine::load(EngineConfig::emogi_v100(), &g);
        let mut hy = Engine::load(EngineConfig::hybrid_v100(), &g);
        let rz = zc.bfs(0);
        let rh = hy.bfs(0);
        assert_eq!(
            rh.stats.transfer.staged_regions, 0,
            "one-shot sparse BFS must not stage"
        );
        assert_eq!(rh.stats.elapsed_ns, rz.stats.elapsed_ns);
        assert_eq!(rh.stats.pcie_read_requests, rz.stats.pcie_read_requests);
    }

    /// V100 config with the cache shrunk below the test graphs' edge
    /// lists, modelling the paper's regime (edge list >> cache) without
    /// paying for multi-million-edge graphs in a unit test.
    fn oversubscribed(mut cfg: EngineConfig) -> EngineConfig {
        cfg.machine.gpu.cache.capacity_bytes = 64 << 10;
        cfg
    }

    #[test]
    fn hybrid_cc_stages_the_full_sweep_and_beats_zero_copy() {
        // CC hook passes read the whole edge list every pass: the policy
        // stages everything up front and passes 2+ run from HBM.
        let g = generators::lognormal_dense(400, 60.0, 0.5, 16, 5);
        let mut zc = Engine::load(oversubscribed(EngineConfig::emogi_v100()), &g);
        let mut hy = Engine::load(oversubscribed(EngineConfig::hybrid_v100()), &g);
        let rz = zc.cc();
        let rh = hy.cc();
        assert_eq!(rh.comp, rz.comp);
        assert!(
            rh.stats.transfer.staged_regions > 0,
            "full sweep must stage"
        );
        assert!(
            rh.stats.elapsed_ns < rz.stats.elapsed_ns,
            "hybrid CC {} must beat zero-copy {}",
            rh.stats.elapsed_ns,
            rz.stats.elapsed_ns
        );
    }

    #[test]
    fn hybrid_learns_across_repeated_traversals() {
        // Multiple BFS sources on one engine: regions recur, cross the
        // ski-rental point, and later traversals read mostly from HBM.
        let g = generators::uniform_random(3_000, 24, 4);
        let mut zc = Engine::load(oversubscribed(EngineConfig::emogi_v100()), &g);
        let mut hy = Engine::load(oversubscribed(EngineConfig::hybrid_v100()), &g);
        let sources = [0u32, 7, 21, 40];
        let mut zc_total = 0u64;
        let mut hy_total = 0u64;
        let mut hy_last_reqs = 0u64;
        let mut staged_total = 0u64;
        for &s in &sources {
            let rz = zc.bfs(s);
            let rh = hy.bfs(s);
            assert_eq!(rh.levels, rz.levels, "source {s}");
            zc_total += rz.stats.elapsed_ns;
            hy_total += rh.stats.elapsed_ns;
            hy_last_reqs = rh.stats.pcie_read_requests;
            staged_total += rh.stats.transfer.staged_regions;
        }
        assert!(staged_total > 0, "recurring regions must stage");
        assert!(
            hy_total < zc_total,
            "hybrid total {hy_total} must beat zero-copy {zc_total}"
        );
        // Once staged, the final traversal barely touches the link.
        let first_reqs = {
            let mut fresh = Engine::load(oversubscribed(EngineConfig::hybrid_v100()), &g);
            fresh.bfs(0).stats.pcie_read_requests
        };
        assert!(
            hy_last_reqs < first_reqs / 2,
            "staged regions should absorb most reads: {hy_last_reqs} vs {first_reqs}"
        );
    }

    #[test]
    fn per_run_transfer_stats_diff_not_accumulate() {
        // Staging happens on the early runs; per-run counters must show
        // later runs staging little or nothing (the counters are diffs,
        // not lifetime totals).
        let g = generators::uniform_random(3_000, 24, 4);
        let mut hy = Engine::load(oversubscribed(EngineConfig::hybrid_v100()), &g);
        let runs: Vec<u64> = [0u32, 7, 21, 40, 0, 7]
            .iter()
            .map(|&s| hy.bfs(s).stats.transfer.staged_regions)
            .collect();
        let total: u64 = runs.iter().sum();
        assert!(total > 0, "something must stage across the sequence");
        assert!(
            *runs.last().unwrap() < total,
            "per-run diffs cannot all equal the running total: {runs:?}"
        );
    }

    #[test]
    fn amplification_is_sane_for_merged_aligned() {
        let g = generators::uniform_random(2_000, 32, 5);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.bfs(0);
        let amp = run.stats.amplification(engine.dataset_bytes());
        // Every edge is touched once; sector granularity and alignment
        // overfetch keep amplification a little above 1 (Figure 10 shows
        // ≤ 1.31 for EMOGI).
        assert!(amp > 0.8 && amp < 1.9, "amplification {amp}");
    }

    #[test]
    fn uvm_engine_places_edge_data_lazily_before_first_kernel() {
        // SSSP as the first program on a UVM engine: the managed weight
        // array must land inside the UVM driver's span.
        let g = generators::uniform_random(300, 8, 3);
        let w = generate_weights(g.num_edges(), 3);
        let mut engine = Engine::load(EngineConfig::uvm_v100(), &g);
        let run = engine.sssp(&w, 5);
        assert!(run.stats.page_faults > 0);
        let expect = algo::sssp_distances(&g, &w, 5);
        for (v, &want) in expect.iter().enumerate() {
            let got = if run.dist[v] == INF {
                algo::UNREACHABLE
            } else {
                u64::from(run.dist[v])
            };
            assert_eq!(got, want, "vertex {v}");
        }
    }

    #[test]
    #[should_panic(expected = "before the first managed kernel")]
    fn uvm_edge_data_after_first_kernel_is_rejected() {
        let g = generators::uniform_random(200, 6, 1);
        let w = generate_weights(g.num_edges(), 1);
        let mut engine = Engine::load(EngineConfig::uvm_v100(), &g);
        let _ = engine.bfs(0); // initializes the UVM driver
        let _ = engine.sssp(&w, 0); // would grow the managed span: refuse
    }
}
