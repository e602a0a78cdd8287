//! The one iteration driver.
//!
//! Every traversal runs through [`Driver::run`] over a slice of devices:
//! a solo [`Engine`](crate::Engine) is a one-device group (one machine,
//! a one-part partition, no exchange), a
//! [`ShardedEngine`](crate::ShardedEngine) passes its whole group and
//! interconnect. One iteration is this stage list:
//!
//! 1. **work items** — frontier-driven programs split the sorted frontier
//!    by owner, one `(vertex, edge lo, edge hi)` item per neighbour-list
//!    walk (mega-hubs split across devices); full sweeps take each
//!    device's owned vertex range;
//! 2. **reorder** — optionally sort each device's items by cache segment
//!    ([`crate::reorder`]);
//! 3. **scan** — every device with work charges its active-vertex scan;
//! 4. **plan/prefetch** — every device with work stages the regions its
//!    items read ([`Device::plan`]);
//! 5. **capture contexts** — every device's, before any kernel runs;
//! 6. **launch** — one kernel per device with work;
//! 7. **device work** — the program's inter-launch work, on every device;
//! 8. **exchange** — devices trade activations (frontier-driven) or owned
//!    status slices (full sweep) over the interconnect, if there is one;
//! 9. **merge** — the union of activations becomes the next frontier, or
//!    the full sweep checks convergence.
//!
//! Frontier-driven and full-sweep programs differ only in stage 1 and in
//! when they stop. Batched execution
//! ([`Engine::run_batch`](crate::Engine::run_batch)) replaces stages 1,
//! 5 and 6 with a merged union frontier and one batch kernel, and reuses
//! the scan, planning, device-work and measurement stages here.
//!
//! Every stage reads only iteration-start state, so outputs and
//! iteration counts do not depend on the device count, and a one-device
//! run is the solo engine's run tick for tick.

use crate::engine::EngineConfig;
use crate::kernel::{ProgramKernel, WorkList, WorkSlice};
use crate::layout::{EdgePlacement, GraphLayout};
use crate::program::{AccessPattern, DeviceWork, VertexProgram};
use crate::sharded::{FRONTIER_UPDATE_BYTES, HUB_SPLIT_DEGREE};
use crate::strategy::AccessStrategy;
use emogi_graph::{CsrGraph, VertexId, VertexPartition};
use emogi_runtime::exec::run_kernel;
use emogi_runtime::{group, Machine, Prefetcher, RunStats, TransferManager};
use emogi_sim::interconnect::Interconnect;
use emogi_sim::pipeline::CopyEngineConfig;

/// One device's share of a placement: where the graph lives on its
/// machine, plus its hybrid transfer manager and pipelined prefetcher
/// when configured.
pub(crate) struct Device {
    pub layout: GraphLayout,
    /// Hybrid mode: the per-region zero-copy / DMA transfer manager.
    pub transfer: Option<TransferManager>,
    /// Pipelined execution: the speculative prefetcher feeding the
    /// asynchronous copy lane (present only when `transfer` is too —
    /// without one there is nothing to stage asynchronously).
    prefetcher: Option<Prefetcher>,
}

impl Device {
    /// Place `graph` on `machine` per `cfg`. The layout's host/CXL split
    /// becomes the transfer manager's tier homes, so a spilled tail is
    /// promoted over the CXL link rather than the PCIe lane; the copy
    /// lane defaults to the machine's PCIe cost model so hidden-latency
    /// estimates match the synchronous DMA path.
    fn place(machine: &mut Machine, graph: &CsrGraph, cfg: &EngineConfig) -> Self {
        let layout = GraphLayout::place(machine, graph, cfg.elem_bytes, cfg.placement, false);
        let transfer = cfg.transfer.clone().map(|tcfg| {
            assert_eq!(
                cfg.placement,
                EdgePlacement::ZeroCopyHost,
                "hybrid transfers manage the pinned-host edge list"
            );
            TransferManager::with_tiers(
                machine,
                graph.edge_list_bytes(cfg.elem_bytes),
                layout.host_edge_bytes,
                tcfg,
            )
        });
        let prefetcher = match (&transfer, &cfg.pipeline) {
            (Some(tm), Some(pcfg)) => {
                let copy = pcfg
                    .copy
                    .clone()
                    .unwrap_or_else(|| CopyEngineConfig::from_pcie(&machine.cfg.pcie));
                Some(Prefetcher::new(tm.num_regions(), pcfg.clone(), copy))
            }
            _ => None,
        };
        Self {
            layout,
            transfer,
            prefetcher,
        }
    }

    /// Place the auxiliary 4-byte-per-edge data array in the edge list's
    /// space, if not already placed. The edge-space bump allocator is
    /// independent of the device one, so the array lands at the same
    /// address it would have at load time.
    fn ensure_edge_data(
        &mut self,
        machine: &mut Machine,
        graph: &CsrGraph,
        placement: EdgePlacement,
    ) {
        if self.layout.weight_base.is_some() {
            return;
        }
        let bytes = graph.num_edges() as u64 * 4;
        let base = match placement {
            EdgePlacement::ZeroCopyHost => machine.alloc_host_pinned(bytes),
            EdgePlacement::Uvm => {
                assert!(
                    machine.uvm.is_none(),
                    "place edge data before the first managed kernel runs \
                     (the UVM driver's span is fixed at initialization)"
                );
                machine.alloc_managed(bytes)
            }
        };
        self.layout.weight_base = Some(base);
    }

    /// Hybrid planning before a launch over `work`: let the transfer
    /// manager stage the regions the launch reads (advancing the clock by
    /// the bulk-copy time), refresh the layout's staged-region table if
    /// it changed, and — pipelined — queue next iteration's predicted
    /// regions on the copy lane so they overlap the coming kernel.
    pub fn plan(&mut self, machine: &mut Machine, graph: &CsrGraph, work: WorkList<'_>) {
        let Some(tm) = self.transfer.as_mut() else {
            return;
        };
        let ranges = work.edge_bytes(graph, self.layout.elem_bytes);
        let changed = match self.prefetcher.as_mut() {
            Some(p) => tm.plan_iteration_pipelined(machine, ranges, p),
            None => tm.plan_iteration(machine, ranges),
        };
        // A run that never stages keeps `staged_edges == None` and the
        // address path free of region lookups.
        if changed {
            self.layout.staged_edges = Some(tm.region_map());
        }
        if let Some(p) = self.prefetcher.as_mut() {
            tm.prefetch_for_next(machine.now, p);
        }
    }

    /// Lifetime counters of this device: the machine's, plus the
    /// transfer manager's and prefetcher's.
    pub fn counters(&self, machine: &Machine) -> RunStats {
        let mut stats = machine.snapshot();
        if let Some(tm) = &self.transfer {
            stats.transfer = tm.stats;
        }
        if let Some(p) = &self.prefetcher {
            stats.prefetch = p.stats;
        }
        stats
    }

    /// Close a measured span opened with [`counters`](Self::counters).
    pub fn measure(&self, machine: &Machine, base: &RunStats, launches: u64) -> RunStats {
        RunStats {
            kernel_launches: launches,
            ..self.counters(machine).since(base)
        }
    }
}

/// Charge the device-side active-vertex scan before a launch (the
/// kernels iterate over all vertices and test their status, §2.1
/// Algorithm 1).
pub(crate) fn charge_vertex_scan(machine: &mut Machine, num_vertices: usize) {
    let bytes = num_vertices as u64 * 4;
    machine.now = machine.hbm.read_bulk(machine.now, bytes);
}

/// Charge the program's inter-launch device-side work. The work is
/// semantic once (the program state updates a single time) but every
/// device performs it on its own copy of the arrays.
pub(crate) fn apply_device_work<P: VertexProgram>(
    machines: &mut [Machine],
    program: &mut P,
    work: &mut DeviceWork,
) {
    program.post_iteration(work);
    for bytes in work.drain() {
        for m in machines.iter_mut() {
            m.now = m.hbm.read_bulk(m.now, bytes);
        }
    }
}

/// Result of one driven program execution.
pub(crate) struct DriverRun<O> {
    pub output: O,
    /// Per-device measurements, index = device id.
    pub per_device: Vec<RunStats>,
    /// Synchronous iterations executed.
    pub iterations: u64,
}

/// A graph placed on one or more devices, with everything a launch
/// needs besides the machines themselves.
pub(crate) struct Driver<'g> {
    pub graph: &'g CsrGraph,
    /// Per-device placements; identical bases on every device.
    pub devices: Vec<Device>,
    pub partition: VertexPartition,
    pub strategy: AccessStrategy,
    placement: EdgePlacement,
    /// Frontier access reordering: segment size each device sorts its
    /// work by, or `None` when the knob is off.
    pub reorder_segment: Option<u64>,
}

impl<'g> Driver<'g> {
    /// Place `graph` on every machine per `cfg`; `partition` has one
    /// part per machine.
    pub fn load(
        cfg: &EngineConfig,
        graph: &'g CsrGraph,
        machines: &mut [Machine],
        partition: VertexPartition,
    ) -> Self {
        assert_eq!(
            partition.num_shards(),
            machines.len(),
            "one part per device"
        );
        Self {
            graph,
            devices: machines
                .iter_mut()
                .map(|m| Device::place(m, graph, cfg))
                .collect(),
            partition,
            strategy: cfg.strategy,
            placement: cfg.placement,
            reorder_segment: cfg
                .frontier_reorder
                .then_some(cfg.machine.gpu.cache.capacity_bytes),
        }
    }

    /// Place the auxiliary edge-data array on every device, on demand.
    pub fn ensure_edge_data(&mut self, machines: &mut [Machine]) {
        for (dev, m) in self.devices.iter_mut().zip(machines) {
            dev.ensure_edge_data(m, self.graph, self.placement);
        }
    }

    /// Stage 1 for frontier-driven programs: every owned vertex becomes
    /// one work item on its owner, except mega-hubs
    /// ([`HUB_SPLIT_DEGREE`]) whose lists split into one line-aligned
    /// slice per device (the owner keeps the first). A single device
    /// never splits, so its items are exactly the frontier. Stage 2
    /// then reorders each device's items — never the frontier itself,
    /// which `slice_bounds` needs sorted.
    fn frontier_items(&self, frontier: &[VertexId], items: &mut [Vec<WorkSlice>]) {
        let ndev = items.len();
        let line = self.devices[0].layout.elems_per_line();
        for it in items.iter_mut() {
            it.clear();
        }
        let bounds = self.partition.slice_bounds(frontier);
        for (d, &(lo, hi)) in bounds.iter().enumerate() {
            for &v in &frontier[lo..hi] {
                let (s, e) = (self.graph.neighbor_start(v), self.graph.neighbor_end(v));
                let deg = e - s;
                if ndev > 1 && deg >= HUB_SPLIT_DEGREE {
                    let chunk = deg.div_ceil(ndev as u64).div_ceil(line) * line;
                    let mut start = s;
                    let mut k = 0usize;
                    while start < e {
                        let end = (start + chunk).min(e);
                        items[(d + k) % ndev].push((v, start, end));
                        start = end;
                        k += 1;
                    }
                } else {
                    items[d].push((v, s, e));
                }
            }
        }
        if let Some(seg) = self.reorder_segment {
            for (dev, it) in self.devices.iter().zip(items.iter_mut()) {
                crate::reorder::reorder_slices(&dev.layout, it, seg);
            }
        }
    }

    /// Run `program` to convergence on `machines` (one per device).
    /// `peers` carries the iteration-end exchange; `None` (the solo
    /// engine) exchanges nothing.
    pub fn run<P: VertexProgram>(
        &mut self,
        machines: &mut [Machine],
        mut peers: Option<&mut Interconnect>,
        mut program: P,
    ) -> DriverRun<P::Output> {
        if program.uses_edge_data() {
            self.ensure_edge_data(machines);
        }
        let bases: Vec<RunStats> = self
            .devices
            .iter()
            .zip(machines.iter())
            .map(|(dev, m)| dev.counters(m))
            .collect();
        let graph = self.graph;
        let ndev = machines.len();
        let sweep = program.pattern() == AccessPattern::FullSweep;
        let mut frontier = Vec::new();
        if !sweep {
            frontier = program.initial_frontier();
            frontier.sort_unstable();
            frontier.dedup();
        }
        let mut items: Vec<Vec<WorkSlice>> = vec![Vec::new(); ndev];
        let mut next: Vec<Vec<VertexId>> = vec![Vec::new(); ndev];
        let mut launches = vec![0u64; ndev];
        let mut iterations = 0u64;
        let mut work = DeviceWork::default();
        let mut done = !sweep && frontier.is_empty();
        while !done {
            iterations += 1;
            if !sweep {
                self.frontier_items(&frontier, &mut items);
            }
            let lists: Vec<WorkList<'_>> = (0..ndev)
                .map(|d| {
                    if sweep {
                        let r = self.partition.range(d);
                        WorkList::Range(r.start, r.end)
                    } else {
                        WorkList::Slices(&items[d])
                    }
                })
                .collect();
            for (d, &list) in lists.iter().enumerate() {
                if list.len() > 0 {
                    charge_vertex_scan(&mut machines[d], graph.num_vertices());
                    self.devices[d].plan(&mut machines[d], graph, list);
                }
            }
            program.begin_iteration();
            // Capture every device's contexts before any device's kernel
            // runs — iteration-start state must not depend on device
            // execution order.
            let ctxs: Vec<Vec<P::Ctx>> = lists
                .iter()
                .map(|l| (0..l.len()).map(|i| program.source_ctx(l.get(i))).collect())
                .collect();
            for (d, (&list, ctx)) in lists.iter().zip(ctxs).enumerate() {
                next[d].clear();
                if list.len() == 0 {
                    continue;
                }
                let mut kernel = ProgramKernel::with_ctxs(
                    graph,
                    &self.devices[d].layout,
                    self.strategy,
                    &mut program,
                    list,
                    ctx,
                    &mut next[d],
                );
                run_kernel(&mut machines[d], &mut kernel);
                launches[d] += 1;
            }
            apply_device_work(machines, &mut program, &mut work);
            // Frontier-driven devices broadcast the (vertex, value) pairs
            // they activated, so remote activations reach their owners
            // and every status copy stays coherent; full sweeps update
            // owned entries (CC) or reduce into owners (PageRank), so
            // each device allgathers its owned status slice.
            let mut update_bytes = vec![0u64; ndev];
            for (d, nd) in next.iter_mut().enumerate() {
                nd.sort_unstable();
                nd.dedup();
                update_bytes[d] = if sweep {
                    self.partition.range(d).len() as u64 * 4
                } else {
                    nd.len() as u64 * FRONTIER_UPDATE_BYTES
                };
            }
            if let Some(ic) = peers.as_deref_mut() {
                group::exchange(machines, ic, &update_bytes);
            }
            if sweep {
                done = program.converged();
            } else {
                frontier.clear();
                for nd in &next {
                    frontier.extend_from_slice(nd);
                }
                frontier.sort_unstable();
                frontier.dedup();
                done = frontier.is_empty();
            }
        }
        let per_device = self
            .devices
            .iter()
            .zip(machines.iter())
            .zip(bases.iter().zip(&launches))
            .map(|((dev, m), (base, &l))| dev.measure(m, base, l))
            .collect();
        DriverRun {
            output: program.finish(),
            per_device,
            iterations,
        }
    }
}
