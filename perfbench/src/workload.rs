//! The three seeded workloads: input generation, set-up, and the timed
//! query sequence, each driven through the public API of `emogi_core`
//! and `emogi_serve`.

use crate::calib::{Lap, Meter};
use crate::trace::Tracer;
use emogi_core::layout::SPILL_ALIGN;
use emogi_core::{Engine, EngineConfig, ShardedConfig, ShardedEngine, ShardedRun};
use emogi_graph::{datasets, generators, CsrGraph, VertexId};
use emogi_runtime::{MachineConfig, RunStats};
use emogi_serve::{Priority, Query, QueryOutcome, QueryResult, QueryServer, ServerConfig};
use emogi_sim::CxlConfig;
use std::sync::Arc;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// EMOGI as evaluated: solo Merged+Aligned zero-copy BFS on a
    /// GAP-kron-shaped graph.
    BfsZeroCopy,
    /// Two pipelined hybrid devices over a host+CXL spilled GAP-urand
    /// graph: SSSP sources, then CC, then PageRank.
    SweepTiered,
    /// A closed-loop query server mixing a latency class with bulk work.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BfsZeroCopy,
        Workload::SweepTiered,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BfsZeroCopy => "bfs-zerocopy",
            Workload::SweepTiered => "sweep-tiered",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Graph and sequence sizes. [`Size::BENCH`] is what the benchmark
/// measures; tests use [`Size::SMALL`] to stay quick.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// bfs-zerocopy: log2 vertices of the Kronecker graph.
    pub bfs_scale: u32,
    /// bfs-zerocopy: divisor applied to the V100's L2 and device memory.
    pub bfs_machine_div: u64,
    /// bfs-zerocopy: BFS sources per sequence.
    pub bfs_sources: usize,
    /// sweep-tiered: vertices of the uniform graph.
    pub sweep_vertices: usize,
    /// sweep-tiered: machine divisor.
    pub sweep_machine_div: u64,
    /// sweep-tiered: SSSP sources before CC and PageRank.
    pub sweep_sssp: usize,
    /// sweep-tiered: PageRank power iterations.
    pub sweep_pagerank_iters: u32,
    /// serve-mixed: log2 vertices of the Kronecker graph.
    pub serve_scale: u32,
    /// serve-mixed: machine divisor.
    pub serve_machine_div: u64,
    /// serve-mixed: closed-loop rounds of 16 queries.
    pub serve_rounds: usize,
    /// serve-mixed: PageRank power iterations of the bulk sweep.
    pub serve_pagerank_iters: u32,
}

impl Size {
    /// Sizes at 1/4 (bfs-zerocopy), 1/8 (sweep-tiered) and 1/32
    /// (serve-mixed) of the repository's scaled GAP datasets, each on a
    /// machine divided alike so the edge list is about twice device
    /// memory.
    pub const BENCH: Size = Size {
        bfs_scale: 15,
        bfs_machine_div: 4,
        bfs_sources: 8,
        sweep_vertices: 134_000 / 8,
        sweep_machine_div: 8,
        sweep_sssp: 3,
        sweep_pagerank_iters: 5,
        serve_scale: 12,
        serve_machine_div: 32,
        serve_rounds: 12,
        serve_pagerank_iters: 3,
    };

    /// Small graphs for the package's own tests.
    pub const SMALL: Size = Size {
        bfs_scale: 11,
        bfs_machine_div: 64,
        bfs_sources: 3,
        sweep_vertices: 3_000,
        sweep_machine_div: 64,
        sweep_sssp: 2,
        sweep_pagerank_iters: 3,
        serve_scale: 10,
        serve_machine_div: 64,
        serve_rounds: 2,
        serve_pagerank_iters: 3,
    };
}

/// GAP-kron edge factor, as the repository's GK dataset uses.
const KRON_EDGE_FACTOR: usize = 19;
/// GAP-urand average degree.
const URAND_DEGREE: usize = 32;
/// PageRank damping factor.
pub const DAMPING: f64 = 0.85;
/// Latency-class deadline: this multiple of the server's cost-model
/// estimate for the query run alone.
pub const DEADLINE_MULTIPLE: u64 = 8;
/// serve-mixed round: latency-class BFS, bulk SSSP, then one bulk sweep.
pub const SERVE_LATENCY: usize = 12;
pub const SERVE_SSSP: usize = 3;

/// SplitMix64: derives independent streams from the one `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next();
        s
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const STREAM_GRAPH: u64 = 1;
const STREAM_WEIGHTS: u64 = 2;
const STREAM_SOURCES: u64 = 3;

/// `n` seeded source vertices with nonzero out-degree.
pub fn pick_sources(g: &CsrGraph, n: usize, rng: &mut SplitMix) -> Vec<VertexId> {
    let nv = g.num_vertices() as u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.below(nv) as VertexId;
        if g.degree(v) > 0 {
            out.push(v);
        }
    }
    out
}

/// The V100 platform with L2 and device memory divided by `div`, so a
/// reduced graph still oversubscribes device memory.
pub fn scaled_machine(div: u64) -> MachineConfig {
    let mut m = MachineConfig::v100_gen3();
    m.gpu.cache.capacity_bytes = (m.gpu.cache.capacity_bytes / div).max(32 << 10);
    m.gpu.mem_bytes = (m.gpu.mem_bytes / div).max(256 << 10);
    m
}

/// Everything a workload's set-up generates from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub size: Size,
    pub graph: CsrGraph,
    /// One 4-byte weight per edge (empty for bfs-zerocopy).
    pub weights: Arc<Vec<u32>>,
    /// Query sources in sequence order.
    pub sources: Vec<VertexId>,
    pub machine: MachineConfig,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
        let graph_seed = SplitMix::new(seed, STREAM_GRAPH).next();
        let mut rng = SplitMix::new(seed, STREAM_SOURCES);
        let (graph, machine, n_sources) = match workload {
            Workload::BfsZeroCopy => (
                generators::kronecker(size.bfs_scale, KRON_EDGE_FACTOR, graph_seed),
                scaled_machine(size.bfs_machine_div),
                size.bfs_sources,
            ),
            Workload::SweepTiered => {
                let g = generators::uniform_random(size.sweep_vertices, URAND_DEGREE, graph_seed);
                // Cap host DRAM at ~60% of the edge list, on the spill
                // granule, so the cold tail homes in the CXL tier.
                let edge_bytes = g.edge_list_bytes(8);
                let host_cap = (edge_bytes * 3 / 5 / SPILL_ALIGN * SPILL_ALIGN).max(SPILL_ALIGN);
                let m = scaled_machine(size.sweep_machine_div)
                    .with_cxl(CxlConfig::external_x8())
                    .with_host_capacity(host_cap);
                (g, m, size.sweep_sssp)
            }
            Workload::ServeMixed => (
                generators::kronecker(size.serve_scale, KRON_EDGE_FACTOR, graph_seed),
                scaled_machine(size.serve_machine_div),
                size.serve_rounds * (SERVE_LATENCY + SERVE_SSSP),
            ),
        };
        let weights = match workload {
            Workload::BfsZeroCopy => Vec::new(),
            _ => datasets::generate_weights(
                graph.num_edges(),
                SplitMix::new(seed, STREAM_WEIGHTS).next(),
            ),
        };
        let sources = pick_sources(&graph, n_sources, &mut rng);
        Inputs {
            workload,
            size,
            graph,
            weights: Arc::new(weights),
            sources,
            machine,
        }
    }

    /// Bytes of the edge list at the engines' 8-byte element size.
    pub fn edge_list_bytes(&self) -> u64 {
        self.graph.edge_list_bytes(8)
    }
}

/// A workload's loaded system, borrowing the generated graph. One lives
/// per repetition, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum System<'g> {
    Solo(Engine<'g>),
    Sharded(ShardedEngine<'g>),
    Serve(QueryServer<'g>),
}

impl<'g> System<'g> {
    pub fn load(inputs: &'g Inputs, tracer: &Tracer) -> System<'g> {
        let g = &inputs.graph;
        match inputs.workload {
            Workload::BfsZeroCopy => {
                let cfg = EngineConfig::emogi_v100().with_machine(inputs.machine.clone());
                System::Solo(tracer.span("core.load", None, || Engine::load(cfg, g)))
            }
            Workload::SweepTiered => {
                let cfg = ShardedConfig::hybrid_v100(2)
                    .pipelined()
                    .with_machine(inputs.machine.clone());
                System::Sharded(tracer.span("core.load", None, || ShardedEngine::load(cfg, g)))
            }
            Workload::ServeMixed => {
                let cfg = EngineConfig::emogi_v100().with_machine(inputs.machine.clone());
                let engine = tracer.span("core.load", None, || Engine::load(cfg, g));
                System::Serve(tracer.span("serve.new", None, || {
                    QueryServer::new(ServerConfig::default(), engine)
                }))
            }
        }
    }

    /// Run the workload's whole query sequence, timing each query (each
    /// serving round on serve-mixed) with `meter`.
    pub fn run(&mut self, inputs: &Inputs, tracer: &Tracer, meter: &mut Meter) -> Sequence {
        match self {
            System::Solo(engine) => run_solo(engine, inputs, tracer, meter),
            System::Sharded(engine) => run_sharded(engine, inputs, tracer, meter),
            System::Serve(server) => run_serve(server, inputs, tracer, meter),
        }
    }
}

/// What a query asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    Bfs(VertexId),
    Sssp(VertexId),
    Cc,
    PageRank(u32),
}

/// A query's output as the engine returned it.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Levels(Vec<u32>),
    Dist(Vec<u32>),
    Labels(Vec<u32>),
    Ranks(Vec<f64>),
    /// Refused at admission or expired in the queue: never ran.
    Missing,
}

/// One query of a sequence.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub job: Job,
    pub output: Output,
    /// Simulated latency: completion minus submission, ns.
    pub latency_ns: u64,
    /// Simulated time the query spent not executing its own iterations
    /// (queueing, or riding in a batch while inactive), ns.
    pub wait_ns: u64,
    /// Latency class with a deadline (serve-mixed only).
    pub dated: bool,
    /// Completed on or before its deadline.
    pub met: bool,
    /// Per-query measurements (batched queries share their batch's
    /// fetches; see `RunStats::shared_fetch`).
    pub stats: RunStats,
}

impl QueryRecord {
    fn solo(job: Job, output: Output, stats: RunStats) -> QueryRecord {
        QueryRecord {
            job,
            output,
            latency_ns: stats.elapsed_ns,
            wait_ns: 0,
            dated: false,
            met: false,
            stats,
        }
    }
}

/// Server counters of one serve-mixed sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounts {
    pub batches: u64,
    pub batched_queries: u64,
    pub executed: u64,
    pub rejected: u64,
    pub expired: u64,
}

/// Everything a sequence produced.
#[derive(Debug, Clone)]
pub struct Sequence {
    pub queries: Vec<QueryRecord>,
    /// Once-counted totals of the whole sequence; `elapsed_ns` is its
    /// simulated time.
    pub totals: RunStats,
    /// Host-link payload bytes per device.
    pub link_bytes: Vec<u64>,
    /// Inter-device exchange bytes (sweep-tiered only).
    pub exchange_bytes: u64,
    /// Host-link usable bandwidth of one device, GB/s.
    pub link_gbps: f64,
    pub serve: Option<ServeCounts>,
    /// Host time of the sequence.
    pub host: Lap,
}

fn run_solo(
    engine: &mut Engine<'_>,
    inputs: &Inputs,
    tracer: &Tracer,
    meter: &mut Meter,
) -> Sequence {
    let mut totals = RunStats::default();
    let mut host = Lap::default();
    let mut queries = Vec::with_capacity(inputs.sources.len());
    for (i, &src) in inputs.sources.iter().enumerate() {
        let t = Instant::now();
        let run = tracer.span("core.bfs", Some(i as u32), || engine.bfs(src));
        host += meter.lap(t);
        totals.accumulate(&run.stats);
        queries.push(QueryRecord::solo(
            Job::Bfs(src),
            Output::Levels(run.output.levels),
            run.stats,
        ));
    }
    let link_bytes = vec![totals.host_bytes];
    Sequence {
        queries,
        totals,
        link_bytes,
        exchange_bytes: 0,
        link_gbps: engine.link_bytes_per_ns(),
        serve: None,
        host,
    }
}

fn run_sharded(
    engine: &mut ShardedEngine<'_>,
    inputs: &Inputs,
    tracer: &Tracer,
    meter: &mut Meter,
) -> Sequence {
    let devices = engine.num_devices();
    let mut totals = RunStats::default();
    let mut host = Lap::default();
    let mut link_bytes = vec![0u64; devices];
    let mut exchange_bytes = 0;
    let mut queries = Vec::new();
    let mut record = |job: Job, output: Output, run: ShardedRun<()>| {
        totals.accumulate(&run.stats);
        for (b, d) in link_bytes.iter_mut().zip(&run.per_device) {
            *b += d.host_bytes;
        }
        exchange_bytes += run.exchange.bytes;
        queries.push(QueryRecord::solo(job, output, run.stats));
    };
    let weights = inputs.weights.as_slice();
    for (i, &src) in inputs.sources.iter().enumerate() {
        let t = Instant::now();
        let run = tracer.span("core.sssp", Some(i as u32), || engine.sssp(weights, src));
        host += meter.lap(t);
        let (dist, run) = split(run, |o| o.dist);
        record(Job::Sssp(src), Output::Dist(dist), run);
    }
    let q = inputs.sources.len() as u32;
    let t = Instant::now();
    let run = tracer.span("core.cc", Some(q), || engine.cc());
    host += meter.lap(t);
    let (comp, run) = split(run, |o| o.comp);
    record(Job::Cc, Output::Labels(comp), run);
    let iters = inputs.size.sweep_pagerank_iters;
    let t = Instant::now();
    let run = tracer.span("core.pagerank", Some(q + 1), || {
        engine.pagerank(DAMPING, iters)
    });
    host += meter.lap(t);
    let (ranks, run) = split(run, |o| o.ranks);
    record(Job::PageRank(iters), Output::Ranks(ranks), run);
    Sequence {
        queries,
        totals,
        link_bytes,
        exchange_bytes,
        link_gbps: engine.link_bytes_per_ns() / devices as f64,
        serve: None,
        host,
    }
}

/// Take a sharded run's output apart from its measurements.
fn split<O, T>(run: ShardedRun<O>, take: impl FnOnce(O) -> T) -> (T, ShardedRun<()>) {
    let ShardedRun {
        output,
        stats,
        per_device,
        exchange,
        iterations,
    } = run;
    let run = ShardedRun {
        output: (),
        stats,
        per_device,
        exchange,
        iterations,
    };
    (take(output), run)
}

fn output_of(result: QueryResult) -> Output {
    match result {
        QueryResult::Bfs(r) => Output::Levels(r.output.levels),
        QueryResult::Sssp(r) => Output::Dist(r.output.dist),
        QueryResult::Cc(r) => Output::Labels(r.output.comp),
        QueryResult::PageRank(r) => Output::Ranks(r.output.ranks),
    }
}

/// serve-mixed: a closed loop of 16 clients with one query each. Every
/// round all clients submit, the server drains its queue, and every
/// client redeems its outcome before the next round.
fn run_serve(
    server: &mut QueryServer<'_>,
    inputs: &Inputs,
    tracer: &Tracer,
    meter: &mut Meter,
) -> Sequence {
    let base = server.engine().machine.snapshot();
    let stats0 = *server.stats();
    let mut host = Lap::default();
    let mut queries = Vec::new();
    let mut launches = 0;
    let mut sources = inputs.sources.iter().copied();
    let iters = inputs.size.serve_pagerank_iters;
    for round in 0..inputs.size.serve_rounds {
        let t = Instant::now();
        let mut round_jobs: Vec<(Job, Query, bool)> = Vec::with_capacity(16);
        for _ in 0..SERVE_LATENCY {
            let src = sources.next().expect("one source per latency query");
            let q = Query::bfs(src).with_priority(Priority::Latency);
            let budget = DEADLINE_MULTIPLE * server.estimate_ns(&q);
            round_jobs.push((Job::Bfs(src), q.with_deadline_ns(budget), true));
        }
        for _ in 0..SERVE_SSSP {
            let src = sources.next().expect("one source per bulk SSSP");
            let q = Query::sssp(src, Arc::clone(&inputs.weights)).with_priority(Priority::Bulk);
            round_jobs.push((Job::Sssp(src), q, false));
        }
        let sweep = if round % 2 == 0 {
            (Job::Cc, Query::cc())
        } else {
            (Job::PageRank(iters), Query::pagerank(DAMPING, iters))
        };
        round_jobs.push((sweep.0, sweep.1.with_priority(Priority::Bulk), false));

        let submitted_at = server.clock_ns();
        let mut ids = Vec::with_capacity(round_jobs.len());
        for (job, query, dated) in round_jobs {
            let qid = queries.len() as u32 + ids.len() as u32;
            let id = tracer.span("serve.submit", Some(qid), || server.submit(query));
            ids.push((qid, job, dated, id.ok()));
        }
        tracer.span("serve.run_pending", None, || server.run_pending());
        for (qid, job, dated, id) in ids {
            let outcome =
                id.and_then(|id| tracer.span("serve.take", Some(qid), || server.take(id)));
            let mut rec = QueryRecord {
                job,
                output: Output::Missing,
                latency_ns: 0,
                wait_ns: 0,
                dated,
                met: false,
                stats: RunStats::default(),
            };
            if let Some(outcome) = outcome {
                rec.met = matches!(outcome, QueryOutcome::Served { .. });
                if let Some(done) = outcome.completed_ns() {
                    rec.latency_ns = done - submitted_at;
                }
                if let Some(result) = outcome.into_result() {
                    rec.stats = result.stats().clone();
                    rec.wait_ns = rec.latency_ns.saturating_sub(rec.stats.elapsed_ns);
                    launches += rec.stats.kernel_launches;
                    rec.output = output_of(result);
                }
            }
            queries.push(rec);
        }
        host += meter.lap(t);
    }
    let totals = server.engine().machine.finish_run(&base, launches);
    let s = server.stats();
    let serve = ServeCounts {
        batches: s.batches - stats0.batches,
        batched_queries: s.batched_queries - stats0.batched_queries,
        executed: (s.served + s.deadline_missed) - (stats0.served + stats0.deadline_missed),
        rejected: s.rejected - stats0.rejected,
        expired: s.deadline_cancelled - stats0.deadline_cancelled,
    };
    let link_bytes = vec![totals.host_bytes];
    Sequence {
        queries,
        totals,
        link_bytes,
        exchange_bytes: 0,
        link_gbps: server.engine().link_bytes_per_ns(),
        serve: Some(serve),
        host,
    }
}
