//! The six workloads. Each is a [`Case`]: inputs made from the seed, a fixed
//! op list, and a way to run one pass over that list through the public API
//! only. Why each exists is in `spec::WORKLOADS` and the README.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gcgt_cgr::{CgrConfig, CgrGraph, ValidationMode};
use gcgt_core::{memory, Algorithm, Query, QueryOutput, Strategy};
use gcgt_graph::{Csr, NodeId};
use gcgt_serve::{ServePool, ServeStats};
use gcgt_session::{
    DirectionMode, EngineKind, Executor, InterconnectConfig, ObserverHandle, PreparedGraph, Session,
};
use gcgt_simt::RunStats;

use crate::inputs::{self, Expected, Fingerprint, Rng};
use crate::span::Tracer;

/// Default generator node counts, chosen on a 2-core box so that one run —
/// three set-ups, the verify pass and 8 s of timed passes — stays under
/// about 15 s (the driver's cap leaves ~25 s per run). Passes last 0.7–1.7 s.
pub fn default_n(workload: &str) -> usize {
    match workload {
        "build-web" => 20_000,
        "traverse-pull" => 30_000,
        // incore / ooc / shard8 / serve share one web graph and one source
        // list, so their modeled kernel numbers are comparable bit for bit.
        _ => 30_000,
    }
}

pub const SHARDS: usize = 8;
const BFS_PER_GRAPH: usize = 24;
const PULL_BFS: usize = 96;
const SERVE_QUERIES: usize = 48;
/// Fixed, not `min(2, nproc)`: the modeled FIFO timeline (queue wait, p95)
/// depends on the worker count, and `sim` metrics must not depend on the
/// machine. On one core the two workers share it.
const SERVE_WORKERS: usize = 2;

// Salts separating the seed's random streams.
const SALT_WEB_SOURCES: u64 = 1;
const SALT_TWITTER_SOURCES: u64 = 2;
const SALT_SERVE_SOURCES: u64 = 3;

/// How a pass is being run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Warm-up: untimed, every output checked against the serial oracle.
    Verify,
    /// Tracing off; this is what the end-to-end metrics measure.
    Timed,
    /// Spans around every public call, observers installed.
    Traced,
}

/// What one op did.
#[derive(Clone, Debug)]
pub struct OpOutcome {
    pub app: &'static str,
    pub host_ms: f64,
    /// Modeled cost of the op: `est + transfer + exchange` for a query
    /// (served or not; queue wait is in `Pass::serve` only), the structure
    /// upload for a build.
    pub modeled_ms: f64,
    pub device_bytes: u64,
    /// Outputs and modeled statistics, mixed; must repeat pass to pass.
    pub fingerprint: u64,
    /// Completed without `Err` or panic and, in `Mode::Verify`, matched the
    /// oracle.
    pub ok: bool,
    pub stats: Option<RunStats>,
}

impl OpOutcome {
    fn failed(app: &'static str, host_ms: f64) -> Self {
        OpOutcome {
            app,
            host_ms,
            modeled_ms: 0.0,
            device_bytes: 0,
            fingerprint: 0,
            ok: false,
            stats: None,
        }
    }
}

pub struct Pass {
    pub wall_s: f64,
    pub ops: Vec<OpOutcome>,
    pub serve: Option<ServeStats>,
}

/// Size and cost facts of one prepared structure, for the per-layer table.
#[derive(Clone, Debug)]
pub struct StructureInfo {
    pub edges: usize,
    pub total_bits: usize,
    pub ref_nodes: usize,
    pub file_bytes: usize,
    pub index_bytes: usize,
    pub footprint: usize,
    pub structure_bytes: usize,
    pub upload_ms: f64,
    pub partitions: usize,
    pub shard_max_resident: usize,
}

impl StructureInfo {
    fn of(prepared: &PreparedGraph, file_bytes: usize) -> Self {
        let cgr = prepared.cgr().expect("every workload traverses CGR");
        StructureInfo {
            edges: cgr.num_edges(),
            total_bits: cgr.stats().total_bits,
            ref_nodes: cgr.stats().ref_nodes,
            file_bytes,
            index_bytes: cgr.index_bytes(),
            footprint: prepared.footprint(),
            structure_bytes: prepared.structure_bytes(),
            upload_ms: prepared.upload_ms(),
            partitions: prepared.num_partitions().unwrap_or(0),
            shard_max_resident: prepared
                .shard_plan()
                .map_or(0, |plan| plan.max_resident_bytes()),
        }
    }
}

pub trait Case {
    /// One line per op; two cases with equal labels run the same op list.
    fn op_labels(&self) -> Vec<String>;
    /// Computes the oracle answers (after set-up, outside `setup_s`).
    fn compute_expected(&mut self);
    /// Corrupts one oracle answer, so the self-tests can show that a wrong
    /// output is counted as a failure.
    #[cfg(test)]
    fn sabotage_expected(&mut self);
    /// Builds observer-carrying twins of the sessions for `Mode::Traced`.
    fn enable_tracing(&mut self, observer: ObserverHandle);
    fn run_pass(&self, mode: Mode, tracer: &Tracer) -> Pass;
    /// The input graphs, for `graph.nodes` / `graph.edges`; the standalone
    /// probes run on the first.
    fn inputs(&self) -> Vec<&Csr>;
    fn structures(&self) -> Vec<StructureInfo>;
    /// The same ops on the uncompressed `GpuCsr` engine: mean modeled ms per
    /// op (the paper's "competitive with uncompressed" reference).
    fn gpucsr_modeled_ms_per_op(&self) -> Option<f64> {
        None
    }
    /// Host seconds of one pass with a single serving worker.
    fn one_worker_pass_s(&self) -> Option<f64> {
        None
    }
}

pub fn build(workload: &str, n: usize, seed: u64, tracer: &Tracer) -> Box<dyn Case> {
    match workload {
        "build-web" => Box::new(BuildCase::new(n, seed, tracer)),
        "traverse-incore" => Box::new(TraverseCase::incore(n, seed, tracer)),
        "traverse-ooc" => Box::new(TraverseCase::ooc(n, seed, tracer)),
        "traverse-shard8" => Box::new(TraverseCase::shard8(n, seed, tracer)),
        "traverse-pull" => Box::new(TraverseCase::pull(n, seed, tracer)),
        "serve-mixed" => Box::new(TraverseCase::serve(n, seed, tracer)),
        other => panic!("unknown workload {other}"),
    }
}

/// The full-GCGT layout at the given reference window.
pub fn cgr_config(ref_window: u32) -> CgrConfig {
    Strategy::Full.cgr_config(&CgrConfig::paper_default().with_ref_window(ref_window))
}

fn encode(graph: &Csr, ref_window: u32, tracer: &Tracer) -> CgrGraph {
    tracer.time("cgr.encode", || {
        CgrGraph::encode(graph, &cgr_config(ref_window))
    })
}

fn write(cgr: &CgrGraph) -> Vec<u8> {
    let mut bytes = Vec::new();
    gcgt_cgr::io::write_cgr(cgr, &mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

// ---------------------------------------------------------------------------
// build-web

struct BuildCase {
    graphs: Vec<(&'static str, Csr)>,
    /// `(graph index, ref_window)`.
    ops: Vec<(usize, u32)>,
    /// Per op, the fingerprint of the graph a correct build decodes back to.
    expected: Vec<u64>,
    /// Structures of the most recent pass.
    last: RefCell<Vec<StructureInfo>>,
}

fn fingerprint_graph(graph: &Csr) -> u64 {
    let mut fp = Fingerprint::new();
    fp.words(graph.row_offsets().iter().map(|&o| o as u64));
    fp.u32s(graph.col_indices());
    fp.finish()
}

impl BuildCase {
    fn new(n: usize, seed: u64, tracer: &Tracer) -> Self {
        let graphs = vec![
            ("uk2007+vnode+llp", inputs::web_uk2007_llp(n, seed, tracer)),
            (
                "twitter+llp",
                inputs::twitter_llp(n / 2, seed.wrapping_add(1), tracer),
            ),
            (
                "eu2015-crawl",
                inputs::web_eu2015_crawl(n, seed.wrapping_add(2), tracer),
            ),
        ];
        let ops = (0..graphs.len())
            .flat_map(|g| [0u32, 32].map(|w| (g, w)))
            .collect();
        BuildCase {
            graphs,
            ops,
            expected: Vec::new(),
            last: RefCell::new(Vec::new()),
        }
    }

    /// encode → write → eager load → prepare, each a public call.
    fn run_op(
        &self,
        index: usize,
        mode: Mode,
        tracer: &Tracer,
    ) -> Result<(OpOutcome, StructureInfo), String> {
        let (g, ref_window) = self.ops[index];
        let graph = &self.graphs[g].1;
        let start = Instant::now();
        let cgr = encode(graph, ref_window, tracer);
        let bytes = tracer.time("cgr.write", || write(&cgr));
        let loaded = tracer
            .time("cgr.load_eager", || {
                CgrGraph::from_bytes_with(&bytes, ValidationMode::Eager)
            })
            .map_err(|e| e.to_string())?;
        let prepared = tracer
            .time("session.prepare", || {
                Session::builder().graph_compressed(loaded).prepare()
            })
            .map_err(|e| e.to_string())?;
        let host_ms = start.elapsed().as_secs_f64() * 1e3;

        // The prepared session decoded a CSR mirror from the loaded bytes:
        // it must be the graph that went in.
        let ok =
            mode != Mode::Verify || fingerprint_graph(prepared.graph()) == self.expected[index];
        let mut fp = Fingerprint::new();
        fp.words(bytes.chunks(8).map(|c| {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(word)
        }));
        fp.word(prepared.footprint() as u64);
        fp.word(prepared.upload_ms().to_bits());
        let info = StructureInfo::of(&prepared, bytes.len());
        let outcome = OpOutcome {
            app: "build",
            host_ms,
            modeled_ms: prepared.upload_ms(),
            device_bytes: prepared.footprint() as u64,
            fingerprint: fp.finish(),
            ok,
            stats: None,
        };
        Ok((outcome, info))
    }
}

impl Case for BuildCase {
    fn op_labels(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|&(g, w)| {
                let (name, graph) = &self.graphs[g];
                format!(
                    "build {name} n={} m={} w={w}",
                    graph.num_nodes(),
                    graph.num_edges()
                )
            })
            .collect()
    }

    fn compute_expected(&mut self) {
        self.expected = self
            .ops
            .iter()
            .map(|&(g, _)| fingerprint_graph(&self.graphs[g].1))
            .collect();
    }

    #[cfg(test)]
    fn sabotage_expected(&mut self) {
        self.expected[0] ^= 1;
    }

    fn enable_tracing(&mut self, _observer: ObserverHandle) {}

    fn run_pass(&self, mode: Mode, tracer: &Tracer) -> Pass {
        let _pass = tracer.span("harness.pass");
        let start = Instant::now();
        let mut ops = Vec::with_capacity(self.ops.len());
        let mut infos = Vec::with_capacity(self.ops.len());
        for i in 0..self.ops.len() {
            tracer.set_op(Some(i));
            let _op = tracer.span("harness.op");
            let op_start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| self.run_op(i, mode, tracer)));
            match result {
                Ok(Ok((outcome, info))) => {
                    ops.push(outcome);
                    infos.push(info);
                }
                _ => ops.push(OpOutcome::failed(
                    "build",
                    op_start.elapsed().as_secs_f64() * 1e3,
                )),
            }
        }
        tracer.set_op(None);
        *self.last.borrow_mut() = infos;
        Pass {
            wall_s: start.elapsed().as_secs_f64(),
            ops,
            serve: None,
        }
    }

    fn inputs(&self) -> Vec<&Csr> {
        self.graphs.iter().map(|(_, g)| g).collect()
    }

    fn structures(&self) -> Vec<StructureInfo> {
        self.last.borrow().clone()
    }
}

// ---------------------------------------------------------------------------
// traversal and serving

/// The engine shape a traversal workload prepares its structures under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    InCore,
    /// Budget = per-query scratch + a quarter of the structure, so three
    /// quarters of the graph never fit and stream over the modeled PCIe link.
    OutOfCore,
    Shard8,
    /// Direction-optimizing (needs symmetric adjacency).
    Pull,
}

impl Shape {
    fn prepare(self, cgr: CgrGraph, observer: Option<ObserverHandle>) -> Session {
        let mut builder = Session::builder();
        builder = match self {
            Shape::InCore => builder.engine(EngineKind::Gcgt(Strategy::Full)),
            Shape::OutOfCore => {
                let scratch = memory::traversal_buffers_bytes(cgr.num_nodes());
                let structure = memory::gcgt_structure_bytes(&cgr);
                builder
                    .engine(EngineKind::OutOfCore {
                        inner: Strategy::Full,
                    })
                    .memory_budget(scratch + structure / 4)
            }
            Shape::Shard8 => builder
                .engine(EngineKind::Gcgt(Strategy::Full))
                .shards(SHARDS)
                .interconnect(InterconnectConfig::nvlink()),
            Shape::Pull => builder
                .engine(EngineKind::Gcgt(Strategy::Full))
                .direction(DirectionMode::Adaptive),
        };
        if let Some(observer) = observer {
            builder = builder.observer(observer);
        }
        builder
            .graph_compressed(cgr)
            .build()
            .expect("workload structures fit the default device")
    }
}

/// One structure a workload traverses, with the CSR graph it encodes (the
/// oracle's input).
struct Target {
    name: &'static str,
    graph: Arc<Csr>,
    session: Session,
    /// Observer-carrying twin, built only for a traced run.
    traced: Option<Session>,
}

impl Target {
    fn new(name: &'static str, graph: Csr, shape: Shape, tracer: &Tracer) -> Self {
        let cgr = encode(&graph, 0, tracer);
        let session = tracer.time("session.prepare", || shape.prepare(cgr, None));
        Target {
            name,
            graph: Arc::new(graph),
            session,
            traced: None,
        }
    }
}

struct TraverseCase {
    shape: Shape,
    targets: Vec<Target>,
    /// `(target index, query)`.
    ops: Vec<(usize, Query)>,
    expected: Vec<Expected>,
    /// `Some(workers)`: a pass is one `ServePool::serve` over all ops.
    serve_workers: Option<usize>,
}

/// The shared web input: the LLP-ordered directed graph, its symmetrized
/// twin (connected components are defined on the undirected view, and the
/// CC kernel is only checked against the oracle there — as in the repo's own
/// Figure 15 harness), and the seed's BFS sources.
struct WebInput {
    directed: Csr,
    symmetric: Csr,
    sources: Vec<NodeId>,
}

impl WebInput {
    fn new(n: usize, seed: u64, tracer: &Tracer) -> Self {
        let directed = inputs::web_uk2007_llp(n, seed, tracer);
        let symmetric = inputs::symmetrized(&directed, tracer);
        let mut rng = Rng::new(seed, SALT_WEB_SOURCES);
        let sources = inputs::pick_sources(&directed, &mut rng, BFS_PER_GRAPH, tracer);
        WebInput {
            directed,
            symmetric,
            sources,
        }
    }
}

impl TraverseCase {
    fn with_ops(shape: Shape, targets: Vec<Target>, ops: Vec<(usize, Query)>) -> Self {
        TraverseCase {
            shape,
            targets,
            ops,
            expected: Vec::new(),
            serve_workers: None,
        }
    }

    /// BFS from every source plus the whole-graph apps, on a directed target
    /// and its symmetric twin (`directed`, `directed + 1`).
    fn graph_ops(directed: usize, sources: &[NodeId], apps: &[Query]) -> Vec<(usize, Query)> {
        let mut ops: Vec<(usize, Query)> =
            sources.iter().map(|&s| (directed, Query::Bfs(s))).collect();
        for app in apps {
            let target = if matches!(app, Query::Cc) {
                directed + 1
            } else {
                directed
            };
            ops.push((target, *app));
        }
        ops
    }

    fn web_targets(web: WebInput, shape: Shape, tracer: &Tracer) -> Vec<Target> {
        vec![
            Target::new("web", web.directed, shape, tracer),
            Target::new("web-sym", web.symmetric, shape, tracer),
        ]
    }

    fn incore(n: usize, seed: u64, tracer: &Tracer) -> Self {
        let web = WebInput::new(n, seed, tracer);
        let twitter = inputs::twitter(n / 3, seed.wrapping_add(1), tracer);
        let twitter_sym = inputs::symmetrized(&twitter, tracer);
        let mut rng = Rng::new(seed, SALT_TWITTER_SOURCES);
        let twitter_sources = inputs::pick_sources(&twitter, &mut rng, BFS_PER_GRAPH, tracer);

        let mut ops = Vec::new();
        for (directed, sources) in [(0, &web.sources), (2, &twitter_sources)] {
            let apps = [
                Query::Cc,
                Query::Bc(sources[0]),
                inputs::pagerank_query(),
                inputs::labelprop_query(),
            ];
            ops.extend(Self::graph_ops(directed, sources, &apps));
        }
        let mut targets = Self::web_targets(web, Shape::InCore, tracer);
        targets.push(Target::new("twitter", twitter, Shape::InCore, tracer));
        targets.push(Target::new(
            "twitter-sym",
            twitter_sym,
            Shape::InCore,
            tracer,
        ));
        Self::with_ops(Shape::InCore, targets, ops)
    }

    fn ooc(n: usize, seed: u64, tracer: &Tracer) -> Self {
        let web = WebInput::new(n, seed, tracer);
        let apps = [Query::Cc, Query::Bc(web.sources[0])];
        let ops = Self::graph_ops(0, &web.sources, &apps);
        let targets = Self::web_targets(web, Shape::OutOfCore, tracer);
        Self::with_ops(Shape::OutOfCore, targets, ops)
    }

    fn shard8(n: usize, seed: u64, tracer: &Tracer) -> Self {
        let web = WebInput::new(n, seed, tracer);
        let apps = [Query::Cc, inputs::pagerank_query()];
        let ops = Self::graph_ops(0, &web.sources, &apps);
        let targets = Self::web_targets(web, Shape::Shard8, tracer);
        Self::with_ops(Shape::Shard8, targets, ops)
    }

    fn pull(n: usize, seed: u64, tracer: &Tracer) -> Self {
        let twitter = inputs::twitter(n, seed.wrapping_add(1), tracer);
        let symmetric = inputs::symmetrized(&twitter, tracer);
        drop(twitter);
        let mut rng = Rng::new(seed, SALT_TWITTER_SOURCES);
        let sources = inputs::pick_sources(&symmetric, &mut rng, PULL_BFS, tracer);
        let mut ops: Vec<(usize, Query)> = sources.iter().map(|&s| (0, Query::Bfs(s))).collect();
        ops.extend([
            (0, Query::Cc),
            (0, Query::Cc),
            (0, Query::Bc(sources[0])),
            (0, Query::Bc(sources[1])),
        ]);
        let targets = vec![Target::new("twitter-sym", symmetric, Shape::Pull, tracer)];
        Self::with_ops(Shape::Pull, targets, ops)
    }

    /// One pool over the symmetrized in-core web graph, so that every query
    /// of the mix — CC included — has an oracle answer on the one structure
    /// a pool serves.
    fn serve(n: usize, seed: u64, tracer: &Tracer) -> Self {
        let directed = inputs::web_uk2007_llp(n, seed, tracer);
        let symmetric = inputs::symmetrized(&directed, tracer);
        drop(directed);
        let mut rng = Rng::new(seed, SALT_SERVE_SOURCES);
        let sources = inputs::pick_sources(&symmetric, &mut rng, SERVE_QUERIES, tracer);
        let ops = sources
            .iter()
            .enumerate()
            .map(|(i, &source)| {
                // BFS-heavy; every 12th a PageRank, every 24th a CC and a BC.
                let query = match i % 24 {
                    11 | 23 => inputs::pagerank_query(),
                    5 => Query::Cc,
                    8 => Query::Bc(source),
                    _ => Query::Bfs(source),
                };
                (0, query)
            })
            .collect();
        let targets = vec![Target::new("web-sym", symmetric, Shape::InCore, tracer)];
        TraverseCase {
            serve_workers: Some(SERVE_WORKERS),
            ..Self::with_ops(Shape::InCore, targets, ops)
        }
    }

    fn session(&self, target: usize, mode: Mode) -> &Session {
        let target = &self.targets[target];
        match mode {
            Mode::Traced => target
                .traced
                .as_ref()
                .expect("enable_tracing runs before a traced pass"),
            _ => &target.session,
        }
    }

    fn outcome(&self, index: usize, mode: Mode, host_ms: f64, output: &QueryOutput) -> OpOutcome {
        let stats = *output.stats();
        OpOutcome {
            app: self.ops[index].1.name(),
            host_ms,
            modeled_ms: stats.est_ms + stats.transfer_ms + stats.exchange_ms,
            device_bytes: stats.allocated_bytes as u64,
            fingerprint: inputs::fingerprint_output(output),
            ok: mode != Mode::Verify || self.expected[index].matches(output),
            stats: Some(stats),
        }
    }

    /// Closed loop, one client: the next query is issued when the previous
    /// one returns.
    fn query_pass(&self, mode: Mode, tracer: &Tracer) -> Pass {
        let _pass = tracer.span("harness.pass");
        let start = Instant::now();
        let mut ops = Vec::with_capacity(self.ops.len());
        for (i, &(target, query)) in self.ops.iter().enumerate() {
            tracer.set_op(Some(i));
            let _op = tracer.span("harness.op");
            let session = self.session(target, mode);
            let op_start = Instant::now();
            // `Session::run` still panics on the failures `serve` returns
            // as values (ROADMAP item 2); either way it is a failed op.
            let run = catch_unwind(AssertUnwindSafe(|| match mode {
                // `Session::run` is `Executor::new` + `Executor::run`; the
                // traced pass calls the halves itself, to time them apart
                // and to tag the modeled events with the op id.
                Mode::Traced => {
                    let prepared = session.prepared();
                    let mut executor =
                        tracer.time("session.executor_new", || Executor::new(&prepared));
                    executor.set_trace_track(i as u64);
                    tracer.time("session.executor_run", || executor.run(query))
                }
                _ => session.run(query),
            }));
            let host_ms = op_start.elapsed().as_secs_f64() * 1e3;
            ops.push(match run {
                Ok(run) => self.outcome(i, mode, host_ms, &run.output),
                Err(_) => OpOutcome::failed(query.name(), host_ms),
            });
        }
        tracer.set_op(None);
        Pass {
            wall_s: start.elapsed().as_secs_f64(),
            ops,
            serve: None,
        }
    }

    /// One batch per pass to the pool; per-op host time cannot be seen from
    /// outside the pool, so every op is charged an equal share of the pass.
    fn serve_pass(&self, workers: usize, mode: Mode, tracer: &Tracer) -> Pass {
        let _pass = tracer.span("harness.pass");
        let queries: Vec<Query> = self.ops.iter().map(|&(_, q)| q).collect();
        let pool = ServePool::new(self.session(0, mode).prepared(), workers)
            .expect("a pool with at least one worker");
        let start = Instant::now();
        let report = tracer.time("serve.serve", || pool.serve(&queries));
        let wall_s = start.elapsed().as_secs_f64();
        let host_ms = wall_s * 1e3 / queries.len() as f64;
        let ops = report
            .outputs
            .iter()
            .enumerate()
            .map(|(i, result)| match result {
                Ok(output) => self.outcome(i, mode, host_ms, output),
                Err(_) => OpOutcome::failed(queries[i].name(), host_ms),
            })
            .collect();
        Pass {
            wall_s,
            ops,
            serve: Some(report.stats),
        }
    }
}

impl Case for TraverseCase {
    fn op_labels(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|(target, query)| {
                let target = &self.targets[*target];
                format!(
                    "{query:?} on {} n={} m={}",
                    target.name,
                    target.graph.num_nodes(),
                    target.graph.num_edges()
                )
            })
            .collect()
    }

    fn compute_expected(&mut self) {
        self.expected = self
            .ops
            .iter()
            .map(|(target, query)| inputs::oracle(&self.targets[*target].graph, query))
            .collect();
    }

    #[cfg(test)]
    fn sabotage_expected(&mut self) {
        match &mut self.expected[0] {
            Expected::Bfs(depth) => depth[0] ^= 1,
            _ => panic!("every traversal op list starts with a BFS"),
        }
    }

    fn enable_tracing(&mut self, observer: ObserverHandle) {
        for target in &mut self.targets {
            let cgr = target.session.cgr().expect("GCGT sessions encode").clone();
            target.traced = Some(self.shape.prepare(cgr, Some(observer.clone())));
        }
    }

    fn run_pass(&self, mode: Mode, tracer: &Tracer) -> Pass {
        match self.serve_workers {
            Some(workers) => self.serve_pass(workers, mode, tracer),
            None => self.query_pass(mode, tracer),
        }
    }

    fn inputs(&self) -> Vec<&Csr> {
        self.targets.iter().map(|t| &*t.graph).collect()
    }

    fn structures(&self) -> Vec<StructureInfo> {
        self.targets
            .iter()
            .map(|t| {
                let prepared = t.session.prepared();
                let file_bytes = write(prepared.cgr().expect("GCGT sessions encode")).len();
                StructureInfo::of(&prepared, file_bytes)
            })
            .collect()
    }

    fn gpucsr_modeled_ms_per_op(&self) -> Option<f64> {
        if self.shape != Shape::InCore || self.serve_workers.is_some() {
            return None;
        }
        let sessions: Vec<Session> = self
            .targets
            .iter()
            .map(|t| {
                Session::builder()
                    .graph_shared(Arc::clone(&t.graph))
                    .engine(EngineKind::GpuCsr)
                    .build()
                    .expect("the uncompressed graph fits the default device")
            })
            .collect();
        let total: f64 = self
            .ops
            .iter()
            .map(|&(target, query)| sessions[target].run(query).stats.est_ms)
            .sum();
        Some(total / self.ops.len() as f64)
    }

    fn one_worker_pass_s(&self) -> Option<f64> {
        self.serve_workers
            .map(|_| self.serve_pass(1, Mode::Timed, &Tracer::disabled()).wall_s)
    }
}
