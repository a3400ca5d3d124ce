//! # gcgt
//!
//! A full reproduction of **"GPU-based Graph Traversal on Compressed
//! Graphs"** (Sha, Li, Tan — SIGMOD 2019) as a Rust workspace: the CGR
//! compression format, the GCGT traversal kernels (Two-Phase, Task-Stealing,
//! Warp-centric Decoding, Residual Segmentation), a deterministic SIMT
//! simulator standing in for the GPU, CPU and GPU baselines, and an
//! experiment harness regenerating every table and figure of the paper's
//! evaluation.
//!
//! ## Quickstart
//!
//! Everything runs through a [`prelude::Session`]: a typed builder that owns
//! preprocessing (reordering, symmetrization), CGR encoding, device-capacity
//! checking and engine selection; applications then run uniformly via the
//! [`prelude::Algorithm`] trait.
//!
//! ```
//! use gcgt::prelude::*;
//!
//! // 1. A graph (here: a synthetic web crawl; use your own edge list).
//! let graph = web_graph(&WebParams::uk2002_like(2_000), 42);
//!
//! // 2. One builder owns the paper's whole pipeline: LLP reordering for
//! //    locality, CGR encoding (Table 2 parameters), capacity checking,
//! //    and engine selection — all validated before anything runs.
//! let session = Session::builder()
//!     .graph(graph)
//!     .reorder(Reordering::Llp(LlpConfig::default()))
//!     .compress(Strategy::Full.cgr_config(&CgrConfig::paper_default()))
//!     .device(DeviceConfig::titan_v_scaled(64 << 20))
//!     .engine(EngineKind::Gcgt(Strategy::Full))
//!     .build()
//!     .expect("graph fits the device");
//! assert!(session.compression_rate() > 2.0);
//!
//! // 3. Run applications uniformly — results come back in your own node
//! //    ids even though the session reordered internally.
//! let run = session.run(Bfs::from(0));
//! assert_eq!(run.output.depth[0], 0);
//! println!("BFS: {} nodes in {:.3} simulated ms", run.output.reached, run.stats.est_ms);
//!
//! // 4. Serving workloads batch many queries over ONE device residency.
//! let sources: Vec<Bfs> = (0..8).map(Bfs::from).collect();
//! let batch = session.run_batch(&sources);
//! assert_eq!(batch.uploads, 1);
//! assert!(batch.total_ms() < (0..8).map(|s| session.run(Bfs::from(s)).total_ms()).sum());
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub use gcgt_baselines as baselines;
pub use gcgt_bench as bench;
pub use gcgt_bits as bits;
pub use gcgt_cgr as cgr;
pub use gcgt_chaos as chaos;
pub use gcgt_core as core;
pub use gcgt_graph as graph;
pub use gcgt_obs as obs;
pub use gcgt_ooc as ooc;
pub use gcgt_serve as serve;
pub use gcgt_session as session;
pub use gcgt_shard as shard;
pub use gcgt_simt as simt;

/// The commonly-used types and functions in one import.
pub mod prelude {
    // --- the Session API (the primary interface) ---
    pub use gcgt_core::{
        Algorithm, Bc, BcRun, Bfs, BfsRun, Cc, CcRun, LabelProp, LabelPropRun, Pagerank,
        PagerankRun, Query, QueryOutput,
    };
    pub use gcgt_session::{
        BatchRun, EngineKind, Executor, PreparedGraph, Run, Session, SessionBuilder, SessionError,
    };

    // --- the concurrent serving layer (N workers over one PreparedGraph) ---
    pub use gcgt_serve::{
        QueryError, ServeError, ServePolicy, ServePool, ServeReport, ServeStats, WorkerReport,
    };

    // --- deterministic fault injection (chaos plans, retries, typed failures) ---
    pub use gcgt_chaos::{FaultDomain, FaultPlan, FaultRate, RetryPolicy, TypedFailure};

    // --- observability (deterministic tracing + metrics) ---
    pub use gcgt_obs::{
        FanoutObserver, MetricsRegistry, NullObserver, Observer, ObserverHandle, TraceRecorder,
    };

    // --- the engine layer (for building custom engines / direct control) ---
    pub use gcgt_baselines::{GpuCsrEngine, GunrockEngine, LigraGraph, LigraPlusGraph};
    pub use gcgt_core::{DirectionMode, Expander, GcgtEngine, Strategy, PULL_ALPHA};
    pub use gcgt_ooc::{OocEngine, PartitionMap};
    pub use gcgt_shard::{ShardEngine, ShardPlan};

    // --- substrate ---
    pub use gcgt_bits::Code;
    pub use gcgt_cgr::{ByteRleGraph, CgrConfig, CgrGraph, CompressionStats, ValidationMode};
    pub use gcgt_graph::edgelist;
    pub use gcgt_graph::gen::{
        brain_like, erdos_renyi, rmat, social_graph, toys, web_graph, BrainParams, RmatParams,
        SocialParams, WebParams,
    };
    pub use gcgt_graph::order::{GorderConfig, LlpConfig, SlashBurnConfig};
    pub use gcgt_graph::{refalgo, Csr, CsrBuilder, NodeId, Reordering, VnodeConfig, VnodeGraph};
    pub use gcgt_simt::{Device, DeviceConfig, Link, RunStats, HOST_LINK};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let g = toys::figure1();
        let session = Session::builder()
            .graph(g.clone())
            .engine(EngineKind::Gcgt(Strategy::Full))
            .build()
            .unwrap();
        let run = session.run(Bfs::from(0));
        assert_eq!(run.output.depth, refalgo::bfs(&g, 0).depth);
    }
}
