//! One module per table/figure of the paper's evaluation (Section 7 and
//! Appendices D/E), plus ablations of the reproduction's own design
//! choices. Every module exposes `run(&ExperimentContext) -> Table`
//! printing the same rows/series the paper reports.

pub mod ablations;
pub mod chaos;
pub mod decode;
pub mod direction;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig8;
pub mod fig9;
pub mod load;
pub mod ooc;
pub mod refs;
pub mod serve;
pub mod shard;
pub mod table1;
pub mod table3;

use std::sync::Arc;

use crate::datasets::{bfs_sources, experiment_device, Dataset, Scale};
use gcgt_cgr::CgrConfig;
use gcgt_core::Strategy;
use gcgt_graph::Csr;
use gcgt_session::{Bfs, EngineKind, PreparedGraph, Session};
use gcgt_simt::DeviceConfig;

/// Shared inputs of every experiment: the five datasets, the device, and
/// how many BFS sources to average over.
pub struct ExperimentContext {
    /// The five preprocessed datasets.
    pub datasets: Vec<Dataset>,
    /// Scale they were built at.
    pub scale: Scale,
    /// BFS sources averaged per measurement.
    pub sources: usize,
    /// The simulated device.
    pub device: DeviceConfig,
}

impl ExperimentContext {
    /// Builds the datasets and device for `scale`.
    pub fn new(scale: Scale, sources: usize) -> Self {
        let datasets = Dataset::build_all(scale);
        let device = experiment_device(&datasets);
        Self {
            datasets,
            scale,
            sources,
            device,
        }
    }
}

/// Builds a GCGT session over `graph` for `strategy` (starting from
/// `base_cfg`) and returns the average simulated BFS time over `sources`
/// (run as **one batch** on one device residency) plus the CGR structure
/// size in bits. This is the primitive almost every figure sweeps — it
/// takes the graph as an `Arc` so a sweep shares one in-memory copy
/// across all its configuration points.
pub fn gcgt_bfs_ms(
    graph: Arc<Csr>,
    base_cfg: &CgrConfig,
    strategy: Strategy,
    device: DeviceConfig,
    sources: &[u32],
) -> (f64, usize) {
    let session = Session::builder()
        .graph_shared(graph)
        .compress(strategy.cgr_config(base_cfg))
        .device(device)
        .engine(EngineKind::Gcgt(strategy))
        .build()
        .expect("experiment graphs must fit the device");
    let queries: Vec<Bfs> = sources.iter().copied().map(Bfs::from).collect();
    let batch = session.run_batch(&queries);
    let bits = session.cgr().expect("GCGT session encodes").bits().len();
    (batch.mean_query_ms(), bits)
}

/// A memory budget that forces `incore`'s graph to stream while keeping
/// half of its structure as partition cache: the per-query scratch, which
/// is fixed by the node count, plus half the structure. A budget taken as
/// a share of the whole footprint would hand a smaller structure a smaller
/// share of itself, so a layout that shrinks the structure would stream
/// more.
pub fn streaming_budget(incore: &PreparedGraph) -> usize {
    let structure = incore.structure_bytes();
    incore.footprint() - structure + structure / 2
}

/// Convenience: the deterministic source list for a dataset.
pub fn sources_for(ds: &Dataset, count: usize) -> Vec<u32> {
    bfs_sources(&ds.graph, count)
}
