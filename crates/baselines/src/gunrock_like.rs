//! A Gunrock-style baseline (Wang et al., "Gunrock: GPU Graph Analytics").
//!
//! Gunrock is a general *platform*: traversal is expressed as an
//! advance–filter operator pipeline, which buys programmability at two
//! costs the paper observes:
//!
//! * a separate filter pass re-reads and re-writes the frontier each
//!   iteration (extra instructions + memory traffic per candidate), making
//!   it somewhat slower than the hand-tuned `GPUCSR` implementations;
//! * the platform keeps multiple auxiliary frontier/segment buffers
//!   resident, so it "runs out of the 12GB device memory due to extra
//!   device memory allocated for its platform design" — reproduced here by
//!   the 3× footprint of [`gcgt_core::memory::gunrock_footprint`], which
//!   makes it the first engine to OOM as datasets grow (Figures 8, 15).

use crate::gpucsr::{
    csr_shares, expand_csr_chunk, expand_csr_share, pull_csr_chunk, row_offset_addrs,
};
use gcgt_core::kernels::Sink;
use gcgt_core::{memory, DirectionMode, Expander};
use gcgt_graph::{Csr, NodeId};
use gcgt_simt::{DeviceConfig, OpClass, Space, WarpSim};

/// A Gunrock-style advance+filter engine on the simulated device.
pub struct GunrockEngine<'g> {
    graph: &'g Csr,
    device_config: DeviceConfig,
    direction: DirectionMode,
}

impl<'g> GunrockEngine<'g> {
    /// Binds the engine. Capacity (3× CSR plus doubled traversal buffers)
    /// is checked when a device is made ([`Expander::new_device`]).
    pub fn new(graph: &'g Csr, device_config: DeviceConfig) -> Self {
        Self {
            graph,
            device_config,
            direction: DirectionMode::Push,
        }
    }

    /// Sets the expansion-direction policy (Gunrock's advance operator
    /// supports both directions). Pull needs symmetric adjacency — the
    /// session layer verifies this.
    #[must_use]
    pub fn with_direction(mut self, direction: DirectionMode) -> Self {
        self.direction = direction;
        self
    }
}

/// Wraps an app sink with the filter-operator overhead: each handled batch
/// pays an extra generic pass (frontier re-read + validity write) before the
/// real filtering runs.
struct FilterOverhead<'s> {
    inner: &'s mut dyn Sink,
}

impl Sink for FilterOverhead<'_> {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        // The filter kernel's extra traffic: re-read the candidate slot and
        // write a validity marker.
        warp.issue_mem(
            OpClass::Generic,
            items.len(),
            (0..items.len() as u64).map(|i| Space::Output.addr((1 << 32) + 4 * i)),
        );
        self.inner.handle(warp, items);
    }
}

impl Expander for GunrockEngine<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.graph.degree(u)
    }

    fn direction(&self) -> DirectionMode {
        self.direction
    }

    fn device_config(&self) -> &DeviceConfig {
        &self.device_config
    }

    fn structure_bytes(&self) -> usize {
        memory::gunrock_structure_bytes(self.graph)
    }

    fn index_addrs(&self, u: NodeId, addrs: &mut Vec<u64>) {
        addrs.extend(row_offset_addrs(u));
    }

    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
        let mut wrapped = FilterOverhead { inner: sink };
        expand_csr_chunk(self.graph, warp, chunk, &mut wrapped);
    }

    fn shares(&self, u: NodeId) -> usize {
        csr_shares(self.graph, u, self.device_config.warp_width)
    }

    fn expand_share(
        &self,
        warp: &mut WarpSim,
        u: NodeId,
        share: usize,
        of: usize,
        sink: &mut dyn Sink,
    ) {
        let mut wrapped = FilterOverhead { inner: sink };
        expand_csr_share(self.graph, warp, u, share, of, &mut wrapped);
    }

    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        depth: &[u32],
        du: u32,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        // The platform's filter pass re-reads the candidate frontier slots
        // once per pull chunk before the advance runs backward.
        warp.issue_mem(
            OpClass::Generic,
            chunk.len(),
            (0..chunk.len() as u64).map(|i| Space::Output.addr((1 << 32) + 4 * i)),
        );
        pull_csr_chunk(self.graph, warp, chunk, depth, du, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpucsr::GpuCsrEngine;
    use gcgt_graph::gen::{web_graph, WebParams};
    use gcgt_graph::refalgo;

    #[test]
    fn bfs_matches_oracle() {
        let g = web_graph(&WebParams::uk2002_like(700), 21);
        let e = GunrockEngine::new(&g, DeviceConfig::default());
        let got = gcgt_core::bfs(&e, 0);
        assert_eq!(got.depth, refalgo::bfs(&g, 0).depth);
    }

    #[test]
    fn slower_than_gpucsr_but_correct() {
        let g = web_graph(&WebParams::uk2002_like(1200), 4);
        let gunrock = GunrockEngine::new(&g, DeviceConfig::default());
        let gpucsr = GpuCsrEngine::new(&g, DeviceConfig::default());
        let a = gcgt_core::bfs(&gunrock, 0);
        let b = gcgt_core::bfs(&gpucsr, 0);
        assert_eq!(a.depth, b.depth);
        assert!(
            a.stats.est_ms > b.stats.est_ms,
            "gunrock {} vs gpucsr {}",
            a.stats.est_ms,
            b.stats.est_ms
        );
    }

    #[test]
    fn new_device_fits_exactly_the_footprint() {
        let g = web_graph(&WebParams::uk2002_like(3000), 2);
        let at = |mem_capacity| DeviceConfig {
            mem_capacity,
            ..DeviceConfig::default()
        };
        let engines = |dc| -> [Box<dyn Expander + '_>; 2] {
            [
                Box::new(GpuCsrEngine::new(&g, dc)),
                Box::new(GunrockEngine::new(&g, dc)),
            ]
        };
        let footprints = [memory::csr_footprint(&g), memory::gunrock_footprint(&g)];
        let structures = [
            memory::csr_structure_bytes(&g),
            memory::gunrock_structure_bytes(&g),
        ];
        for (i, footprint) in footprints.into_iter().enumerate() {
            let engine = &engines(at(footprint))[i];
            assert_eq!(engine.footprint(), footprint);
            let device = engine.new_device().unwrap();
            assert_eq!(device.allocated(), structures[i]);
            assert_eq!(
                engines(at(footprint - 1))[i].new_device().err(),
                Some(gcgt_simt::OomError {
                    requested: footprint,
                    capacity: footprint - 1,
                })
            );
        }
        // The platform needs more: between the two, only GPUCSR fits.
        let between = engines(at((footprints[0] + footprints[1]) / 2));
        assert!(between[0].new_device().is_ok());
        assert!(between[1].new_device().is_err());
    }
}
