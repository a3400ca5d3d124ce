//! The sharded traversal engine: owner-computes BSP over N modeled devices.
//!
//! [`ShardEngine`] implements the [`Expander`] contract, so every
//! application runs on a sharded deployment unmodified. Each kernel launch
//! is one bulk-synchronous step: every shard expands exactly the work nodes
//! it owns (the union across shards is the serial work list, each node
//! expanded once), then every shard that discovered nodes owned elsewhere
//! holds, per such owner, one dense frontier-bitmap segment over the owner's
//! range. The segments are delivered over the modeled
//! [`InterconnectConfig`] by the log-depth dissemination schedule of
//! [`crate::exchange`] — a reduce-scatter with OR in at most `⌈log₂ d⌉`
//! rounds of one send per device — rather than one point-to-point message
//! per (source, owner) pair.
//!
//! # Why messages, not bytes
//!
//! The link model is α–β: `bytes / bandwidth + messages × latency`. A
//! segment is about a kilobyte, so over NVLink (40 GB/s, 2 µs setup) a
//! step's bandwidth term is ~2 % of its bill and per-message setup ~98 %:
//! the message count is the binding cost. The schedule cuts it from up to
//! `d·(d−1)` to at most `d·⌈log₂ d⌉` (56 → 24 at eight devices) and leaves
//! bytes where they were — a device still sends at most `d−1` merged
//! segments a step. A gather/scatter star through one root would send only
//! `2(d−1)` messages but is deliberately not used: the engine's aggregate
//! clock sums messages and cannot see them serialising on the root's link,
//! while the dissemination rounds keep every link equally busy.
//!
//! # Cost attribution
//!
//! Sharding never changes decode work: the per-step union of per-shard
//! expansions is exactly the serial schedule, so the simulator executes the
//! reference warp schedule and `RunStats::est_ms` (cycles, launches,
//! tallies, memory, push/pull counters) is **bitwise identical at any shard
//! count** — the aggregate device work, which partitioning redistributes
//! but does not alter. What sharding *adds* — the per-step barrier and the
//! boundary-bitmap exchange — is charged host-side into the separate
//! [`gcgt_simt::RunStats`] fields `sync_steps`, `boundary_nodes` and
//! `exchange_ms`, the same separation the out-of-core engine uses for
//! streamed transfer time. Results stay comparable, overheads stay
//! attributable.

use gcgt_baselines::{GpuCsrEngine, GunrockEngine};
use gcgt_cgr::CgrGraph;
use gcgt_core::kernels::Sink;
use gcgt_core::{DirectionMode, Expander, Frontier, GcgtEngine, Strategy};
use gcgt_graph::{Csr, NodeId};
use gcgt_ooc::{OocConfig, OocEngine, PartitionMap};
use gcgt_simt::{Device, DeviceConfig, InterconnectConfig, OomError, PcieConfig, WarpSim};

use crate::exchange::{ActivityMatrix, ExchangeCost};
use crate::plan::ShardPlan;

/// The engine running inside each shard of a sharded session — the `Copy`
/// selector the session layer embeds in `EngineKind::Sharded`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardInner {
    /// Compressed GCGT traversal, in-core per device.
    Gcgt(Strategy),
    /// Compressed GCGT traversal streaming through a per-device memory
    /// budget (each shard runs its own partition cache).
    OutOfCore(Strategy),
    /// The uncompressed GPUCSR baseline.
    GpuCsr,
    /// The Gunrock-style uncompressed baseline.
    Gunrock,
}

/// Everything a sharded **streaming** engine needs — bundled because the
/// out-of-core constructor wires two layers of partitioning (the coarse
/// device placement and the fine streaming partitions) plus both link
/// models.
pub struct ShardOocParams<'g> {
    /// The compressed graph.
    pub cgr: &'g CgrGraph,
    /// The uncompressed adjacency, for ownership and boundary discovery.
    pub graph: &'g Csr,
    /// The device placement.
    pub plan: &'g ShardPlan,
    /// The fine streaming partitions every shard's cache draws from.
    pub parts: &'g PartitionMap,
    /// Device↔device link for the frontier exchange.
    pub interconnect: InterconnectConfig,
    /// Per-device simulator configuration.
    pub device_config: DeviceConfig,
    /// Decode strategy inside each shard.
    pub strategy: Strategy,
    /// Host link streaming partitions fault over.
    pub pcie: PcieConfig,
    /// Streaming knobs (chunking, overlap).
    pub config: OocConfig,
    /// Partition-cache byte budget **per device**.
    pub cache_budget: usize,
}

enum InnerHolder<'g> {
    Gcgt(GcgtEngine<'g>),
    GpuCsr(GpuCsrEngine<'g>),
    Gunrock(GunrockEngine<'g>),
    /// One streaming engine per shard, each with a private partition cache
    /// under the per-device budget.
    Ooc(Vec<OocEngine<'g>>),
}

/// A sharded traversal engine: N modeled devices, each expanding its owned
/// slice of every frontier, exchanging boundary discoveries as merged
/// frontier-bitmap segments between steps. Implements [`Expander`], so all applications and
/// the session/serving layers run on it unmodified.
pub struct ShardEngine<'g> {
    graph: &'g Csr,
    plan: &'g ShardPlan,
    interconnect: InterconnectConfig,
    direction: DirectionMode,
    inner: InnerHolder<'g>,
}

impl<'g> ShardEngine<'g> {
    /// A sharded in-core compressed engine. Fails when graph plus traversal
    /// buffers exceed the reference device's capacity.
    pub fn gcgt(
        cgr: &'g CgrGraph,
        graph: &'g Csr,
        plan: &'g ShardPlan,
        interconnect: InterconnectConfig,
        device_config: DeviceConfig,
        strategy: Strategy,
    ) -> Result<Self, OomError> {
        Ok(Self {
            graph,
            plan,
            interconnect,
            direction: DirectionMode::Push,
            inner: InnerHolder::Gcgt(GcgtEngine::new(cgr, device_config, strategy)?),
        })
    }

    /// A sharded GPUCSR baseline engine.
    pub fn gpu_csr(
        graph: &'g Csr,
        plan: &'g ShardPlan,
        interconnect: InterconnectConfig,
        device_config: DeviceConfig,
    ) -> Result<Self, OomError> {
        Ok(Self {
            graph,
            plan,
            interconnect,
            direction: DirectionMode::Push,
            inner: InnerHolder::GpuCsr(GpuCsrEngine::new(graph, device_config)?),
        })
    }

    /// A sharded Gunrock-style baseline engine.
    pub fn gunrock(
        graph: &'g Csr,
        plan: &'g ShardPlan,
        interconnect: InterconnectConfig,
        device_config: DeviceConfig,
    ) -> Result<Self, OomError> {
        Ok(Self {
            graph,
            plan,
            interconnect,
            direction: DirectionMode::Push,
            inner: InnerHolder::Gunrock(GunrockEngine::new(graph, device_config)?),
        })
    }

    /// A sharded **streaming** engine: every shard runs its own partition
    /// cache under `cache_budget` bytes. Fails when one cache cannot hold
    /// the largest partition, or when the traversal scratch plus the
    /// *aggregate* of all per-shard caches exceeds device capacity — the
    /// caches coexist on the reference device, so the aggregate must be
    /// verified up front (partition faults inside a run are infallible).
    pub fn out_of_core(p: ShardOocParams<'g>) -> Result<Self, OomError> {
        let scratch = gcgt_core::memory::traversal_buffers_bytes(p.cgr.num_nodes());
        let devices = p.plan.devices();
        let aggregate = scratch + devices * p.cache_budget;
        if aggregate > p.device_config.mem_capacity {
            return Err(OomError {
                requested: aggregate,
                capacity: p.device_config.mem_capacity,
            });
        }
        let engines = (0..devices)
            .map(|_| {
                OocEngine::new(
                    p.cgr,
                    p.parts,
                    p.device_config,
                    p.strategy,
                    p.pcie,
                    p.config,
                    p.cache_budget,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            graph: p.graph,
            plan: p.plan,
            interconnect: p.interconnect,
            direction: DirectionMode::Push,
            inner: InnerHolder::Ooc(engines),
        })
    }

    /// Sets the expansion-direction policy. Pull composes with sharding by
    /// ownership of the **candidate scan**: a pull step's work list is the
    /// unvisited candidates, each scanned by its owning shard, with remote
    /// parents learned through the same bitmap exchange.
    #[must_use]
    pub fn with_direction(mut self, direction: DirectionMode) -> Self {
        self.direction = direction;
        self
    }

    /// The device placement.
    pub fn plan(&self) -> &ShardPlan {
        self.plan
    }

    /// The device↔device link model.
    pub fn interconnect(&self) -> &InterconnectConfig {
        &self.interconnect
    }

    /// The engine every shard decodes with. Streaming shards differ only in
    /// their private caches, so shard 0 stands in for all of them wherever
    /// residency is not involved.
    fn inner(&self) -> &dyn Expander {
        match &self.inner {
            InnerHolder::Gcgt(e) => e,
            InnerHolder::GpuCsr(e) => e,
            InnerHolder::Gunrock(e) => e,
            InnerHolder::Ooc(v) => &v[0],
        }
    }

    /// Charges one BSP step on `device`: the barrier, then the boundary
    /// exchange for this step's `work` list (frontier nodes in push mode,
    /// unvisited candidates in pull mode), priced as the log-depth
    /// dissemination schedule of [`crate::exchange`].
    fn charge_step(&self, device: &mut Device, work: &[NodeId]) {
        if self.plan.devices() <= 1 || work.is_empty() {
            return;
        }
        device.charge_sync_step();
        let (activity, boundary) = ActivityMatrix::of_step(self.graph, self.plan, work);
        let cost = ExchangeCost::plan(&activity, self.plan);
        let exchange_ms = self.interconnect.exchange_ms(cost.bytes, cost.messages);
        // An injected link fault wastes the whole exchange — every round of
        // it: the chaos gate re-charges the failed exchange (plus backoff)
        // into `exchange_ms` per failed attempt before the successful one
        // is charged below. No-op without an active fault plan.
        device.chaos_gate(gcgt_simt::chaos::FaultDomain::Exchange, exchange_ms);
        let obs_start = device.observer().is_some().then(|| device.modeled_ms());
        device.charge_exchange(exchange_ms, boundary);
        if let (Some(start_ms), Some(obs)) = (obs_start, device.observer()) {
            obs.exchange(&gcgt_simt::obs::ExchangeEvent {
                track: device.track(),
                start_ms,
                step: device.stats().sync_steps,
                bytes: cost.bytes as u64,
                messages: cost.messages as u64,
                rounds: cost.rounds as u64,
                boundary_nodes: boundary,
                exchange_ms,
            });
        }
    }
}

impl Expander for ShardEngine<'_> {
    fn num_nodes(&self) -> usize {
        self.inner().num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner().num_edges()
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.inner().out_degree(u)
    }

    fn direction(&self) -> DirectionMode {
        self.direction
    }

    fn device_config(&self) -> &DeviceConfig {
        self.inner().device_config()
    }

    fn footprint(&self) -> usize {
        self.inner().footprint()
    }

    fn structure_bytes(&self) -> usize {
        self.inner().structure_bytes()
    }

    fn prepare_frontier(&self, device: &mut Device, work: &[NodeId]) {
        // Residency first: each streaming shard faults the partitions its
        // owned slice of the work list needs, in shard order (serial, hence
        // deterministic). One shard degenerates to the serial streaming
        // engine bit-for-bit.
        if let InnerHolder::Ooc(engines) = &self.inner {
            if self.plan.devices() == 1 {
                engines[0].prepare_frontier(device, work);
            } else {
                let mut owned: Vec<Vec<NodeId>> = vec![Vec::new(); self.plan.devices()];
                for &u in work {
                    owned[self.plan.owner_of(u)].push(u);
                }
                for (s, nodes) in owned.iter().enumerate() {
                    if !nodes.is_empty() {
                        engines[s].prepare_frontier(device, nodes);
                    }
                }
            }
        }
        // Then the BSP barrier and boundary exchange for this step.
        self.charge_step(device, work);
    }

    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
        self.inner().expand_chunk(warp, chunk, sink);
    }

    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        frontier: &Frontier,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        self.inner().pull_chunk(warp, chunk, frontier, out)
    }

    fn release_residency(&self, device: &mut Device) {
        if let InnerHolder::Ooc(engines) = &self.inner {
            for e in engines {
                e.release_residency(device);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::CgrConfig;
    use gcgt_core::bfs;
    use gcgt_graph::gen::{web_graph, WebParams};

    fn fixture() -> (Csr, CgrGraph) {
        let g = web_graph(&WebParams::uk2002_like(400), 5).symmetrized();
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        (g, cgr)
    }

    fn device() -> DeviceConfig {
        DeviceConfig::titan_v_scaled(64 << 20)
    }

    #[test]
    fn outputs_and_kernel_stats_bitwise_serial_at_any_device_count() {
        let (g, cgr) = fixture();
        let serial = GcgtEngine::new(&cgr, device(), Strategy::Full).unwrap();
        let want = bfs(&serial, 0);
        let want_stats = {
            let mut dev = serial.new_device();
            let _ = gcgt_core::bfs_in(&serial, &mut dev, 0);
            dev.stats()
        };
        for devices in [1, 2, 4, 8] {
            let plan = ShardPlan::build(&cgr, devices);
            let sharded = ShardEngine::gcgt(
                &cgr,
                &g,
                &plan,
                InterconnectConfig::nvlink(),
                device(),
                Strategy::Full,
            )
            .unwrap();
            let got = bfs(&sharded, 0);
            assert_eq!(got.depth, want.depth, "{devices} devices");
            assert_eq!(got.reached, want.reached);
            let mut dev = sharded.new_device();
            let _ = gcgt_core::bfs_in(&sharded, &mut dev, 0);
            let stats = dev.stats();
            // Kernel-side numbers are bitwise the serial run's…
            assert_eq!(stats.est_ms.to_bits(), want_stats.est_ms.to_bits());
            assert_eq!(stats.cycles.to_bits(), want_stats.cycles.to_bits());
            assert_eq!(stats.launches, want_stats.launches);
            assert_eq!(stats.tally, want_stats.tally);
            assert_eq!(stats.mem, want_stats.mem);
            // …and the exchange lives in its own counters.
            if devices == 1 {
                assert_eq!(stats.exchange_ms, 0.0);
                assert_eq!(stats.sync_steps, 0);
                assert_eq!(stats.boundary_nodes, 0);
            } else {
                assert!(stats.exchange_ms > 0.0, "{devices} devices");
                assert!(stats.sync_steps > 0);
                assert!(stats.boundary_nodes > 0);
            }
        }
    }

    #[test]
    fn boundary_traffic_is_monotone_in_device_count() {
        let (g, cgr) = fixture();
        let boundary = |devices: usize| {
            let plan = ShardPlan::build(&cgr, devices);
            let e = ShardEngine::gcgt(
                &cgr,
                &g,
                &plan,
                InterconnectConfig::nvlink(),
                device(),
                Strategy::Full,
            )
            .unwrap();
            let mut dev = e.new_device();
            let _ = gcgt_core::bfs_in(&e, &mut dev, 0);
            dev.stats().boundary_nodes
        };
        let (b1, b2, b4, b8) = (boundary(1), boundary(2), boundary(4), boundary(8));
        assert_eq!(b1, 0);
        assert!(b2 > 0);
        assert!(b2 <= b4 && b4 <= b8, "{b2} {b4} {b8}");
    }

    #[test]
    fn streaming_shards_verify_aggregate_capacity() {
        let (g, cgr) = fixture();
        let plan = ShardPlan::build(&cgr, 8);
        let parts = PartitionMap::build(&cgr, 1 << 10);
        let scratch = gcgt_core::memory::traversal_buffers_bytes(cgr.num_nodes());
        let cache_budget = parts.max_partition_bytes().max(1 << 10);
        // Eight caches would overflow a device sized for about two.
        let tight = DeviceConfig::titan_v_scaled(scratch + 2 * cache_budget);
        let err = ShardEngine::out_of_core(ShardOocParams {
            cgr: &cgr,
            graph: &g,
            plan: &plan,
            parts: &parts,
            interconnect: InterconnectConfig::nvlink(),
            device_config: tight,
            strategy: Strategy::Full,
            pcie: PcieConfig::default(),
            config: OocConfig::default(),
            cache_budget,
        });
        assert!(err.is_err());
        let roomy = DeviceConfig::titan_v_scaled(scratch + 8 * cache_budget);
        let ok = ShardEngine::out_of_core(ShardOocParams {
            cgr: &cgr,
            graph: &g,
            plan: &plan,
            parts: &parts,
            interconnect: InterconnectConfig::nvlink(),
            device_config: roomy,
            strategy: Strategy::Full,
            pcie: PcieConfig::default(),
            config: OocConfig::default(),
            cache_budget,
        });
        assert!(ok.is_ok());
    }
}
