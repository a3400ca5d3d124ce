//! The sharded traversal engine: owner-computes BSP over N modeled devices.
//!
//! [`ShardEngine`] wraps engines it knows only as `dyn` [`Expander`] and
//! implements the contract itself, so any engine — stock or user-defined —
//! can be sharded, and every application runs on a sharded deployment
//! unmodified (the crate docs shard a user-defined engine). Each kernel launch
//! is one bulk-synchronous step: every shard expands exactly the work nodes
//! it owns (the union across shards is the serial work list, each node
//! expanded once), then every shard that discovered nodes owned elsewhere
//! holds, per such owner, one dense frontier-bitmap segment over the owner's
//! range. The segments are delivered over the modeled
//! [`Link`] by the log-depth dissemination schedule of
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

use gcgt_core::kernels::Sink;
use gcgt_core::{DirectionMode, Expander};
use gcgt_graph::{Csr, NodeId};
use gcgt_simt::{Charge, Device, DeviceConfig, FaultDomain, Link, TypedFailure, WarpSim};

use crate::exchange::{ActivityMatrix, ExchangeCost};
use crate::plan::ShardPlan;

/// A sharded traversal engine: N modeled devices, each expanding its owned
/// slice of every frontier, exchanging boundary discoveries as merged
/// frontier-bitmap segments between steps. A decorator: it wraps engines it
/// knows only as `dyn` [`Expander`] and implements [`Expander`] itself, so
/// all applications and the session/serving layers run on it unmodified.
pub struct ShardEngine<'g> {
    graph: &'g Csr,
    plan: &'g ShardPlan,
    interconnect: Link,
    per_device: Vec<Box<dyn Expander + 'g>>,
}

impl<'g> ShardEngine<'g> {
    /// Shards `per_device` over `plan`'s devices, exchanging boundary
    /// discoveries over `interconnect`; boundary discovery reads the
    /// uncompressed adjacency `graph`.
    ///
    /// `per_device` holds either **one** engine that every shard shares —
    /// right for engines that keep no residency of their own (the in-core
    /// ones): the work list reaches its hooks whole — or **one engine per
    /// device** (`plan.devices()` of them, identical but for their private
    /// residency, e.g. a streaming engine's partition cache): before each
    /// launch, engine `s` is handed exactly the work nodes shard `s` owns.
    /// Capacity is the caller's to verify: private residencies coexist on
    /// the one modeled memory pool, so their aggregate must fit it.
    ///
    /// Direction, footprints and the device configuration are the inner
    /// engines'. Pull composes with sharding by ownership of the
    /// **candidate scan**: a pull step's work list is the unvisited
    /// candidates, each scanned by its owning shard, with remote parents
    /// learned through the same bitmap exchange.
    ///
    /// # Panics
    /// Panics if `per_device.len()` is neither 1 nor `plan.devices()`.
    pub fn new(
        graph: &'g Csr,
        plan: &'g ShardPlan,
        interconnect: Link,
        per_device: Vec<Box<dyn Expander + 'g>>,
    ) -> Self {
        assert!(
            per_device.len() == 1 || per_device.len() == plan.devices(),
            "{} engines for {} devices: pass one shared engine or one per device",
            per_device.len(),
            plan.devices()
        );
        Self {
            graph,
            plan,
            interconnect,
            per_device,
        }
    }

    /// The engine every shard decodes with. Per-device engines differ only
    /// in their private residency, so the first stands in for all of them
    /// wherever residency is not involved.
    fn inner(&self) -> &dyn Expander {
        &*self.per_device[0]
    }

    /// Charges one BSP step on `device`: the barrier, then the boundary
    /// exchange for this step's `work` list (frontier nodes in push mode,
    /// unvisited candidates in pull mode), priced as the log-depth
    /// dissemination schedule of [`crate::exchange`]. Fails with
    /// [`TypedFailure::FaultBudgetExhausted`] when injected link faults
    /// outlast the retry budget.
    fn charge_step(&self, device: &mut Device, work: &[NodeId]) -> Result<(), TypedFailure> {
        if self.plan.devices() <= 1 || work.is_empty() {
            return Ok(());
        }
        device.record(Charge::SyncStep);
        let (activity, boundary) = ActivityMatrix::of_step(self.graph, self.plan, work);
        let cost = ExchangeCost::plan(&activity, self.plan);
        let exchange_ms = self.interconnect.ms(cost.bytes, cost.messages);
        // An injected link fault wastes the whole exchange — every round of
        // it: the chaos gate re-charges the failed exchange (plus backoff)
        // into `exchange_ms` per failed attempt before the successful one
        // is charged below. No-op without an active fault plan.
        device.chaos_gate(FaultDomain::Exchange, exchange_ms)?;
        device.record(Charge::Exchange {
            bytes: cost.bytes as u64,
            messages: cost.messages as u64,
            rounds: cost.rounds as u64,
            boundary_nodes: boundary,
            exchange_ms,
        });
        Ok(())
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
        self.inner().direction()
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

    fn prepare_frontier(&self, device: &mut Device, work: &[NodeId]) -> Result<(), TypedFailure> {
        // Residency first. A shared engine sees the whole list; per-device
        // engines each fault what their owned slice needs, in shard order
        // (serial, hence deterministic). One shard degenerates to the bare
        // inner engine bit-for-bit. The first failure ends the step.
        if let [shared] = &self.per_device[..] {
            shared.prepare_frontier(device, work)?;
        } else {
            let mut owned: Vec<Vec<NodeId>> = vec![Vec::new(); self.per_device.len()];
            for &u in work {
                owned[self.plan.owner_of(u)].push(u);
            }
            for (engine, nodes) in self.per_device.iter().zip(&owned) {
                if !nodes.is_empty() {
                    engine.prepare_frontier(device, nodes)?;
                }
            }
        }
        // Then the BSP barrier and boundary exchange for this step.
        self.charge_step(device, work)
    }

    fn index_addrs(&self, u: NodeId, addrs: &mut Vec<u64>) {
        self.inner().index_addrs(u, addrs);
    }

    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
        self.inner().expand_chunk(warp, chunk, sink);
    }

    fn shares(&self, u: NodeId) -> usize {
        self.inner().shares(u)
    }

    fn expand_share(
        &self,
        warp: &mut WarpSim,
        u: NodeId,
        share: usize,
        of: usize,
        sink: &mut dyn Sink,
    ) {
        self.inner().expand_share(warp, u, share, of, sink);
    }

    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        depth: &[u32],
        du: u32,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        self.inner().pull_chunk(warp, chunk, depth, du, out)
    }

    fn release_residency(&self, device: &mut Device) {
        for engine in &self.per_device {
            engine.release_residency(device);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_core::{bfs, GcgtEngine, Strategy};
    use gcgt_graph::gen::{web_graph, WebParams};
    use std::sync::Mutex;

    fn fixture() -> (Csr, CgrGraph) {
        let g = web_graph(&WebParams::uk2002_like(400), 5).symmetrized();
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        (g, cgr)
    }

    fn device() -> DeviceConfig {
        DeviceConfig::titan_v_scaled(64 << 20)
    }

    fn sharded<'g>(g: &'g Csr, cgr: &'g CgrGraph, plan: &'g ShardPlan) -> ShardEngine<'g> {
        let inner = GcgtEngine::new(cgr, device(), Strategy::Full).unwrap();
        ShardEngine::new(g, plan, Link::nvlink(), vec![Box::new(inner)])
    }

    #[test]
    fn outputs_and_kernel_stats_bitwise_serial_at_any_device_count() {
        let (g, cgr) = fixture();
        let serial = GcgtEngine::new(&cgr, device(), Strategy::Full).unwrap();
        let want = bfs(&serial, 0);
        let want_stats = {
            let mut dev = serial.new_device();
            gcgt_core::bfs_in(&serial, &mut dev, 0).unwrap();
            dev.stats()
        };
        for devices in [1, 2, 4, 8] {
            let plan = ShardPlan::build(&cgr, devices);
            let sharded = sharded(&g, &cgr, &plan);
            let got = bfs(&sharded, 0);
            assert_eq!(got.depth, want.depth, "{devices} devices");
            assert_eq!(got.reached, want.reached);
            let mut dev = sharded.new_device();
            gcgt_core::bfs_in(&sharded, &mut dev, 0).unwrap();
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
            let e = sharded(&g, &cgr, &plan);
            let mut dev = e.new_device();
            gcgt_core::bfs_in(&e, &mut dev, 0).unwrap();
            dev.stats().boundary_nodes
        };
        let (b1, b2, b4, b8) = (boundary(1), boundary(2), boundary(4), boundary(8));
        assert_eq!(b1, 0);
        assert!(b2 > 0);
        assert!(b2 <= b4 && b4 <= b8, "{b2} {b4} {b8}");
    }

    /// What the fake engines were asked to do, in call order.
    #[derive(Default)]
    struct Calls {
        /// `(engine id, work list)` per `prepare_frontier` call.
        prepared: Vec<(usize, Vec<NodeId>)>,
        /// Engine id per `release_residency` call.
        released: Vec<usize>,
    }

    /// An engine the decorator has never heard of: it records the hooks it
    /// receives and expands nothing.
    struct Recording<'a> {
        id: usize,
        config: DeviceConfig,
        calls: &'a Mutex<Calls>,
    }

    impl Expander for Recording<'_> {
        fn num_nodes(&self) -> usize {
            0
        }
        fn num_edges(&self) -> usize {
            0
        }
        fn out_degree(&self, _: NodeId) -> usize {
            0
        }
        fn device_config(&self) -> &DeviceConfig {
            &self.config
        }
        fn footprint(&self) -> usize {
            0
        }
        fn prepare_frontier(&self, _: &mut Device, work: &[NodeId]) -> Result<(), TypedFailure> {
            let mut calls = self.calls.lock().unwrap();
            calls.prepared.push((self.id, work.to_vec()));
            Ok(())
        }
        fn index_addrs(&self, _: NodeId, _: &mut Vec<u64>) {}
        fn expand_chunk(&self, _: &mut WarpSim, _: &[NodeId], _: &mut dyn Sink) {}
        fn pull_chunk(
            &self,
            _: &mut WarpSim,
            _: &[NodeId],
            _: &[u32],
            _: u32,
            _: &mut Vec<(NodeId, NodeId)>,
        ) -> u64 {
            0
        }
        fn release_residency(&self, _: &mut Device) {
            self.calls.lock().unwrap().released.push(self.id);
        }
    }

    fn recording<'a>(
        g: &'a Csr,
        plan: &'a ShardPlan,
        calls: &'a Mutex<Calls>,
        engines: usize,
    ) -> ShardEngine<'a> {
        let per_device = (0..engines)
            .map(|id| {
                Box::new(Recording {
                    id,
                    config: device(),
                    calls,
                }) as Box<dyn Expander + 'a>
            })
            .collect();
        ShardEngine::new(g, plan, Link::nvlink(), per_device)
    }

    /// Work lists a launch can see: everything, a strided subset in
    /// descending order, one shard's nodes only, and nothing.
    fn work_lists(g: &Csr, plan: &ShardPlan) -> Vec<Vec<NodeId>> {
        let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let strided = all.iter().rev().step_by(7).copied().collect();
        let one_shard = all
            .iter()
            .copied()
            .filter(|&u| plan.owner_of(u) == plan.devices() - 1)
            .collect();
        vec![all, strided, one_shard, Vec::new()]
    }

    #[test]
    fn per_device_engines_each_get_exactly_the_work_nodes_they_own() {
        let (g, cgr) = fixture();
        for devices in [2, 4, 8] {
            let plan = ShardPlan::build(&cgr, devices);
            let calls = Mutex::new(Calls::default());
            let engine = recording(&g, &plan, &calls, devices);
            let mut dev = engine.new_device();
            for work in work_lists(&g, &plan) {
                engine.prepare_frontier(&mut dev, &work).unwrap();
                let prepared = std::mem::take(&mut calls.lock().unwrap().prepared);
                // Each engine is called at most once, in shard order, with
                // nodes it owns, in work-list order…
                assert!(prepared.windows(2).all(|w| w[0].0 < w[1].0));
                for (id, nodes) in &prepared {
                    let owned: Vec<NodeId> = work
                        .iter()
                        .copied()
                        .filter(|&u| plan.owner_of(u) == *id)
                        .collect();
                    assert!(!nodes.is_empty(), "idle shard {id} was called");
                    assert_eq!(nodes, &owned, "{devices} devices, shard {id}");
                }
                // …and together the calls cover the work list exactly once.
                let handed: usize = prepared.iter().map(|(_, nodes)| nodes.len()).sum();
                assert_eq!(handed, work.len(), "{devices} devices");
            }
        }
    }

    #[test]
    fn a_shared_engine_gets_every_work_list_whole() {
        let (g, cgr) = fixture();
        let plan = ShardPlan::build(&cgr, 4);
        let calls = Mutex::new(Calls::default());
        let engine = recording(&g, &plan, &calls, 1);
        let mut dev = engine.new_device();
        let lists = work_lists(&g, &plan);
        for work in &lists {
            engine.prepare_frontier(&mut dev, work).unwrap();
        }
        let want: Vec<(usize, Vec<NodeId>)> = lists.into_iter().map(|w| (0, w)).collect();
        assert_eq!(calls.lock().unwrap().prepared, want);
        // The exchange is still charged: sharing an engine shares decode
        // state, not the placement.
        assert!(dev.stats().exchange_ms > 0.0);
    }

    #[test]
    fn release_residency_reaches_every_engine() {
        let (g, cgr) = fixture();
        let plan = ShardPlan::build(&cgr, 4);
        for engines in [1, 4] {
            let calls = Mutex::new(Calls::default());
            let engine = recording(&g, &plan, &calls, engines);
            engine.release_residency(&mut engine.new_device());
            let want: Vec<usize> = (0..engines).collect();
            assert_eq!(calls.lock().unwrap().released, want);
        }
    }

    #[test]
    fn an_engine_count_that_is_neither_one_nor_the_device_count_is_rejected() {
        let (g, cgr) = fixture();
        let plan = ShardPlan::build(&cgr, 4);
        let calls = Mutex::new(Calls::default());
        for engines in [0, 2, 3, 5] {
            let built = std::panic::catch_unwind(|| {
                let _ = recording(&g, &plan, &calls, engines);
            });
            assert!(built.is_err(), "{engines} engines for 4 devices");
        }
    }
}
