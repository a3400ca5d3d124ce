//! Launch-scoped device residency over compressed partitions.
//!
//! The cache owns *which* partitions are resident and keeps no counters of
//! its own: every state change is one [`Charge`] recorded on the simulated
//! [`Device`]. It is driven once per kernel launch with the set of
//! partitions the launch decodes, and walks one residency plan for the
//! whole launch ([`PartitionCache::walk`]):
//!
//! 1. **Hits first.** Needed partitions that are already resident are
//!    consumed before anything is evicted, so a launch never evicts a
//!    partition it has yet to decode — the victims are partitions the launch
//!    does not need, oldest first, then ones it has already decoded, lowest
//!    id first.
//! 2. **Coalesced uploads.** The missing partitions are grouped into runs of
//!    adjacent partition ids — contiguous bytes of the compressed array —
//!    and each run crosses [`HOST_LINK`] as *one* chunked transfer, paying
//!    the setup latency per chunk of the run instead of per partition.
//! 3. **Double-buffered waves.** A run is capped at half the budget, so an
//!    upload never displaces more than half the cache: the other half —
//!    ordinarily the wave uploaded just before — stays resident and decoding
//!    while it streams. That is what `OVERLAP` discounts; an
//!    upload with nothing resident to decode under it is *cold* and pays
//!    full price.
//!
//! The walk fixes every upload's victims, cold flag and price once;
//! [`PartitionCache::apply`] charges exactly those. A launch smaller than
//! one partition may instead **read through** ([`ReadThrough`]): fetch only
//! the 128-byte lines it decodes as zero-copy reads and leave its missing
//! partitions non-resident. [`PartitionCache::prefers`] takes that path
//! only when it is cheaper than the walk *and* no missing partition's
//! accrued **rent** — what read-throughs have already spent on it since it
//! was last uploaded — would pass the price of buying it, one warm upload.
//! This is ski rental: renting never costs more than twice what buying
//! would have, so a partition that sparse launches keep touching is
//! uploaded after all.
//!
//! Each coalesced run is one [`Charge::Upload`] (its partitions, bytes and
//! streamed milliseconds); each victim is a free plus one
//! [`Charge::Eviction`]; each read-through is one [`Charge::ReadThrough`].
//! The device folds them into [`gcgt_simt::RunStats`] and hands the same
//! values to an installed observer, so an out-of-core run's extra cost is
//! attributable from either, and the two agree.

use std::ops::Range;

use gcgt_simt::{Charge, Device, FaultDomain, TypedFailure, HOST_LINK, LINE_BYTES};

use crate::partition::PartitionMap;

/// Upload granularity in bytes: a coalesced run of `b` bytes is moved in
/// `ceil(b / CHUNK_BYTES)` PCIe transfers, each paying the link's setup
/// latency.
pub(crate) const CHUNK_BYTES: usize = 1 << 20;

/// Fraction of a warm upload's transfer time hidden under decode compute
/// (double-buffering: an upload is capped at half the cache, so the other
/// half stays resident and keeps the device decoding while it streams). An
/// upload is **cold** — nothing hidden, full price — exactly when the cache
/// is empty as it starts: the first upload of a run, the first after
/// [`PartitionCache::drain`], and one so large that everything else had to
/// be evicted for it.
pub(crate) const OVERLAP: f64 = 0.5;

/// How one launch's needed partitions become resident: each is either a hit
/// or a member of exactly one upload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResidencyPlan {
    /// Needed partitions already resident, ascending — consumed before any
    /// eviction.
    pub hits: Vec<usize>,
    /// The missing partitions as coalesced uploads: ascending, disjoint
    /// runs of adjacent partition ids, each at most half the budget in
    /// resident bytes (a single larger partition is a run of its own).
    pub uploads: Vec<Range<usize>>,
}

/// One planned upload of a [`Walk`], fully priced.
#[derive(Clone, Debug, PartialEq)]
pub struct Upload {
    /// The coalesced run of partition ids.
    pub run: Range<usize>,
    /// Partitions evicted to make room for it, in eviction order.
    pub victims: Vec<usize>,
    /// Whether nothing is left resident to decode under it.
    pub cold: bool,
    /// Bytes it moves over the link: the run plus the closure below it.
    pub link_bytes: usize,
    /// Device bytes it occupies once resident.
    pub resident_bytes: usize,
    /// Milliseconds it is charged (post-overlap).
    pub transfer_ms: f64,
}

/// A launch's residency plan walked against the cache's current state:
/// every upload with its victims, cold flag and price, and the resident
/// order the launch leaves behind. Pure — nothing is charged until
/// [`PartitionCache::apply`].
#[derive(Clone, Debug, PartialEq)]
pub struct Walk {
    /// Needed partitions already resident, ascending.
    pub hits: Vec<usize>,
    /// The uploads, in order.
    pub uploads: Vec<Upload>,
    /// Resident partition ids after the launch, least-recently-used first.
    lru: Vec<usize>,
}

impl Walk {
    /// What the walk's uploads are charged together, summed from zero in
    /// charge order — as a fresh `RunStats` folds them.
    pub fn price_ms(&self) -> f64 {
        self.uploads.iter().fold(0.0, |ms, u| ms + u.transfer_ms)
    }
}

/// A launch's alternative to uploading its missing partitions: read the
/// lines it decodes from them through, as zero-copy requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadThrough {
    /// Each missing partition, ascending, with its part of the launch's
    /// lines: every distinct line counts once, for the lowest missing
    /// partition whose nodes decode it.
    pub parts: Vec<(usize, usize)>,
    /// Distinct lines over the whole launch: the sum of `parts`' lines.
    pub lines: usize,
    /// Dependent round trips: the index entries, then the payload lines,
    /// plus one per hop of the longest reference chain.
    pub rounds: usize,
}

impl ReadThrough {
    /// The link time of the reads ([`gcgt_simt::Link::read_through_ms`]).
    pub fn price_ms(&self) -> f64 {
        HOST_LINK.read_through_ms(self.lines, self.rounds)
    }

    /// `ms` apportioned to each missing partition by its lines.
    fn shares(&self, ms: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.parts
            .iter()
            .map(move |&(pid, lines)| (pid, ms * lines as f64 / self.lines as f64))
    }
}

/// What buying partition `pid` costs: one warm upload of it alone.
pub fn warm_upload_ms(parts: &PartitionMap, pid: usize) -> f64 {
    let bytes = parts.parts()[pid].resident_bytes();
    HOST_LINK.ms(bytes, bytes.div_ceil(CHUNK_BYTES)) * (1.0 - OVERLAP)
}

/// Residency manager with a hard byte budget.
///
/// Every resident partition holds its [`Partition::resident_bytes`] — its
/// own extent plus a private copy of its reference-chain closure — so it
/// stays decodable whichever neighbours are evicted around it. Recency is
/// per launch: a launch's partitions rank above everything it did not touch
/// and, among themselves, by partition id — the order the ascending
/// per-partition sweep this plan replaced left behind.
///
/// [`Partition::resident_bytes`]: crate::Partition::resident_bytes
#[derive(Debug)]
pub struct PartitionCache {
    budget: usize,
    used: usize,
    /// Resident partition ids, least-recently-used first.
    lru: Vec<usize>,
    /// Per partition, the read-through milliseconds charged to it since it
    /// was last uploaded or the cache drained (grown on first rent).
    rent: Vec<f64>,
}

impl PartitionCache {
    /// A cache allowed to keep at most `budget` partition bytes resident.
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            used: 0,
            lru: Vec::new(),
            rent: Vec::new(),
        }
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.used
    }

    /// Whether partition `pid` is resident.
    pub fn is_resident(&self, pid: usize) -> bool {
        self.lru.contains(&pid)
    }

    /// Read-through milliseconds charged to partition `pid` since it was
    /// last uploaded or the cache drained.
    pub fn rent(&self, pid: usize) -> f64 {
        self.rent.get(pid).copied().unwrap_or(0.0)
    }

    /// The residency plan of a launch decoding the partitions marked in
    /// `needed` (one flag per partition of `parts`), from the current
    /// resident set.
    pub fn plan(&self, needed: &[bool], parts: &PartitionMap) -> ResidencyPlan {
        let wave_cap = self.budget / 2;
        let mut plan = ResidencyPlan {
            hits: Vec::new(),
            uploads: Vec::new(),
        };
        let mut wave_bytes = 0usize;
        for (pid, _) in needed.iter().enumerate().filter(|(_, &n)| n) {
            if self.is_resident(pid) {
                plan.hits.push(pid);
                continue;
            }
            let bytes = parts.parts()[pid].resident_bytes();
            match plan.uploads.last_mut() {
                Some(run) if run.end == pid && wave_bytes + bytes <= wave_cap => {
                    run.end = pid + 1;
                    wave_bytes += bytes;
                }
                _ => {
                    plan.uploads.push(pid..pid + 1);
                    wave_bytes = bytes;
                }
            }
        }
        plan
    }

    /// Walks [`PartitionCache::plan`] for a launch decoding the partitions
    /// marked in `needed`: hits are consumed, then each coalesced run is
    /// uploaded in turn, evicting least-recent partitions to make room.
    /// Fixes every upload's victims, cold flag and price without charging
    /// anything.
    ///
    /// # Panics
    /// Panics if a partition alone exceeds the budget — sessions verify
    /// `max_resident_bytes <= budget` before constructing an engine.
    pub fn walk(&self, needed: &[bool], parts: &PartitionMap) -> Walk {
        let plan = self.plan(needed, parts);
        // Hits move behind everything the launch does not need. From here
        // on the list reads [un-needed, oldest first | needed, ascending],
        // the needed part starting at `launch_start`.
        let mut lru: Vec<usize> = self.lru.iter().copied().filter(|&p| !needed[p]).collect();
        let mut launch_start = lru.len();
        lru.extend(&plan.hits);
        let mut used = self.used;
        let mut uploads = Vec::with_capacity(plan.uploads.len());
        for run in plan.uploads {
            let resident_bytes: usize = parts.parts()[run.clone()]
                .iter()
                .map(|p| p.resident_bytes())
                .sum();
            assert!(
                resident_bytes <= self.budget,
                "partitions {run:?} ({resident_bytes} bytes) exceed the residency budget ({} bytes)",
                self.budget
            );
            let mut victims = Vec::new();
            while used + resident_bytes > self.budget {
                launch_start = launch_start.saturating_sub(1);
                let victim = lru.remove(0);
                used -= parts.parts()[victim].resident_bytes();
                victims.push(victim);
            }
            // Closure nodes inside the run arrive with their own partition
            // and are copied device-side, so only the closure below it is
            // traffic.
            let link_bytes = parts.parts()[run.clone()]
                .iter()
                .map(|p| p.bytes)
                .sum::<usize>()
                + parts.run_closure_bytes(run.clone());
            let cold = lru.is_empty();
            let raw_ms = HOST_LINK.ms(link_bytes, link_bytes.div_ceil(CHUNK_BYTES));
            let transfer_ms = if cold {
                raw_ms
            } else {
                raw_ms * (1.0 - OVERLAP)
            };
            used += resident_bytes;
            lru.extend(run.clone());
            lru[launch_start..].sort_unstable();
            uploads.push(Upload {
                run,
                victims,
                cold,
                link_bytes,
                resident_bytes,
                transfer_ms,
            });
        }
        Walk {
            hits: plan.hits,
            uploads,
            lru,
        }
    }

    /// Makes every partition marked in `needed` resident for one launch:
    /// [`PartitionCache::walk`], then [`PartitionCache::apply`], whose
    /// failure it returns.
    pub fn stream(
        &mut self,
        needed: &[bool],
        parts: &PartitionMap,
        device: &mut Device,
    ) -> Result<(), TypedFailure> {
        let walk = self.walk(needed, parts);
        self.apply(walk, parts, device)
    }

    /// Charges `walk` — walked from this cache's current state — on
    /// `device`: per upload, its victims' frees and evictions, then its
    /// allocation and streamed transfer. Uploading a partition clears its
    /// rent. Fails when an injected allocator stall or PCIe fault outlasts
    /// the retry budget; the cache is then mid-walk, and is dropped with
    /// the query that failed.
    pub fn apply(
        &mut self,
        walk: Walk,
        parts: &PartitionMap,
        device: &mut Device,
    ) -> Result<(), TypedFailure> {
        for upload in &walk.uploads {
            for &victim in &upload.victims {
                let p = &parts.parts()[victim];
                self.lru.retain(|&pid| pid != victim);
                self.used -= p.resident_bytes();
                device.free(p.resident_bytes());
                device.record(Charge::Eviction {
                    partition: victim as u64,
                    bytes: p.bytes as u64,
                });
            }
            device.chaos_gate(FaultDomain::DeviceAlloc, 0.0)?;
            device
                .alloc(upload.resident_bytes)
                .expect("partition budget must fit device capacity (verified at build)");
            self.used += upload.resident_bytes;
            self.lru.extend(upload.run.clone());
            // An injected PCIe fault wastes the attempted upload: the chaos
            // gate re-charges the full transfer price plus exponential
            // backoff for every failed attempt, then the successful upload
            // is charged below. No-op without an active fault plan.
            device.chaos_gate(FaultDomain::Transfer, upload.transfer_ms)?;
            device.record(Charge::Upload {
                first_partition: upload.run.start as u64,
                partitions: upload.run.len() as u64,
                bytes: upload.link_bytes as u64,
                transfer_ms: upload.transfer_ms,
                cold: upload.cold,
                partition_bytes: &|pid| parts.parts()[pid as usize].bytes as u64,
            });
            // Rent is empty until the first read-through, then one per
            // partition.
            if let Some(rent) = self.rent.get_mut(upload.run.clone()) {
                rent.fill(0.0);
            }
        }
        self.lru = walk.lru;
        Ok(())
    }

    /// Whether `read` should serve a launch instead of `walk`: it is
    /// cheaper, and no missing partition's rent plus its share of the price
    /// (apportioned by lines) would pass [`warm_upload_ms`].
    pub fn prefers(&self, read: &ReadThrough, walk: &Walk, parts: &PartitionMap) -> bool {
        let ms = read.price_ms();
        ms < walk.price_ms()
            && read
                .shares(ms)
                .all(|(pid, share)| self.rent(pid) + share <= warm_upload_ms(parts, pid))
    }

    /// Serves a launch by `read`: its hits (from `walk`) are consumed as a
    /// streamed launch would consume them, its missing partitions stay
    /// non-resident, and each is charged its share of the reads as rent.
    /// Fails when an injected PCIe fault outlasts the retry budget.
    pub fn read_through(
        &mut self,
        read: &ReadThrough,
        walk: &Walk,
        parts: &PartitionMap,
        device: &mut Device,
    ) -> Result<(), TypedFailure> {
        self.lru.retain(|pid| walk.hits.binary_search(pid).is_err());
        self.lru.extend(&walk.hits);
        let ms = read.price_ms();
        device.chaos_gate(FaultDomain::Transfer, ms)?;
        let line_bytes = |lines: usize| lines as u64 * LINE_BYTES;
        let faults: Vec<(u64, u64)> = read
            .parts
            .iter()
            .map(|&(pid, lines)| (pid as u64, line_bytes(lines)))
            .collect();
        device.record(Charge::ReadThrough {
            partitions: &faults,
            lines: read.lines as u64,
            bytes: line_bytes(read.lines),
            transfer_ms: ms,
        });
        if self.rent.len() < parts.len() {
            self.rent.resize(parts.len(), 0.0);
        }
        for (pid, share) in read.shares(ms) {
            self.rent[pid] += share;
        }
        Ok(())
    }

    /// Releases every resident partition, freeing its bytes on `device` —
    /// the end-of-query teardown of a serving worker, returning the device
    /// to its post-upload baseline — and clears every rent. Releases are
    /// not evictions: nothing is counted or charged, because no traffic
    /// moves (device memory is simply reclaimed). The next upload finds the
    /// cache empty and is cold.
    pub fn drain(&mut self, parts: &PartitionMap, device: &mut Device) {
        for &pid in &self.lru {
            device.free(parts.parts()[pid].resident_bytes());
        }
        self.lru.clear();
        self.used = 0;
        self.rent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{web_graph, WebParams};
    use gcgt_simt::obs::{AllocEvent, Observer, ObserverHandle};
    use gcgt_simt::{DeviceConfig, RunStats};
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
    use std::sync::{Arc, Mutex};

    fn fixtures() -> (PartitionMap, Device) {
        let g = web_graph(&WebParams::uk2002_like(800), 7);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let map = PartitionMap::build(&cgr, 3 << 9);
        assert!(map.len() >= 6, "need several partitions, got {}", map.len());
        let device = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
        (map, device)
    }

    fn needed(map: &PartitionMap, pids: &[usize]) -> Vec<bool> {
        let mut mask = vec![false; map.len()];
        for &pid in pids {
            mask[pid] = true;
        }
        mask
    }

    fn bytes_of(map: &PartitionMap, pids: impl IntoIterator<Item = usize>) -> usize {
        pids.into_iter().map(|pid| map.parts()[pid].bytes).sum()
    }

    /// Streams one launch needing `pids`.
    fn launch(cache: &mut PartitionCache, map: &PartitionMap, device: &mut Device, pids: &[usize]) {
        cache.stream(&needed(map, pids), map, device).unwrap();
    }

    #[test]
    fn adjacent_misses_cross_the_link_as_one_upload() {
        let (map, mut device) = fixtures();
        let mut cache = PartitionCache::new(usize::MAX);
        launch(&mut cache, &map, &mut device, &[0, 1, 2, 4]);
        let s = device.stats();
        assert_eq!(
            (
                s.partition_faults,
                s.partition_uploads,
                s.partition_evictions
            ),
            (4, 2, 0)
        );
        // [0, 3) is one cold transfer of the summed bytes; 4 is a second,
        // warm one (the first run is resident to decode under it).
        let run = bytes_of(&map, 0..3);
        let lone = bytes_of(&map, [4]);
        let want =
            HOST_LINK.ms(run, run.div_ceil(CHUNK_BYTES)) + HOST_LINK.ms(lone, 1) * (1.0 - OVERLAP);
        assert_eq!(s.transfer_ms.to_bits(), want.to_bits());
        assert_eq!(s.bytes_streamed as usize, run + lone);
        assert_eq!(device.allocated(), run + lone);
    }

    #[test]
    fn hits_are_consumed_before_anything_is_evicted() {
        let (map, mut device) = fixtures();
        let budget = bytes_of(&map, 0..4);
        let mut cache = PartitionCache::new(budget);
        launch(&mut cache, &map, &mut device, &[4, 5]);
        // A dense launch: the per-partition LRU sweep would evict 4 and 5 to
        // make room for 0..4 and then fault them back in.
        let dense = needed(&map, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(cache.plan(&dense, &map).hits, [4, 5]);
        cache.stream(&dense, &map, &mut device).unwrap();
        assert_eq!(device.stats().partition_faults, 6);
        assert!(cache.resident_bytes() <= budget);
        assert_eq!(device.allocated(), cache.resident_bytes());
    }

    #[test]
    fn victims_are_unneeded_first_then_lowest_consumed() {
        let (map, mut device) = fixtures();
        // Room for any three partitions, never for four.
        let budget = 3 * map.max_partition_bytes();
        let mut cache = PartitionCache::new(budget);
        launch(&mut cache, &map, &mut device, &[5]);
        launch(&mut cache, &map, &mut device, &[0]);
        // 5 is un-needed and goes first; 0 is a consumed hit and stays as
        // long as room allows.
        assert_eq!(cache.plan(&needed(&map, &[0, 2]), &map).hits, [0]);
        launch(&mut cache, &map, &mut device, &[0, 2]);
        assert!(cache.is_resident(0) && cache.is_resident(2));
        launch(&mut cache, &map, &mut device, &[3]);
        assert!(
            !cache.is_resident(5),
            "the un-needed partition is the victim"
        );
        // With nothing un-needed left, a launch that overflows the budget
        // gives up its own lowest partitions, each only after its decode.
        launch(&mut cache, &map, &mut device, &[0, 1, 2, 3, 4]);
        let resident: Vec<usize> = (0..map.len()).filter(|&p| cache.is_resident(p)).collect();
        assert_eq!(resident, [2, 3, 4]);
        assert_eq!(device.stats().partition_faults, 6);
        assert!(cache.resident_bytes() <= budget);
    }

    #[test]
    fn waves_are_capped_at_half_the_budget() {
        let (map, _) = fixtures();
        let budget = 2 * bytes_of(&map, 0..3);
        let cache = PartitionCache::new(budget);
        let plan = cache.plan(&vec![true; map.len()], &map);
        assert!(plan.hits.is_empty());
        assert!(plan.uploads.len() >= 2);
        assert_eq!(plan.uploads[0].start, 0);
        for (run, next) in plan.uploads.iter().zip(&plan.uploads[1..]) {
            assert_eq!(run.end, next.start, "a dense launch has no gaps");
        }
        for run in &plan.uploads {
            assert!(bytes_of(&map, run.clone()) <= budget / 2 || run.len() == 1);
        }
    }

    #[test]
    fn drain_frees_everything_and_the_next_upload_is_cold() {
        let (map, mut device) = fixtures();
        let mut cache = PartitionCache::new(usize::MAX);
        launch(&mut cache, &map, &mut device, &[0, 1, 2]);
        assert!(cache.resident_bytes() > 0);
        let before = device.stats();
        cache.drain(&map, &mut device);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(device.allocated(), 0);
        // A drain is reclamation, not traffic: only the allocation level
        // moves.
        assert_eq!(
            device.stats(),
            RunStats {
                allocated_bytes: 0,
                ..before
            }
        );
        // The cache stays usable, and with nothing resident to decode under
        // it the next upload pays exactly what the first one did.
        launch(&mut cache, &map, &mut device, &[0, 1, 2]);
        let after = device.stats();
        assert_eq!(after.partition_faults, before.partition_faults + 3);
        assert_eq!(
            (after.transfer_ms - before.transfer_ms).to_bits(),
            before.transfer_ms.to_bits()
        );
        assert_eq!(device.allocated(), bytes_of(&map, 0..3));
    }

    #[test]
    fn overlap_discounts_warm_uploads_only() {
        let (map, mut device) = fixtures();
        let mut cache = PartitionCache::new(usize::MAX);
        // The cold first upload pays the raw link time; each warm one, with
        // a resident partition to decode under it, pays half.
        let mut want = 0.0;
        for (pid, share) in [(0usize, 1.0), (2, 0.5), (4, 0.5)] {
            launch(&mut cache, &map, &mut device, &[pid]);
            want += HOST_LINK.ms(bytes_of(&map, [pid]), 1) * share;
            assert_eq!(
                device.stats().transfer_ms.to_bits(),
                want.to_bits(),
                "{pid}"
            );
        }
    }

    #[test]
    fn an_upload_that_displaces_everything_is_cold() {
        let (map, mut device) = fixtures();
        // Room for exactly the largest partition: every upload evicts the
        // whole cache first, so nothing is ever resident to decode under it.
        let mut cache = PartitionCache::new(map.max_partition_bytes());
        let big = (0..map.len())
            .max_by_key(|&pid| map.parts()[pid].bytes)
            .unwrap();
        let other = (big + 2) % map.len();
        launch(&mut cache, &map, &mut device, &[other]);
        launch(&mut cache, &map, &mut device, &[big]);
        let want =
            HOST_LINK.ms(bytes_of(&map, [other]), 1) + HOST_LINK.ms(bytes_of(&map, [big]), 1);
        assert_eq!(device.stats().transfer_ms.to_bits(), want.to_bits());
    }

    /// A reference-compressed graph whose tight partitions cut through
    /// reference chains.
    fn ref_fixtures() -> (PartitionMap, PartitionMap) {
        let g = web_graph(&WebParams::eu2015_like(1_200), 9);
        let with = CgrGraph::encode(&g, &CgrConfig::paper_default().with_ref_window(32));
        let without = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let map = PartitionMap::build(&with, 2 << 10);
        assert!(
            map.parts().iter().any(|p| p.closure_bytes > 0),
            "no cut crossed a reference chain"
        );
        (map, PartitionMap::build(&without, 2 << 10))
    }

    #[test]
    fn reference_closures_are_resident_and_streamed() {
        let (map, _) = ref_fixtures();
        let pid = (0..map.len())
            .find(|&pid| map.parts()[pid].closure_bytes > 0)
            .unwrap();
        let p = map.parts()[pid];
        let mut device = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
        let mut cache = PartitionCache::new(usize::MAX);
        launch(&mut cache, &map, &mut device, &[pid]);
        // Alone, the partition stages its whole closure …
        assert_eq!(device.allocated(), p.resident_bytes());
        assert_eq!(device.stats().bytes_streamed as usize, p.resident_bytes());
        cache.drain(&map, &mut device);

        // … coalesced with its predecessor, the closure nodes inside the run
        // cross the link once, as part of their own partition, while each
        // partition still keeps a private resident copy.
        let before = device.stats().bytes_streamed as usize;
        launch(&mut cache, &map, &mut device, &[pid - 1, pid]);
        let q = map.parts()[pid - 1];
        assert_eq!(device.allocated(), q.resident_bytes() + p.resident_bytes());
        let streamed = device.stats().bytes_streamed as usize - before;
        assert_eq!(
            streamed,
            q.bytes + p.bytes + map.run_closure_bytes(pid - 1..pid + 1)
        );
        assert!(streamed < q.resident_bytes() + p.resident_bytes());
    }

    #[test]
    fn closures_count_against_the_budget() {
        let (map, _) = ref_fixtures();
        let budget = map.max_resident_bytes() * 2;
        let mut device = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
        let mut cache = PartitionCache::new(budget);
        launch(
            &mut cache,
            &map,
            &mut device,
            &(0..map.len()).collect::<Vec<_>>(),
        );
        assert!(device.allocated() <= budget);
        assert_eq!(device.allocated(), cache.resident_bytes());
        let resident: usize = (0..map.len())
            .filter(|&pid| cache.is_resident(pid))
            .map(|pid| map.parts()[pid].resident_bytes())
            .sum();
        assert_eq!(cache.resident_bytes(), resident);
    }

    #[test]
    fn reference_free_streaming_never_sees_a_closure() {
        let (_, map) = ref_fixtures();
        assert_eq!(map.max_resident_bytes(), map.max_partition_bytes());
        assert_eq!(map.run_closure_bytes(0..map.len()), 0);
    }

    /// The per-partition LRU this cache replaced, kept as the reference the
    /// never-worse properties are stated against: every needed partition is
    /// its own access in ascending id order, evicting least-recently-used
    /// partitions — including ones the same launch still needs — and every
    /// miss is its own link transfer, only the very first one cold.
    struct LruModel {
        budget: usize,
        used: usize,
        lru: Vec<usize>,
        cold: bool,
        faults: u64,
        bytes_streamed: u64,
        transfer_ms: f64,
    }

    impl LruModel {
        fn new(budget: usize) -> Self {
            LruModel {
                budget,
                used: 0,
                lru: Vec::new(),
                cold: true,
                faults: 0,
                bytes_streamed: 0,
                transfer_ms: 0.0,
            }
        }

        /// The model holding exactly what `cache` holds, counters at zero.
        fn seeded(cache: &PartitionCache) -> Self {
            LruModel {
                used: cache.used,
                lru: cache.lru.clone(),
                cold: cache.lru.is_empty(),
                ..LruModel::new(cache.budget)
            }
        }

        fn launch(&mut self, needed: &[bool], map: &PartitionMap) {
            for (pid, _) in needed.iter().enumerate().filter(|(_, &n)| n) {
                if let Some(idx) = self.lru.iter().position(|&p| p == pid) {
                    self.lru.remove(idx);
                    self.lru.push(pid);
                    continue;
                }
                let bytes = map.parts()[pid].bytes;
                while self.used + bytes > self.budget {
                    self.used -= map.parts()[self.lru.remove(0)].bytes;
                }
                self.used += bytes;
                self.lru.push(pid);
                let raw = HOST_LINK.ms(bytes, bytes.div_ceil(CHUNK_BYTES));
                self.transfer_ms += if self.cold {
                    raw
                } else {
                    raw * (1.0 - OVERLAP)
                };
                self.cold = false;
                self.faults += 1;
                self.bytes_streamed += bytes as u64;
            }
        }
    }

    /// Records the allocation level after every `alloc`/`free`.
    #[derive(Default)]
    struct AllocLevels(Mutex<Vec<u64>>);

    impl Observer for AllocLevels {
        fn alloc(&self, event: &AllocEvent) {
            self.0.lock().unwrap().push(event.allocated);
        }
    }

    /// A partitioned reference-free web graph, a budget between the largest
    /// partition and the whole structure, and a trace of launches (each a
    /// needed-partition mask): sparse subsets, contiguous ranges and dense
    /// all-partition sweeps.
    fn scenario() -> impl Strategy<Value = (PartitionMap, usize, Vec<Vec<bool>>)> {
        (
            (200usize..900, 0u64..1_000, 9u32..13),
            0usize..1_000,
            proptest::collection::vec(
                (0u8..4, proptest::collection::vec(0usize..1_000, 1..10)),
                1..24,
            ),
        )
            .prop_map(|((nodes, seed, target_log2), permille, raw)| {
                let g = web_graph(&WebParams::uk2002_like(nodes), seed);
                let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
                let map = PartitionMap::build(&cgr, 1 << target_log2);
                let floor = map.max_partition_bytes();
                let budget = floor + (map.total_bytes() - floor) * permille / 1_000;
                let trace = raw
                    .into_iter()
                    .map(|(shape, picks)| {
                        let picks: Vec<usize> = picks.iter().map(|p| p % map.len()).collect();
                        let (lo, hi) = (*picks.iter().min().unwrap(), *picks.iter().max().unwrap());
                        (0..map.len())
                            .map(|pid| match shape {
                                0 => true,
                                1 => (lo..=hi).contains(&pid),
                                _ => picks.contains(&pid),
                            })
                            .collect()
                    })
                    .collect();
                (map, budget, trace)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Against the per-partition LRU run over the same trace, after
        /// every launch: never more partitions uploaded and never more link
        /// transfers issued.
        #[test]
        fn never_more_uploads_than_the_per_partition_lru(case in scenario()) {
            let (map, budget, trace) = case;
            let mut device = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
            let mut cache = PartitionCache::new(budget);
            let mut model = LruModel::new(budget);
            for needed in &trace {
                cache.stream(needed, &map, &mut device).unwrap();
                model.launch(needed, &map);
                let s = device.stats();
                prop_assert!(
                    s.partition_faults <= model.faults,
                    "{} > {}", s.partition_faults, model.faults
                );
                prop_assert!(s.partition_uploads <= s.partition_faults);
            }
        }

        /// Whatever the cache holds, a launch costs no more than the
        /// per-partition LRU sweep would have from the same resident set:
        /// never more partitions, bytes or link transfers, and — when no
        /// partition exceeds half the budget, so no upload after a cache's
        /// first can be cold — never more milliseconds. (A cache's first
        /// upload is cold as a whole run where the sweep discounted all but
        /// its first partition; that is still cheaper while partitions sit
        /// below the link's latency–bandwidth product, 120 KB on the default
        /// link and far above anything generated here.)
        #[test]
        fn no_launch_costs_more_than_the_per_partition_lru_sweep(case in scenario()) {
            let (map, budget, trace) = case;
            let mut device = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
            let mut cache = PartitionCache::new(budget);
            let no_cold_waves = map.max_partition_bytes() <= budget / 2;
            for needed in &trace {
                let mut model = LruModel::seeded(&cache);
                let before = device.stats();
                cache.stream(needed, &map, &mut device).unwrap();
                model.launch(needed, &map);
                let s = device.stats().since(&before);
                prop_assert!(s.partition_faults <= model.faults);
                prop_assert!(s.partition_uploads <= model.faults);
                prop_assert!(s.bytes_streamed <= model.bytes_streamed);
                if no_cold_waves {
                    let charged = s.transfer_ms;
                    prop_assert!(
                        charged <= model.transfer_ms + 1e-12,
                        "{charged} ms > {} ms", model.transfer_ms
                    );
                }
            }
        }

        /// Every needed partition is resident in exactly one wave of its
        /// launch — a hit, or a member of one upload — every wave obeys the
        /// half-budget cap, and residency never exceeds the budget at any
        /// alloc or free along the way.
        #[test]
        fn every_wave_is_sound_and_within_budget(case in scenario()) {
            let (map, budget, trace) = case;
            let mut device = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
            let levels = Arc::new(AllocLevels::default());
            device.set_observer(ObserverHandle::from_arc(levels.clone()));
            let mut cache = PartitionCache::new(budget);
            for needed in &trace {
                let plan = cache.plan(needed, &map);
                let mut waves = vec![0u32; map.len()];
                for &pid in &plan.hits {
                    prop_assert!(cache.is_resident(pid));
                    waves[pid] += 1;
                }
                for run in &plan.uploads {
                    prop_assert!(bytes_of(&map, run.clone()) <= budget / 2 || run.len() == 1);
                    for pid in run.clone() {
                        prop_assert!(!cache.is_resident(pid));
                        waves[pid] += 1;
                    }
                }
                for pid in 0..map.len() {
                    prop_assert_eq!(waves[pid], u32::from(needed[pid]));
                }
                cache.stream(needed, &map, &mut device).unwrap();
                prop_assert_eq!(device.allocated(), cache.resident_bytes());
            }
            let peak = levels.0.lock().unwrap().iter().copied().max().unwrap_or(0);
            prop_assert!(peak as usize <= budget, "peak {peak} > budget {budget}");
        }

        /// The walk prices each launch once: the sum of its uploads'
        /// prices is bitwise the `transfer_ms` that applying it charges, and
        /// the walk's uploads are exactly the plan's runs.
        #[test]
        fn the_walked_price_is_what_stream_charges(case in scenario()) {
            let (map, budget, trace) = case;
            let mut device = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
            let mut cache = PartitionCache::new(budget);
            for needed in &trace {
                let walk = cache.walk(needed, &map);
                let runs: Vec<Range<usize>> = walk.uploads.iter().map(|u| u.run.clone()).collect();
                prop_assert_eq!(&runs, &cache.plan(needed, &map).uploads);
                let priced = walk.price_ms();
                // A fresh accounting view sums the charges from zero, in
                // charge order, as the walk does.
                let mut view = device.query_view();
                cache.apply(walk, &map, &mut view).unwrap();
                prop_assert_eq!(view.stats().transfer_ms.to_bits(), priced.to_bits());
                prop_assert_eq!(view.allocated(), cache.resident_bytes());
                device = view;
            }
        }

        /// The same trace on a fresh cache and device reproduces every
        /// counter bitwise.
        #[test]
        fn streaming_is_deterministic(case in scenario()) {
            let (map, budget, trace) = case;
            let run = || {
                let mut device = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
                let mut cache = PartitionCache::new(budget);
                for needed in &trace {
                    cache.stream(needed, &map, &mut device).unwrap();
                }
                device.stats()
            };
            prop_assert_eq!(run(), run());
        }
    }
}
