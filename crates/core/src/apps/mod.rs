//! Graph applications on the GCGT pipeline (Section 6).
//!
//! Every app iterates the same *expansion – filtering – contraction*
//! pipeline over ping-pong frontier queues (Figure 7(a)); only the filtering
//! step differs:
//!
//! * [`bfs`] — unvisited check + depth labelling (Figure 7(b));
//! * [`cc`] — one expansion, union-find linking and pointer jumping
//!   (Figure 7(c), Soman et al.'s stages with ECL-CC's link);
//! * [`bc`] — forward σ pass + backward δ pass (Figure 7(d), Brandes);
//! * [`pagerank`] — rank push (the Personalized-PageRank style extension the
//!   paper lists as pipeline-compatible);
//! * [`labelprop`] — synchronous label propagation ("Graph Label
//!   Propagation" in the paper's Section 6 list).
//!
//! The expansion kernels run on the simulated device; the filtering memory
//! traffic is accounted inside each app's [`crate::kernels::Sink`]; the
//! contraction merge happens host-side in warp order, which keeps every
//! statistic deterministic while matching level-synchronous GPU semantics.
//! Warp order is a sawtooth of neighbour runs, so a next frontier that
//! [fills the device](gcgt_simt::DeviceConfig::fills_device) is then
//! compacted into ascending node order by one charged bitmap-to-queue
//! launch ([`crate::engine::compact_frontier`]: BFS before a push level,
//! BC after every forward level and before a device-filling gather), which
//! also computes the degree prefix the launch schedule's edge cut reads.
//! Smaller frontiers keep warp order, and a pull level's discoveries come
//! out ascending. CC has no next frontier: its one expansion covers every
//! node.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod labelprop;
pub mod pagerank;

use crate::engine::Expander;
use gcgt_simt::{Device, FaultDomain, TypedFailure};

/// The `expect` of the fresh-device entry points (`bfs`, `bc`, ...).
pub(crate) const FRESH_DEVICE: &str = "a fresh device fails only on a corrupt deferred payload";

/// Shared app prologue: registers the engine's per-query scratch (frontier
/// queues, output buffers, label arrays) on the device, returning the byte
/// count the matching `device.free(..)` must release on exit. Engines verify
/// at construction that structure + scratch fit, so this cannot OOM. A
/// fault plan's transient allocator stalls resolve first, with backoff
/// charged, or fail the query once they outlast the retry budget.
pub(crate) fn alloc_scratch(
    engine: &dyn Expander,
    device: &mut Device,
) -> Result<usize, TypedFailure> {
    let scratch = engine.scratch_bytes();
    device.chaos_gate(FaultDomain::DeviceAlloc, 0.0)?;
    device
        .alloc(scratch)
        .expect("device capacity must be verified at engine construction");
    Ok(scratch)
}
