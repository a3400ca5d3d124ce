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
//!
//! BFS and BC's forward pass share one level loop (`levels.rs`): one depth
//! array, which is also the visited state, that merge, and one compaction
//! rule. Warp order is a sawtooth of neighbour runs, so a work list that
//! [fills the device](gcgt_simt::DeviceConfig::fills_device) and that
//! [`crate::engine::launch_expansion`] will split is compacted into
//! ascending order just before that launch by one charged launch
//! ([`crate::engine::compact_frontier`]), which also computes the degree
//! prefix the schedule's edge cut reads; BC compacts its levels as they
//! are discovered. CC has no next frontier: its one expansion covers every
//! node.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod labelprop;
mod levels;
pub mod pagerank;

use crate::engine::Expander;
use gcgt_simt::{Device, FaultDomain, TypedFailure};

/// The `expect`s of the fresh-device entry points (`bfs`, `bc`, ...).
pub(crate) const FITS: &str = "the engine's footprint must fit the device";
pub(crate) const FRESH_DEVICE: &str = "a fresh device fails only on a corrupt deferred payload";

/// Shared app prologue: registers the engine's per-query scratch (frontier
/// queues, output buffers, label arrays) on the device, returning the byte
/// count the matching `device.free(..)` must release on exit. On a device
/// from [`Expander::new_device`], which checks the footprint, it cannot OOM. A
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
        .expect("device capacity is checked when the device is made");
    Ok(scratch)
}
