//! Host-side parallel execution of independent warps.
//!
//! Warps within one kernel launch are independent in the simulator (their
//! tallies and candidate outputs are merged afterwards in warp-id order), so
//! they can run on host threads for wall-clock speed without affecting any
//! reported number. Work is distributed by an atomic cursor; results land in
//! index order, so the merge — and therefore every statistic — is
//! deterministic regardless of thread interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0..count)` across host threads, returning results in index order.
///
/// `f` must be deterministic per index. With `count` small the work runs
/// inline to avoid thread spawn overhead.
pub fn parallel_warps<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    const INLINE_THRESHOLD: usize = 8;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if count <= INLINE_THRESHOLD || threads == 1 {
        return (0..count).map(f).collect();
    }

    // Each thread returns the `(index, value)` pairs it claimed from the
    // atomic cursor; the join puts them into their slots.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(count))
            .map(|_| {
                scope.spawn(|| {
                    let claim = || cursor.fetch_add(1, Ordering::Relaxed);
                    let indices = std::iter::from_fn(|| Some(claim()).filter(|&i| i < count));
                    indices.map(|i| (i, f(i))).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            let claimed = worker
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, value) in claimed {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every warp index must be produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        let out = parallel_warps(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn small_counts_run_inline() {
        let out = parallel_warps(3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn zero_count() {
        let out: Vec<usize> = parallel_warps(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = parallel_warps(500, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let b = parallel_warps(500, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_closure_results_correct() {
        let out = parallel_warps(64, |i| {
            let mut acc = 0u64;
            for k in 0..1000 {
                acc = acc.wrapping_add((i as u64).wrapping_mul(k));
            }
            acc
        });
        let expect: Vec<u64> = (0..64)
            .map(|i| {
                let mut acc = 0u64;
                for k in 0..1000 {
                    acc = acc.wrapping_add((i as u64).wrapping_mul(k));
                }
                acc
            })
            .collect();
        assert_eq!(out, expect);
    }
}
