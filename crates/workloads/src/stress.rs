//! Synthetic stress kernels targeting specific runtime subsystems.
//!
//! Unlike the paper-suite re-implementations, these are adversaries by
//! construction: each one maximizes pressure on one mechanism so its cost
//! (and its optimizations) dominate the profile.

use crate::util::fork_join;
use crate::{Params, Size};
use rfdet_api::{DmtCtx, DmtCtxExt, MutexId, ThreadFn};

/// First page the workers dirty (clear of page 0, which stays unmapped).
const PAGE_BASE: u64 = 8192;
/// Pages every worker dirties per critical section.
const PAGES: u64 = 4;
/// Page stride (matches the default `RunConfig` page size).
const PAGE_STRIDE: u64 = 4096;

/// The propagation adversary: every slice dirties four pages
/// under one contended lock, so modification propagation dominates the
/// run. Each worker owns one 8-byte cell per page (race-free), and the
/// root emits a checksum over all cells so conformance digests compare.
///
/// This is the workload behind the `rfdet/{t}t_propagate_heavy_*` bench
/// cells and the propagate-heavy thread-scaling curve.
#[must_use]
pub fn propagate_heavy(p: Params) -> ThreadFn {
    let iters = match p.size {
        Size::Test => 25u64,
        Size::Bench => 100,
    };
    let threads = p.threads as u64;
    Box::new(move |ctx: &mut dyn DmtCtx| {
        fork_join(ctx, threads, move |ctx, i| {
            for k in 0..iters {
                ctx.lock(MutexId(0));
                for pg in 0..PAGES {
                    ctx.write(PAGE_BASE + pg * PAGE_STRIDE + 8 * i, k + 1);
                }
                ctx.unlock(MutexId(0));
            }
        });
        let mut sum = 0u64;
        for pg in 0..PAGES {
            for i in 0..threads {
                let v: u64 = ctx.read(PAGE_BASE + pg * PAGE_STRIDE + 8 * i);
                sum = sum.wrapping_mul(31).wrapping_add(v);
            }
        }
        ctx.emit_str(&format!("propagate_heavy:{sum}"));
    })
}

/// The turn-arbitration adversary: tiny critical sections under one
/// contended lock, each touching a single cell — almost no memory work,
/// maximal turn churn. Every sync op is a full Kendo turn transition, so
/// arbitration cost (broadcast spin vs successor handoff) dominates the
/// run; this is the workload behind the `rfdet/{t}t_sync_heavy` scaling
/// cells and the handoff A/B.
///
/// Each worker owns one 8-byte counter (race-free); a shared cell is
/// read-modify-written under the lock so lock *ordering* still matters
/// to the output, and the root emits a checksum over all of it.
#[must_use]
pub fn sync_heavy(p: Params) -> ThreadFn {
    let iters = match p.size {
        Size::Test => 40u64,
        Size::Bench => 300,
    };
    let threads = p.threads as u64;
    Box::new(move |ctx: &mut dyn DmtCtx| {
        fork_join(ctx, threads, move |ctx, i| {
            for k in 0..iters {
                ctx.lock(MutexId(0));
                // One shared cell: the deterministic acquisition
                // order is observable in the final value.
                let shared: u64 = ctx.read(PAGE_BASE);
                ctx.write(
                    PAGE_BASE,
                    shared
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(i + 1),
                );
                // One private cell: per-worker progress.
                ctx.write(PAGE_BASE + 64 + 8 * i, k + 1);
                ctx.unlock(MutexId(0));
            }
        });
        let mut sum: u64 = ctx.read(PAGE_BASE);
        for i in 0..threads {
            let v: u64 = ctx.read(PAGE_BASE + 64 + 8 * i);
            sum = sum.wrapping_mul(31).wrapping_add(v);
        }
        ctx.emit_str(&format!("sync_heavy:{sum}"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_fit_one_page_stripe() {
        // 8 bytes per worker must not run past the page stride, or two
        // workers' cells would alias across pages and the checksum layout
        // would break.
        let max_threads = 16;
        assert!(8 * max_threads <= PAGE_STRIDE);
        // sync_heavy's private cells start at offset 64 on the same page.
        assert!(64 + 8 * max_threads <= PAGE_STRIDE);
    }
}
