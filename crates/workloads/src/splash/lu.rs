//! `lu` — right-looking blocked LU factorization (no pivoting), with
//! the two SPLASH-2 data layouts:
//!
//! * `lu-con` (contiguous): each block is stored contiguously, so a
//!   block update touches few pages;
//! * `lu-non` (non-contiguous): plain row-major storage, so a block
//!   spans many pages — more page snapshots and bigger diffs, which is
//!   exactly why the paper's Figure 7 shows `lu-non` as DThreads' worst
//!   case (~10× slowdown).

use crate::util::{checksum_f64s, fork_join, ids, LockBarrier};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const BARRIER_BASE: Addr = 4096;
const MAT_BASE: Addr = 16384;

#[derive(Clone, Copy)]
enum Layout {
    Contiguous,
    RowMajor,
}

fn dims(size: Size) -> (u64, u64) {
    match size {
        Size::Test => (16, 4), // n, block
        Size::Bench => (64, 8),
    }
}

/// Address of element (row `r`, col `c`) within the n×n matrix.
fn addr(layout: Layout, n: u64, block: u64, r: u64, c: u64) -> Addr {
    match layout {
        Layout::RowMajor => MAT_BASE + (r * n + c) * 8,
        Layout::Contiguous => {
            let nb = n / block;
            let (bi, bj) = (r / block, c / block);
            let (ri, cj) = (r % block, c % block);
            MAT_BASE + (((bi * nb + bj) * block * block) + ri * block + cj) * 8
        }
    }
}

fn body(p: Params, layout: Layout, label: &'static str) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let (n, block) = dims(p.size);
        let nb = n / block;
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x1u64);
        // Diagonally dominant matrix: LU without pivoting stays stable.
        for r in 0..n {
            for c in 0..n {
                let v = if r == c {
                    (n as f64) + rng.next_f64()
                } else {
                    rng.next_f64() - 0.5
                };
                ctx.write::<f64>(addr(layout, n, block, r, c), v);
            }
        }
        let barrier = LockBarrier::new(
            BARRIER_BASE,
            ids::barrier_mutex(0),
            ids::barrier_cond(0),
            threads,
        );
        let owner = move |bi: u64, bj: u64| (bi * nb + bj) % threads;
        fork_join(ctx, threads, move |ctx, t| {
            let at = move |r: u64, c: u64| addr(layout, n, block, r, c);
            for k in 0..nb {
                let base = k * block;
                // 1. Owner factors the diagonal block in place.
                if owner(k, k) == t {
                    for d in 0..block {
                        let pivot: f64 = ctx.read(at(base + d, base + d));
                        for r in d + 1..block {
                            let v: f64 = ctx.read(at(base + r, base + d));
                            ctx.write(at(base + r, base + d), v / pivot);
                        }
                        for r in d + 1..block {
                            let l: f64 = ctx.read(at(base + r, base + d));
                            for c in d + 1..block {
                                let u: f64 = ctx.read(at(base + d, base + c));
                                let v: f64 = ctx.read(at(base + r, base + c));
                                ctx.write(at(base + r, base + c), v - l * u);
                                ctx.tick(2);
                            }
                        }
                    }
                }
                barrier.wait(ctx);
                // 2. Perimeter: column blocks below and row
                // blocks right of the diagonal.
                for bi in k + 1..nb {
                    if owner(bi, k) == t {
                        let rb = bi * block;
                        for d in 0..block {
                            let pivot: f64 = ctx.read(at(base + d, base + d));
                            for r in 0..block {
                                let mut v: f64 = ctx.read(at(rb + r, base + d));
                                for x in 0..d {
                                    let a: f64 = ctx.read(at(rb + r, base + x));
                                    let b: f64 = ctx.read(at(base + x, base + d));
                                    v -= a * b;
                                }
                                ctx.write(at(rb + r, base + d), v / pivot);
                                ctx.tick(2);
                            }
                        }
                    }
                    if owner(k, bi) == t {
                        let cb = bi * block;
                        for d in 0..block {
                            for c in 0..block {
                                let mut v: f64 = ctx.read(at(base + d, cb + c));
                                for x in 0..d {
                                    let l: f64 = ctx.read(at(base + d, base + x));
                                    let u: f64 = ctx.read(at(base + x, cb + c));
                                    v -= l * u;
                                }
                                ctx.write(at(base + d, cb + c), v);
                                ctx.tick(2);
                            }
                        }
                    }
                }
                barrier.wait(ctx);
                // 3. Interior update A[i][j] -= L[i][k] * U[k][j].
                for bi in k + 1..nb {
                    for bj in k + 1..nb {
                        if owner(bi, bj) != t {
                            continue;
                        }
                        let (rb, cb) = (bi * block, bj * block);
                        for r in 0..block {
                            for c in 0..block {
                                let mut v: f64 = ctx.read(at(rb + r, cb + c));
                                for x in 0..block {
                                    let l: f64 = ctx.read(at(rb + r, base + x));
                                    let u: f64 = ctx.read(at(base + x, cb + c));
                                    v -= l * u;
                                }
                                ctx.write(at(rb + r, cb + c), v);
                                ctx.tick(2 * block);
                            }
                        }
                    }
                }
                barrier.wait(ctx);
            }
        });
        let sig = checksum_f64s(ctx, MAT_BASE, n * n);
        ctx.emit_str(&format!("{label} n={n} sig={sig:016x}\n"));
    })
}

/// Contiguous (blocked) layout.
#[must_use]
pub fn root_contiguous(p: Params) -> ThreadFn {
    body(p, Layout::Contiguous, "lu-con")
}

/// Row-major (non-contiguous) layout.
#[must_use]
pub fn root_noncontiguous(p: Params) -> ThreadFn {
    body(p, Layout::RowMajor, "lu-non")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_are_bijections() {
        for layout in [Layout::Contiguous, Layout::RowMajor] {
            let mut seen = std::collections::HashSet::new();
            for r in 0..16 {
                for c in 0..16 {
                    assert!(seen.insert(addr(layout, 16, 4, r, c)));
                }
            }
            assert_eq!(seen.len(), 256);
        }
    }

    #[test]
    fn contiguous_blocks_are_contiguous() {
        // All 16 elements of block (0,0) fit in one 128-byte span.
        let mut addrs: Vec<_> = (0..4)
            .flat_map(|r| (0..4).map(move |c| addr(Layout::Contiguous, 16, 4, r, c)))
            .collect();
        addrs.sort_unstable();
        assert_eq!(addrs[15] - addrs[0], 15 * 8);
        // Row-major spreads the same block across rows.
        let a = addr(Layout::RowMajor, 16, 4, 0, 0);
        let b = addr(Layout::RowMajor, 16, 4, 3, 0);
        assert_eq!(b - a, 3 * 16 * 8);
    }
}
