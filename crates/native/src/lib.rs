//! The `pthreads` baseline: conventional, **nondeterministic**
//! multithreading behind the same [`rfdet_api::DmtCtx`] API.
//!
//! Shared memory is one flat array of atomic bytes accessed with
//! `Relaxed` ordering — racy programs are memory-safe here (every byte is
//! its own atomic cell, matching DLRC's byte granularity) but their
//! results depend on physical timing, exactly like pthreads. Locks,
//! condition variables and barriers map to parking_lot primitives.
//!
//! This is the normalization baseline of the paper's Figure 7 and the
//! scalability reference of Figure 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod backend;
mod ctx;
mod sync;

pub use backend::NativeBackend;

#[cfg(test)]
mod tests {
    use crate::NativeBackend;
    use rfdet_api::{BarrierId, CondId, DmtBackend, DmtCtxExt, MutexId, RunConfig};

    #[test]
    fn counter_with_locks_is_exact() {
        let out = NativeBackend.run_expect(
            &RunConfig::small(),
            Box::new(|ctx| {
                let m = MutexId(0);
                let hs: Vec<_> = (0..4)
                    .map(|_| {
                        ctx.spawn(Box::new(move |ctx| {
                            for _ in 0..100 {
                                ctx.lock(m);
                                let v: u64 = ctx.read(64);
                                ctx.write(64, v + 1);
                                ctx.unlock(m);
                            }
                        }))
                    })
                    .collect();
                for h in hs {
                    ctx.join(h);
                }
                let v: u64 = ctx.read(64);
                ctx.emit_str(&v.to_string());
            }),
        );
        assert_eq!(out.output, b"400");
        assert_eq!(out.stats.locks, 400);
    }

    #[test]
    fn condvar_handshake_works() {
        let out = NativeBackend.run_expect(
            &RunConfig::small(),
            Box::new(|ctx| {
                let m = MutexId(0);
                let cv = CondId(0);
                let child = ctx.spawn(Box::new(move |ctx| {
                    ctx.lock(m);
                    while ctx.read::<u64>(0) == 0 {
                        ctx.cond_wait(cv, m);
                    }
                    ctx.write::<u64>(8, 42);
                    ctx.unlock(m);
                }));
                ctx.lock(m);
                ctx.write::<u64>(0, 1);
                ctx.cond_signal(cv);
                ctx.unlock(m);
                ctx.join(child);
                let v: u64 = ctx.read(8);
                ctx.emit_str(&v.to_string());
            }),
        );
        assert_eq!(out.output, b"42");
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let out = NativeBackend.run_expect(
            &RunConfig::small(),
            Box::new(|ctx| {
                let b = BarrierId(0);
                let hs: Vec<_> = (0..3u64)
                    .map(|i| {
                        ctx.spawn(Box::new(move |ctx| {
                            ctx.write_idx::<u64>(0, i, i + 1);
                            ctx.barrier(b, 3);
                            let sum: u64 = (0..3).map(|j| ctx.read_idx::<u64>(0, j)).sum();
                            ctx.write_idx::<u64>(256, i, sum);
                        }))
                    })
                    .collect();
                for h in hs {
                    ctx.join(h);
                }
                let s: u64 = ctx.read_idx::<u64>(256, 1);
                ctx.emit_str(&s.to_string());
            }),
        );
        assert_eq!(out.output, b"6");
    }

    #[test]
    fn backend_is_not_deterministic_by_contract() {
        assert!(!NativeBackend.is_deterministic());
        assert_eq!(NativeBackend.name(), "pthreads");
    }

    #[test]
    fn alloc_roundtrip() {
        let out = NativeBackend.run_expect(
            &RunConfig::small(),
            Box::new(|ctx| {
                let a = ctx.alloc(64, 8);
                ctx.write::<u64>(a, 11);
                let v: u64 = ctx.read(a);
                ctx.dealloc(a);
                ctx.emit_str(&v.to_string());
            }),
        );
        assert_eq!(out.output, b"11");
        assert_eq!(out.stats.shared_bytes, 64);
    }

    #[test]
    fn unaligned_and_cross_word_accesses() {
        let out = NativeBackend.run_expect(
            &RunConfig::small(),
            Box::new(|ctx| {
                ctx.write::<u64>(13, 0x0102_0304_0506_0708);
                let v: u64 = ctx.read(13);
                let b: u8 = ctx.read(13);
                ctx.emit_str(&format!("{v:x},{b:x}"));
            }),
        );
        assert_eq!(out.output, b"102030405060708,8");
    }
}
