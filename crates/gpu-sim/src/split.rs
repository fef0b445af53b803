//! Splitting heavy element-wise launches across the host's cores.
//!
//! Every element-wise launch body is element-local: element `i`'s output
//! depends only on `i` and on data the launch does not write, and random
//! draws are addressed by global element index. So a launch can run as a
//! few contiguous parts on scoped threads and write exactly the bytes one
//! sequential pass writes. Only launches whose modeled work reaches
//! [`SPLIT_MIN_FLOPS`] split: a scoped spawn costs tens of microseconds,
//! more than a cheap memory-bound kernel saves by it.

use crate::launch::KernelDesc;
use std::sync::{Mutex, OnceLock};

/// Modeled flops (`flops + tensor_flops`) from which a launch splits.
pub(crate) const SPLIT_MIN_FLOPS: u64 = 1 << 19;

/// Host threads the launch described by `desc` runs on: one below
/// [`SPLIT_MIN_FLOPS`], otherwise the host's available parallelism.
pub(crate) fn host_ways(desc: &KernelDesc) -> usize {
    let work = desc.work();
    if work.flops + work.tensor_flops < SPLIT_MIN_FLOPS {
        return 1;
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Parts a split launch is cut into per host thread.
const PARTS_PER_THREAD: usize = 8;

/// Calls `f(offset, part)` on contiguous parts of `whole`, which is
/// `units` long, from `ways` threads: the caller and `ways - 1` scoped
/// threads. `cut(rest, k)` splits the first `k` units off `rest`. Every
/// part starts at a multiple of `align` units, and only the last may be
/// ragged. Threads take parts one at a time, so a thread whose core is
/// busy with other work takes fewer of them. A panic in any part reaches
/// the caller once every part has ended. `cut` and `f` are called once
/// per part, so they are taken as trait objects: one copy of the thread
/// machinery serves every kernel body.
pub(crate) fn split<P: Send>(
    whole: P,
    units: usize,
    align: usize,
    ways: usize,
    cut: &(dyn Fn(P, usize) -> (P, P) + Sync),
    f: &(dyn Fn(usize, P) + Sync),
) {
    let step = units.div_ceil(align * ways * PARTS_PER_THREAD).max(1) * align;
    let rest = Mutex::new(Some((0, whole)));
    let next = || {
        let mut rest = rest.lock().expect("cutting a part never panics");
        let (offset, tail) = rest.take()?;
        if units - offset <= step {
            return Some((offset, tail));
        }
        let (part, tail) = cut(tail, step);
        *rest = Some((offset + step, tail));
        Some((offset, part))
    };
    let work = || {
        while let Some((offset, part)) = next() {
            f(offset, part);
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..ways).map(|_| s.spawn(work)).collect();
        work();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// [`split`] over one slice, cut at multiples of `align` elements.
pub(crate) fn split_slice<T, F>(out: &mut [T], align: usize, ways: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    split(out, len, align, ways, &|s, k| s.split_at_mut(k), &f);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(offset, len)` of every part `split_slice` hands out.
    fn parts(len: usize, align: usize, ways: usize) -> Vec<(usize, usize)> {
        let seen = Mutex::new(Vec::new());
        let mut out = vec![0u8; len];
        split_slice(&mut out, align, ways, |off, part| {
            seen.lock().unwrap().push((off, part.len()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn split_parts_are_aligned_and_tile_the_slice() {
        for (len, align, ways) in [
            (4 * 99 + 3, 4, 3),
            (10, 4, 2),
            (3, 4, 2),
            (256 * 40 + 5, 256, 2),
        ] {
            let ps = parts(len, align, ways);
            assert!(ps.len() <= ways * PARTS_PER_THREAD, "{ps:?}");
            let mut next = 0;
            for &(off, n) in &ps {
                assert_eq!(off, next, "parts must cover [0, {len}) once: {ps:?}");
                assert_eq!(off % align, 0, "{ps:?}");
                next += n;
            }
            assert_eq!(next, len);
        }
        assert_eq!(parts(0, 4, 2), vec![(0, 0)]);
        let even = parts(4096, 4, 2);
        assert_eq!(even.len(), 2 * PARTS_PER_THREAD);
        assert!(even
            .iter()
            .all(|&(_, n)| n == 4096 / (2 * PARTS_PER_THREAD)));
    }

    #[test]
    fn split_rows_cut_both_arrays_together() {
        let (rows, d) = (11, 3);
        let mut a = vec![0usize; rows];
        let mut b = vec![0usize; rows * d];
        split::<(&mut [usize], &mut [usize])>(
            (&mut a, &mut b),
            rows,
            1,
            3,
            &|(a, b), k| {
                let (a0, a1) = a.split_at_mut(k);
                let (b0, b1) = b.split_at_mut(k * d);
                ((a0, b0), (a1, b1))
            },
            &|row0, (a, b)| {
                for (r, (x, row)) in a.iter_mut().zip(b.chunks_mut(d)).enumerate() {
                    *x = row0 + r;
                    row.fill(row0 + r);
                }
            },
        );
        assert_eq!(a, (0..rows).collect::<Vec<_>>());
        assert!(b.iter().enumerate().all(|(i, &v)| v == i / d));
    }

    #[test]
    fn panic_in_a_spawned_part_reaches_the_caller() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        let spawned_ran = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(|| {
            let mut out = vec![0u32; 64];
            split_slice(&mut out, 4, 2, |off, _| {
                if std::thread::current().id() != caller {
                    spawned_ran.store(true, Ordering::SeqCst);
                    panic!("spawned part at {off}");
                }
                // Hold the caller's part until the spawned thread has
                // taken one, so the panic is always on the spawned side.
                while !spawned_ran.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
        });
        let panic = caught.expect_err("the panic must propagate");
        let msg = panic
            .downcast_ref::<String>()
            .expect("panic! with arguments carries a String");
        assert!(msg.contains("spawned part at"), "{msg}");
    }
}
