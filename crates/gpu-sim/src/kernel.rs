//! Element-wise kernel launches.
//!
//! These entry points execute real closures over buffer contents and
//! charge the launch's modeled cost to the device timeline. They are the
//! simulator analogue of `kernel<<<grid, block>>>(...)` for the kernel
//! shapes PSO needs:
//!
//! * [`Device::launch_map`] — `out[i] = f(i)` (pure production),
//! * [`Device::launch_update`] — `out[i] = f(i, out[i])` (in-place update),
//! * [`Device::launch_fill`] — `f(offset, part)` over contiguous parts of
//!   the output slice (kernels that fill consecutive elements together,
//!   e.g. four Philox draws per block),
//! * [`Device::launch_chunks2`] — one thread per *row/particle* updating two
//!   output arrays chunk-wise (the `pbest` error + position update shape),
//! * [`Device::launch_visit`] — read-only traversal with per-thread state.
//!
//! A map, update, fill or `chunks2` launch of at least 2^19 modeled flops
//! runs as contiguous parts on the host's cores, and writes exactly what
//! one sequential pass writes. `launch_chunks4` and `launch_visit` always
//! run on the calling thread.

use crate::device::Device;
use crate::error::GpuError;
use crate::launch::KernelDesc;
use crate::split::{host_ways, split, split_slice};

impl Device {
    /// `out[i] = f(i)` for every element. `desc.elems` must equal
    /// `out.len()`.
    pub fn launch_map<T, F>(&self, desc: &KernelDesc, out: &mut [T], f: F) -> Result<(), GpuError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.begin_launch()?;
        self.check_elems(desc, out.len(), "launch_map")?;
        self.charge_kernel(desc);
        let ways = host_ways(desc);
        if ways == 1 {
            out.iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = f(i));
        } else {
            split_slice(out, 1, ways, |off, part| {
                for (i, slot) in part.iter_mut().enumerate() {
                    *slot = f(off + i);
                }
            });
        }
        Ok(())
    }

    /// `out[i] = f(i, out[i])` for every element (in-place element-wise
    /// update — the swarm-update kernel shape).
    pub fn launch_update<T, F>(
        &self,
        desc: &KernelDesc,
        out: &mut [T],
        f: F,
    ) -> Result<(), GpuError>
    where
        T: Copy + Send,
        F: Fn(usize, T) -> T + Sync,
    {
        self.begin_launch()?;
        self.check_elems(desc, out.len(), "launch_update")?;
        self.charge_kernel(desc);
        let ways = host_ways(desc);
        if ways == 1 {
            out.iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = f(i, *slot));
        } else {
            split_slice(out, 1, ways, |off, part| {
                for (i, slot) in part.iter_mut().enumerate() {
                    *slot = f(off + i, *slot);
                }
            });
        }
        Ok(())
    }

    /// `f(offset, part)` over contiguous parts of the output slice, where
    /// `part` is `out[offset..offset + part.len()]`. For kernels whose
    /// neighbouring elements share work — a Philox block yields four
    /// consecutive draws — so the kernel walks each part itself. A light
    /// launch is one call `f(0, out)`; a heavy one cuts `out` at multiples
    /// of four elements. Same gate and charge as [`Self::launch_map`].
    /// `desc.elems` must equal `out.len()`.
    pub fn launch_fill<T, F>(&self, desc: &KernelDesc, out: &mut [T], f: F) -> Result<(), GpuError>
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.begin_launch()?;
        self.check_elems(desc, out.len(), "launch_fill")?;
        self.charge_kernel(desc);
        let ways = host_ways(desc);
        if ways == 1 {
            f(0, out);
        } else {
            split_slice(out, 4, ways, f);
        }
        Ok(())
    }

    /// One logical thread per chunk pair: thread `i` gets mutable access to
    /// `a[i*ca .. (i+1)*ca]` and `b[i*cb .. (i+1)*cb]`.
    ///
    /// This is the `pbest` update shape: per particle, compare the new error
    /// (`a` chunk of 1) and copy the position row (`b` chunk of `d`) when it
    /// improved. `desc.elems` must equal the number of chunks.
    pub fn launch_chunks2<A, B, F>(
        &self,
        desc: &KernelDesc,
        a: &mut [A],
        ca: usize,
        b: &mut [B],
        cb: usize,
        f: F,
    ) -> Result<(), GpuError>
    where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        self.begin_launch()?;
        if ca == 0 || cb == 0 {
            return Err(GpuError::InvalidLaunch("zero chunk size".into()));
        }
        if !a.len().is_multiple_of(ca)
            || !b.len().is_multiple_of(cb)
            || a.len() / ca != b.len() / cb
        {
            return Err(GpuError::ShapeMismatch {
                expected: a.len() / ca.max(1),
                actual: b.len() / cb.max(1),
                what: "launch_chunks2",
            });
        }
        let rows = a.len() / ca;
        self.check_elems(desc, rows, "launch_chunks2")?;
        self.charge_kernel(desc);
        let ways = host_ways(desc);
        if ways == 1 {
            a.chunks_mut(ca)
                .zip(b.chunks_mut(cb))
                .enumerate()
                .for_each(|(i, (ac, bc))| f(i, ac, bc));
        } else {
            // Both arrays are cut at the same whole row.
            split::<(&mut [A], &mut [B])>(
                (a, b),
                rows,
                1,
                ways,
                &|(a, b), k| {
                    let (a0, a1) = a.split_at_mut(k * ca);
                    let (b0, b1) = b.split_at_mut(k * cb);
                    ((a0, b0), (a1, b1))
                },
                &|row0, (a, b)| {
                    for (i, (ac, bc)) in a.chunks_mut(ca).zip(b.chunks_mut(cb)).enumerate() {
                        f(row0 + i, ac, bc);
                    }
                },
            );
        }
        Ok(())
    }

    /// One logical thread per chunk quadruple — the fused
    /// particle-per-thread kernel shape used by the gpu-pso baseline, where
    /// a single thread owns its particle's position row, velocity row,
    /// best error and best-position row.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_chunks4<A, B, C, D, F>(
        &self,
        desc: &KernelDesc,
        a: &mut [A],
        ca: usize,
        b: &mut [B],
        cb: usize,
        c: &mut [C],
        cc: usize,
        d: &mut [D],
        cd: usize,
        f: F,
    ) -> Result<(), GpuError>
    where
        A: Send + Sync,
        B: Send + Sync,
        C: Send + Sync,
        D: Send + Sync,
        F: Fn(usize, &mut [A], &mut [B], &mut [C], &mut [D]) + Sync,
    {
        self.begin_launch()?;
        if ca == 0 || cb == 0 || cc == 0 || cd == 0 {
            return Err(GpuError::InvalidLaunch("zero chunk size".into()));
        }
        let chunks = a.len() / ca;
        for (len, sz, what) in [
            (a.len(), ca, "launch_chunks4 a"),
            (b.len(), cb, "launch_chunks4 b"),
            (c.len(), cc, "launch_chunks4 c"),
            (d.len(), cd, "launch_chunks4 d"),
        ] {
            if !len.is_multiple_of(sz) || len / sz != chunks {
                return Err(GpuError::ShapeMismatch {
                    expected: chunks,
                    actual: len / sz,
                    what,
                });
            }
        }
        self.check_elems(desc, chunks, "launch_chunks4")?;
        self.charge_kernel(desc);
        a.chunks_mut(ca)
            .zip(b.chunks_mut(cb))
            .zip(c.chunks_mut(cc).zip(d.chunks_mut(cd)))
            .enumerate()
            .for_each(|(i, ((ac, bc), (cc_, dc)))| f(i, ac, bc, cc_, dc));
        Ok(())
    }

    /// Read-only traversal: `f(i)` for every logical element, with no
    /// output. Useful for kernels whose effects are captured through
    /// atomics or external accumulation (rare; prefer the shaped variants).
    pub fn launch_visit<F>(&self, desc: &KernelDesc, elems: usize, f: F) -> Result<(), GpuError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.begin_launch()?;
        self.check_elems(desc, elems, "launch_visit")?;
        self.charge_kernel(desc);
        (0..elems).for_each(f);
        Ok(())
    }

    fn check_elems(
        &self,
        desc: &KernelDesc,
        actual: usize,
        what: &'static str,
    ) -> Result<(), GpuError> {
        if desc.elems != actual as u64 {
            return Err(GpuError::ShapeMismatch {
                expected: desc.elems as usize,
                actual,
                what,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_model::Phase;

    fn desc(elems: u64) -> KernelDesc {
        KernelDesc::simple("test", Phase::Other, 1, 4, 4, elems)
    }

    #[test]
    fn map_fills_by_index() {
        let dev = Device::v100();
        let mut out = vec![0u32; 100];
        dev.launch_map(&desc(100), &mut out, |i| i as u32 * 2)
            .unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));
    }

    #[test]
    fn update_sees_old_value() {
        let dev = Device::v100();
        let mut out = vec![10.0f32; 8];
        dev.launch_update(&desc(8), &mut out, |i, old| old + i as f32)
            .unwrap();
        assert_eq!(out[3], 13.0);
    }

    #[test]
    fn fill_sees_whole_slice_and_charges_like_map() {
        let dev = Device::v100();
        let mut out = vec![1u32; 10];
        dev.launch_fill(&desc(10), &mut out, |off, s| {
            assert_eq!((off, s.len()), (0, 10), "a light launch is one call");
            for (i, v) in s.iter_mut().enumerate() {
                *v += i as u32;
            }
        })
        .unwrap();
        assert_eq!(out[9], 10);
        let err = dev.launch_fill(&desc(9), &mut out, |_, _| {}).unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 1);
        assert_eq!(c.flops, 10);
    }

    /// A descriptor over `elems` whose modeled flops reach the split rule.
    fn heavy(elems: u64) -> KernelDesc {
        let flops = crate::split::SPLIT_MIN_FLOPS.div_ceil(elems);
        KernelDesc::simple("heavy", Phase::Other, flops, 4, 4, elems)
    }

    /// An element value whose bits depend on every bit of `i`.
    fn val(i: usize) -> f32 {
        (i as f32 * 0.618).sin() * 1e3 + (i % 7) as f32
    }

    #[test]
    fn split_map_and_update_equal_a_sequential_loop() {
        let dev = Device::v100();
        let n = 4 * 5000 + 3;
        let mut out = vec![0.0f32; n];
        dev.launch_map(&heavy(n as u64), &mut out, val).unwrap();
        let want: Vec<f32> = (0..n).map(val).collect();
        assert_eq!(bits(&out), bits(&want));

        let step = |i: usize, v: f32| v * 0.75 + val(i + 1);
        dev.launch_update(&heavy(n as u64), &mut out, step).unwrap();
        let want: Vec<f32> = want.iter().enumerate().map(|(i, &v)| step(i, v)).collect();
        assert_eq!(bits(&out), bits(&want));
    }

    #[test]
    fn split_fill_parts_are_block_aligned_and_cover_once() {
        use std::sync::Mutex;
        let dev = Device::v100();
        let n = 4 * 5000 + 3;
        let parts = Mutex::new(Vec::new());
        let mut out = vec![0.0f32; n];
        dev.launch_fill(&heavy(n as u64), &mut out, |off, part| {
            parts.lock().unwrap().push((off, part.len()));
            for (k, x) in part.iter_mut().enumerate() {
                *x = val(off + k);
            }
        })
        .unwrap();
        let want: Vec<f32> = (0..n).map(val).collect();
        assert_eq!(bits(&out), bits(&want));
        let mut parts = parts.into_inner().unwrap();
        parts.sort_unstable();
        let mut next = 0;
        for (off, len) in parts {
            assert_eq!(off % 4, 0, "part at {off} splits a Philox block");
            assert_eq!(off, next, "parts must cover [0, {n}) exactly once");
            next += len;
        }
        assert_eq!(next, n);
    }

    #[test]
    fn split_chunks2_equals_a_sequential_loop() {
        let dev = Device::v100();
        let (rows, d) = (4 * 1250 + 3, 3);
        let mut err = vec![0.0f32; rows];
        let mut pos = vec![0.0f32; rows * d];
        dev.launch_chunks2(&heavy(rows as u64), &mut err, 1, &mut pos, d, |i, e, p| {
            e[0] = val(i);
            for (c, x) in p.iter_mut().enumerate() {
                *x = val(i * d + c) - e[0];
            }
        })
        .unwrap();
        let want_err: Vec<f32> = (0..rows).map(val).collect();
        let want_pos: Vec<f32> = (0..rows * d).map(|j| val(j) - val(j / d)).collect();
        assert_eq!(bits(&err), bits(&want_err));
        assert_eq!(bits(&pos), bits(&want_pos));
    }

    #[test]
    fn panic_in_a_split_launch_reaches_the_caller() {
        let dev = Device::v100();
        let n = 4 * 5000 + 3;
        let mut out = vec![0u32; n];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch_map(&heavy(n as u64), &mut out, |i| {
                assert_ne!(i, 0, "element 0 fails");
                i as u32
            })
        }));
        assert!(caught.is_err(), "the body's panic must reach the caller");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn elems_mismatch_is_rejected() {
        let dev = Device::v100();
        let mut out = vec![0.0f32; 7];
        let err = dev.launch_map(&desc(8), &mut out, |_| 0.0).unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
    }

    #[test]
    fn chunks2_updates_both_arrays_per_row() {
        let dev = Device::v100();
        let n = 4;
        let d = 3;
        let mut err = vec![1.0f32; n];
        let mut pos = vec![0.0f32; n * d];
        dev.launch_chunks2(&desc(n as u64), &mut err, 1, &mut pos, d, |i, e, p| {
            e[0] = i as f32;
            p.iter_mut().for_each(|x| *x = 10.0 * i as f32);
        })
        .unwrap();
        assert_eq!(err, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(&pos[6..9], &[20.0, 20.0, 20.0]);
    }

    #[test]
    fn chunks2_rejects_mismatched_chunking() {
        let dev = Device::v100();
        let mut a = vec![0.0f32; 4];
        let mut b = vec![0.0f32; 9]; // 4 chunks of 1 vs 3 chunks of 3
        let err = dev
            .launch_chunks2(&desc(4), &mut a, 1, &mut b, 3, |_, _, _| {})
            .unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
        let err = dev
            .launch_chunks2(&desc(4), &mut a, 0, &mut b, 3, |_, _, _| {})
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch(_)));
    }

    #[test]
    fn launches_accumulate_counters() {
        let dev = Device::v100();
        let mut out = vec![0.0f32; 16];
        dev.launch_map(&desc(16), &mut out, |_| 1.0).unwrap();
        dev.launch_update(&desc(16), &mut out, |_, v| v).unwrap();
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 2);
        assert_eq!(c.flops, 32);
        assert_eq!(c.dram_read_bytes, 2 * 64);
    }

    #[test]
    fn visit_observes_every_index() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let dev = Device::v100();
        let sum = AtomicU64::new(0);
        dev.launch_visit(&desc(10), 10, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }
}
