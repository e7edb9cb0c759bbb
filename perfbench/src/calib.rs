//! Host-speed reference: a fixed kernel of the benchmark's own, timed
//! next to every timed operation, that the timed figures are scaled by.
//!
//! The host this benchmark runs on is shared. Its speed drifts by ±30 %
//! over seconds to minutes, and no amount of work inside one run averages
//! a slow minute out of the run's median. Each timed operation is
//! therefore bracketed by timings of this kernel, taken just before and
//! just after it, and reported as `wall × REF_NOMINAL_MS / reference`:
//! its time on a host that runs the kernel in `REF_NOMINAL_MS`. The kernel
//! calls none of the program's code, so a change to the program moves
//! only the numerator.
//!
//! The kernel runs on as many threads at once as the program's worker
//! pool has, and a sample is the slowest thread's time: a training or
//! replay round waits for its slowest worker, and the vCPUs of a shared
//! host slow down independently of each other.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the host the benchmark was written on
/// (2-vCPU Intel Xeon VM, native release build, 2 threads): the speed
/// the scaled figures are quoted at.
pub const REF_NOMINAL_MS: f64 = 1.5;

/// Side of the matrices of the kernel's matrix product (L1/L2 resident).
const N: usize = 64;
/// Length of the kernel's streamed vectors (2 × 1 MiB).
const LEN: usize = 1 << 18;

/// The buffers one kernel thread works on.
struct Lane {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Lane {
    fn new() -> Lane {
        let fill = |n: usize, k: u32| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    ((i as u32).wrapping_mul(2654435761).wrapping_add(k) >> 20) as f32 / 4096.0
                })
                .collect()
        };
        Lane {
            a: fill(N * N, 1),
            b: fill(N * N, 2),
            c: vec![0.0; N * N],
            x: fill(LEN, 3),
            y: fill(LEN, 4),
        }
    }

    /// Runs the kernel once: four 64×64 matrix products and four
    /// multiply-add passes over two 1 MiB vectors, the two kinds of work
    /// the program's training and replay loops do. Returns its time, ms.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..4 {
            self.c.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..N {
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    let row = &self.b[k * N..(k + 1) * N];
                    let out = &mut self.c[i * N..(i + 1) * N];
                    for (o, &bv) in out.iter_mut().zip(row) {
                        *o += aik * bv;
                    }
                }
            }
            black_box(&mut self.c);
        }
        let mut dot = 0.0f32;
        for _ in 0..4 {
            for (y, &x) in self.y.iter_mut().zip(&self.x) {
                *y = 0.999 * *y + 0.001 * x;
            }
            dot += self.x.iter().zip(&self.y).map(|(a, b)| a * b).sum::<f32>();
            black_box(&mut self.y);
        }
        black_box(dot);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The reference kernel and its timings during one run.
pub struct Reference {
    lanes: Vec<Lane>,
    /// Every kernel time of the run, ms.
    pub samples: Vec<f64>,
}

impl Default for Reference {
    /// A kernel on `fuiov_tensor::pool::threads()` threads.
    fn default() -> Self {
        Reference::new(fuiov_tensor::pool::threads())
    }
}

impl Reference {
    /// A kernel on `threads` threads at once (at least one).
    pub fn new(threads: usize) -> Reference {
        Reference {
            lanes: (0..threads.max(1)).map(|_| Lane::new()).collect(),
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once on every thread. Returns the slowest
    /// thread's time, ms.
    pub fn sample(&mut self) -> f64 {
        let ms = match &mut self.lanes[..] {
            [lane] => lane.run(),
            lanes => std::thread::scope(|s| {
                let handles: Vec<_> = lanes.iter_mut().map(|l| s.spawn(|| l.run())).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("kernel thread"))
                    .fold(0.0, f64::max)
            }),
        };
        self.samples.push(ms);
        ms
    }

    /// Times `op` between `k` kernel samples before it and `k` after it.
    /// Returns its result, its wall time (ms) and the median of the `2k`
    /// kernel times (ms): the host's speed while it ran.
    pub fn timed<T>(&mut self, k: usize, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let mut around: Vec<f64> = (0..k).map(|_| self.sample()).collect();
        let t = Instant::now();
        let r = op();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        around.extend((0..k).map(|_| self.sample()));
        (r, ms, median(&around).expect("k >= 1"))
    }
}

/// `ms` measured while the kernel took `reference_ms`, scaled to a host
/// that runs the kernel in `REF_NOMINAL_MS`.
pub fn scaled(ms: f64, reference_ms: f64) -> f64 {
    ms * REF_NOMINAL_MS / reference_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_quotes_a_time_at_the_nominal_speed() {
        assert_eq!(scaled(10.0, REF_NOMINAL_MS), 10.0);
        assert_eq!(scaled(10.0, 2.0 * REF_NOMINAL_MS), 5.0);
        assert_eq!(scaled(10.0, 0.5 * REF_NOMINAL_MS), 20.0);
    }

    #[test]
    fn timed_takes_k_kernel_samples_on_each_side() {
        for threads in [1, 2] {
            let mut r = Reference::new(threads);
            let (v, ms, ref_ms) = r.timed(3, || 7);
            assert_eq!(v, 7);
            assert!(ms >= 0.0);
            assert_eq!(r.samples.len(), 6);
            assert_eq!(Some(ref_ms), median(&r.samples));
            assert!(ref_ms > 0.0);
        }
    }
}
