//! The calibration kernel and the clock that applies it.
//!
//! The host's speed drifts by tens of percent over about a second even
//! when nothing preempts the process, which swamps a fixed workload's
//! wall time. A small CPU kernel that uses no repository code is timed
//! right before and right after every measured operation, and the
//! operation's wall time is scaled by `REF_KERNEL_MS / mean(before,
//! after)`. Every reported timing thus reads as time on the reference
//! machine, on which the kernel takes [`REF_KERNEL_MS`].

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference machine (a 2-vCPU x86-64 VM), in ms.
/// Calibrated timings equal raw timings whenever the kernel runs at
/// this speed.
pub const REF_KERNEL_MS: f64 = 3.2;

/// Words in the kernel's buffer (256 KiB, cache-resident on the
/// reference machine) and passes over it per call: about 3 ms.
const KERNEL_WORDS: usize = 1 << 15;
const KERNEL_ROUNDS: usize = 4;

/// A fixed CPU workload over one buffer allocated at construction: a
/// xorshift fill, an in-place sort and a strided hash. Every call
/// rewrites the whole buffer and allocates nothing.
pub struct Kernel {
    buf: Vec<u64>,
    state: u64,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel { buf: vec![0; KERNEL_WORDS], state: 0x9E37_79B9_7F4A_7C15 }
    }

    /// Runs the kernel once and returns its wall time in ms.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..KERNEL_ROUNDS {
            self.round();
        }
        start.elapsed().as_secs_f64() * 1e3
    }

    fn round(&mut self) {
        let mut x = self.state;
        for w in self.buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.state = x;
        self.buf.sort_unstable();
        // An odd stride visits every slot of the power-of-two buffer once.
        let mask = KERNEL_WORDS - 1;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut i = 0usize;
        for _ in 0..KERNEL_WORDS {
            h = (h ^ self.buf[i]).wrapping_mul(0x0100_0000_01b3);
            i = (i + 4099) & mask;
        }
        black_box(h);
    }
}

/// Scales a raw duration by the kernel times measured around it.
pub fn calibrate(raw: f64, kernel_before_ms: f64, kernel_after_ms: f64) -> f64 {
    raw * REF_KERNEL_MS / ((kernel_before_ms + kernel_after_ms) / 2.0)
}

/// One measured operation: raw and calibrated wall time, in ms.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_ms: f64,
    pub cal_ms: f64,
}

/// Times operations between calibration kernels. Back-to-back
/// operations share the kernel between them; [`Clock::untimed`] work
/// in between forces a fresh kernel before the next operation.
pub struct Clock {
    kernel: Kernel,
    last_kernel_ms: Option<f64>,
    /// When the most recent operation started.
    pub last_start: Instant,
    /// Every kernel time measured, in order (the `calib.*` metrics).
    pub kernels: Vec<f64>,
}

impl Clock {
    pub fn new() -> Self {
        let mut kernel = Kernel::new();
        // Fault in the buffer and warm the caches before the first use.
        for _ in 0..3 {
            kernel.run();
        }
        Clock { kernel, last_kernel_ms: None, last_start: Instant::now(), kernels: Vec::new() }
    }

    fn kernel(&mut self) -> f64 {
        let k = self.kernel.run();
        self.kernels.push(k);
        k
    }

    /// Runs `f` between two kernels and returns its result and timing.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = match self.last_kernel_ms.take() {
            Some(k) => k,
            None => self.kernel(),
        };
        self.last_start = Instant::now();
        let out = black_box(f());
        let raw_ms = self.last_start.elapsed().as_secs_f64() * 1e3;
        let after = self.kernel();
        self.last_kernel_ms = Some(after);
        (out, Timing { raw_ms, cal_ms: calibrate(raw_ms, before, after) })
    }

    /// Runs `f` outside any measurement (oracle checks, bookkeeping).
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.last_kernel_ms = None;
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_the_identity_at_the_reference_speed() {
        for raw in [0.001, 1.0, 12.5, 4000.0] {
            assert_eq!(calibrate(raw, REF_KERNEL_MS, REF_KERNEL_MS), raw);
        }
        // A host running at half speed reads as the reference machine.
        let slow = 2.0 * REF_KERNEL_MS;
        assert_eq!(calibrate(20.0, slow, slow), 10.0);
        assert_eq!(calibrate(20.0, REF_KERNEL_MS, 3.0 * REF_KERNEL_MS), 10.0);
    }

    #[test]
    fn kernel_rewrites_its_buffer_without_reallocating() {
        let mut k = Kernel::new();
        let ptr = k.buf.as_ptr();
        k.run();
        let first = k.buf.clone();
        k.run();
        assert_eq!(k.buf.as_ptr(), ptr);
        assert_eq!(k.buf.len(), KERNEL_WORDS);
        let same = first.iter().zip(&k.buf).filter(|(a, b)| a == b).count();
        assert!(same < KERNEL_WORDS / 100, "{same} words unchanged between calls");
    }

    #[test]
    fn clock_shares_kernels_between_back_to_back_operations() {
        let mut clock = Clock::new();
        clock.time(|| ());
        clock.time(|| ());
        assert_eq!(clock.kernels.len(), 3);
        clock.untimed(|| ());
        clock.time(|| ());
        assert_eq!(clock.kernels.len(), 5);
    }
}
