//! The yardstick: how fast the host is right now.
//!
//! The reference host is two cores of a shared machine, and each core is
//! slow at its own times. While whatever shares it is busy, code that is
//! bound by throughput (an index exploring clusters, a scan, a
//! reorganization pass) runs 1.2 to 1.8 times slower, in spells of
//! milliseconds to minutes: the median `execute` call of one seed read
//! 127 us in one run and 175 us in another, and no statistic of a run's
//! own timings (medians, the fastest quarter of 36 slices, the fastest
//! decile of 240 epochs) held within 0.2 between runs once a spell
//! outlasted the run.
//!
//! What does hold is the ratio to other work of the same kind done at
//! the same moment on the same core. So every few milliseconds of timed
//! work are bracketed by two readings of a fixed kernel of the
//! benchmark's own, and every timing is multiplied by `REFERENCE_NS /
//! reading`: it is stated in **reference time**, the time the work
//! takes on a host on which the kernel takes `REFERENCE_NS`. Over five
//! runs of one seed in a loud hour that held within 0.06
//! (`pubsub_steady`) and 0.11 (`hotspot_drift`) where the clock's
//! medians spread by 0.34 and 0.25. It is a first-order correction:
//! `hotspot_drift`'s cheap events slow down more than the kernel does,
//! mutation calls less.
//!
//! The kernel is not part of the program under test and must never
//! change with it: a faster `scan_columns` must not make the yardstick
//! faster. It is compiled by the same compiler with the same flags as
//! the program, so a toolchain change moves both.

use std::sync::Arc;
use std::time::Instant;

/// Pairs of `f32` the kernel reads: two columns of 1 MB.
const PAIRS: usize = 256 * 1024;

/// Nanoseconds one pass takes on the reference host, between stretches
/// of index work, while nothing else contends for its core: the host
/// speed every timing is stated at.
pub const REFERENCE_NS: f64 = 100_000.0;

/// The kernel and its data. Shared, so that a shard worker can take a
/// reading on its own thread: two cores of the reference host are slow
/// at different times.
pub struct Kernel {
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl Kernel {
    /// One sweep: an interval test over both columns, the shape of the
    /// program's own scans.
    fn sweep(&self) {
        let mut inside = 0u64;
        for (lo, hi) in self.lo.iter().zip(&self.hi) {
            inside += u64::from((*lo <= 0.7) & (*hi >= 0.2));
        }
        std::hint::black_box(inside);
    }

    /// One pass: a sweep that brings the columns back into the caches
    /// they fit in, then the timed sweep. Without the first, a reading
    /// says how long ago the last one was (the columns are evicted in
    /// between: after 15 ms a single sweep took 1.8 times as long as
    /// after 2 ms, the second sweep 1.1 times), and the solo phases,
    /// which read every few milliseconds, would be on another scale
    /// than the serve-open windows, which read every tenth of a second.
    pub fn pass(&self) -> Pass {
        let started = Instant::now();
        self.sweep();
        let primed = Instant::now();
        self.sweep();
        let ended = Instant::now();
        Pass {
            started,
            ended,
            ns: (ended - primed).as_nanos() as f64,
        }
    }
}

/// One pass of the kernel, wherever it ran: when it began and ended,
/// and the nanoseconds of its timed sweep.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub started: Instant,
    pub ended: Instant,
    pub ns: f64,
}

pub struct Yardstick {
    kernel: Arc<Kernel>,
    /// Every reading of the run, for the run's account of the host.
    readings_ns: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        // Fixed data: the kernel's branch-free work does not depend on
        // it, but nothing about the yardstick may depend on the seed.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let lo: Vec<f32> = (0..PAIRS).map(|_| next()).collect();
        let hi: Vec<f32> = (0..PAIRS).map(|_| next()).collect();
        let kernel = Kernel { lo, hi };
        // Page the columns in before the first reading counts.
        for _ in 0..8 {
            kernel.pass();
        }
        Yardstick {
            kernel: Arc::new(kernel),
            readings_ns: Vec::new(),
        }
    }

    /// Takes a reading on the calling thread.
    pub fn read(&mut self) -> Reading {
        let pass = self.kernel.pass();
        self.note(pass)
    }

    /// The kernel, for a reading on another thread; `note` brings the
    /// pass back.
    pub fn kernel(&self) -> Arc<Kernel> {
        Arc::clone(&self.kernel)
    }

    pub fn note(&mut self, pass: Pass) -> Reading {
        self.readings_ns.push(pass.ns);
        Reading(pass.ns)
    }

    /// Every reading taken so far, in nanoseconds.
    pub fn readings_ns(&self) -> &[f64] {
        &self.readings_ns
    }
}

/// One reading of the yardstick, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Reading(f64);

impl Reading {
    /// The host's speed over a stretch bracketed by two readings, as a
    /// share of the reference speed: the factor that turns the
    /// stretch's nanoseconds into reference nanoseconds. Below 1 while
    /// the host is slow.
    pub fn speed_until(self, after: Reading) -> f64 {
        REFERENCE_NS / (0.5 * (self.0 + after.0)).max(1.0)
    }
}

/// Scales raw nanoseconds to reference nanoseconds.
pub fn scaled(ns: u64, speed: f64) -> u64 {
    (ns as f64 * speed).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_mean_reading() {
        let reading = |share: f64| Reading(REFERENCE_NS * share);
        assert_eq!(reading(1.5).speed_until(reading(0.5)), 1.0);
        assert_eq!(reading(2.0).speed_until(reading(2.0)), 0.5);
        assert_eq!(scaled(1_000, 0.5), 500);
        // A stretch at half speed and one at full speed that did the
        // same work read the same.
        assert_eq!(scaled(2_400, 0.5), scaled(1_200, 1.0));
    }

    #[test]
    fn readings_are_positive_and_kept() {
        let mut yardstick = Yardstick::new();
        let (a, b) = (yardstick.read(), yardstick.read());
        assert!(a.0 > 0.0 && b.0 > 0.0);
        assert!(a.speed_until(b).is_finite());
        assert_eq!(yardstick.readings_ns().len(), 2);
        // The data never depends on anything.
        assert_eq!(Yardstick::new().kernel.lo[..16], yardstick.kernel.lo[..16]);
        // A pass elsewhere comes back as a reading like any other.
        let kernel = yardstick.kernel();
        let pass = std::thread::spawn(move || kernel.pass()).join().unwrap();
        assert!(pass.ended >= pass.started);
        yardstick.note(pass);
        assert_eq!(yardstick.readings_ns().len(), 3);
    }
}
