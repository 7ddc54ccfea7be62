//! Host-speed probe: the correction that keeps timings comparable across
//! the minutes in which a shared host's speed changes.
//!
//! On a shared host, the other guests on the same cores slow a whole run
//! down for minutes at a time; on the 2-vCPU KVM guest this benchmark was
//! written on, the same room_track pass took from 1.8 s to 2.9 s depending
//! on the minute. No statistic of a run's own op times removes a slow-down
//! that lasts longer than the run. So the harness times a fixed reference
//! kernel, [`probe`], between stretches of ops and divides each stretch's
//! op times by the probe's slow-down at that moment.
//!
//! The probe is harness code that no workspace crate touches, so it
//! runs the same instructions before and after any change to the program.
//! It mixes vectorisable floating-point arithmetic, libm transcendentals,
//! and sorting of a cache-resident array, the kinds of work the workloads
//! do, so that it slows down with them.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// The probe's time on an unloaded host, s. Dividing by it turns a probe
/// time into a slow-down factor, so that corrected timings read in the
/// seconds of that host: the median probe time measured on the 2-vCPU KVM
/// guest (Xeon, 2.0 GHz) this benchmark was written on, in a quiet minute.
pub const REFERENCE_PROBE_S: f64 = 1.75e-3;

/// Seconds of op time between two probes.
pub const PROBE_EVERY_S: f64 = 0.1;

/// Runs the reference kernel once and returns its duration, s.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut acc = [0.0f64; 8];
    let (a, b) = (black_box(&DOT_A), black_box(&DOT_B));
    for _ in 0..250 {
        for (xa, xb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            for ((s, x), y) in acc.iter_mut().zip(xa).zip(xb) {
                *s += x * y;
            }
        }
    }
    black_box(acc);
    let mut y = 0.0f64;
    for i in 0..40_000u32 {
        let z = black_box(f64::from(i) * 1e-4);
        y += z.sin() * (z + 1.0).ln() + (-z).exp();
    }
    black_box(y);
    // On the stack, so that a probe allocates nothing.
    let mut v = [0u32; 16_384];
    for (i, e) in (0u32..).zip(&mut v) {
        *e = i.wrapping_mul(0x9E37_79B9);
    }
    for _ in 0..3 {
        v.sort_unstable();
        for e in &mut v {
            *e = e.rotate_left(13) ^ 0x1234;
        }
    }
    black_box(&v);
    t0.elapsed().as_secs_f64()
}

/// Measures the host's slow-down on a fixed number of threads at once,
/// as many as the workload's pool runs: a fan-out waits for its slowest
/// worker, so it slows down with the slowest core the host gives it, and
/// so does a probe as wide. The extra threads are started once and kept,
/// so that probing starts no threads: a new thread's first allocation can
/// make the allocator map a new arena, which would move the peak memory.
pub struct Prober {
    barrier: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    helpers: Vec<JoinHandle<()>>,
}

impl Prober {
    /// A prober `threads` wide: the caller's thread and `threads - 1`
    /// helpers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let barrier = Arc::new(Barrier::new(threads));
        let stop = Arc::new(AtomicBool::new(false));
        let helpers = (1..threads)
            .map(|_| {
                let (barrier, stop) = (Arc::clone(&barrier), Arc::clone(&stop));
                std::thread::spawn(move || loop {
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    probe();
                    barrier.wait();
                })
            })
            .collect();
        Prober {
            barrier,
            stop,
            helpers,
        }
    }

    /// The host's slow-down now: the time of [`probe`] on every thread at
    /// once, over [`REFERENCE_PROBE_S`].
    pub fn slowdown(&self) -> f64 {
        let t0 = Instant::now();
        self.barrier.wait();
        probe();
        self.barrier.wait();
        t0.elapsed().as_secs_f64() / REFERENCE_PROBE_S
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        if self.helpers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        self.barrier.wait();
        for helper in self.helpers.drain(..) {
            helper.join().expect("probe helper thread");
        }
    }
}

/// Probes on each side of a stretch whose median slow-down corrects the
/// stretch: one probe can read half again as slow as its neighbours when
/// the host preempts it, while the host's speed drifts over seconds.
const SMOOTH: usize = 2;

/// Divides the times of each stretch (of ops, or of set-up batches) by
/// the host's slow-down around it. Stretch `k` ends (exclusive) at
/// `ends[k]` and was followed by the probe `slowdowns[k]`; its correction
/// is the median of the probes `k - SMOOTH ..= k + SMOOTH`.
pub fn correct(latencies: &mut [f64], ends: &[usize], slowdowns: &[f64]) {
    let mut start = 0;
    for (k, &end) in ends.iter().enumerate() {
        let mut near =
            slowdowns[k.saturating_sub(SMOOTH)..(k + SMOOTH + 1).min(slowdowns.len())].to_vec();
        near.sort_unstable_by(f64::total_cmp);
        let slowdown = near[near.len() / 2];
        for t in &mut latencies[start..end] {
            *t /= slowdown;
        }
        start = end;
    }
}

const DOT_LEN: usize = 1024;
static DOT_A: [f64; DOT_LEN] = ramp(1.0, 1e-4);
static DOT_B: [f64; DOT_LEN] = ramp(0.5, -1e-5);

const fn ramp(start: f64, step: f64) -> [f64; DOT_LEN] {
    let mut out = [0.0; DOT_LEN];
    let mut i = 0;
    while i < DOT_LEN {
        out[i] = start + step * i as f64;
        i += 1;
    }
    out
}
