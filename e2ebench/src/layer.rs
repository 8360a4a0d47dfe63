//! Timing wrappers around the public layer traits. They sit between a
//! caller and the wrapped layer and change no result: every call is
//! forwarded unchanged and only timed, counted and logged.

use crate::sys::spin;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wi_ldpc::ber::{BerTarget, BerWorkspace, FrameEvalCache, FrameStats};

/// One `eval_frames_each` call seen by a [`TimedTarget`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalCall {
    /// Operating point.
    pub ebn0_db: f64,
    /// Frame stream seed.
    pub seed: u64,
    /// First frame index.
    pub first: u64,
    /// Consecutive frames evaluated.
    pub len: usize,
    /// Bit errors the call returned, summed over its frames.
    pub bit_errors: u64,
}

fn nanos(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A [`BerTarget`] that times every frame evaluation of the wrapped
/// target (host time summed over workers), splits the frames between
/// full-width batch calls and the ragged tail, and logs every call for
/// an offline replay.
pub struct TimedTarget<'a> {
    inner: &'a dyn BerTarget,
    delay: Duration,
    eval_ns: AtomicU64,
    full_frames: AtomicU64,
    tail_frames: AtomicU64,
    calls: Mutex<Vec<EvalCall>>,
}

impl<'a> TimedTarget<'a> {
    /// Wraps `inner`, adding a busy-wait of `delay` inside the timed
    /// region of every call — the injected slowdown of the self-test
    /// (zero otherwise).
    pub fn with_delay(inner: &'a dyn BerTarget, delay: Duration) -> Self {
        TimedTarget {
            inner,
            delay,
            eval_ns: AtomicU64::new(0),
            full_frames: AtomicU64::new(0),
            tail_frames: AtomicU64::new(0),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Host seconds spent inside the wrapped target.
    pub fn eval_s(&self) -> f64 {
        self.eval_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// `(frames in full-width calls, frames in narrower calls)`.
    pub fn frame_split(&self) -> (u64, u64) {
        (
            self.full_frames.load(Ordering::Relaxed),
            self.tail_frames.load(Ordering::Relaxed),
        )
    }

    /// Every call seen, sorted by `(ebn0, first frame)` so the log does
    /// not depend on which worker logged first.
    pub fn calls(&self) -> Vec<EvalCall> {
        let mut calls = self
            .calls
            .lock()
            .expect("a worker panicked while logging a call")
            .clone();
        calls.sort_by(|a, b| {
            a.ebn0_db
                .total_cmp(&b.ebn0_db)
                .then(a.seed.cmp(&b.seed))
                .then(a.first.cmp(&b.first))
        });
        calls
    }
}

impl BerTarget for TimedTarget<'_> {
    fn bits_per_frame(&self) -> u64 {
        self.inner.bits_per_frame()
    }

    fn rate(&self) -> f64 {
        self.inner.rate()
    }

    fn eval_frames(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        frames: Range<u64>,
    ) -> FrameStats {
        let width = self.batch_width().max(1) as u64;
        let mut slots = vec![FrameStats::default(); width as usize];
        let mut stats = FrameStats::default();
        let mut first = frames.start;
        while first < frames.end {
            let len = (frames.end - first).min(width) as usize;
            self.eval_frames_each(ws, ebn0_db, seed, first, &mut slots[..len]);
            for s in &slots[..len] {
                stats.merge(s);
            }
            first += len as u64;
        }
        stats
    }

    fn batch_width(&self) -> usize {
        self.inner.batch_width()
    }

    fn eval_frames_each(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        first: u64,
        out: &mut [FrameStats],
    ) {
        let t0 = Instant::now();
        spin(self.delay);
        self.inner.eval_frames_each(ws, ebn0_db, seed, first, out);
        self.eval_ns.fetch_add(nanos(t0), Ordering::Relaxed);
        let len = out.len();
        let split = if len >= self.inner.batch_width() && len > 1 {
            &self.full_frames
        } else {
            &self.tail_frames
        };
        split.fetch_add(len as u64, Ordering::Relaxed);
        self.calls
            .lock()
            .expect("a worker panicked while logging a call")
            .push(EvalCall {
                ebn0_db,
                seed,
                first,
                len,
                bit_errors: out.iter().map(|s| s.bit_errors).sum(),
            });
    }
}

/// A [`FrameEvalCache`] that times and counts `get`/`put` on the
/// wrapped cache.
pub struct TimedCache<'a> {
    inner: &'a dyn FrameEvalCache,
    delay: Duration,
    get_ns: AtomicU64,
    put_ns: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> TimedCache<'a> {
    /// Wraps `inner`, adding a busy-wait of `delay` inside every timed
    /// `get` (zero outside the self-test).
    pub fn with_delay(inner: &'a dyn FrameEvalCache, delay: Duration) -> Self {
        TimedCache {
            inner,
            delay,
            get_ns: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// `(get seconds, put seconds)`.
    pub fn times(&self) -> (f64, f64) {
        (
            self.get_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            self.put_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }

    /// `(hits, misses)` seen through the wrapper.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

impl FrameEvalCache for TimedCache<'_> {
    fn get(&self, ebn0_bits: u64, seed: u64, frame: u64) -> Option<FrameStats> {
        let t0 = Instant::now();
        spin(self.delay);
        let hit = self.inner.get(ebn0_bits, seed, frame);
        self.get_ns.fetch_add(nanos(t0), Ordering::Relaxed);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    fn put(&self, ebn0_bits: u64, seed: u64, frame: u64, stats: FrameStats) {
        let t0 = Instant::now();
        self.inner.put(ebn0_bits, seed, frame, stats);
        self.put_ns.fetch_add(nanos(t0), Ordering::Relaxed);
    }
}
