//! The on-disk frame-evaluation cache: `wi_ldpc`'s [`FrameEvalCache`]
//! backed by a store directory.
//!
//! Every `(seed, frame, ebn0)` Monte-Carlo evaluation a [`BerTarget`]
//! performs is a pure function of its key (the `wi_ldpc::ber` purity
//! contract), so a [`StoreFrameCache`] can persist each frame's
//! [`FrameStats`] once and serve it to every later search round, curve,
//! spec or process that revisits the operating point — the
//! cached-frame-reuse follow-on from the BER redesign lands here.
//!
//! The cache key does not identify the *target* (code + decoder), so
//! each cache is scoped to one target namespace: the file
//! `frames-<target-hash>.jsonl` inside the store directory, with the
//! target hash from [`crate::spec::coding_target_hash`] (or the
//! explicit constructors the fig10 bin uses). Records are one compact
//! JSON array per line, appended through a buffered writer —
//! [`flush`](StoreFrameCache::flush) (or drop) makes them durable, and
//! a torn trailing line from a kill is dropped on reload exactly like
//! the cell shards.
//!
//! [`BerTarget`]: wi_ldpc::ber::BerTarget

use crate::json::Json;
use crate::store::read_jsonl;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wi_ldpc::ber::{FrameEvalCache, FrameStats};

struct Inner {
    map: HashMap<(u64, u64, u64), FrameStats>,
    writer: Option<BufWriter<File>>,
}

/// A persistent, shareable frame-evaluation cache for **one** BER
/// target (see the module docs for the scoping rule).
pub struct StoreFrameCache {
    inner: Mutex<Inner>,
    path: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StoreFrameCache {
    /// Opens the cache file for target `target_hash` inside `dir`
    /// (creating the directory if needed), loading every complete
    /// record; a torn trailing line is dropped.
    pub fn open(dir: &Path, target_hash: u64) -> std::io::Result<StoreFrameCache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("frames-{target_hash:016x}.jsonl"));
        let mut map = HashMap::new();
        read_jsonl(&path, "frame record", parse_frame_line, |(key, stats)| {
            map.insert(key, stats);
        })?;
        Ok(StoreFrameCache {
            inner: Mutex::new(Inner { map, writer: None }),
            path: Some(path),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// A memory-only cache (ephemeral runs without a store directory).
    pub fn in_memory() -> StoreFrameCache {
        StoreFrameCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                writer: None,
            }),
            path: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// `(hits, misses)` observed so far. `get` runs exactly once per
    /// frame evaluated through `CachedBerTarget`, so these are exact.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Cached frame count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes buffered appends to disk.
    pub fn flush(&self) -> std::io::Result<()> {
        if let Some(w) = self.inner.lock().unwrap().writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }
}

impl Drop for StoreFrameCache {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl FrameEvalCache for StoreFrameCache {
    fn get(&self, ebn0_bits: u64, seed: u64, frame: u64) -> Option<FrameStats> {
        let hit = self
            .inner
            .lock()
            .unwrap()
            .map
            .get(&(ebn0_bits, seed, frame))
            .copied();
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn put(&self, ebn0_bits: u64, seed: u64, frame: u64, stats: FrameStats) {
        let mut inner = self.inner.lock().unwrap();
        if inner.map.insert((ebn0_bits, seed, frame), stats).is_some() {
            return; // already on disk (or queued); don't duplicate
        }
        let Some(path) = &self.path else { return };
        if inner.writer.is_none() {
            match OpenOptions::new().create(true).append(true).open(path) {
                Ok(file) => inner.writer = Some(BufWriter::new(file)),
                Err(_) => return, // cache is best-effort; results still flow
            }
        }
        if let Some(w) = inner.writer.as_mut() {
            let _ = writeln!(w, "{}", frame_line(ebn0_bits, seed, frame, &stats));
        }
    }
}

/// One frame record: a compact JSON array
/// `["<ebn0 bits hex>","<seed>","<frame>","<frames>","<bits>","<bit errors>","<frame errors>","<errors_sq>"]`
/// — all strings, because seeds and `errors_sq` (a `u128`) do not fit
/// JSON's `f64` numbers.
fn frame_line(ebn0_bits: u64, seed: u64, frame: u64, s: &FrameStats) -> String {
    Json::Arr(vec![
        Json::Str(format!("{ebn0_bits:016x}")),
        Json::u64(seed),
        Json::u64(frame),
        Json::u64(s.frames),
        Json::u64(s.bits),
        Json::u64(s.bit_errors),
        Json::u64(s.frame_errors),
        Json::Str(s.errors_sq.to_string()),
    ])
    .to_string()
}

fn parse_frame_line(line: &str) -> Option<((u64, u64, u64), FrameStats)> {
    let v = Json::parse(line).ok()?;
    let a = v.as_arr()?;
    if a.len() != 8 {
        return None;
    }
    let key = (
        u64::from_str_radix(a[0].as_str()?, 16).ok()?,
        a[1].as_u64()?,
        a[2].as_u64()?,
    );
    let stats = FrameStats {
        frames: a[3].as_u64()?,
        bits: a[4].as_u64()?,
        bit_errors: a[5].as_u64()?,
        frame_errors: a[6].as_u64()?,
        errors_sq: a[7].as_str()?.parse().ok()?,
    };
    Some((key, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_ldpc::ber::ebn0_key;

    fn stats(bits: u64, errors: u64) -> FrameStats {
        FrameStats {
            frames: 1,
            bits,
            bit_errors: errors,
            frame_errors: (errors > 0) as u64,
            errors_sq: (errors as u128).pow(2),
        }
    }

    #[test]
    fn persists_across_reopen_and_counts_exactly() {
        let dir = std::env::temp_dir().join(format!("wi_sweep_fcache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = ebn0_key(3.25);
        {
            let cache = StoreFrameCache::open(&dir, 0xAB).unwrap();
            for f in 0..20 {
                cache.put(key, 7, f, stats(1000, f % 3));
            }
            assert_eq!(cache.get(key, 7, 5), Some(stats(1000, 2)));
            assert_eq!(cache.get(key, 7, 99), None);
            assert_eq!(cache.counters(), (1, 1));
        } // drop flushes
        let cache = StoreFrameCache::open(&dir, 0xAB).unwrap();
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.get(key, 7, 19), Some(stats(1000, 1)));
        // Another target hash is a different namespace.
        let other = StoreFrameCache::open(&dir, 0xCD).unwrap();
        assert!(other.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn u128_errors_sq_round_trips() {
        let line = frame_line(
            u64::MAX,
            u64::MAX,
            u64::MAX,
            &FrameStats {
                frames: 1,
                bits: u64::MAX,
                bit_errors: u64::MAX,
                frame_errors: 1,
                errors_sq: u128::MAX,
            },
        );
        let (key, stats) = parse_frame_line(&line).unwrap();
        assert_eq!(key, (u64::MAX, u64::MAX, u64::MAX));
        assert_eq!(stats.errors_sq, u128::MAX);
        assert_eq!(stats.bits, u64::MAX);
    }
}
