//! The content-addressed on-disk result store.
//!
//! A [`ResultStore`] maps a [`CellKey`] — `(config hash, seed, eval
//! hash)` — to one [`CellRecord`]. On disk it is a directory of JSONL
//! shards (`cells-<x>.jsonl`, sharded by the low bits of the config
//! hash) plus the per-target frame-cache files
//! (`frames-<target>.jsonl`, see [`crate::cache`]); in memory it is a
//! hash index over the loaded records. Three properties carry the
//! resume contract:
//!
//! * **Append-only, flushed per record** — a killed sweep loses at most
//!   the line being written; on reload a torn trailing line is
//!   detected and dropped, every complete line survives.
//! * **Last record wins** — re-running a cell appends a fresh record;
//!   the index keeps the newest, so repair is "run it again", never
//!   "edit the file".
//! * **Content addressing** — the key never mentions the spec, so two
//!   different specs that visit the same `(config, seed, eval)` share
//!   one stored result, and renaming a spec invalidates nothing.

use crate::json::{obj, Json};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Number of cell shard files (the low 4 bits of the config hash).
const SHARDS: usize = 16;

/// Address of one stored evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// `SystemConfig::config_hash()` of the cell's configuration.
    pub config: u64,
    /// The cell's RNG seed.
    pub seed: u64,
    /// `EvalSpec::eval_hash()` of the measurement.
    pub eval: u64,
}

/// One stored evaluation result.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Address.
    pub key: CellKey,
    /// Evaluation kind tag (`"ebn0_search"`, `"noc_knee"`, `"bench"`).
    pub kind: String,
    /// Human-readable cell label (axis values + seed).
    pub label: String,
    /// Axis `(field, value)` pairs, for querying.
    pub axes: Vec<(String, String)>,
    /// Named numeric results.
    pub metrics: Vec<(String, f64)>,
    /// Canonical rendered result (byte-compared by the resume tests).
    pub text: String,
}

impl CellRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            ("config", Json::Str(format!("{:016x}", self.key.config))),
            ("seed", Json::u64(self.key.seed)),
            ("eval", Json::Str(format!("{:016x}", self.key.eval))),
            ("kind", Json::Str(self.kind.clone())),
            ("label", Json::Str(self.label.clone())),
            (
                "axes",
                Json::Obj(
                    self.axes
                        .iter()
                        .map(|(f, v)| (f.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("text", Json::Str(self.text.clone())),
        ])
    }

    fn from_json(v: &Json) -> Option<CellRecord> {
        let hex = |key: &str| u64::from_str_radix(v.get(key)?.as_str()?, 16).ok();
        Some(CellRecord {
            key: CellKey {
                config: hex("config")?,
                seed: v.get("seed")?.as_u64()?,
                eval: hex("eval")?,
            },
            kind: v.get("kind")?.as_str()?.to_string(),
            label: v.get("label")?.as_str()?.to_string(),
            axes: v
                .get("axes")?
                .as_obj()?
                .iter()
                .map(|(f, val)| Some((f.clone(), val.as_str()?.to_string())))
                .collect::<Option<Vec<_>>>()?,
            metrics: v
                .get("metrics")?
                .as_obj()?
                .iter()
                .map(|(n, val)| Some((n.clone(), val.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            text: v.get("text")?.as_str()?.to_string(),
        })
    }
}

/// The store: an in-memory index over on-disk JSONL shards (or fully
/// in-memory when opened with [`ResultStore::in_memory`]).
#[derive(Debug)]
pub struct ResultStore {
    dir: Option<PathBuf>,
    records: Vec<CellRecord>,
    index: HashMap<CellKey, usize>,
    writers: Vec<Option<BufWriter<File>>>,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir` and loads its
    /// index. A torn trailing line — the signature of a killed writer —
    /// is dropped silently; a torn line anywhere *else* is corruption
    /// and reported.
    pub fn open(dir: &Path) -> std::io::Result<ResultStore> {
        fs::create_dir_all(dir)?;
        let mut store = ResultStore {
            dir: Some(dir.to_path_buf()),
            records: Vec::new(),
            index: HashMap::new(),
            writers: (0..SHARDS).map(|_| None).collect(),
        };
        for shard in 0..SHARDS {
            read_jsonl(
                &shard_path(dir, shard),
                "record",
                |line| CellRecord::from_json(&Json::parse(line).ok()?),
                |record| store.insert(record),
            )?;
        }
        Ok(store)
    }

    /// A store with no backing directory — everything lives (and dies)
    /// in memory. Lets ephemeral runs share the executor/fold paths.
    pub fn in_memory() -> ResultStore {
        ResultStore {
            dir: None,
            records: Vec::new(),
            index: HashMap::new(),
            writers: (0..SHARDS).map(|_| None).collect(),
        }
    }

    /// The backing directory, when on disk.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up a record.
    pub fn get(&self, key: &CellKey) -> Option<&CellRecord> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// True when `key` has a stored record.
    pub fn contains(&self, key: &CellKey) -> bool {
        self.index.contains_key(key)
    }

    /// All records (newest per key), in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &CellRecord> {
        let mut indices: Vec<usize> = self.index.values().copied().collect();
        indices.sort_unstable();
        indices.into_iter().map(|i| &self.records[i])
    }

    /// Stores a record: appended to its shard (flushed immediately, so
    /// a kill after `put` returns never loses it) and indexed, newest
    /// winning.
    pub fn put(&mut self, record: CellRecord) -> std::io::Result<()> {
        if let Some(dir) = self.dir.clone() {
            let shard = (record.key.config & (SHARDS as u64 - 1)) as usize;
            if self.writers[shard].is_none() {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(shard_path(&dir, shard))?;
                self.writers[shard] = Some(BufWriter::new(file));
            }
            let w = self.writers[shard].as_mut().expect("opened above");
            writeln!(w, "{}", record.to_json())?;
            w.flush()?;
        }
        self.insert(record);
        Ok(())
    }

    fn insert(&mut self, record: CellRecord) {
        match self.index.entry(record.key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.records[*e.get()] = record;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.records.len());
                self.records.push(record);
            }
        }
    }
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("cells-{shard:x}.jsonl"))
}

/// Loads the JSONL file at `path`, if it exists: hands each line that
/// `parse` accepts to `keep`, skipping blank lines. An unparsable last
/// line in a file that does not end in `\n` is a torn tail from a killed
/// writer and is dropped (its cell or frame re-runs on resume); any other
/// unparsable line fails as a corrupt `what` at `path:line`.
pub(crate) fn read_jsonl<T>(
    path: &Path,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
    mut keep: impl FnMut(T),
) -> std::io::Result<()> {
    if !path.exists() {
        return Ok(());
    }
    let text = fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Some(value) => keep(value),
            None if i + 1 == lines.len() && !text.ends_with('\n') => {}
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt {what} at {}:{}", path.display(), i + 1),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(config: u64, seed: u64, text: &str) -> CellRecord {
        CellRecord {
            key: CellKey {
                config,
                seed,
                eval: 0xE,
            },
            kind: "noc_knee".into(),
            label: format!("cell {config:x}/{seed}"),
            axes: vec![("routing".into(), "dor".into())],
            metrics: vec![("knee".into(), 0.3), ("latency_0".into(), 12.5)],
            text: text.into(),
        }
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = std::env::temp_dir().join(format!("wi_sweep_store_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for config in 0..40u64 {
                store.put(record(config * 0x9E37, config, "v1")).unwrap();
            }
            // Overwrite one key: newest must win after reload.
            store.put(record(0, 0, "v2")).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 40);
        assert_eq!(store.get(&record(0, 0, "").key).unwrap().text, "v2");
        assert_eq!(store.iter().count(), 40, "iter yields one record per key");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_cell_reruns() {
        let dir = std::env::temp_dir().join(format!("wi_sweep_torn_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.put(record(0x10, 1, "whole")).unwrap();
        }
        // Simulate a kill mid-write: append half a record, no newline.
        let path = shard_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"config\":\"00000000000000").unwrap();
        drop(f);
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "torn tail dropped, whole record kept");
        assert!(!store.contains(&record(0x20, 1, "").key));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_the_middle_is_an_error() {
        let dir = std::env::temp_dir().join(format!("wi_sweep_corrupt_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(shard_path(&dir, 0), "garbage\n{\"also\":\"bad\"}\n").unwrap();
        assert!(ResultStore::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_store_shares_the_api() {
        let mut store = ResultStore::in_memory();
        store.put(record(1, 2, "x")).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.dir().is_none());
    }
}
