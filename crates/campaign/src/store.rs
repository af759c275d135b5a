//! A persistent content-addressed key → JSON store: the on-disk
//! extension of the engine's in-memory memo caches.
//!
//! Layout: `<root>/entries/<hh>/<hash32>.json`, where `hash32` is a
//! 128-bit FNV-1a of the full cache key (hex) and `hh` its first two
//! characters (a fan-out directory so no single directory grows huge).
//! Each entry records the *full* key alongside the value, so a hash
//! collision reads as a miss instead of returning the wrong value.
//!
//! Disciplines:
//!
//! - **Atomic writes** — the entry is written to a temp file in the same
//!   directory and `rename`d into place, so a killed process can leave a
//!   stale temp file but never a half-written entry.
//! - **Corruption-tolerant reads** — an unreadable, unparsable, or
//!   key-mismatched entry, or one its reader cannot decode
//!   ([`Store::load_as`]), counts as a miss (plus a `corrupt` counter);
//!   callers recompute and overwrite. The store never panics on bad
//!   on-disk state.
//! - **Counters** — hits, misses, corrupt entries, writes, and
//!   evictions, snapshotted via [`Store::counters`] and surfaced through
//!   the engine's `--metrics`.
//! - **Optional capacity** — [`Store::with_cap`] bounds the entry count;
//!   when a write overflows it, the oldest entries (by modification
//!   time) are evicted.

use preexec_json::{parse, Json};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A 128-bit FNV-1a content hash, rendered as 32 hex characters. Stable
/// across processes and platforms (pure integer arithmetic), so store
/// entries written by one shard are readable by every other.
pub fn content_hash(key: &str) -> String {
    fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
        let mut h = seed;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let lo = fnv1a64(0xcbf2_9ce4_8422_2325, key.as_bytes());
    // A second pass with a perturbed basis gives 128 independent bits.
    let hi = fnv1a64(0x6c62_272e_07bb_0142, key.as_bytes());
    format!("{hi:016x}{lo:016x}")
}

/// Counter snapshot of one [`Store`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Entries found (and valid) on load.
    pub hits: u64,
    /// Loads that found nothing usable.
    pub misses: u64,
    /// Loads that found an unreadable/unparsable/mismatched entry
    /// (counted in addition to the miss).
    pub corrupt: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries evicted to stay under the capacity bound.
    pub evictions: u64,
}

/// The persistent result store. Cheap to clone the handle via `Arc`;
/// safe to share across threads and across processes (atomic writes,
/// tolerant reads).
pub struct Store {
    root: PathBuf,
    cap: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    tmp_seq: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("entries"))?;
        Ok(Store {
            root,
            cap: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Bounds the store to at most `cap` entries (oldest-first eviction
    /// on overflow). `0` means unbounded.
    pub fn with_cap(mut self, cap: usize) -> Store {
        self.cap = if cap == 0 { None } else { Some(cap) };
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, key: &str) -> PathBuf {
        let h = content_hash(key);
        self.root
            .join("entries")
            .join(&h[..2])
            .join(format!("{h}.json"))
    }

    /// Loads the value stored under `key`, if a valid entry exists.
    /// Unreadable, unparsable, or key-mismatched entries are misses.
    pub fn load(&self, key: &str) -> Option<Json> {
        self.load_as(key, |v| Ok(v.clone()))
    }

    /// Loads the value stored under `key` and decodes it with `decode`.
    /// A value `decode` rejects is a corrupt entry like an unparsable
    /// one: a miss, so the caller recomputes and overwrites it.
    pub fn load_as<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Option<T> {
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if e.kind() != io::ErrorKind::NotFound {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        let value = parse(&text).ok().and_then(|entry| {
            match (entry.get("key").and_then(Json::as_str), entry.get("value")) {
                (Some(k), Some(v)) if k == key => decode(v).ok(),
                _ => None,
            }
        });
        match value {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists `value` under `key` (atomically; best-effort — storage
    /// failures are swallowed, the store is a cache, not a database).
    pub fn save(&self, key: &str, value: &Json) {
        let path = self.path_for(key);
        let Some(dir) = path.parent() else { return };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let entry = Json::object().with("key", key).with("value", value.clone());
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".tmp-{}-{}", std::process::id(), seq,));
        if fs::write(&tmp, format!("{entry}\n")).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.cap {
            self.evict_to(cap);
        }
    }

    /// Lists every entry file with its modification time.
    fn entries(&self) -> Vec<(PathBuf, std::time::SystemTime)> {
        let mut out = Vec::new();
        let Ok(fanout) = fs::read_dir(self.root.join("entries")) else {
            return out;
        };
        for dir in fanout.flatten() {
            let Ok(files) = fs::read_dir(dir.path()) else {
                continue;
            };
            for f in files.flatten() {
                let path = f.path();
                if path.extension().is_some_and(|e| e == "json") {
                    let mtime = f
                        .metadata()
                        .and_then(|m| m.modified())
                        .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    out.push((path, mtime));
                }
            }
        }
        out
    }

    /// The number of entries currently on disk.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evicts oldest-first until at most `cap` entries remain.
    fn evict_to(&self, cap: usize) {
        let mut entries = self.entries();
        if entries.len() <= cap {
            return;
        }
        entries.sort_by_key(|(path, mtime)| (*mtime, path.clone()));
        let excess = entries.len() - cap;
        for (path, _) in entries.into_iter().take(excess) {
            if fs::remove_file(path).is_ok() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot of the store's counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("preexec-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn content_hash_is_stable_and_wide() {
        let h = content_hash("hello");
        assert_eq!(h.len(), 32);
        assert_eq!(h, content_hash("hello"));
        assert_ne!(h, content_hash("hello2"));
    }

    #[test]
    fn save_load_roundtrip_and_counters() {
        let s = tmp_store("roundtrip");
        assert_eq!(s.load("k"), None);
        let v = Json::object().with("cycles", 42u64);
        s.save("k", &v);
        assert_eq!(s.load("k"), Some(v));
        let c = s.counters();
        assert_eq!((c.hits, c.misses, c.writes), (1, 1, 1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let s = tmp_store("corrupt");
        s.save("k", &Json::U64(7));
        let path = s.path_for("k");
        fs::write(&path, "{truncated garba").unwrap();
        assert_eq!(s.load("k"), None);
        assert_eq!(s.counters().corrupt, 1);
        // Recompute-and-overwrite heals the entry.
        s.save("k", &Json::U64(7));
        assert_eq!(s.load("k"), Some(Json::U64(7)));
        // A value its reader rejects is corrupt too: a miss, not a hit.
        let before = s.counters();
        assert_eq!(s.load_as("k", |_| Err::<(), _>("bad shape".into())), None);
        let after = s.counters();
        assert_eq!(after.corrupt, before.corrupt + 1);
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1));
    }

    #[test]
    fn key_mismatch_is_a_miss_not_a_wrong_value() {
        let s = tmp_store("mismatch");
        s.save("a", &Json::U64(1));
        // Simulate a 128-bit collision: graft a's entry file onto b's slot.
        let forged = s.path_for("b");
        fs::create_dir_all(forged.parent().unwrap()).unwrap();
        fs::copy(s.path_for("a"), &forged).unwrap();
        assert_eq!(s.load("b"), None, "recorded key must match");
        assert_eq!(s.counters().corrupt, 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let s = tmp_store("evict").with_cap(3);
        for i in 0..5u64 {
            s.save(&format!("k{i}"), &Json::U64(i));
            // mtime granularity on some filesystems is coarse; spread out.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.counters().evictions, 2);
        assert_eq!(s.load("k4"), Some(Json::U64(4)), "newest survives");
        assert_eq!(s.load("k0"), None, "oldest evicted");
    }
}
