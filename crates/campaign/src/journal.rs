//! An append-only JSONL completion log making sweeps resumable.
//!
//! A journal is bound to a *spec id* — a canonical description of the
//! sweep it records. The first line of the file is a header carrying
//! that id; every later line records one completed cell:
//!
//! ```text
//! {"spec":"<spec id>"}
//! {"cell":"<cell id>","value":<json>}
//! {"cell":"<cell id>","value":<json>}
//! ```
//!
//! Opening a journal replays it: lines that parse land in an in-memory
//! map, an unparsable tail (the half-written line a `kill -9` leaves
//! behind) is skipped, and a header that names a *different* spec causes
//! the whole file to be truncated and restarted — a journal never
//! resumes someone else's sweep. Appends are flushed per record under a
//! mutex, so the worker pool can record completions concurrently and a
//! crash loses at most the record being written.

use preexec_json::{parse, Json};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Mutex;

/// A resumable sweep journal. See the module docs for the file format.
pub struct Journal {
    done: Mutex<HashMap<String, Json>>,
    file: Mutex<File>,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the sweep identified
    /// by `spec_id`, replaying any completed cells recorded for the same
    /// spec. A journal recorded for a different spec — or with a
    /// corrupt header — is truncated and restarted from empty.
    pub fn open(path: impl Into<PathBuf>, spec_id: &str) -> io::Result<Journal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut done = HashMap::new();
        let mut matches = false;
        if let Ok(f) = File::open(&path) {
            let mut lines = BufReader::new(f).lines();
            if let Some(Ok(header)) = lines.next() {
                matches = parse(&header)
                    .ok()
                    .and_then(|h| h.get("spec").and_then(Json::as_str).map(str::to_string))
                    .is_some_and(|s| s == spec_id);
            }
            if matches {
                for line in lines.map_while(Result::ok) {
                    let Ok(rec) = parse(&line) else { continue };
                    let (Some(cell), Some(value)) =
                        (rec.get("cell").and_then(Json::as_str), rec.get("value"))
                    else {
                        continue;
                    };
                    done.insert(cell.to_string(), value.clone());
                }
            }
        }
        let mut file = if matches {
            OpenOptions::new().append(true).open(&path)?
        } else {
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)?
        };
        if !matches {
            let header = Json::object().with("spec", spec_id);
            writeln!(file, "{header}")?;
            file.flush()?;
        } else if std::fs::read(&path)?.last().is_some_and(|&b| b != b'\n') {
            // A kill mid-append can leave a torn final line; terminate it
            // so the next record starts on a fresh line.
            writeln!(file)?;
            file.flush()?;
        }
        Ok(Journal {
            done: Mutex::new(done),
            file: Mutex::new(file),
        })
    }

    /// The recorded value for `cell_id`, if that cell already completed.
    pub fn get(&self, cell_id: &str) -> Option<Json> {
        self.done.lock().unwrap().get(cell_id).cloned()
    }

    /// Records the completion of `cell_id`, appending and flushing the
    /// record before returning. Thread-safe.
    pub fn record(&self, cell_id: &str, value: &Json) {
        let rec = Json::object()
            .with("cell", cell_id)
            .with("value", value.clone());
        {
            let mut file = self.file.lock().unwrap();
            let _ = writeln!(file, "{rec}");
            let _ = file.flush();
        }
        self.done
            .lock()
            .unwrap()
            .insert(cell_id.to_string(), value.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "preexec-journal-test-{}-{tag}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn records_replay_across_reopen() {
        let path = tmp_path("replay");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path, "spec-a").unwrap();
            assert_eq!(j.get("c1"), None, "a new journal replays nothing");
            j.record("c1", &Json::U64(1));
            j.record("c2", &Json::U64(2));
        }
        let j = Journal::open(&path, "spec-a").unwrap();
        assert_eq!(j.get("c1"), Some(Json::U64(1)));
        assert_eq!(j.get("c2"), Some(Json::U64(2)));
        assert_eq!(j.get("c3"), None);
    }

    #[test]
    fn different_spec_truncates() {
        let path = tmp_path("spec-change");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path, "spec-a").unwrap();
            j.record("c1", &Json::U64(1));
        }
        let j = Journal::open(&path, "spec-b").unwrap();
        assert_eq!(j.get("c1"), None, "foreign journal must not replay");
        j.record("c9", &Json::U64(9));
        drop(j);
        let j = Journal::open(&path, "spec-b").unwrap();
        assert_eq!(j.get("c1"), None, "the foreign record is gone");
        assert_eq!(j.get("c9"), Some(Json::U64(9)));
    }

    #[test]
    fn torn_tail_is_skipped() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path, "spec-a").unwrap();
            j.record("c1", &Json::U64(1));
        }
        // Simulate a kill mid-append: a truncated record at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"cell\":\"c2\",\"val").unwrap();
        }
        let j = Journal::open(&path, "spec-a").unwrap();
        assert_eq!(j.get("c1"), Some(Json::U64(1)), "intact records survive");
        assert_eq!(j.get("c2"), None, "the torn tail is dropped");
        // The journal stays appendable after the torn line.
        j.record("c2", &Json::U64(2));
        drop(j);
        let j = Journal::open(&path, "spec-a").unwrap();
        assert_eq!(j.get("c2"), Some(Json::U64(2)));
    }

    #[test]
    fn concurrent_records_all_land() {
        let path = tmp_path("concurrent");
        let _ = std::fs::remove_file(&path);
        let j = std::sync::Arc::new(Journal::open(&path, "spec-a").unwrap());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        j.record(&format!("c{t}-{i}"), &Json::U64(t * 100 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(j);
        let j = Journal::open(&path, "spec-a").unwrap();
        for t in 0..8u64 {
            for i in 0..25u64 {
                assert_eq!(j.get(&format!("c{t}-{i}")), Some(Json::U64(t * 100 + i)));
            }
        }
    }
}
