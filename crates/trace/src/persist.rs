//! Crash persistence with a torn-write guarantee.
//!
//! Traces are written to a temporary file in the destination directory
//! and then `rename`d into place. On POSIX a same-directory rename is
//! atomic, so readers only ever observe either no file or a complete
//! one — a process that dies mid-write leaves at most an orphaned
//! `.tmp-` file, never a torn `.trace`. The codec's trailing checksum
//! backstops the remaining ways a file can be damaged after the fact.

use crate::{Checkpoint, RunTrace, TraceError};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Default trace directory, overridable with `RFDET_TRACE_DIR`.
#[must_use]
pub fn trace_dir() -> PathBuf {
    std::env::var_os("RFDET_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/rfdet-traces"))
}

/// The canonical file name of a trace: its digest in hex, plus an
/// optional tag (the shrinker saves minimized traces as `<digest>.min`).
#[must_use]
pub fn file_name(trace: &RunTrace, tag: &str) -> String {
    format!("{:016x}{tag}.trace", trace.failure.report_digest)
}

/// Saves `trace` into [`trace_dir`] under its canonical name.
///
/// # Errors
/// Propagates filesystem errors (directory creation, write, rename).
pub fn save(trace: &RunTrace) -> std::io::Result<PathBuf> {
    save_in(&trace_dir(), trace, "")
}

/// Saves `trace` into `dir` as `<digest><tag>.trace`, atomically: the
/// bytes land in a unique temporary file first and are renamed into
/// place, so a crash never leaves a torn `.trace`.
///
/// # Errors
/// Propagates filesystem errors (directory creation, write, rename).
pub fn save_in(dir: &Path, trace: &RunTrace, tag: &str) -> std::io::Result<PathBuf> {
    write_atomic(dir, &file_name(trace, tag), &trace.encode())
}

/// Saves a human-readable sidecar (e.g. the race report the `replay
/// races` verb emits) beside the traces in `dir`, with the same
/// torn-write guarantee the binary artifacts get.
///
/// # Errors
/// Propagates filesystem errors (directory creation, write, rename).
pub fn save_sidecar(dir: &Path, name: &str, text: &str) -> std::io::Result<PathBuf> {
    write_atomic(dir, name, text.as_bytes())
}

/// Writes `bytes` into `dir/name` atomically: unique temporary first,
/// then rename, so a crash never leaves a torn file. Shared by trace and
/// checkpoint persistence.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let tmp = dir.join(format!(
        ".{name}.tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, &path) {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The canonical file name of a checkpoint: the run key (the FNV of the
/// run's schedule-determining inputs) plus the epoch, so the chain of
/// one run sorts lexicographically and [`checkpoint_chain`] finds it by
/// name alone.
#[must_use]
pub fn ckpt_file_name(ckpt: &Checkpoint) -> String {
    format!("{:016x}.e{:06}.ckpt", ckpt.run_key(), ckpt.epoch)
}

/// Saves `ckpt` into `dir` under its canonical name, atomically.
///
/// # Errors
/// Propagates filesystem errors (directory creation, write, rename).
pub fn save_checkpoint_in(dir: &Path, ckpt: &Checkpoint) -> std::io::Result<PathBuf> {
    write_atomic(dir, &ckpt_file_name(ckpt), &ckpt.encode())
}

/// Loads and decodes a checkpoint file.
///
/// # Errors
/// Returns [`LoadError::Io`] when the file cannot be read and
/// [`LoadError::Codec`] when its contents are not a valid checkpoint.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, LoadError> {
    load_as(path, "checkpoint", Checkpoint::decode)
}

/// The on-disk checkpoint chain of one run in `dir`: every
/// `<run_key>.e*.ckpt`, as `(epoch, path)` ascending by epoch. Files
/// that fail to parse by name are skipped (they are not chain members).
#[must_use]
pub fn checkpoint_chain(dir: &Path, run_key: u64) -> Vec<(u64, PathBuf)> {
    let prefix = format!("{run_key:016x}.e");
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(epoch_str) = rest.strip_suffix(".ckpt") else {
            continue;
        };
        if let Ok(epoch) = epoch_str.parse::<u64>() {
            out.push((epoch, entry.path()));
        }
    }
    out.sort();
    out
}

/// Why a trace or checkpoint file failed to load; each variant names
/// the kind of file that was being loaded (`"trace"`, `"checkpoint"`).
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(&'static str, std::io::Error),
    /// The bytes did not decode as that kind of file.
    Codec(&'static str, TraceError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(what, e) => write!(f, "cannot read {what} file: {e}"),
            LoadError::Codec(what, e) => write!(f, "cannot decode {what} file: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Loads and decodes a trace file.
///
/// # Errors
/// Returns [`LoadError::Io`] when the file cannot be read and
/// [`LoadError::Codec`] when its contents are not a valid trace.
pub fn load(path: &Path) -> Result<RunTrace, LoadError> {
    load_as(path, "trace", RunTrace::decode)
}

/// Reads `path` and decodes it with `decode` as a `what` file.
fn load_as<T>(
    path: &Path,
    what: &'static str,
    decode: fn(&[u8]) -> Result<T, TraceError>,
) -> Result<T, LoadError> {
    let bytes = std::fs::read(path).map_err(|e| LoadError::Io(what, e))?;
    decode(&bytes).map_err(|e| LoadError::Codec(what, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_recording;
    use crate::{FailureKind, FailureSummary};

    fn sample(digest: u64) -> RunTrace {
        RunTrace {
            recording: test_recording("RFDet-ci", Vec::new()),
            events: Vec::new(),
            failure: FailureSummary {
                kind: Some(FailureKind::Deadlock),
                tid: 1,
                report_digest: digest,
            },
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rfdet-trace-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmpdir("roundtrip");
        let t = sample(0xabcd);
        let path = save_in(&dir, &t, "").unwrap();
        assert_eq!(path.file_name().unwrap(), "000000000000abcd.trace");
        assert_eq!(load(&path).unwrap(), t);
        // No stray temporaries survive a successful save.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains("tmp")
            })
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resave_overwrites_atomically() {
        let dir = tmpdir("resave");
        let t = sample(0x77);
        let a = save_in(&dir, &t, "").unwrap();
        let b = save_in(&dir, &t, "").unwrap();
        assert_eq!(a, b);
        assert_eq!(load(&a).unwrap(), t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn min_tag_lands_beside_the_original() {
        let dir = tmpdir("mintag");
        let t = sample(0x99);
        let orig = save_in(&dir, &t, "").unwrap();
        let min = save_in(&dir, &t, ".min").unwrap();
        assert_eq!(orig.parent(), min.parent());
        assert_eq!(min.file_name().unwrap(), "0000000000000099.min.trace");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_file_fails_to_load() {
        let dir = tmpdir("torn");
        let t = sample(0x1234);
        let path = save_in(&dir, &t, "").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(load(&path), Err(LoadError::Codec("trace", _))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            load(Path::new("/nonexistent/zzz.trace")),
            Err(LoadError::Io("trace", _))
        ));
    }

    fn sample_ckpt(epoch: u64) -> Checkpoint {
        Checkpoint {
            epoch,
            recording: test_recording("RFDet-ci", Vec::new()),
            upper: vec![1, 2],
            sync_vars: Vec::new(),
            finished: Vec::new(),
            threads: Vec::new(),
        }
    }

    #[test]
    fn checkpoint_save_load_round_trip() {
        let dir = tmpdir("ckpt-roundtrip");
        let c = sample_ckpt(2);
        let path = save_checkpoint_in(&dir, &c).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .ends_with(".e000002.ckpt"));
        assert_eq!(load_checkpoint(&path).unwrap(), c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_chain_sorts_by_epoch() {
        let dir = tmpdir("ckpt-chain");
        for epoch in [3, 1, 2] {
            save_checkpoint_in(&dir, &sample_ckpt(epoch)).unwrap();
        }
        // A foreign run's checkpoint and junk files are not chain members.
        let mut other = sample_ckpt(9);
        other.recording.seed = Some(99);
        save_checkpoint_in(&dir, &other).unwrap();
        std::fs::write(dir.join("junk.ckpt"), b"x").unwrap();
        let key = sample_ckpt(1).run_key();
        let chain = checkpoint_chain(&dir, key);
        assert_eq!(chain.iter().map(|(e, _)| *e).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(load_checkpoint(&chain[2].1).unwrap().epoch, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_lands_atomically_beside_traces() {
        let dir = tmpdir("sidecar");
        let path = save_sidecar(&dir, "races_demo@4.races", "1 race(s)\n").unwrap();
        assert_eq!(path.file_name().unwrap(), "races_demo@4.races");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1 race(s)\n");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains("tmp")
            })
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_save_into_unwritable_dir_is_an_error_not_a_panic() {
        let c = sample_ckpt(1);
        assert!(save_checkpoint_in(Path::new("/proc/nonexistent-rfdet"), &c).is_err());
    }
}
