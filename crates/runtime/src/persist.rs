//! Crash-safe snapshot persistence: atomic writes, checksum trailers, and
//! previous-generation recovery.
//!
//! Every persisted store in the serving stack (plan store, telemetry
//! snapshot, bench baseline, postmortem bundles) funnels through two
//! functions:
//!
//! * [`save_snapshot`] writes `<path>.tmp`, fsyncs it, rotates the current
//!   file to `<path>.bak` (the *previous generation*), and renames the temp
//!   file into place — a crash at any point leaves either the old
//!   generation or the new one, never a torn file. The payload carries a
//!   one-line trailer with its byte length and FNV-1a checksum.
//! * [`read_snapshot`] verifies and strips the trailer, distinguishing a
//!   clean read from *corruption* (truncation, bit-flips, a torn write from
//!   a pre-trailer binary). Trailer-less files are accepted as legacy
//!   documents so existing snapshots and hand-written fixtures keep
//!   loading.
//!
//! [`load_with_recovery`] layers the degradation ladder on top: primary →
//! `.bak` previous generation → nothing, reporting which source actually
//! served via [`SnapshotSource`] so callers (and the chaos harness) can
//! assert that recovery restored *real* state rather than silently starting
//! empty.
//!
//! Both save and read are fault-injection points ([`crate::fault`]): when
//! the caller passes an injector, `SaveIo` / `LoadIo` rules fail them
//! outright, and the injector may flip bytes in flight to simulate media
//! corruption.

use crate::fault::{self, FaultInjector, FaultKind};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// First token of the checksum trailer line appended to every snapshot.
pub const SNAPSHOT_TRAILER_PREFIX: &str = "#sme-snapshot v1";

/// 64-bit FNV-1a over the payload bytes — tiny, dependency-free, and more
/// than strong enough to catch truncation and bit-flips (this is an
/// integrity check against crashes, not an adversary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `.bak` previous-generation path for a snapshot (`plans.json` →
/// `plans.json.bak`).
pub fn backup_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".bak");
    PathBuf::from(os)
}

fn temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Append the length + checksum trailer to a payload. The payload is
/// newline-terminated first so the trailer always sits on its own line;
/// length and checksum cover the normalized payload including that newline.
pub fn with_trailer(payload: &str) -> String {
    let mut body = String::with_capacity(payload.len() + 64);
    body.push_str(payload);
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let trailer = format!(
        "{SNAPSHOT_TRAILER_PREFIX} len={} fnv={:016x}\n",
        body.len(),
        fnv1a64(body.as_bytes())
    );
    body.push_str(&trailer);
    body
}

/// Errors reported by [`read_snapshot`].
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read (or an injected I/O fault fired).
    Io(io::Error),
    /// The trailer is present but does not match the payload — the file was
    /// truncated or bit-flipped on disk.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Atomically persist `payload` at `path` with a checksum trailer, keeping
/// the previous generation at `<path>.bak`.
///
/// Write order: temp file + fsync, rotate current → `.bak`, rename temp →
/// current, best-effort directory fsync. A crash between any two steps
/// leaves a loadable generation on disk. `faults`, when armed, may fail
/// the save or corrupt the bytes written.
pub fn save_snapshot(
    path: &Path,
    payload: &str,
    faults: Option<&dyn FaultInjector>,
) -> io::Result<()> {
    let site = path.to_string_lossy().into_owned();
    if fault::fire(faults, FaultKind::SaveIo, &site) {
        return Err(io::Error::other(format!("injected save fault at {site}")));
    }
    let mut bytes = with_trailer(payload).into_bytes();
    fault::corrupt_bytes(faults, &site, &mut bytes);

    let tmp = temp_path(path);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    if path.exists() {
        // Keep the previous generation for corrupt-primary recovery. A
        // failed rotation is not fatal: the new generation still lands
        // atomically below.
        let _ = fs::rename(path, backup_path(path));
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read a snapshot, verifying and stripping the checksum trailer.
///
/// Files without a trailer are returned whole (legacy documents predating
/// the trailer, and hand-written fixtures). Files *with* a trailer must
/// match it exactly, otherwise [`SnapshotError::Corrupt`] is returned.
/// `faults`, when armed, may fail the read.
pub fn read_snapshot(
    path: &Path,
    faults: Option<&dyn FaultInjector>,
) -> Result<String, SnapshotError> {
    let site = path.to_string_lossy().into_owned();
    if fault::fire(faults, FaultKind::LoadIo, &site) {
        return Err(SnapshotError::Io(io::Error::other(format!(
            "injected load fault at {site}"
        ))));
    }
    let text = fs::read_to_string(path).map_err(SnapshotError::Io)?;
    strip_verified(&text).map_err(SnapshotError::Corrupt)
}

/// Verify and strip the trailer from a snapshot document already in memory.
/// Returns the payload, or a corruption detail if the trailer mismatches.
pub fn strip_verified(text: &str) -> Result<String, String> {
    let without_final_nl = text.strip_suffix('\n').unwrap_or(text);
    let (body, last_line) = match without_final_nl.rfind('\n') {
        Some(i) => (&without_final_nl[..=i], &without_final_nl[i + 1..]),
        None => ("", without_final_nl),
    };
    if !last_line.starts_with(SNAPSHOT_TRAILER_PREFIX) {
        // Legacy document: no trailer to verify.
        return Ok(text.to_string());
    }
    let mut len: Option<usize> = None;
    let mut fnv: Option<u64> = None;
    for token in last_line.split_whitespace() {
        if let Some(v) = token.strip_prefix("len=") {
            len = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("fnv=") {
            fnv = u64::from_str_radix(v, 16).ok();
        }
    }
    let (expect_len, expect_fnv) = match (len, fnv) {
        (Some(l), Some(f)) => (l, f),
        _ => return Err(format!("unparseable snapshot trailer: {last_line:?}")),
    };
    if body.len() != expect_len {
        return Err(format!(
            "snapshot length mismatch: trailer says {expect_len} bytes, payload has {}",
            body.len()
        ));
    }
    let got_fnv = fnv1a64(body.as_bytes());
    if got_fnv != expect_fnv {
        return Err(format!(
            "snapshot checksum mismatch: trailer says {expect_fnv:016x}, payload hashes to {got_fnv:016x}"
        ));
    }
    Ok(body.to_string())
}

/// Which on-disk generation (if any) a recovered load was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotSource {
    /// The primary file was intact.
    Primary,
    /// The primary was corrupt or unreadable; the `.bak` previous
    /// generation served instead.
    Backup,
    /// Neither generation exists — a fresh start, not a failure.
    Missing,
    /// Both generations exist but neither could be loaded; the caller
    /// starts empty (the end of the degradation ladder).
    Empty,
}

impl SnapshotSource {
    /// Stable snake-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SnapshotSource::Primary => "primary",
            SnapshotSource::Backup => "backup",
            SnapshotSource::Missing => "missing",
            SnapshotSource::Empty => "empty",
        }
    }
}

impl fmt::Display for SnapshotSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of [`load_with_recovery`]: the parsed value when any
/// generation survived, where it came from, and why the primary (and
/// possibly backup) were rejected.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The parsed value; `None` for [`SnapshotSource::Missing`] /
    /// [`SnapshotSource::Empty`].
    pub value: Option<T>,
    /// Which generation served.
    pub source: SnapshotSource,
    /// Human-readable reason the primary (and backup, if tried) failed.
    pub detail: Option<String>,
}

enum Attempt<T> {
    Ok(T),
    NotFound,
    Bad(String),
}

fn attempt<T, E: fmt::Display>(
    path: &Path,
    faults: Option<&dyn FaultInjector>,
    parse: &impl Fn(&str) -> Result<T, E>,
) -> Attempt<T> {
    match read_snapshot(path, faults) {
        Ok(payload) => match parse(&payload) {
            Ok(value) => Attempt::Ok(value),
            Err(e) => Attempt::Bad(format!("{}: {e}", path.display())),
        },
        Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Attempt::NotFound,
        Err(e) => Attempt::Bad(format!("{}: {e}", path.display())),
    }
}

/// Load a snapshot with previous-generation recovery.
///
/// Tries the primary file, then `<path>.bak`; a generation counts as bad if
/// it cannot be read, fails its checksum trailer, or fails `parse`. The
/// caller applies any semantic staleness check (machine fingerprints) on
/// the returned value — staleness is *not* corruption and must not trigger
/// backup recovery. `faults` is handed to every [`read_snapshot`].
pub fn load_with_recovery<T, E: fmt::Display>(
    path: &Path,
    faults: Option<&dyn FaultInjector>,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Recovered<T> {
    match attempt(path, faults, &parse) {
        Attempt::Ok(value) => Recovered {
            value: Some(value),
            source: SnapshotSource::Primary,
            detail: None,
        },
        primary => {
            let primary_missing = matches!(primary, Attempt::NotFound);
            let primary_detail = match primary {
                Attempt::Bad(msg) => Some(msg),
                _ => None,
            };
            match attempt(&backup_path(path), faults, &parse) {
                Attempt::Ok(value) => Recovered {
                    value: Some(value),
                    source: SnapshotSource::Backup,
                    detail: primary_detail.or_else(|| Some(format!("{} missing", path.display()))),
                },
                Attempt::NotFound if primary_missing => Recovered {
                    value: None,
                    source: SnapshotSource::Missing,
                    detail: None,
                },
                backup => {
                    let backup_detail = match backup {
                        Attempt::Bad(msg) => msg,
                        _ => format!("{} missing", backup_path(path).display()),
                    };
                    Recovered {
                        value: None,
                        source: SnapshotSource::Empty,
                        detail: Some(format!(
                            "{}; {}",
                            primary_detail.unwrap_or_else(|| format!("{} missing", path.display())),
                            backup_detail
                        )),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sme-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn trailer_roundtrips_and_detects_damage() {
        let payload = "{\"version\":1}\n";
        let text = with_trailer(payload);
        assert_eq!(strip_verified(&text).expect("intact"), payload);

        // Truncation mid-payload drops the trailer: the document degrades
        // to legacy and the (now truncated) payload is handed to the
        // parser, which is the layer that rejects it.
        let truncated = &text[..6];
        assert!(strip_verified(truncated).is_ok());

        // Truncation mid-trailer leaves a recognizable but unparseable
        // trailer line — rejected, never silently accepted.
        let mid_trailer = &text[..payload.len() + 20];
        assert!(strip_verified(mid_trailer).is_err());

        // A bit-flip inside the payload trips the checksum.
        let mut flipped = text.clone().into_bytes();
        flipped[3] ^= 0x10;
        let flipped = String::from_utf8(flipped).expect("still utf-8");
        let err = strip_verified(&flipped).expect_err("checksum must catch the flip");
        assert!(err.contains("checksum"), "got: {err}");

        // Trailer-with-wrong-length (a torn partial write that kept the
        // trailer line) is also caught.
        let short = format!("{}\n{}", &payload[..4], &text[payload.len()..]);
        let err = strip_verified(&short).expect_err("length must mismatch");
        assert!(err.contains("length"), "got: {err}");
    }

    #[test]
    fn legacy_documents_pass_through_whole() {
        let legacy = "{\"version\":1,\"entries\":[]}";
        assert_eq!(strip_verified(legacy).expect("legacy ok"), legacy);
    }

    #[test]
    fn save_rotates_the_previous_generation() {
        let dir = tmp_dir("rotate");
        let path = dir.join("store.json");
        save_snapshot(&path, "gen-1", None).expect("first save");
        save_snapshot(&path, "gen-2", None).expect("second save");
        assert_eq!(read_snapshot(&path, None).expect("primary"), "gen-2\n");
        assert_eq!(
            read_snapshot(&backup_path(&path), None).expect("backup"),
            "gen-1\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_prefers_primary_then_backup_then_reports_empty() {
        let dir = tmp_dir("recover");
        let path = dir.join("store.json");
        let parse = |s: &str| -> Result<String, String> {
            if s.contains("gen") {
                Ok(s.trim().to_string())
            } else {
                Err("not a generation".to_string())
            }
        };

        let fresh = load_with_recovery(&path, None, parse);
        assert_eq!(fresh.source, SnapshotSource::Missing);
        assert!(fresh.value.is_none());

        save_snapshot(&path, "gen-1", None).expect("save");
        save_snapshot(&path, "gen-2", None).expect("save");
        let ok = load_with_recovery(&path, None, parse);
        assert_eq!(ok.source, SnapshotSource::Primary);
        assert_eq!(ok.value.as_deref(), Some("gen-2"));

        // Corrupt the primary on disk: recovery serves the previous
        // generation, not empty.
        let mut bytes = fs::read(&path).expect("read");
        bytes[1] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        let recovered = load_with_recovery(&path, None, parse);
        assert_eq!(recovered.source, SnapshotSource::Backup);
        assert_eq!(recovered.value.as_deref(), Some("gen-1"));
        assert!(recovered.detail.is_some());

        // Corrupt the backup too: the ladder bottoms out at empty, with
        // both failures explained.
        let mut bak = fs::read(backup_path(&path)).expect("read bak");
        let pos = bak.len() / 2;
        bak[pos] ^= 0x40;
        fs::write(backup_path(&path), &bak).expect("rewrite bak");
        let empty = load_with_recovery(&path, None, parse);
        assert_eq!(empty.source, SnapshotSource::Empty);
        assert!(empty.value.is_none());
        assert!(empty.detail.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_rotation_is_recoverable() {
        // Simulate a crash between "rotate current → .bak" and "rename tmp
        // → current": only the .bak generation exists.
        let dir = tmp_dir("torn");
        let path = dir.join("store.json");
        save_snapshot(&path, "gen-1", None).expect("save");
        fs::rename(&path, backup_path(&path)).expect("simulate torn rotation");
        let parse = |s: &str| -> Result<String, String> { Ok(s.trim().to_string()) };
        let recovered = load_with_recovery(&path, None, parse);
        assert_eq!(recovered.source, SnapshotSource::Backup);
        assert_eq!(recovered.value.as_deref(), Some("gen-1"));
        let _ = fs::remove_dir_all(&dir);
    }
}
