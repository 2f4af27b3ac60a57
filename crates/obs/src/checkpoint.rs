//! The append-only JSONL checkpoint log that makes long-running state
//! resumable: experiment campaigns checkpoint per cell, the serve
//! decision loop snapshots its service state through the same records.
//!
//! Every finished cell is appended as one self-validating JSON line:
//!
//! ```json
//! {"v":2,"campaign":"<fingerprint>","cell":17,"data":{...},"crc":"<checksum>"}
//! ```
//!
//! * `v` — checkpoint schema version,
//! * `campaign` — the campaign *fingerprint*: a hash of everything that
//!   determines a cell's result (trace digest, shard length, selectors,
//!   factors, budgets). Records from a different configuration are
//!   ignored on load, so a stale directory can never contaminate a sweep,
//! * `cell` — the cell's index in the campaign's deterministic cell
//!   enumeration,
//! * `data` — the cell result (deterministic quantities only — no wall
//!   times — so a resumed report is byte-identical to an uninterrupted
//!   one),
//! * `crc` — 16 lowercase hex digits of a 64-bit checksum over the record
//!   serialization *without* `crc`. A truncated tail line (the process
//!   died mid-write) fails the parse or the checksum and is simply
//!   dropped; the cell is recomputed.
//!
//! The checksum of a version-2 record reads the bytes as 32-byte blocks of
//! four little-endian `u64` words, one word per lane, and steps each lane
//! `h = (h.rotate_left(5) ^ w) * 0x100000001b3` (wrapping) from the FNV-1a
//! offset basis. The four lanes are then folded, lane 0 first, into a seed
//! of the offset basis XOR the byte length, and each of the 0–31 bytes
//! left over takes one more step. Every step is a bijection of the state,
//! so changing any one byte always changes the checksum; the four lanes
//! are independent chains, so the checksum runs at several bytes per cycle
//! where byte-serial FNV-1a waits on one multiply per byte. Version-1
//! records, checksummed with byte-serial [`fnv1a64`], are still read and
//! never written.
//!
//! A record is rendered once: the header and the data are written into
//! one buffer, checksummed, and the `crc` member is spliced in before the
//! closing brace. [`CheckpointLog::append_json`] takes data already
//! rendered as text, so a caller that can write its state directly (the
//! serve snapshot) never builds a [`JsonValue`] tree at all.
//!
//! Lines are flushed to the OS after every append: a crash loses at most
//! the cell that was being written.

use crate::json::{escape_into, number_into, parse, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Checkpoint schema version every record is written with; bump when
/// the record layout or its checksum changes.
pub const CHECKPOINT_VERSION: u64 = 2;

/// The version whose records carry a byte-serial [`fnv1a64`] checksum:
/// read, never written.
const FNV_VERSION: u64 = 1;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a's offset basis and prime, the record checksum's start and
/// multiplier.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One checksum step: a bijection of `h` for each `w`, and of `w` for
/// each `h` (rotation and XOR are invertible, the prime is odd).
fn step(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(FNV_PRIME)
}

/// The checksum of a version-2 record: four lanes over 32-byte blocks,
/// folded into a length seed, then the tail a byte at a time (module
/// doc).
fn checksum(bytes: &[u8]) -> u64 {
    let word = |block: &[u8], i: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&block[8 * i..8 * i + 8]);
        u64::from_le_bytes(w)
    };
    let mut lanes = [FNV_OFFSET_BASIS; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = step(lanes[0], word(block, 0));
        lanes[1] = step(lanes[1], word(block, 1));
        lanes[2] = step(lanes[2], word(block, 2));
        lanes[3] = step(lanes[3], word(block, 3));
    }
    let seed = FNV_OFFSET_BASIS ^ bytes.len() as u64;
    let folded = lanes.into_iter().fold(seed, step);
    blocks.remainder().iter().fold(folded, |h, &b| step(h, b as u64))
}

/// Hex fingerprint of a canonical configuration string.
pub fn fingerprint(canonical: &str) -> String {
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

/// The record minus its checksum, `{"v":…,"campaign":…,"cell":…,"data":…}`,
/// with `data` written by `data`: the bytes the checksum covers. The
/// `capacity` hint should cover the data; the header and the `crc`
/// member [`seal`] adds are reserved on top.
fn body(
    version: u64,
    campaign: &str,
    cell: usize,
    capacity: usize,
    data: impl FnOnce(&mut String),
) -> String {
    let mut out = String::with_capacity(capacity + campaign.len() + 96);
    out.push_str("{\"v\":");
    number_into(&mut out, version as f64);
    out.push_str(",\"campaign\":");
    escape_into(&mut out, campaign);
    out.push_str(",\"cell\":");
    number_into(&mut out, cell as f64);
    out.push_str(",\"data\":");
    data(&mut out);
    out.push('}');
    out
}

/// The record line: `body` with `,"crc":"<checksum of body>"` in front
/// of its closing brace.
fn seal(mut body: String) -> String {
    let crc = checksum(body.as_bytes());
    body.pop();
    body.push_str(",\"crc\":\"");
    let _ = write!(body, "{crc:016x}");
    body.push_str("\"}");
    body
}

/// Serializes one checkpoint record (a single JSONL line, no trailing
/// newline).
pub fn record_line(campaign: &str, cell: usize, data: &JsonValue) -> String {
    seal(body(CHECKPOINT_VERSION, campaign, cell, 0, |out| data.write_into(out)))
}

/// Decodes one checkpoint line. Returns the cell index and its data when
/// the line is well-formed, checksummed, and belongs to `campaign`;
/// `Err` explains the rejection (used only for accounting — a rejected
/// line just means the cell is recomputed).
pub fn decode_line(line: &str, campaign: &str) -> Result<(usize, JsonValue), String> {
    let mut value = parse(line).map_err(|e| format!("unparseable: {e}"))?;
    // Moved out, not cloned: the rest of the record is only read.
    let data = match &mut value {
        JsonValue::Object(members) => members
            .iter_mut()
            .find(|(key, _)| key == "data")
            .map(|(_, data)| std::mem::replace(data, JsonValue::Null)),
        _ => None,
    };
    let v = value
        .get("v")
        .and_then(JsonValue::as_u64)
        .ok_or("missing version")?;
    let sum = match v {
        CHECKPOINT_VERSION => checksum,
        FNV_VERSION => fnv1a64,
        _ => return Err(format!("unknown checkpoint version {v}")),
    };
    let record_campaign = value
        .get("campaign")
        .and_then(JsonValue::as_str)
        .ok_or("missing campaign fingerprint")?;
    let cell = value
        .get("cell")
        .and_then(JsonValue::as_u64)
        .ok_or("missing cell index")? as usize;
    let data = data.ok_or("missing data")?;
    let crc = value
        .get("crc")
        .and_then(JsonValue::as_str)
        .ok_or("missing crc")?;
    // Recompute the checksum over the canonical re-serialization; the
    // parser keeps key order and number round-tripping, so a clean line
    // reproduces its own bytes.
    let body = body(v, record_campaign, cell, line.len(), |out| data.write_into(out));
    let expect = format!("{:016x}", sum(body.as_bytes()));
    if crc != expect {
        return Err(format!("checksum mismatch: {crc} vs {expect}"));
    }
    if record_campaign != campaign {
        return Err(format!("foreign campaign {record_campaign}"));
    }
    Ok((cell, data))
}

/// What [`load`] recovered from an existing checkpoint file.
#[derive(Debug, Default)]
pub struct LoadedCheckpoint {
    /// Validated cell results, keyed by cell index (last record wins).
    pub cells: BTreeMap<usize, JsonValue>,
    /// Total non-empty lines seen.
    pub lines: usize,
    /// Lines dropped: truncated, corrupt, wrong version, or belonging to
    /// a different campaign fingerprint.
    pub rejected: usize,
}

/// Reads a checkpoint file, keeping every valid record of `campaign`.
/// A missing file is an empty checkpoint, not an error.
pub fn load(path: &Path, campaign: &str) -> std::io::Result<LoadedCheckpoint> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadedCheckpoint::default())
        }
        Err(e) => return Err(e),
    };
    let mut loaded = LoadedCheckpoint::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        loaded.lines += 1;
        match decode_line(line, campaign) {
            Ok((cell, data)) => {
                loaded.cells.insert(cell, data);
            }
            Err(_) => loaded.rejected += 1,
        }
    }
    Ok(loaded)
}

/// The append side of the checkpoint: shared by all campaign workers,
/// flushing after every record.
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl CheckpointLog {
    /// Opens (or creates) the checkpoint at `path` for appending. When
    /// the file ends in a torn write (a crash mid-record leaves no
    /// trailing newline), a newline is inserted first so the next record
    /// is not glued onto — and lost with — the torn line.
    pub fn append_to(path: &Path) -> std::io::Result<CheckpointLog> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            let mut last = [0u8; 1];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last != [b'\n'] {
                writeln!(file)?;
            }
        }
        Ok(CheckpointLog {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one cell record and flushes it to the OS. Errors are
    /// swallowed after being reported once via the event log — a full
    /// disk degrades crash-safety, it must not kill a multi-hour sweep.
    pub fn append(&self, campaign: &str, cell: usize, data: &JsonValue) {
        self.write_line(cell, record_line(campaign, cell, data));
    }

    /// [`append`] for data already rendered as canonical JSON text (what
    /// [`JsonValue::to_json`] gives for the same value): the record is
    /// rendered around it in one pass, without a tree, and the line is
    /// byte-identical to `append(campaign, cell, &parse(data_json)?)`.
    ///
    /// [`append`]: CheckpointLog::append
    pub fn append_json(&self, campaign: &str, cell: usize, data_json: &str) {
        let body = body(CHECKPOINT_VERSION, campaign, cell, data_json.len(), |out| {
            out.push_str(data_json)
        });
        self.write_line(cell, seal(body));
    }

    /// Writes `line` and its newline with one `write_all`, then flushes.
    fn write_line(&self, cell: usize, mut line: String) {
        line.push('\n');
        // A worker that panicked while holding the lock poisons it, but
        // an append-only file handle has no invariant a half-finished
        // writer could break: the torn tail is dropped on load and the
        // cell recomputed. Recover the guard instead of propagating the
        // panic into every surviving worker.
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        if let Err(e) = file.write_all(line.as_bytes()).and_then(|_| file.flush()) {
            report_write_failure(cell, &e.to_string());
        }
    }

    /// The deterministic-fault-injection variant of [`append`]: the
    /// record is serialized exactly as a real append would, then dropped
    /// on the floor through the same degraded I/O reporting path instead
    /// of being written. A cell routed here is recomputed on every
    /// resume — which is precisely the behaviour a full disk produces,
    /// now reachable from a test.
    ///
    /// [`append`]: CheckpointLog::append
    pub fn append_injected_failure(&self, campaign: &str, cell: usize, data: &JsonValue) {
        // Serialize (and checksum) so an injected run pays the same
        // encoding cost and validates the record path, then report the
        // synthetic failure.
        let _line = record_line(campaign, cell, data);
        report_write_failure(cell, "injected checkpoint i/o fault");
    }
}

/// Emits the `exp.checkpoint_write_failed` event shared by real append
/// errors and injected I/O faults. (The `exp.` prefix predates the move
/// of this module into dynp-obs; it is kept so dashboards and the
/// insight fault census keep working.)
fn report_write_failure(cell: usize, error: &str) {
    if let Some(r) = crate::recorder() {
        r.counter("exp.checkpoint_write_failed").inc();
        r.event("exp.checkpoint_write_failed")
            .kv("cell", cell)
            .kv("error", error)
            .emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(x: u64) -> JsonValue {
        JsonValue::object()
            .with("x", x)
            .with("f", 0.1f64)
            .with("label", "dynP(SLDwA)")
    }

    /// `record_line("cafe", 3, &data(7))` as version 1 wrote it, with a
    /// byte-serial FNV-1a `crc`.
    const V1_LINE: &str = r#"{"v":1,"campaign":"cafe","cell":3,"data":{"x":7,"f":0.1,"label":"dynP(SLDwA)"},"crc":"b235c50a1cc64519"}"#;

    #[test]
    fn record_round_trips() {
        let line = record_line("cafe", 3, &data(7));
        assert!(line.starts_with(r#"{"v":2,"#), "{line}");
        crate::json::validate(&line).unwrap();
        let (cell, d) = decode_line(&line, "cafe").unwrap();
        assert_eq!(cell, 3);
        assert_eq!(d, data(7));
    }

    #[test]
    fn truncated_and_tampered_lines_are_rejected() {
        let line = record_line("cafe", 3, &data(7));
        // Truncation (mid-write crash).
        assert!(decode_line(&line[..line.len() - 10], "cafe").is_err());
        // Bit-flip in the payload.
        let tampered = line.replace("\"x\":7", "\"x\":8");
        assert_ne!(tampered, line);
        assert!(decode_line(&tampered, "cafe").unwrap_err().contains("checksum"));
        // Foreign fingerprint.
        assert!(decode_line(&line, "beef").unwrap_err().contains("foreign"));
    }

    #[test]
    fn version_1_lines_still_decode() {
        assert_eq!(decode_line(V1_LINE, "cafe").unwrap(), (3, data(7)));
        let tampered = V1_LINE.replace("\"x\":7", "\"x\":8");
        assert!(decode_line(&tampered, "cafe").unwrap_err().contains("checksum"));
        let relabelled = V1_LINE.replace("\"v\":1", "\"v\":2");
        assert!(decode_line(&relabelled, "cafe").unwrap_err().contains("checksum"));
        assert!(decode_line(&V1_LINE.replace("\"v\":1", "\"v\":3"), "cafe")
            .unwrap_err()
            .contains("unknown checkpoint version 3"));
    }

    /// Around every block and word edge: each byte, changed to each of
    /// its 255 other values, moves the checksum.
    #[test]
    fn every_single_byte_change_moves_the_checksum() {
        let mut bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            let reference = checksum(&bytes[..len]);
            for at in 0..len {
                let original = bytes[at];
                for delta in 1..=255u8 {
                    bytes[at] = original.wrapping_add(delta);
                    assert_ne!(checksum(&bytes[..len]), reference, "len {len}, byte {at}");
                }
                bytes[at] = original;
            }
        }
    }

    #[test]
    fn load_recovers_valid_records_and_counts_rejects() {
        let dir = std::env::temp_dir().join(format!("dynp_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.checkpoint.jsonl");
        let log = CheckpointLog::append_to(&path).unwrap();
        log.append("cafe", 0, &data(1));
        log.append("cafe", 2, &data(2));
        // Simulate a crash mid-write plus a foreign record.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{}", record_line("beef", 9, &data(9))).unwrap();
            write!(f, "{}", &record_line("cafe", 5, &data(5))[..20]).unwrap();
        }
        let loaded = load(&path, "cafe").unwrap();
        assert_eq!(loaded.cells.len(), 2);
        assert_eq!(loaded.cells[&0], data(1));
        assert_eq!(loaded.cells[&2], data(2));
        assert_eq!(loaded.lines, 4);
        assert_eq!(loaded.rejected, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_lock_still_appends() {
        let dir = std::env::temp_dir().join(format!("dynp_ckpt_poison_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("poisoned.checkpoint.jsonl");
        let log = CheckpointLog::append_to(&path).unwrap();
        // Poison the mutex: panic while holding the file guard, the way a
        // crashing campaign worker would mid-append.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = log.file.lock().unwrap();
            panic!("worker died holding the checkpoint lock");
        }));
        assert!(poisoned.is_err());
        assert!(log.file.is_poisoned());
        // Surviving workers keep checkpointing.
        log.append("cafe", 1, &data(1));
        let loaded = load(&path, "cafe").unwrap();
        assert_eq!(loaded.cells.len(), 1);
        assert_eq!(loaded.cells[&1], data(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_failure_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("dynp_ckpt_inject_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("injected.checkpoint.jsonl");
        let log = CheckpointLog::append_to(&path).unwrap();
        log.append_injected_failure("cafe", 0, &data(1));
        log.append("cafe", 1, &data(2));
        let loaded = load(&path, "cafe").unwrap();
        assert_eq!(loaded.lines, 1, "the injected record must not reach the file");
        assert_eq!(loaded.cells.len(), 1);
        assert_eq!(loaded.cells[&1], data(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let loaded = load(Path::new("/nonexistent/nope.jsonl"), "cafe").unwrap();
        assert!(loaded.cells.is_empty());
        assert_eq!(loaded.lines, 0);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("abc").len(), 16);
    }
}
