//! The durable write-ahead log of admissions.
//!
//! A DP service must never forget spent ε: once a request has been charged
//! against its tenant's budget, a crash that loses the charge would let
//! the tenant re-spend the same budget — a privacy violation, not merely
//! lost work. `pgb-serve` therefore appends every admission to a WAL
//! **before** the charge lands in memory, and fsyncs the record before the
//! request executes. Recovery (`Server::recover`) folds the surviving
//! records back through the ordinary replay machinery, which rebuilds
//! tenant accountants and the transcript byte-identically — the WAL stores
//! only *admissions*, never outcomes, because every outcome is already a
//! pure function of the admission log prefix (the serving determinism
//! contract).
//!
//! ## On-disk format
//!
//! ```text
//! magic  "PGBWAL01"                                   (8 bytes)
//! record [u32 LE payload len][u32 LE CRC-32(payload)][payload]
//! ```
//!
//! Payloads are tagged by their first byte:
//!
//! * `1` **admission** — `id: u64`, then length-prefixed `tenant`,
//!   `dataset`, `mechanism` strings, then `ε` (IEEE-754 bits), `samples`,
//!   `seed`, `deadline_ticks`, all `u64 LE`. Record `id` must equal the
//!   count of admissions before it: the WAL *is* the request log, ids are
//!   positional.
//! * `2` **checkpoint** — `next_id: u64` (the admission count at the
//!   moment of the snapshot), then per-tenant length-prefixed name +
//!   length-prefixed [`pgb_dp::budget::BudgetAccountant::encode_bytes`]
//!   state, sorted by tenant. Checkpoints are *verification* records:
//!   recovery replays admissions and checks each checkpoint against the
//!   replayed state bit-for-bit, so a WAL whose admissions and snapshots
//!   disagree is reported, never silently trusted.
//!
//! ## Torn tails
//!
//! A crash can tear the final record (partial write, bad CRC). Recovery
//! truncates at the first corrupt record, keeps the clean prefix, and
//! surfaces a structured [`WalCorrupt`] report — it never panics and
//! never interprets bytes past the tear. Because records are appended in
//! admission order and fsynced before the in-memory charge, the clean
//! prefix is always a valid request log: at worst the torn admission was
//! charged in memory but not durably logged, and dropping it *under*-
//! restores spent ε, which is the conservative direction for DP.

use crate::server::{GenerateRequest, LogEntry};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// The 8-byte file magic; the trailing digits version the record format.
pub const WAL_MAGIC: [u8; 8] = *b"PGBWAL01";

/// Hard cap on a single record's payload, so a corrupt length prefix can
/// never drive an allocation or a multi-gigabyte read.
pub const MAX_RECORD_BYTES: u32 = 16 << 20;

const KIND_ADMISSION: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven. Hand-rolled
/// so the WAL stays dependency-free; the `const` table costs 1 KiB of
/// rodata.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A structured corruption report: where the log tore, why, and how many
/// bytes past the tear were abandoned. Recovery truncates the file at
/// `offset` and carries on with the clean prefix.
#[derive(Clone, Debug, PartialEq)]
pub struct WalCorrupt {
    /// Byte offset of the first record that failed to parse.
    pub offset: u64,
    /// What failed, rendered for the operator.
    pub reason: String,
    /// Bytes from `offset` to the end of the file, all abandoned.
    pub dropped_bytes: u64,
}

impl std::fmt::Display for WalCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WAL corrupt at byte {}: {} ({} trailing bytes dropped)",
            self.offset, self.reason, self.dropped_bytes
        )
    }
}

/// A tenant-accountant snapshot embedded in a checkpoint record.
#[derive(Clone, Debug, PartialEq)]
pub struct WalCheckpoint {
    /// Admission count at the moment of the snapshot (the next request id).
    pub next_id: u64,
    /// Per-tenant encoded accountant state, sorted by tenant name.
    pub tenants: Vec<(String, Vec<u8>)>,
}

/// Everything a WAL file yields: the clean admission prefix, the
/// checkpoints interleaved with it, and the corruption report if the tail
/// tore.
#[derive(Clone, Debug, Default)]
pub struct WalContents {
    /// The admissions of the clean prefix, in id (= file) order.
    pub entries: Vec<LogEntry>,
    /// Checkpoints of the clean prefix, in file order.
    pub checkpoints: Vec<WalCheckpoint>,
    /// `Some` if parsing stopped before the end of the file.
    pub corrupt: Option<WalCorrupt>,
    /// Length in bytes of the clean prefix (magic + intact records); the
    /// file is truncated to this on recovery.
    pub clean_len: u64,
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serializes admission `id` of `entry` as a record payload.
fn encode_admission(id: u64, entry: &LogEntry) -> Vec<u8> {
    let req = &entry.request;
    let mut p = Vec::with_capacity(
        1 + 8 + 3 * 8 + entry.tenant.len() + req.dataset.len() + req.mechanism.len() + 4 * 8,
    );
    p.push(KIND_ADMISSION);
    p.extend_from_slice(&id.to_le_bytes());
    encode_str(&mut p, &entry.tenant);
    encode_str(&mut p, &req.dataset);
    encode_str(&mut p, &req.mechanism);
    p.extend_from_slice(&req.epsilon.to_bits().to_le_bytes());
    p.extend_from_slice(&(req.samples as u64).to_le_bytes());
    p.extend_from_slice(&req.seed.to_le_bytes());
    p.extend_from_slice(&req.deadline_ticks.to_le_bytes());
    p
}

/// Serializes an accountant snapshot as a checkpoint record payload.
fn encode_checkpoint(next_id: u64, tenants: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut p = Vec::new();
    p.push(KIND_CHECKPOINT);
    p.extend_from_slice(&next_id.to_le_bytes());
    p.extend_from_slice(&(tenants.len() as u32).to_le_bytes());
    for (name, bytes) in tenants {
        encode_str(&mut p, name);
        p.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        p.extend_from_slice(bytes);
    }
    p
}

/// A bounds-checked payload reader; every failure is a `&'static str`
/// reason, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or("payload ends mid-field")?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4) yields 4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8) yields 8 bytes")))
    }

    fn string(&mut self) -> Result<String, &'static str> {
        let len = self.u64()?;
        if len > MAX_RECORD_BYTES as u64 {
            return Err("string length exceeds the record cap");
        }
        std::str::from_utf8(self.take(len as usize)?)
            .map(str::to_owned)
            .map_err(|_| "string is not UTF-8")
    }

    fn done(&self) -> Result<(), &'static str> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes after final field")
        }
    }
}

fn decode_payload(payload: &[u8], contents: &mut WalContents) -> Result<(), String> {
    let mut cur = Cursor { bytes: payload, at: 0 };
    match cur.u8().map_err(str::to_owned)? {
        KIND_ADMISSION => {
            let id = cur.u64().map_err(str::to_owned)?;
            if id != contents.entries.len() as u64 {
                return Err(format!(
                    "admission id {id} breaks continuity (expected {})",
                    contents.entries.len()
                ));
            }
            let tenant = cur.string().map_err(str::to_owned)?;
            let dataset = cur.string().map_err(str::to_owned)?;
            let mechanism = cur.string().map_err(str::to_owned)?;
            let epsilon = f64::from_bits(cur.u64().map_err(str::to_owned)?);
            let samples = cur.u64().map_err(str::to_owned)? as usize;
            let seed = cur.u64().map_err(str::to_owned)?;
            let deadline_ticks = cur.u64().map_err(str::to_owned)?;
            cur.done().map_err(str::to_owned)?;
            contents.entries.push(LogEntry {
                tenant,
                request: GenerateRequest {
                    dataset,
                    mechanism,
                    epsilon,
                    samples,
                    seed,
                    deadline_ticks,
                },
            });
            Ok(())
        }
        KIND_CHECKPOINT => {
            let next_id = cur.u64().map_err(str::to_owned)?;
            if next_id != contents.entries.len() as u64 {
                return Err(format!(
                    "checkpoint at next_id {next_id} is misplaced (log holds {} admissions)",
                    contents.entries.len()
                ));
            }
            let count = cur.u32().map_err(str::to_owned)?;
            let mut tenants = Vec::with_capacity(count.min(1024) as usize);
            for _ in 0..count {
                let name = cur.string().map_err(str::to_owned)?;
                let len = cur.u64().map_err(str::to_owned)?;
                if len > MAX_RECORD_BYTES as u64 {
                    return Err("accountant state exceeds the record cap".into());
                }
                let bytes = cur.take(len as usize).map_err(str::to_owned)?.to_vec();
                tenants.push((name, bytes));
            }
            cur.done().map_err(str::to_owned)?;
            contents.checkpoints.push(WalCheckpoint { next_id, tenants });
            Ok(())
        }
        kind => Err(format!("unknown record kind {kind}")),
    }
}

/// Parses a WAL byte image. Total: every possible byte string yields a
/// [`WalContents`] — the clean prefix plus, when parsing stopped early, a
/// [`WalCorrupt`] report. Never panics. Pure, so the corruption proptests
/// can flip bytes without touching a filesystem.
pub fn read_contents(bytes: &[u8]) -> WalContents {
    let mut contents = WalContents::default();
    let corrupt = |at: u64, reason: String| WalCorrupt {
        offset: at,
        reason,
        dropped_bytes: bytes.len() as u64 - at,
    };
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        contents.corrupt = Some(corrupt(0, "bad or missing file magic".into()));
        contents.clean_len = 0;
        return contents;
    }
    let mut at = WAL_MAGIC.len() as u64;
    contents.clean_len = at;
    while (at as usize) < bytes.len() {
        let rest = &bytes[at as usize..];
        if rest.len() < 8 {
            contents.corrupt = Some(corrupt(at, "torn record header".into()));
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4-byte slice"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4-byte slice"));
        if len == 0 || len > MAX_RECORD_BYTES {
            contents.corrupt = Some(corrupt(at, format!("implausible record length {len}")));
            break;
        }
        if rest.len() < 8 + len as usize {
            contents.corrupt = Some(corrupt(at, "torn record payload".into()));
            break;
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            contents.corrupt = Some(corrupt(at, "payload CRC mismatch".into()));
            break;
        }
        if let Err(reason) = decode_payload(payload, &mut contents) {
            contents.corrupt = Some(corrupt(at, reason));
            break;
        }
        at += 8 + len as u64;
        contents.clean_len = at;
    }
    contents
}

/// An open, append-position WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Creates (truncating any previous file) a fresh WAL holding only the
    /// magic, fsynced.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        file.write_all(&WAL_MAGIC)?;
        file.sync_data()?;
        Ok(Wal { file, path })
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append_record(&mut self, payload: &[u8]) -> std::io::Result<()> {
        pgb_par::fault::point_io("wal.append")?;
        debug_assert!(payload.len() as u32 <= MAX_RECORD_BYTES);
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(payload).to_le_bytes());
        rec.extend_from_slice(payload);
        // One write_all so a torn record is a clean suffix truncation, one
        // sync_data so the record is durable before the in-memory charge.
        self.file.write_all(&rec)?;
        self.file.sync_data()
    }

    /// Durably appends admission `id` (its position in the request log).
    pub fn append_admission(&mut self, id: u64, entry: &LogEntry) -> std::io::Result<()> {
        self.append_record(&encode_admission(id, entry))
    }

    /// Durably appends an accountant snapshot taken after `next_id`
    /// admissions.
    pub fn append_checkpoint(
        &mut self,
        next_id: u64,
        tenants: &[(String, Vec<u8>)],
    ) -> std::io::Result<()> {
        self.append_record(&encode_checkpoint(next_id, tenants))
    }

    /// Reads and parses a WAL file without modifying it.
    pub fn read(path: impl AsRef<Path>) -> std::io::Result<WalContents> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Ok(read_contents(&bytes))
    }

    /// Opens `path` for recovery: parses it, truncates any torn tail (a
    /// file with bad magic is re-initialised to an empty log), and returns
    /// the WAL positioned to append after the clean prefix, plus what the
    /// prefix held.
    pub fn recover(path: impl Into<PathBuf>) -> std::io::Result<(Self, WalContents)> {
        let path = path.into();
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let contents = read_contents(&bytes);
        let mut file = OpenOptions::new().write(true).open(&path)?;
        if contents.clean_len == 0 {
            // Bad magic: nothing salvageable, start the log over.
            file.set_len(0)?;
            file.rewind()?;
            file.write_all(&WAL_MAGIC)?;
        } else if contents.clean_len < bytes.len() as u64 {
            file.set_len(contents.clean_len)?;
        }
        file.sync_data()?;
        file.seek(SeekFrom::End(0))?;
        Ok((Wal { file, path }, contents))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> LogEntry {
        LogEntry {
            tenant: format!("tenant{}", id % 3),
            request: GenerateRequest {
                dataset: "er".into(),
                mechanism: "TmF".into(),
                epsilon: 0.25 + id as f64 * 0.125,
                samples: 2,
                seed: 0xBEEF + id,
                deadline_ticks: if id.is_multiple_of(2) { 0 } else { 64 },
            },
        }
    }

    /// Builds a valid WAL image with `n` admissions in memory.
    fn image(n: u64) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for id in 0..n {
            let payload = encode_admission(id, &entry(id));
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn admissions_round_trip() {
        let contents = read_contents(&image(5));
        assert!(contents.corrupt.is_none());
        assert_eq!(contents.entries.len(), 5);
        for (id, got) in contents.entries.iter().enumerate() {
            assert_eq!(*got, entry(id as u64));
        }
        assert_eq!(contents.clean_len, image(5).len() as u64);
    }

    #[test]
    fn torn_tail_keeps_the_clean_prefix() {
        let full = image(4);
        let three = image(3);
        for cut in three.len() + 1..full.len() {
            let contents = read_contents(&full[..cut]);
            assert_eq!(contents.entries.len(), 3, "cut at {cut} keeps 3 admissions");
            let c = contents.corrupt.expect("a torn tail is reported");
            assert_eq!(c.offset, three.len() as u64);
            assert_eq!(contents.clean_len, three.len() as u64);
        }
    }

    #[test]
    fn bad_magic_is_total_corruption() {
        let mut bytes = image(2);
        bytes[0] ^= 0x01;
        let contents = read_contents(&bytes);
        assert_eq!(contents.entries.len(), 0);
        assert_eq!(contents.clean_len, 0);
        assert_eq!(contents.corrupt.as_ref().map(|c| c.offset), Some(0));
    }

    #[test]
    fn id_discontinuity_is_corruption() {
        let mut bytes = WAL_MAGIC.to_vec();
        let payload = encode_admission(3, &entry(3)); // first record must be id 0
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let contents = read_contents(&bytes);
        assert!(contents.entries.is_empty());
        assert!(contents.corrupt.expect("reported").reason.contains("continuity"));
    }

    #[test]
    fn implausible_length_is_rejected_without_allocation() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let contents = read_contents(&bytes);
        assert!(contents.corrupt.expect("reported").reason.contains("implausible"));
    }

    #[test]
    fn checkpoint_round_trips_and_placement_is_enforced() {
        let mut bytes = image(2);
        let snapshot = vec![("alice".to_string(), vec![1, 2, 3]), ("bob".to_string(), vec![4])];
        let payload = encode_checkpoint(2, &snapshot);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let contents = read_contents(&bytes);
        assert!(contents.corrupt.is_none());
        assert_eq!(contents.checkpoints, vec![WalCheckpoint { next_id: 2, tenants: snapshot }]);

        // The same checkpoint claiming next_id 5 after 2 admissions: corrupt.
        let mut bytes = image(2);
        let payload = encode_checkpoint(5, &[]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(read_contents(&bytes).corrupt.expect("reported").reason.contains("misplaced"));
    }

    #[test]
    fn file_append_read_recover_cycle() {
        let path = std::env::temp_dir().join(format!("pgb_wal_unit_{}.wal", std::process::id()));
        {
            let mut wal = Wal::create(&path).unwrap();
            for id in 0..4 {
                wal.append_admission(id, &entry(id)).unwrap();
            }
            wal.append_checkpoint(4, &[("t".into(), vec![9, 9])]).unwrap();
        }
        let contents = Wal::read(&path).unwrap();
        assert!(contents.corrupt.is_none());
        assert_eq!(contents.entries.len(), 4);
        assert_eq!(contents.checkpoints.len(), 1);

        // Tear the tail: chop 3 bytes, recover, confirm truncation + append.
        let full_len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full_len - 3).unwrap();
        drop(f);
        let (mut wal, contents) = Wal::recover(&path).unwrap();
        assert_eq!(contents.entries.len(), 4, "the torn checkpoint drops, admissions stay");
        assert!(contents.corrupt.is_some());
        wal.append_admission(4, &entry(4)).unwrap();
        drop(wal);
        let contents = Wal::read(&path).unwrap();
        assert!(contents.corrupt.is_none(), "recovery truncated the tear");
        assert_eq!(contents.entries.len(), 5);
        std::fs::remove_file(&path).ok();
    }
}
