//! The per-file record index (`.lpridx`).
//!
//! One sequential **lenient** scan of a warts file yields everything a
//! sharded re-decode needs:
//!
//! - the [`RecordSpan`] (offset, body length, type) of every record
//!   that decoded successfully — range decoders slice bodies straight
//!   out of the mapping, no copies;
//! - the file's complete address dictionary in table-id order — a
//!   range decoder preloading it resolves every reference id exactly
//!   as the sequential pass did (embed-form occurrences re-append
//!   harmless duplicates past the preload);
//! - the scan's skip tallies and resync byte count, so the indexed
//!   path reports the *same* [`SkipReason`] accounting as a sequential
//!   lenient decode — equal by construction, not by re-measurement.
//!
//! The index is cached next to its file as `<name>.lpridx`, guarded by
//! a sampled fingerprint (length + first/last 4 KiB), and rebuilt when
//! stale or unreadable. Cache writes are best-effort: a read-only
//! corpus directory costs a rebuild per open, never an error.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use warts::{Addr, RecordSpan, RecordType, SkipReason, WartsStreamReader};

/// Magic prefix of a serialized index.
pub const INDEX_MAGIC: [u8; 4] = *b"LPRX";
/// Serialization version; bump on any layout change.
pub const INDEX_VERSION: u16 = 1;
/// Cache file extension (full name: `<file name>.lpridx`).
pub const INDEX_EXT: &str = "lpridx";

/// Suffix appended to [`INDEX_EXT`] for in-flight cache writes
/// (`<file>.lpridx.tmp`).
pub const INDEX_TMP_SUFFIX: &str = "tmp";

/// How many bytes of each end of the file the staleness fingerprint
/// samples.
const FINGERPRINT_SAMPLE: usize = 4096;

/// The decoded-record index of one warts file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordIndex {
    /// Length of the indexed file, bytes.
    pub file_len: u64,
    /// Sampled content fingerprint guarding cache staleness.
    pub fingerprint: u64,
    /// Spans of successfully decoded records, in stream order.
    pub records: Vec<RecordSpan>,
    /// The file's full address dictionary, in table-id order.
    pub addr_table: Vec<Addr>,
    /// Lenient-scan skip tallies, in [`SkipReason::ALL`] order.
    pub skip_counts: [u64; SkipReason::ALL.len()],
    /// Bytes discarded while resynchronizing after bad records.
    pub resync_bytes: u64,
    /// Trace records among [`RecordIndex::records`].
    pub traces: u64,
}

impl RecordIndex {
    /// Indexes `bytes` with one sequential lenient scan. Never panics:
    /// malformed content lands in the skip tallies, exactly as the
    /// lenient streaming decoder reports it.
    pub fn build(bytes: &[u8]) -> Self {
        // Validation only: trace bodies are walked, never materialised.
        let mut reader = WartsStreamReader::new(bytes).lenient();
        let mut records = Vec::new();
        let mut traces = 0u64;
        // Lenient over in-memory bytes cannot error; stop indexing
        // defensively if it ever does.
        while let Ok(Some(span)) = reader.next_span() {
            if span.record_type == RecordType::Trace as u16 {
                traces += 1;
            }
            records.push(span);
        }
        let mut skip_counts = [0u64; SkipReason::ALL.len()];
        for (slot, reason) in skip_counts.iter_mut().zip(SkipReason::ALL) {
            *slot = reader.skip_counts().get(&reason).copied().unwrap_or(0);
        }
        RecordIndex {
            file_len: bytes.len() as u64,
            fingerprint: fingerprint_of(bytes),
            records,
            addr_table: reader.addr_snapshot(),
            skip_counts,
            resync_bytes: reader.resync_bytes(),
            traces,
        }
    }

    /// The cache path for a corpus file: `<file name>.lpridx` in the
    /// same directory.
    pub fn cache_path(file: &Path) -> PathBuf {
        let mut name = file.file_name().unwrap_or_default().to_os_string();
        name.push(".");
        name.push(INDEX_EXT);
        file.with_file_name(name)
    }

    /// The in-flight temp path a cache write goes through before its
    /// atomic rename to [`RecordIndex::cache_path`]. A crash mid-write
    /// leaves only this orphan (swept by
    /// [`crate::hygiene::sweep_stale`]), never a truncated `.lpridx`.
    pub fn tmp_cache_path(file: &Path) -> PathBuf {
        let mut name = Self::cache_path(file).into_os_string();
        name.push(".");
        name.push(INDEX_TMP_SUFFIX);
        PathBuf::from(name)
    }

    /// Loads the cached index for `file` if present and fresh for
    /// `bytes`, otherwise rebuilds (and best-effort re-caches when
    /// `cache` is set). Returns the index and whether it was a cache
    /// hit.
    ///
    /// The cache is written to a `.lpridx.tmp` sibling first and
    /// renamed into place, so a kill at any point leaves either the old
    /// cache, the new cache, or an orphaned temp file — never a
    /// truncated `.lpridx` that parses.
    pub fn load_or_build(file: &Path, bytes: &[u8], cache: bool) -> (Self, bool) {
        let cache_path = Self::cache_path(file);
        if let Ok(raw) = std::fs::read(&cache_path) {
            if let Some(index) = Self::from_bytes(&raw) {
                if index.matches(bytes) {
                    return (index, true);
                }
            }
        }
        let index = Self::build(bytes);
        if cache {
            let tmp = Self::tmp_cache_path(file);
            let written = std::fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(&index.to_bytes()).and_then(|()| f.sync_all()));
            match written {
                Ok(()) => {
                    let _ = std::fs::rename(&tmp, &cache_path);
                }
                Err(_) => {
                    let _ = std::fs::remove_file(&tmp);
                }
            }
        }
        (index, false)
    }

    /// Whether this index still describes `bytes`.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        self.file_len == bytes.len() as u64 && self.fingerprint == fingerprint_of(bytes)
    }

    /// The scan's skip tallies as the decoder reports them (zero
    /// entries omitted, like [`WartsStreamReader::skip_counts`]).
    pub fn skipped(&self) -> BTreeMap<SkipReason, u64> {
        SkipReason::ALL
            .into_iter()
            .zip(self.skip_counts)
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Total records skipped by the scan.
    pub fn skipped_total(&self) -> u64 {
        self.skip_counts.iter().sum()
    }

    /// Serializes the index (see the module docs for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.records.len() * 14 + self.addr_table.len() * 17);
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&INDEX_VERSION.to_be_bytes());
        out.extend_from_slice(&self.file_len.to_be_bytes());
        out.extend_from_slice(&self.fingerprint.to_be_bytes());
        out.extend_from_slice(&(self.records.len() as u64).to_be_bytes());
        for span in &self.records {
            out.extend_from_slice(&span.offset.to_be_bytes());
            out.extend_from_slice(&span.body_len.to_be_bytes());
            out.extend_from_slice(&span.record_type.to_be_bytes());
        }
        out.extend_from_slice(&(self.addr_table.len() as u64).to_be_bytes());
        for addr in &self.addr_table {
            match addr {
                Addr::V4(a) => {
                    out.push(1);
                    out.extend_from_slice(&a.octets());
                }
                Addr::V6(a) => {
                    out.push(2);
                    out.extend_from_slice(&a.octets());
                }
            }
        }
        for n in self.skip_counts {
            out.extend_from_slice(&n.to_be_bytes());
        }
        out.extend_from_slice(&self.resync_bytes.to_be_bytes());
        out.extend_from_slice(&self.traces.to_be_bytes());
        out
    }

    /// Deserializes an index; `None` on any structural mismatch (wrong
    /// magic/version, truncation, trailing garbage), which callers
    /// treat as a stale cache.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut cur = Cur { bytes, pos: 0 };
        if cur.take(4)? != INDEX_MAGIC {
            return None;
        }
        if u16::from_be_bytes(cur.take(2)?.try_into().ok()?) != INDEX_VERSION {
            return None;
        }
        let file_len = cur.u64()?;
        let fingerprint = cur.u64()?;
        let n_records = cur.u64()?;
        // Each record costs 14 bytes; reject impossible counts before
        // reserving.
        if n_records > (bytes.len() as u64) / 14 + 1 {
            return None;
        }
        let mut records = Vec::with_capacity(n_records as usize);
        for _ in 0..n_records {
            let offset = cur.u64()?;
            let body_len = u32::from_be_bytes(cur.take(4)?.try_into().ok()?);
            let record_type = u16::from_be_bytes(cur.take(2)?.try_into().ok()?);
            records.push(RecordSpan { offset, body_len, record_type });
        }
        let n_addrs = cur.u64()?;
        if n_addrs > (bytes.len() as u64) / 5 + 1 {
            return None;
        }
        let mut addr_table = Vec::with_capacity(n_addrs as usize);
        for _ in 0..n_addrs {
            let tag = cur.take(1)?[0];
            match tag {
                1 => {
                    let o: [u8; 4] = cur.take(4)?.try_into().ok()?;
                    addr_table.push(Addr::V4(o.into()));
                }
                2 => {
                    let o: [u8; 16] = cur.take(16)?.try_into().ok()?;
                    addr_table.push(Addr::V6(o.into()));
                }
                _ => return None,
            }
        }
        let mut skip_counts = [0u64; SkipReason::ALL.len()];
        for slot in &mut skip_counts {
            *slot = cur.u64()?;
        }
        let resync_bytes = cur.u64()?;
        let traces = cur.u64()?;
        if cur.pos != bytes.len() {
            return None;
        }
        Some(RecordIndex {
            file_len,
            fingerprint,
            records,
            addr_table,
            skip_counts,
            resync_bytes,
            traces,
        })
    }
}

/// Sampled FNV-1a fingerprint: file length plus the first and last
/// `FINGERPRINT_SAMPLE` (4 KiB) bytes. Cheap on multi-gigabyte corpora while
/// catching truncation, append and header rewrites; a full-content
/// hash would re-read everything the index exists to avoid.
pub fn fingerprint_of(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |data: &[u8]| {
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&(bytes.len() as u64).to_be_bytes());
    let head = bytes.len().min(FINGERPRINT_SAMPLE);
    eat(&bytes[..head]);
    let tail_start = bytes.len().saturating_sub(FINGERPRINT_SAMPLE).max(head);
    eat(&bytes[tail_start..]);
    h
}

struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use warts::{HopRecord, TraceRecord, WartsWriter};

    fn a(o: u8) -> Addr {
        Addr::V4(Ipv4Addr::new(10, 0, 0, o))
    }

    fn sample_stream(traces: u8) -> Vec<u8> {
        let mut w = WartsWriter::new();
        let list = w.list(1, "idx");
        let cycle = w.cycle_start(list, 1, 0);
        for i in 0..traces {
            let mut t = TraceRecord::new(a(1), a(100 + i));
            t.hops = vec![
                HopRecord::reply(1, a(10 + i), 500),
                HopRecord::reply(2, a(100 + i), 900),
            ];
            w.trace(&t).unwrap();
        }
        w.cycle_stop(cycle, 60);
        w.into_bytes()
    }

    #[test]
    fn index_covers_every_record_and_counts_traces() {
        let bytes = sample_stream(5);
        let index = RecordIndex::build(&bytes);
        assert_eq!(index.records.len(), 8, "list + cycle start/stop + 5 traces");
        assert_eq!(index.traces, 5);
        assert_eq!(index.skipped_total(), 0);
        // Spans tile the file.
        let mut pos = 0u64;
        for span in &index.records {
            assert_eq!(span.offset, pos);
            pos += span.wire_len();
        }
        assert_eq!(pos, bytes.len() as u64);
        // The dictionary holds each distinct address once.
        assert_eq!(index.addr_table.len(), 1 + 5 + 5, "src + per-trace hop + dst");
    }

    #[test]
    fn roundtrips_through_bytes() {
        let bytes = sample_stream(3);
        let index = RecordIndex::build(&bytes);
        let restored = RecordIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(restored, index);
    }

    #[test]
    fn truncated_or_garbled_serializations_are_rejected() {
        let encoded = RecordIndex::build(&sample_stream(2)).to_bytes();
        for cut in [0, 3, 7, encoded.len() / 2, encoded.len() - 1] {
            assert!(RecordIndex::from_bytes(&encoded[..cut]).is_none(), "cut at {cut}");
        }
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(RecordIndex::from_bytes(&trailing).is_none(), "trailing garbage");
        let mut wrong_magic = encoded;
        wrong_magic[0] ^= 0xFF;
        assert!(RecordIndex::from_bytes(&wrong_magic).is_none());
    }

    #[test]
    fn cache_roundtrip_hits_and_detects_staleness() {
        let dir = std::env::temp_dir().join(format!("lpr-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("cycle.warts");
        let bytes = sample_stream(4);
        std::fs::write(&file, &bytes).unwrap();

        let (built, hit) = RecordIndex::load_or_build(&file, &bytes, true);
        assert!(!hit, "first open builds");
        assert!(RecordIndex::cache_path(&file).exists());
        let (cached, hit) = RecordIndex::load_or_build(&file, &bytes, true);
        assert!(hit, "second open hits the cache");
        assert_eq!(cached, built);

        // Rewriting the file invalidates the cache.
        let longer = sample_stream(6);
        std::fs::write(&file, &longer).unwrap();
        let (rebuilt, hit) = RecordIndex::load_or_build(&file, &longer, true);
        assert!(!hit, "stale cache rebuilds");
        assert_eq!(rebuilt.traces, 6);

        // Same length, different content: the fingerprint still trips.
        let mut tweaked = longer.clone();
        let last = tweaked.len() - 1;
        tweaked[last] ^= 0xFF;
        assert!(!rebuilt.matches(&tweaked));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_input_lands_in_skip_tallies() {
        let mut bytes = sample_stream(3);
        // Smash the magic of the second record.
        let second = RecordIndex::build(&bytes).records[1].offset as usize;
        bytes[second] = 0xDE;
        bytes[second + 1] = 0xAD;
        let index = RecordIndex::build(&bytes);
        assert!(index.skipped_total() > 0);
        assert!(index.skipped().contains_key(&SkipReason::BadMagic));
        assert!(index.resync_bytes > 0);
    }
}
