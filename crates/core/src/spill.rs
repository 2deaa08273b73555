//! On-disk spill for the Persistence window.
//!
//! At paper scale a persistence window holds millions of [`LspKey`]s per
//! future snapshot; keeping `j` such [`std::collections::BTreeSet`]s in
//! memory defeats an out-of-core ingest. This module spills each
//! snapshot's keys to a single **sorted** file of length-prefixed byte
//! encodings and answers the Persistence filter's membership question
//! with one sequential merge-join pass per snapshot:
//!
//! 1. [`KeySpiller`] buffers a bounded number of encoded keys, sorts and
//!    dedups each full buffer into a run file, and k-way merges the runs
//!    into one sorted `<label>.spill` file on
//!    [`KeySpiller::finish`] — classic external sort, peak memory is the
//!    run buffer.
//! 2. [`persistent_flags_spilled`] encodes the cycle's surviving LSPs
//!    once, straight from their hops (no [`LspKey`] is built), sorts
//!    them, and streams each snapshot's spill file with a two-pointer
//!    walk — no per-probe seeks, O(L log L) CPU plus one sequential read
//!    of the window.
//!
//! The byte encoding ([`encode_key`]) is injective, so spilled
//! membership is *exactly* set membership: for any window,
//! [`persistent_flags_spilled`] equals
//! [`crate::filter::persistent_flags`] over the same key sets (see the
//! equivalence test below).

use crate::filter::FilterConfig;
use crate::label::Label;
use crate::lsp::{Lsp, LspKey};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// Encoded keys buffered in memory before a sorted run is written
/// (bounds the spiller's peak memory).
pub const RUN_CAPACITY: usize = 64 * 1024;

/// Appends the injective byte encoding of `key` to `out` (cleared
/// first): `ingress ‖ egress ‖ u32 hop count ‖ per hop: addr ‖ u32
/// label count ‖ labels`, all big-endian. Fixed widths plus length
/// prefixes make the encoding prefix-free per field, so byte equality
/// is key equality.
pub fn encode_key(key: &LspKey, out: &mut Vec<u8>) {
    out.clear();
    let hops = key.signature.iter().map(|(addr, labels)| (*addr, labels.iter().copied()));
    encode_signature(key.ingress, key.egress, hops, out);
}

/// Appends the encoding of `lsp`'s key to `out`, read straight from
/// its hops: the same bytes as [`encode_key`] over [`Lsp::key`],
/// without building the key.
fn encode_lsp(lsp: &Lsp, out: &mut Vec<u8>) {
    let hops = lsp.hops.iter().map(|h| (h.addr, h.stack.entries().iter().map(|e| e.label)));
    encode_signature(lsp.ingress, lsp.egress, hops, out);
}

/// Appends the spill byte format of one key, over any source of
/// `(address, label values)` hops. [`encode_key`] and `encode_lsp` both
/// write through here.
fn encode_signature<L: ExactSizeIterator<Item = Label>>(
    ingress: Ipv4Addr,
    egress: Ipv4Addr,
    hops: impl ExactSizeIterator<Item = (Ipv4Addr, L)>,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(&ingress.octets());
    out.extend_from_slice(&egress.octets());
    out.extend_from_slice(&(hops.len() as u32).to_be_bytes());
    for (addr, labels) in hops {
        out.extend_from_slice(&addr.octets());
        out.extend_from_slice(&(labels.len() as u32).to_be_bytes());
        for l in labels {
            out.extend_from_slice(&l.value().to_be_bytes());
        }
    }
}

/// One future snapshot's LSP keys, spilled to a sorted on-disk file.
#[derive(Clone, Debug)]
pub struct SpilledKeys {
    /// The sorted spill file (`<dir>/<label>.spill`).
    pub path: PathBuf,
    /// Unique keys in the file.
    pub count: u64,
    /// File size in bytes.
    pub bytes: u64,
}

impl SpilledKeys {
    /// Marks `flags[idx] = true` for every probe `(encoded, idx)` whose
    /// encoding appears in this spill file. `probes` must be sorted by
    /// encoded bytes (duplicates allowed); one sequential pass over the
    /// file, no seeks.
    pub fn mark_members(
        &self,
        probes: &[(&[u8], usize)],
        flags: &mut [bool],
    ) -> io::Result<()> {
        if probes.is_empty() {
            return Ok(());
        }
        let mut reader = RunReader::open(&self.path)?;
        let mut i = 0usize;
        while let Some(key) = reader.next_key()? {
            while i < probes.len() && probes[i].0 < key.as_slice() {
                i += 1;
            }
            while i < probes.len() && probes[i].0 == key.as_slice() {
                flags[probes[i].1] = true;
                i += 1;
            }
            if i == probes.len() {
                break;
            }
        }
        Ok(())
    }

    /// Removes the spill file (best-effort; callers clean up their spill
    /// directory when the cycle is done).
    pub fn delete(&self) -> io::Result<()> {
        std::fs::remove_file(&self.path)
    }
}

/// External-sort writer for one snapshot's key set.
pub struct KeySpiller {
    dir: PathBuf,
    label: String,
    buf: Vec<Vec<u8>>,
    runs: Vec<PathBuf>,
    scratch: Vec<u8>,
    run_capacity: usize,
}

impl KeySpiller {
    /// Starts spilling under `dir` (created if missing); the final file
    /// is `<dir>/<label>.spill`.
    pub fn new(dir: &Path, label: &str) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(KeySpiller {
            dir: dir.to_path_buf(),
            label: label.to_string(),
            buf: Vec::new(),
            runs: Vec::new(),
            scratch: Vec::new(),
            run_capacity: RUN_CAPACITY,
        })
    }

    /// Overrides the in-memory run capacity (tests use tiny runs to
    /// force multi-run merges).
    pub fn with_run_capacity(mut self, capacity: usize) -> Self {
        self.run_capacity = capacity.max(1);
        self
    }

    /// Adds one key (duplicates are welcome; the spill file stores each
    /// key once).
    pub fn push(&mut self, key: &LspKey) -> io::Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_key(key, &mut scratch);
        self.buf.push(scratch.clone());
        self.scratch = scratch;
        if self.buf.len() >= self.run_capacity {
            self.flush_run()?;
        }
        Ok(())
    }

    fn flush_run(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        self.buf.dedup();
        let path = self.dir.join(format!("{}-run{}.spillrun", self.label, self.runs.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        for key in &self.buf {
            write_record(&mut w, key)?;
        }
        w.flush()?;
        self.buf.clear();
        self.runs.push(path);
        Ok(())
    }

    /// Merges every run into the final sorted spill file and returns its
    /// handle. Run files are removed.
    pub fn finish(mut self) -> io::Result<SpilledKeys> {
        self.flush_run()?;
        let path = self.dir.join(format!("{}.spill", self.label));
        let mut out = BufWriter::new(File::create(&path)?);
        let mut count = 0u64;

        // K-way merge with global dedup: repeatedly take the smallest
        // head, emit it once, and advance every reader holding it.
        let mut readers: Vec<RunReader> =
            self.runs.iter().map(|p| RunReader::open(p)).collect::<io::Result<_>>()?;
        let mut heads: Vec<Option<Vec<u8>>> =
            readers.iter_mut().map(|r| r.next_key()).collect::<io::Result<_>>()?;
        while let Some(min) = heads.iter().flatten().min().cloned() {
            write_record(&mut out, &min)?;
            count += 1;
            for (head, reader) in heads.iter_mut().zip(&mut readers) {
                while head.as_deref() == Some(min.as_slice()) {
                    *head = reader.next_key()?;
                }
            }
        }
        out.flush()?;
        drop(out);
        for run in &self.runs {
            let _ = std::fs::remove_file(run);
        }
        let bytes = std::fs::metadata(&path)?.len();
        Ok(SpilledKeys { path, count, bytes })
    }
}

fn write_record(w: &mut impl Write, key: &[u8]) -> io::Result<()> {
    w.write_all(&(key.len() as u32).to_be_bytes())?;
    w.write_all(key)
}

/// Sequential reader over one length-prefixed sorted key file.
struct RunReader {
    r: BufReader<File>,
}

impl RunReader {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(RunReader { r: BufReader::new(File::open(path)?) })
    }

    fn next_key(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut len = [0u8; 4];
        match self.r.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let mut key = vec![0u8; u32::from_be_bytes(len) as usize];
        self.r.read_exact(&mut key)?;
        Ok(Some(key))
    }
}

/// The spilled counterpart of [`crate::filter::persistent_flags`]:
/// `flags[i]` is whether `lsps[i]`'s key appears in at least one of the
/// window's spill files. Identical semantics — window truncated to
/// `config.persistence_window` snapshots, `persistence_window == 0`
/// keeps everything — via one merge-join pass per snapshot.
pub fn persistent_flags_spilled(
    lsps: &[Lsp],
    window: &[SpilledKeys],
    config: &FilterConfig,
) -> io::Result<Vec<bool>> {
    if config.persistence_window == 0 {
        return Ok(vec![true; lsps.len()]);
    }
    let window = &window[..config.persistence_window.min(window.len())];
    let mut flags = vec![false; lsps.len()];
    if window.is_empty() || lsps.is_empty() {
        return Ok(flags);
    }
    // Every probe encoded back to back in one buffer: a handful of
    // allocations however many LSPs are probed.
    let mut encoded = Vec::new();
    let mut spans = Vec::with_capacity(lsps.len());
    for l in lsps {
        let start = encoded.len();
        encode_lsp(l, &mut encoded);
        spans.push(start..encoded.len());
    }
    let mut probes: Vec<(&[u8], usize)> =
        spans.into_iter().enumerate().map(|(i, span)| (&encoded[span], i)).collect();
    probes.sort_unstable();
    for snapshot in window {
        snapshot.mark_members(&probes, &mut flags)?;
    }
    Ok(flags)
}

/// Spills an iterator of keys under `dir` as `<label>.spill`.
pub fn spill_keys<'a>(
    keys: impl IntoIterator<Item = &'a LspKey>,
    dir: &Path,
    label: &str,
) -> io::Result<SpilledKeys> {
    let mut spiller = KeySpiller::new(dir, label)?;
    for key in keys {
        spiller.push(key)?;
    }
    spiller.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::persistent_flags;
    use crate::label::{LabelStack, Lse};
    use crate::lsp::{Asn, LspHop};
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    fn ip(a: u8, o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, a, 0, o)
    }

    fn lsp(asn: u8, labels: &[u32]) -> Lsp {
        Lsp {
            asn: Asn(asn as u32),
            ingress: ip(asn, 1),
            egress: ip(asn, 9),
            hops: labels
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    LspHop::new(
                        ip(asn, 2 + i as u8),
                        LabelStack::from_entries(&[Lse::transit(l, 255)]),
                    )
                })
                .collect(),
            dst: Ipv4Addr::new(192, 0, 2, 1),
            dst_asn: Some(Asn(100)),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lpr-spill-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encoding_is_injective_on_distinct_keys() {
        // Keys engineered so a naive (unprefixed) concatenation would
        // collide: hop boundaries move but the flat byte content cannot.
        let a = lsp(1, &[100, 200]).key();
        let b = lsp(1, &[100]).key();
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        encode_key(&a, &mut ea);
        encode_key(&b, &mut eb);
        assert_ne!(ea, eb);
        // Same key encodes identically.
        let mut ea2 = Vec::new();
        encode_key(&lsp(1, &[100, 200]).key(), &mut ea2);
        assert_eq!(ea, ea2);
    }

    #[test]
    fn lsp_and_key_encodings_are_identical() {
        let mut deep = lsp(3, &[16, 17, 18]);
        // Stacks on both sides of the inline capacity, TC/S/TTL noise
        // that the key ignores, and an unlabelled hop.
        deep.hops[0].stack = (0..LabelStack::INLINE as u32 + 2)
            .map(|d| Lse::new(Label::new(100 + d), d as u8, d == 0, 200 - d as u8))
            .collect();
        deep.hops[1].stack = LabelStack::from_entries(&[Lse::transit(7, 1), Lse::transit(8, 2)]);
        deep.hops[2].stack = LabelStack::empty();
        assert!(deep.hops[0].stack.depth() > LabelStack::INLINE);
        for l in [lsp(1, &[100]), lsp(2, &[100, 200]), deep, lsp(4, &[])] {
            // `encode_key` clears its buffer first; `encode_lsp` appends.
            let (mut from_key, mut from_lsp) = (vec![0xAA], vec![0xBB]);
            encode_key(&l.key(), &mut from_key);
            encode_lsp(&l, &mut from_lsp);
            assert_eq!(from_lsp[0], 0xBB);
            assert_eq!(from_lsp[1..], from_key, "{l:?}");
        }
    }

    #[test]
    fn spilled_flags_match_in_memory_flags() {
        let dir = tmp("equiv");
        let lsps: Vec<Lsp> =
            (1..=30u8).map(|a| lsp(a, &[a as u32 * 10, a as u32 * 10 + 1])).collect();
        // Window: snapshot 0 re-observes ASes 1..=10, snapshot 1 ASes
        // 5..=20; AS 21+ never persists.
        let snap = |range: std::ops::RangeInclusive<u8>| -> BTreeSet<LspKey> {
            range.map(|a| lsp(a, &[a as u32 * 10, a as u32 * 10 + 1]).key()).collect()
        };
        let mem = vec![snap(1..=10), snap(5..=20)];
        let spilled: Vec<SpilledKeys> = mem
            .iter()
            .enumerate()
            .map(|(i, s)| spill_keys(s.iter(), &dir, &format!("snap{i}")).unwrap())
            .collect();

        let config = FilterConfig::default();
        let expect = persistent_flags(&lsps, &mem, &config);
        let got = persistent_flags_spilled(&lsps, &spilled, &config).unwrap();
        assert_eq!(got, expect);
        assert_eq!(got.iter().filter(|&&f| f).count(), 20);

        // Window-0 keeps everything in both paths.
        let none = FilterConfig { persistence_window: 0, ..Default::default() };
        assert_eq!(
            persistent_flags_spilled(&lsps, &spilled, &none).unwrap(),
            persistent_flags(&lsps, &mem, &none),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_run_merge_dedups_and_sorts() {
        let dir = tmp("runs");
        let mut spiller =
            KeySpiller::new(&dir, "multi").unwrap().with_run_capacity(4);
        // 25 keys pushed twice in interleaved order -> several runs with
        // overlapping content.
        for round in 0..2 {
            for a in 1..=25u8 {
                let a = if round == 0 { a } else { 26 - a };
                spiller.push(&lsp(a, &[7]).key()).unwrap();
            }
        }
        let spilled = spiller.finish().unwrap();
        assert_eq!(spilled.count, 25, "dedup across runs");

        // The file is sorted and readable back.
        let mut r = RunReader::open(&spilled.path).unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut n = 0;
        while let Some(k) = r.next_key().unwrap() {
            if let Some(p) = &prev {
                assert!(p < &k, "strictly ascending");
            }
            prev = Some(k);
            n += 1;
        }
        assert_eq!(n, 25);
        assert!(std::fs::read_dir(&dir).unwrap().count() == 1, "run files removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_truncation_matches_config() {
        let dir = tmp("window");
        let key = lsp(1, &[5]).key();
        let empty = spill_keys([].iter(), &dir, "empty").unwrap();
        let hit = spill_keys([key].iter(), &dir, "hit").unwrap();
        let lsps = vec![lsp(1, &[5])];
        // j = 1 sees only the empty first snapshot.
        let j1 = FilterConfig { persistence_window: 1, ..Default::default() };
        let flags =
            persistent_flags_spilled(&lsps, &[empty.clone(), hit.clone()], &j1).unwrap();
        assert_eq!(flags, vec![false]);
        // j = 2 reaches the hit.
        let j2 = FilterConfig { persistence_window: 2, ..Default::default() };
        let flags = persistent_flags_spilled(&lsps, &[empty, hit], &j2).unwrap();
        assert_eq!(flags, vec![true]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
