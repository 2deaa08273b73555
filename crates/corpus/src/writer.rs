//! Multi-file corpus writer for simulated cycles.
//!
//! Real Ark cycles arrive as many warts files (one per monitor/day);
//! the netsim scenario generator produces one flat trace list. This
//! writer splits that list into `n_files` contiguous chunks and writes
//! each as a **self-contained** warts file — its own list record,
//! cycle start/stop and address dictionary — so any subset of files
//! decodes independently. Reading the files back in order yields the
//! traces in their original order, which is what keeps the out-of-core
//! pipeline byte-identical to the in-memory one.

use lpr_core::trace::Trace;
use std::io;
use std::path::{Path, PathBuf};
use warts::{trace_to_record, WartsWriter};

/// Writes `traces` as `n_files` warts files under `dir`, named
/// `<stem>.NNN.warts`; returns the paths in cycle order. `n_files` is
/// clamped to at least 1; trailing files may be one trace shorter when
/// the split is uneven.
pub fn write_corpus_files(
    dir: &Path,
    stem: &str,
    traces: &[Trace],
    n_files: usize,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let n_files = n_files.max(1);
    let per_file = traces.len().div_ceil(n_files).max(1);
    let mut paths = Vec::new();
    for (i, chunk) in traces.chunks(per_file).enumerate() {
        let path = dir.join(format!("{stem}.{i:03}.warts"));
        let mut writer = WartsWriter::new();
        let list = writer.list(1, stem);
        let cycle = writer.cycle_start(list, 1, 1_400_000_000);
        for trace in chunk {
            writer.trace(&trace_to_record(trace, 1, 1));
        }
        writer.cycle_stop(cycle, 1_400_000_600);
        std::fs::write(&path, writer.into_bytes())?;
        paths.push(path);
    }
    // An empty cycle still produces one (traceless) file so that a
    // corpus open always has something to map.
    if paths.is_empty() {
        let path = dir.join(format!("{stem}.000.warts"));
        let mut writer = WartsWriter::new();
        let list = writer.list(1, stem);
        let cycle = writer.cycle_start(list, 1, 1_400_000_000);
        writer.cycle_stop(cycle, 1_400_000_600);
        std::fs::write(&path, writer.into_bytes())?;
        paths.push(path);
    }
    Ok(paths)
}
