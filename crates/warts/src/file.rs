//! File-level framing: record headers, [`Record`], [`WartsWriter`]. Files
//! are read with [`crate::WartsStreamReader`].
//!
//! Every record starts with an 8-byte header, big-endian:
//!
//! ```text
//! u16 magic (0x1205) ‖ u16 type ‖ u32 body length
//! ```

use crate::addr::{AddrTableReader, AddrTableWriter};
use crate::buf::Cursor;
use crate::cycle::{CycleRecord, CycleStopRecord};
use crate::error::WartsError;
use crate::list::ListRecord;
use crate::ping::PingRecord;
use crate::trace::TraceRecord;
use bytes::{BufMut, BytesMut};

/// The warts magic number.
pub const WARTS_MAGIC: u16 = 0x1205;

/// Record type codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u16)]
pub enum RecordType {
    /// List definition.
    List = 0x01,
    /// Cycle start.
    CycleStart = 0x02,
    /// Cycle definition (treated like a start).
    CycleDef = 0x03,
    /// Cycle stop.
    CycleStop = 0x04,
    /// Traceroute.
    Trace = 0x06,
    /// Ping.
    Ping = 0x07,
}

impl RecordType {
    /// The record type for a header's type code, if this crate decodes
    /// it.
    pub fn from_code(code: u16) -> Option<Self> {
        [
            RecordType::List,
            RecordType::CycleStart,
            RecordType::CycleDef,
            RecordType::CycleStop,
            RecordType::Trace,
            RecordType::Ping,
        ]
        .into_iter()
        .find(|t| *t as u16 == code)
    }
}

/// Decodes one record body. With `keep_unsupported` an unsupported
/// record's bytes are copied so they can be preserved for inspection;
/// without it the body stays empty and nothing is copied at all.
pub(crate) fn decode_body(
    record_type: u16,
    body: &[u8],
    addrs: &mut AddrTableReader,
    keep_unsupported: bool,
) -> Result<Record, WartsError> {
    let mut cur = Cursor::new(body);
    let record = match RecordType::from_code(record_type) {
        Some(RecordType::List) => Record::List(ListRecord::read(&mut cur)?),
        Some(RecordType::CycleStart | RecordType::CycleDef) => {
            Record::CycleStart(CycleRecord::read(&mut cur)?)
        }
        Some(RecordType::CycleStop) => Record::CycleStop(CycleStopRecord::read(&mut cur)?),
        Some(RecordType::Trace) => Record::Trace(TraceRecord::read(&mut cur, addrs)?),
        Some(RecordType::Ping) => Record::Ping(PingRecord::read(&mut cur, addrs)?),
        None => {
            let body = if keep_unsupported { body.to_vec() } else { Vec::new() };
            return Ok(Record::Unsupported { record_type, body });
        }
    };
    check_consumed(&cur, record_type, body.len())?;
    Ok(record)
}

/// A record body must be consumed exactly.
pub(crate) fn check_consumed(
    cur: &Cursor<'_>,
    record_type: u16,
    declared: usize,
) -> Result<(), WartsError> {
    if cur.is_empty() {
        Ok(())
    } else {
        Err(WartsError::LengthMismatch { record_type, declared, consumed: cur.position() })
    }
}

/// One decoded record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A list definition.
    List(ListRecord),
    /// A cycle start (or cycle definition).
    CycleStart(CycleRecord),
    /// A cycle stop.
    CycleStop(CycleStopRecord),
    /// A traceroute.
    Trace(TraceRecord),
    /// A ping.
    Ping(PingRecord),
    /// A record type this implementation does not decode (e.g.
    /// tracelb, 0x0a). The body is preserved so tools can re-emit it.
    Unsupported {
        /// Raw record type code.
        record_type: u16,
        /// Raw body bytes.
        body: Vec<u8>,
    },
}

/// A writer building an in-memory warts file.
pub struct WartsWriter {
    out: BytesMut,
    addrs: AddrTableWriter,
    next_list_file_id: u32,
    next_cycle_file_id: u32,
}

impl Default for WartsWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WartsWriter {
    /// An empty file.
    pub fn new() -> Self {
        WartsWriter {
            out: BytesMut::new(),
            addrs: AddrTableWriter::new(),
            next_list_file_id: 1,
            next_cycle_file_id: 1,
        }
    }

    /// Writes a record header with a zero length placeholder; the body
    /// is then encoded straight into the file buffer (no per-record
    /// allocation) and [`Self::end_record`] backpatches the length.
    fn begin_record(&mut self, record_type: RecordType) -> usize {
        self.out.put_u16(WARTS_MAGIC);
        self.out.put_u16(record_type as u16);
        self.out.put_u32(0);
        self.out.len()
    }

    /// Backpatches the length placeholder of the record whose body
    /// started at `body_start`.
    fn end_record(&mut self, body_start: usize) {
        let len = (self.out.len() - body_start) as u32;
        self.out[body_start - 4..body_start].copy_from_slice(&len.to_be_bytes());
    }

    /// Appends a list definition; returns its file-local id.
    pub fn list(&mut self, list_id: u32, name: &str) -> u32 {
        let id = self.next_list_file_id;
        self.next_list_file_id += 1;
        let rec = ListRecord { id, list_id, name: to_owned(name), descr: None, monitor: None };
        self.list_record(&rec);
        id
    }

    /// Appends a full list record.
    pub fn list_record(&mut self, rec: &ListRecord) {
        let start = self.begin_record(RecordType::List);
        rec.write(&mut self.out);
        self.end_record(start);
    }

    /// Appends a cycle start; returns its file-local id.
    pub fn cycle_start(&mut self, list_file_id: u32, cycle_id: u32, start: u32) -> u32 {
        let id = self.next_cycle_file_id;
        self.next_cycle_file_id += 1;
        let rec = CycleRecord {
            id,
            list_id: list_file_id,
            cycle_id,
            start,
            stop: None,
            hostname: None,
        };
        let at = self.begin_record(RecordType::CycleStart);
        rec.write(&mut self.out);
        self.end_record(at);
        id
    }

    /// Appends a cycle stop for a cycle's file-local id.
    pub fn cycle_stop(&mut self, cycle_file_id: u32, stop: u32) {
        let rec = CycleStopRecord { id: cycle_file_id, stop };
        let at = self.begin_record(RecordType::CycleStop);
        rec.write(&mut self.out);
        self.end_record(at);
    }

    /// Appends a traceroute record.
    pub fn trace(&mut self, rec: &TraceRecord) {
        let at = self.begin_record(RecordType::Trace);
        rec.write(&mut self.out, &mut self.addrs);
        self.end_record(at);
    }

    /// Appends a ping record.
    pub fn ping(&mut self, rec: &PingRecord) {
        let at = self.begin_record(RecordType::Ping);
        rec.write(&mut self.out, &mut self.addrs);
        self.end_record(at);
    }

    /// Finishes the file and hands back its bytes (no copy).
    pub fn into_bytes(self) -> Vec<u8> {
        self.out.into_vec()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

fn to_owned(s: &str) -> String {
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::stream::{StreamError, WartsStreamReader};
    use crate::trace::{HopRecord, StopReason};
    use std::net::Ipv4Addr;

    fn a(o: u8) -> Addr {
        Addr::V4(Ipv4Addr::new(10, 0, 0, o))
    }

    fn sample_file() -> Vec<u8> {
        let mut w = WartsWriter::new();
        let list = w.list(1, "default");
        let cycle = w.cycle_start(list, 42, 1_400_000_000);
        let mut t = TraceRecord::new(a(1), a(9));
        t.stop_reason = StopReason::Completed;
        t.hops = vec![HopRecord::reply(1, a(2), 100), HopRecord::reply(2, a(9), 300)];
        w.trace(&t);
        w.trace(&t); // same addresses -> dictionary reuse
        w.cycle_stop(cycle, 1_400_003_600);
        w.into_bytes()
    }

    fn read_all(bytes: &[u8]) -> Result<Vec<Record>, StreamError> {
        WartsStreamReader::new(bytes).collect()
    }

    /// Every IPv4 trace of `bytes`, read with `next_trace_into`.
    fn core_traces(bytes: &[u8]) -> Vec<lpr_core::trace::Trace> {
        let unspecified = Ipv4Addr::UNSPECIFIED;
        let mut trace = lpr_core::trace::Trace::new(unspecified, unspecified);
        let mut r = WartsStreamReader::new(bytes);
        let mut out = Vec::new();
        while let Some(decoded) = r.next_trace_into(&mut trace).unwrap() {
            assert!(matches!(decoded, crate::Decoded::Trace), "{decoded:?}");
            out.push(trace.clone());
        }
        out
    }

    #[test]
    fn read_back_all_records() {
        let recs = read_all(&sample_file()).unwrap();
        assert_eq!(recs.len(), 5);
        assert!(matches!(recs[0], Record::List(_)));
        assert!(matches!(recs[1], Record::CycleStart(_)));
        assert!(matches!(recs[2], Record::Trace(_)));
        assert!(matches!(recs[3], Record::Trace(_)));
        assert!(matches!(recs[4], Record::CycleStop(_)));
        if let (Record::Trace(t1), Record::Trace(t2)) = (&recs[2], &recs[3]) {
            assert_eq!(t1, t2);
            assert_eq!(t1.stop_reason, StopReason::Completed);
        }
    }

    #[test]
    fn trace_reads_skip_non_trace_records() {
        let traces = core_traces(&sample_file());
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].hops.len(), 2);
    }

    #[test]
    fn second_trace_is_smaller_thanks_to_dictionary() {
        let mut w = WartsWriter::new();
        let mut t = TraceRecord::new(a(1), a(9));
        t.hops = vec![HopRecord::reply(1, a(2), 100)];
        w.trace(&t);
        let after_first = w.len();
        w.trace(&t);
        let second = w.len() - after_first;
        assert!(second < after_first, "{second} !< {after_first}");
    }

    #[test]
    fn bad_magic_reported_with_offset() {
        let mut bytes = sample_file();
        bytes[0] = 0xFF;
        let mut r = WartsStreamReader::new(bytes.as_slice());
        assert!(matches!(
            r.next_record(),
            Err(StreamError::Decode(WartsError::BadMagic { offset: 0, found: 0xFF05 }))
        ));
        // Reader is poisoned afterwards.
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn truncated_file_is_an_error() {
        let bytes = sample_file();
        assert!(read_all(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn unsupported_record_is_preserved() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&0x0Au16.to_be_bytes()); // tracelb
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = WartsStreamReader::new(bytes.as_slice());
        match r.next_record().unwrap().unwrap() {
            Record::Unsupported { record_type, body } => {
                assert_eq!(record_type, 0x0A);
                assert_eq!(body, vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn ping_records_interleave_with_traces() {
        let mut w = WartsWriter::new();
        let list = w.list(1, "mixed");
        let cycle = w.cycle_start(list, 1, 0);
        let mut t = TraceRecord::new(a(1), a(9));
        t.hops = vec![HopRecord::reply(1, a(2), 100)];
        w.trace(&t);
        let mut p = crate::ping::PingRecord::new(a(1), a(9));
        // Ping reply reuses an address the trace embedded: the shared
        // dictionary must resolve it.
        p.replies = vec![crate::ping::PingReply::echo(a(9), 4242)];
        w.ping(&p);
        w.cycle_stop(cycle, 1);
        let bytes = w.into_bytes();

        let recs = read_all(&bytes).unwrap();
        assert!(matches!(recs[2], Record::Trace(_)));
        match &recs[3] {
            Record::Ping(ping) => {
                assert_eq!(ping.replies.len(), 1);
                assert_eq!(ping.replies[0].addr, a(9));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Trace reads still skip pings.
        assert_eq!(core_traces(&bytes).len(), 1);

        // The other direction: a ping embeds an address the file has not
        // seen yet and a later trace references it. Ping bodies add to
        // the file-wide dictionary, so a reader must decode pings even
        // when it only wants traces.
        let mut w = WartsWriter::new();
        let mut p = crate::ping::PingRecord::new(a(1), a(9));
        p.replies = vec![crate::ping::PingReply::echo(a(77), 4242)];
        w.ping(&p);
        t.hops = vec![HopRecord::reply(1, a(77), 100)];
        w.trace(&t);
        let traces = core_traces(&w.into_bytes());
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].hops[0].addr, Some(Ipv4Addr::new(10, 0, 0, 77)));
    }

    #[test]
    fn length_mismatch_detected() {
        // A list record with one stray trailing byte inside the body.
        let rec = ListRecord { id: 1, list_id: 1, name: "x".into(), ..Default::default() };
        let mut body = BytesMut::new();
        rec.write(&mut body);
        body.put_u8(0xEE);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&(RecordType::List as u16).to_be_bytes());
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&body);
        let mut r = WartsStreamReader::new(bytes.as_slice());
        assert!(matches!(
            r.next_record(),
            Err(StreamError::Decode(WartsError::LengthMismatch { record_type: 1, .. }))
        ));
    }

    #[test]
    fn path_io_roundtrip() {
        let bytes = sample_file();
        let path = std::env::temp_dir().join(format!("warts-pathio-{}.warts", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let records: Vec<Record> = WartsStreamReader::new(file).collect::<Result<_, _>>().unwrap();
        assert_eq!(records, read_all(&bytes).unwrap());
        assert_eq!(records.len(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_reads_surface_decode_errors() {
        let path = std::env::temp_dir().join(format!("warts-bad-{}.warts", std::process::id()));
        std::fs::write(&path, [0xFFu8, 0x05, 0, 0]).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let err = WartsStreamReader::new(file).next_record().unwrap_err();
        assert!(
            matches!(err, StreamError::Decode(WartsError::Truncated { context: "record header" })),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_yields_nothing() {
        let mut r = WartsStreamReader::new(&[][..]);
        assert_eq!(r.next_record().unwrap(), None);
    }
}
