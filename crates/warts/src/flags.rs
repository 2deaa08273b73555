//! The warts *flags* parameter mechanism.
//!
//! Record bodies start with a variable-length flag bitfield: a sequence
//! of bytes in which the seven low bits carry flags (flag numbers are
//! 1-based and increase from the least significant bit of the first
//! byte) and the high bit says another flag byte follows. When at least
//! one flag is set, a 16-bit *parameter length* follows the bitfield,
//! then the parameter values appear back-to-back in flag order.
//!
//! ```text
//! +---------+---------+ ... +-----------+------------------+
//! | flags₀  | flags₁  |     | param len | params in order  |
//! +---------+---------+ ... +-----------+------------------+
//!   bit7 = "more flag bytes follow"
//! ```

use crate::buf::Cursor;
use crate::error::WartsError;
use bytes::{BufMut, BytesMut};

/// Flags a [`FlagSet`] stores exactly: 1 through 63, nine bitfield
/// bytes. Every record type defines fewer (traces stop at 29).
const CAPACITY: u16 = 63;

/// A decoded flag set, stored inline (no allocation).
///
/// Flags `1..=63` are kept exactly. Of the flags past that, which no
/// record type defines, only the first is kept: decoders reject a
/// record at its first unknown flag, and flags iterate in increasing
/// order, so that one flag fails the record at the same point the full
/// bitfield would.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlagSet {
    /// Bit `n - 1` is flag `n`.
    mask: u64,
    /// The first set flag past [`CAPACITY`] (saturating at `u16::MAX`).
    overflow: Option<u16>,
}

impl FlagSet {
    /// An empty flag set.
    pub fn new() -> Self {
        FlagSet::default()
    }

    /// Sets 1-based flag `n` (at most 63: no record type defines more).
    pub fn set(&mut self, n: u16) {
        assert!((1..=CAPACITY).contains(&n), "flag {n} outside 1..={CAPACITY}");
        self.mask |= 1 << (n - 1);
    }

    /// Tests 1-based flag `n`.
    pub fn is_set(&self, n: u16) -> bool {
        match n {
            0 => false,
            1..=CAPACITY => self.mask & (1 << (n - 1)) != 0,
            _ => self.overflow == Some(n),
        }
    }

    /// True when no flag is set.
    pub fn is_empty(&self) -> bool {
        self.mask == 0 && self.overflow.is_none()
    }

    /// Unsets every flag.
    pub fn clear(&mut self) {
        *self = FlagSet::default();
    }

    /// Decodes a flag bitfield (not the parameter length) from a cursor.
    pub fn read(cur: &mut Cursor<'_>) -> Result<Self, WartsError> {
        let mut flags = FlagSet::default();
        let mut byte = 0usize;
        loop {
            let b = cur.u8("flag byte")?;
            let bits = b & 0x7f;
            let first = byte * 7; // flag number of bit 0, minus one
            if first < CAPACITY as usize {
                flags.mask |= (bits as u64) << first;
            } else if bits != 0 && flags.overflow.is_none() {
                let n = first + bits.trailing_zeros() as usize + 1;
                flags.overflow = Some(n.min(u16::MAX as usize) as u16);
            }
            if b & 0x80 == 0 {
                break;
            }
            byte += 1;
        }
        Ok(flags)
    }

    /// Encodes the flag bitfield into `buf`.
    pub fn write(&self, buf: &mut BytesMut) {
        debug_assert!(self.overflow.is_none(), "only decoded sets carry unknown flags");
        // One byte per 7 flags up to the highest set flag, at least one.
        let bytes = (64 - self.mask.leading_zeros()).div_ceil(7).max(1);
        for i in 0..bytes {
            let cont = if i + 1 < bytes { 0x80 } else { 0 };
            buf.put_u8(((self.mask >> (i * 7)) & 0x7f) as u8 | cont);
        }
    }

    /// Iterates over the set flag numbers in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u16> {
        let mut mask = self.mask;
        let known = std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let bit = mask.trailing_zeros() as u16;
            mask &= mask - 1;
            Some(bit + 1)
        });
        known.chain(self.overflow)
    }
}

/// A parameter block under construction: flag set plus parameter bytes,
/// finalised into `flags ‖ u16 len ‖ params`.
#[derive(Debug, Default)]
pub struct ParamWriter {
    flags: FlagSet,
    params: BytesMut,
}

impl ParamWriter {
    /// An empty block.
    pub fn new() -> Self {
        ParamWriter::default()
    }

    /// Marks flag `n` and returns the buffer to append its value to.
    /// Parameters **must** be added in increasing flag order; this is
    /// asserted in debug builds via the flag set shape.
    pub fn param(&mut self, n: u16) -> &mut BytesMut {
        debug_assert!(!self.flags.is_set(n), "parameter {n} added twice");
        self.flags.set(n);
        &mut self.params
    }

    /// Finalises into the on-disk layout.
    pub fn finish(mut self, out: &mut BytesMut) {
        self.finish_reset(out);
    }

    /// [`ParamWriter::finish`] for a long-lived writer: emits the block,
    /// then clears the flag set and parameter buffer while keeping both
    /// allocations, so one scratch writer serves every hop of a record
    /// (and every record of a file) without reallocating.
    pub fn finish_reset(&mut self, out: &mut BytesMut) {
        self.flags.write(out);
        if !self.flags.is_empty() {
            out.put_u16(self.params.len() as u16);
            out.put_slice(&self.params);
        }
        self.flags.clear();
        self.params.clear();
    }
}

/// Reads a flag set and, when non-empty, its parameter block; hands back
/// the flags and a sub-cursor bounded to exactly the parameter bytes.
pub fn read_params<'a>(
    cur: &mut Cursor<'a>,
    context: &'static str,
) -> Result<(FlagSet, Cursor<'a>), WartsError> {
    let flags = FlagSet::read(cur)?;
    if flags.is_empty() {
        return Ok((flags, Cursor::new(&[])));
    }
    let len = cur.u16(context)? as usize;
    let bytes = cur.bytes(len, context)?;
    Ok((flags, Cursor::new(bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_test() {
        let mut f = FlagSet::new();
        f.set(1);
        f.set(7);
        f.set(8);
        f.set(29);
        for n in [1, 7, 8, 29] {
            assert!(f.is_set(n), "flag {n}");
        }
        for n in [2, 6, 9, 28, 30] {
            assert!(!f.is_set(n), "flag {n}");
        }
    }

    #[test]
    fn wire_roundtrip_multibyte() {
        let mut f = FlagSet::new();
        f.set(3);
        f.set(14);
        f.set(15);
        let mut b = BytesMut::new();
        f.write(&mut b);
        // 15 flags need 3 bytes: first two carry the continuation bit.
        assert_eq!(b.len(), 3);
        assert_eq!(b[0] & 0x80, 0x80);
        assert_eq!(b[1] & 0x80, 0x80);
        assert_eq!(b[2] & 0x80, 0);
        let mut c = Cursor::new(&b);
        let g = FlagSet::read(&mut c).unwrap();
        assert_eq!(g, f);
    }

    #[test]
    fn empty_flagset_is_single_zero_byte() {
        let f = FlagSet::new();
        let mut b = BytesMut::new();
        f.write(&mut b);
        assert_eq!(&b[..], &[0]);
        let mut c = Cursor::new(&b);
        assert!(FlagSet::read(&mut c).unwrap().is_empty());
    }

    #[test]
    fn iter_in_order() {
        let mut f = FlagSet::new();
        for n in [9, 2, 17, 1] {
            f.set(n);
        }
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![1, 2, 9, 17]);
    }

    #[test]
    fn param_writer_layout() {
        let mut w = ParamWriter::new();
        w.param(2).put_u8(0xAA);
        w.param(5).put_u16(0x0102);
        let mut out = BytesMut::new();
        w.finish(&mut out);
        // flags byte: bits for 2 and 5 => 0b0001_0010 = 0x12
        assert_eq!(out[0], 0x12);
        // param length = 3
        assert_eq!(u16::from_be_bytes([out[1], out[2]]), 3);
        assert_eq!(&out[3..], &[0xAA, 0x01, 0x02]);
    }

    #[test]
    fn empty_param_writer_writes_zero_flag_byte_only() {
        let w = ParamWriter::new();
        let mut out = BytesMut::new();
        w.finish(&mut out);
        assert_eq!(&out[..], &[0]);
    }

    #[test]
    fn read_params_bounds_subcursor() {
        let mut w = ParamWriter::new();
        w.param(1).put_u32(42);
        let mut out = BytesMut::new();
        w.finish(&mut out);
        out.put_u8(0xFF); // next structure

        let mut c = Cursor::new(&out);
        let (flags, mut params) = read_params(&mut c, "test").unwrap();
        assert!(flags.is_set(1));
        assert_eq!(params.u32("v").unwrap(), 42);
        assert!(params.is_empty());
        // Outer cursor sits right after the param block.
        assert_eq!(c.u8("tail").unwrap(), 0xFF);
    }

    #[test]
    fn flags_past_the_inline_capacity_keep_the_first_unknown() {
        // Byte 0: flag 2. Bytes 1-10: empty. Byte 11: flags 78 and 79.
        let mut wire = vec![0x82];
        wire.extend([0x80; 10]);
        wire.push(0x03);
        let mut c = Cursor::new(&wire);
        let f = FlagSet::read(&mut c).unwrap();
        assert!(c.is_empty(), "every continuation byte consumed");
        assert!(!f.is_empty());
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![2, 78], "first unknown flag only");
        assert!(f.is_set(78));

        // Continuation bytes carrying no flag leave the set empty.
        let mut wire = vec![0x80; 15];
        wire.push(0);
        assert!(FlagSet::read(&mut Cursor::new(&wire)).unwrap().is_empty());
    }

    #[test]
    fn highest_inline_flag_roundtrips() {
        let mut f = FlagSet::new();
        f.set(1);
        f.set(63);
        let mut b = BytesMut::new();
        f.write(&mut b);
        assert_eq!(b.len(), 9);
        assert_eq!(FlagSet::read(&mut Cursor::new(&b)).unwrap(), f);
    }
}
