//! MPLS label-stack entries (LSEs) and label stacks.
//!
//! An LSE is the 32-bit word inserted between the link-layer frame and the
//! IP packet (Fig. 1 of the paper, RFC 3032):
//!
//! ```text
//!  0                   19  22 23 24       31
//! +----------------------+---+--+-----------+
//! |        Label         | TC|S |  LSE-TTL  |
//! +----------------------+---+--+-----------+
//! ```
//!
//! * 20-bit **label** used for the exact-match forwarding lookup,
//! * 3-bit **traffic class** (QoS / ECN, RFC 5462),
//! * 1-bit **bottom-of-stack** flag,
//! * 8-bit **LSE-TTL** with the same semantics as the IP TTL.

use std::fmt;

/// A 20-bit MPLS label value.
///
/// Labels 0–15 are reserved by IANA (e.g. 0 = IPv4 explicit null,
/// 1 = router alert, 3 = implicit null used to signal penultimate-hop
/// popping). Labels allocated by LDP/RSVP-TE start at 16; the exact range
/// is vendor-specific (see the paper §2.2 and the `netsim` vendor models).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u32);

impl Label {
    /// Maximum label value (20 bits).
    pub const MAX: u32 = (1 << 20) - 1;
    /// IPv4 explicit null: pop and forward based on the IPv4 header.
    pub const IPV4_EXPLICIT_NULL: Label = Label(0);
    /// Router alert label.
    pub const ROUTER_ALERT: Label = Label(1);
    /// Implicit null: never appears on the wire; advertised by an egress
    /// LER to request penultimate-hop popping (PHP).
    pub const IMPLICIT_NULL: Label = Label(3);
    /// First label available for dynamic allocation on most platforms.
    pub const MIN_DYNAMIC: Label = Label(16);

    /// Creates a label, masking to 20 bits.
    #[inline]
    pub const fn new(value: u32) -> Self {
        Label(value & Self::MAX)
    }

    /// Raw 20-bit value.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Whether this is one of the IANA-reserved labels (0–15).
    #[inline]
    pub const fn is_reserved(self) -> bool {
        self.0 < 16
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Label {
    fn from(v: u32) -> Self {
        Label::new(v)
    }
}

/// A single MPLS label stack entry, as quoted in an RFC 4950 ICMP
/// extension or carried on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lse {
    /// The 20-bit label.
    pub label: Label,
    /// 3-bit traffic class (formerly EXP).
    pub tc: u8,
    /// Bottom-of-stack flag.
    pub bottom: bool,
    /// The 8-bit LSE TTL.
    pub ttl: u8,
}

impl Lse {
    /// Creates an LSE from its fields. `tc` is masked to 3 bits.
    #[inline]
    pub const fn new(label: Label, tc: u8, bottom: bool, ttl: u8) -> Self {
        Lse { label, tc: tc & 0x7, bottom, ttl }
    }

    /// Convenience constructor for the common transit case: best-effort
    /// traffic class, bottom of stack set.
    #[inline]
    pub const fn transit(label: u32, ttl: u8) -> Self {
        Lse { label: Label::new(label), tc: 0, bottom: true, ttl }
    }

    /// Packs the LSE into its 32-bit wire representation.
    #[inline]
    pub const fn to_u32(self) -> u32 {
        (self.label.value() << 12)
            | ((self.tc as u32) << 9)
            | ((self.bottom as u32) << 8)
            | self.ttl as u32
    }

    /// Unpacks an LSE from its 32-bit wire representation.
    #[inline]
    pub const fn from_u32(word: u32) -> Self {
        Lse {
            label: Label::new(word >> 12),
            tc: ((word >> 9) & 0x7) as u8,
            bottom: (word >> 8) & 1 == 1,
            ttl: (word & 0xff) as u8,
        }
    }
}

impl fmt::Debug for Lse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Lse({}, tc={}, s={}, ttl={})",
            self.label, self.tc, self.bottom as u8, self.ttl
        )
    }
}

/// An ordered MPLS label stack, outermost entry first.
///
/// Transit tunnels observed by the paper overwhelmingly carry a single
/// entry; stacks deeper than one appear with e.g. VPN service labels or
/// LDP-over-RSVP. The stack preserves every entry so such cases survive
/// analysis unharmed.
///
/// Up to [`LabelStack::INLINE`] entries live inline, so the common
/// stacks cost no heap allocation to build or clone; deeper stacks
/// spill to the heap. The type is no larger than a `Vec<Lse>`, and
/// equality and hashing see only the entries, never the storage.
#[derive(Clone)]
pub struct LabelStack(Repr);

#[derive(Clone)]
enum Repr {
    /// `entries[..len]` is the stack; the rest is padding.
    Inline { len: u8, entries: [Lse; LabelStack::INLINE] },
    /// More than [`LabelStack::INLINE`] entries.
    Heap(Box<[Lse]>),
}

/// Filler for unused inline slots.
const PAD: Lse = Lse::from_u32(0);

impl LabelStack {
    /// Entries stored without a heap allocation.
    pub const INLINE: usize = 2;

    /// An empty stack (an unlabelled hop).
    pub const fn empty() -> Self {
        LabelStack(Repr::Inline { len: 0, entries: [PAD; Self::INLINE] })
    }

    /// Builds a stack from entries, outermost first.
    pub fn from_entries(entries: &[Lse]) -> Self {
        if entries.len() > Self::INLINE {
            return LabelStack(Repr::Heap(entries.into()));
        }
        let mut inline = [PAD; Self::INLINE];
        inline[..entries.len()].copy_from_slice(entries);
        LabelStack(Repr::Inline { len: entries.len() as u8, entries: inline })
    }

    /// Number of entries.
    pub fn depth(&self) -> usize {
        self.entries().len()
    }

    /// True if the stack has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// The outermost (top, forwarding) entry.
    pub fn top(&self) -> Option<&Lse> {
        self.entries().first()
    }

    /// All entries, outermost first.
    pub fn entries(&self) -> &[Lse] {
        match &self.0 {
            Repr::Inline { len, entries } => &entries[..*len as usize],
            Repr::Heap(entries) => entries,
        }
    }

    /// Pushes a new outermost entry.
    pub fn push(&mut self, lse: Lse) {
        if let Repr::Inline { len, entries } = &mut self.0 {
            let n = *len as usize;
            if n < Self::INLINE {
                entries.copy_within(..n, 1);
                entries[0] = lse;
                *len += 1;
                return;
            }
        }
        let mut grown = Vec::with_capacity(self.depth() + 1);
        grown.push(lse);
        grown.extend_from_slice(self.entries());
        self.0 = Repr::Heap(grown.into_boxed_slice());
    }

    /// Pops the outermost entry.
    pub fn pop(&mut self) -> Option<Lse> {
        let (&top, rest) = self.entries().split_first()?;
        *self = LabelStack::from_entries(rest);
        Some(top)
    }

    /// Swaps the outermost label in place, keeping TC/S/TTL.
    pub fn swap_top(&mut self, label: Label) {
        let entries = match &mut self.0 {
            Repr::Inline { len, entries } => &mut entries[..*len as usize],
            Repr::Heap(entries) => &mut entries[..],
        };
        if let Some(top) = entries.first_mut() {
            top.label = label;
        }
    }

    /// The sequence of label *values* (ignoring TC/S/TTL), outermost
    /// first. This is the signature LPR compares: TTLs obviously differ
    /// hop to hop and say nothing about the FEC.
    pub fn label_values(&self) -> Vec<Label> {
        self.entries().iter().map(|l| l.label).collect()
    }
}

impl Default for LabelStack {
    fn default() -> Self {
        LabelStack::empty()
    }
}

impl PartialEq for LabelStack {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for LabelStack {}

impl std::hash::Hash for LabelStack {
    /// Hashes exactly as the entry slice (and so as a `Vec<Lse>`) does.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
    }
}

impl fmt::Debug for LabelStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, l) in self.entries().iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            write!(f, "{}", l.label)?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Lse> for LabelStack {
    fn from_iter<T: IntoIterator<Item = Lse>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let mut inline = [PAD; Self::INLINE];
        for (n, slot) in inline.iter_mut().enumerate() {
            match iter.next() {
                Some(lse) => *slot = lse,
                None => return LabelStack(Repr::Inline { len: n as u8, entries: inline }),
            }
        }
        match iter.next() {
            None => LabelStack(Repr::Inline { len: Self::INLINE as u8, entries: inline }),
            Some(lse) => {
                let mut spilled = inline.to_vec();
                spilled.push(lse);
                spilled.extend(iter);
                LabelStack(Repr::Heap(spilled.into_boxed_slice()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_masks_to_20_bits() {
        assert_eq!(Label::new(u32::MAX).value(), Label::MAX);
        assert_eq!(Label::new(42).value(), 42);
    }

    #[test]
    fn reserved_labels() {
        assert!(Label::IPV4_EXPLICIT_NULL.is_reserved());
        assert!(Label::IMPLICIT_NULL.is_reserved());
        assert!(!Label::MIN_DYNAMIC.is_reserved());
        assert!(!Label::new(300_000).is_reserved());
    }

    #[test]
    fn lse_roundtrip() {
        let lse = Lse::new(Label::new(0xABCDE), 5, true, 200);
        assert_eq!(Lse::from_u32(lse.to_u32()), lse);
    }

    #[test]
    fn lse_wire_layout() {
        // label=1, tc=0, s=1, ttl=255 => 0x0000_1_1FF
        let lse = Lse::new(Label::new(1), 0, true, 255);
        assert_eq!(lse.to_u32(), (1 << 12) | (1 << 8) | 0xff);
    }

    #[test]
    fn tc_masked() {
        let lse = Lse::new(Label::new(1), 0xff, false, 0);
        assert_eq!(lse.tc, 7);
    }

    #[test]
    fn stack_push_pop_order() {
        let mut s = LabelStack::empty();
        s.push(Lse::transit(10, 255));
        s.push(Lse::transit(20, 255));
        assert_eq!(s.depth(), 2);
        assert_eq!(s.top().unwrap().label.value(), 20);
        assert_eq!(s.pop().unwrap().label.value(), 20);
        assert_eq!(s.pop().unwrap().label.value(), 10);
        assert!(s.pop().is_none());
    }

    #[test]
    fn stack_swap_top() {
        let mut s = LabelStack::from_entries(&[Lse::transit(10, 250), Lse::transit(99, 250)]);
        s.swap_top(Label::new(77));
        assert_eq!(s.label_values(), vec![Label::new(77), Label::new(99)]);
        // TTL preserved by swap.
        assert_eq!(s.top().unwrap().ttl, 250);
    }

    #[test]
    fn label_values_ignore_ttl() {
        let a = LabelStack::from_entries(&[Lse::transit(10, 250)]);
        let b = LabelStack::from_entries(&[Lse::transit(10, 12)]);
        assert_eq!(a.label_values(), b.label_values());
        assert_ne!(a, b);
    }
    #[test]
    fn stack_is_no_larger_than_a_vec() {
        assert!(std::mem::size_of::<LabelStack>() <= std::mem::size_of::<Vec<Lse>>());
    }

    /// Reference model: a plain `Vec<Lse>`, outermost entry first.
    fn model_push(v: &mut Vec<Lse>, lse: Lse) {
        v.insert(0, lse);
    }

    fn hash_of<T: std::hash::Hash>(t: &T) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(t)
    }

    #[test]
    fn ops_agree_with_a_vec_across_the_inline_boundary() {
        let mut s = LabelStack::empty();
        let mut v: Vec<Lse> = Vec::new();
        // Grow through the inline capacity into the heap and back.
        for i in 0..(LabelStack::INLINE as u32 + 3) {
            let lse = Lse::new(Label::new(100 + i), (i % 8) as u8, i == 0, 250 - i as u8);
            s.push(lse);
            model_push(&mut v, lse);
            assert_eq!(s.entries(), &v[..], "after push {i}");
            assert_eq!(s.depth(), v.len());
            assert_eq!(s.top(), v.first());
            assert_eq!(s.label_values(), v.iter().map(|l| l.label).collect::<Vec<_>>());
            assert_eq!(hash_of(&s), hash_of(&v), "hash equals the Vec hash at depth {}", v.len());
            let rebuilt = LabelStack::from_entries(&v);
            assert_eq!(rebuilt, s);
            assert_eq!(hash_of(&rebuilt), hash_of(&s));
            assert_eq!(v.iter().copied().collect::<LabelStack>(), s);

            let mut swapped = s.clone();
            swapped.swap_top(Label::new(7));
            let mut sv = v.clone();
            sv[0].label = Label::new(7);
            assert_eq!(swapped.entries(), &sv[..]);
            assert_ne!(swapped, s);
        }
        while let Some(top) = s.pop() {
            assert_eq!(top, v.remove(0));
            assert_eq!(s.entries(), &v[..]);
            assert_eq!(hash_of(&s), hash_of(&v));
        }
        assert!(v.is_empty());
        assert_eq!(s, LabelStack::empty());
        assert_eq!(hash_of(&s), hash_of(&LabelStack::default()));
    }

    #[test]
    fn equality_ignores_storage() {
        // A stack popped back down from the heap equals one built inline.
        let deep: LabelStack = (0..5).map(|i| Lse::transit(16 + i, 9)).collect();
        let mut shrunk = deep.clone();
        for _ in 0..3 {
            shrunk.pop();
        }
        assert_eq!(shrunk, LabelStack::from_entries(&deep.entries()[3..]));
        assert_ne!(shrunk, deep);
    }
}

