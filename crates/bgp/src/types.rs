//! Fundamental BGP value types: AS numbers, router ids, IPv4 prefixes,
//! communities.

use core::fmt;
use core::str::FromStr;
use serde::{Deserialize, Serialize};

/// A 2-octet autonomous-system number (classic BGP-4 encoding).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Asn(pub u16);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// A BGP identifier (an IPv4 address in the wire format).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RouterId(pub u32);

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// An IPv4 address as a raw u32 (network byte order semantics).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Ipv4Addr(pub u32);

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

impl FromStr for Ipv4Addr {
    type Err = PrefixParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut bytes = [0u8; 4];
        for b in bytes.iter_mut() {
            let p = parts.next().ok_or(PrefixParseError::BadAddress)?;
            *b = p.parse::<u8>().map_err(|_| PrefixParseError::BadAddress)?;
        }
        if parts.next().is_some() {
            return Err(PrefixParseError::BadAddress);
        }
        Ok(Ipv4Addr(u32::from_be_bytes(bytes)))
    }
}

/// Error from parsing a prefix or address literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixParseError {
    /// Malformed dotted-quad.
    BadAddress,
    /// Missing or malformed `/len` part.
    BadLength,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::BadAddress => write!(f, "malformed IPv4 address"),
            PrefixParseError::BadLength => write!(f, "malformed prefix length"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

/// An IPv4 prefix in canonical form (host bits zeroed).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Ipv4Net {
    addr: u32,
    len: u8,
}

impl Ipv4Net {
    /// Construct a prefix, canonicalizing by masking host bits.
    /// Panics if `len > 32` — lengths come from trusted config or are
    /// validated at the wire boundary first.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Ipv4Net {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// The all-zero default route `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Net = Ipv4Net { addr: 0, len: 0 };

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// Network address (canonical, host bits zero).
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// Prefix length in bits.
    #[allow(
        clippy::len_without_is_empty,
        reason = "a prefix length is not a container size"
    )]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this prefix contains address `a`.
    pub fn contains_addr(&self, a: u32) -> bool {
        a & Self::mask(self.len) == self.addr
    }

    /// Whether this prefix covers `other` (equal or less specific).
    pub fn covers(&self, other: &Ipv4Net) -> bool {
        self.len <= other.len && self.contains_addr(other.addr)
    }

    /// Whether the two prefixes overlap at all.
    pub fn overlaps(&self, other: &Ipv4Net) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The number of bytes needed to encode this prefix's significant bits
    /// in NLRI form.
    pub fn nlri_bytes(&self) -> usize {
        self.len as usize / 8 + usize::from(!self.len.is_multiple_of(8))
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", b[0], b[1], b[2], b[3], self.len)
    }
}

impl FromStr for Ipv4Net {
    type Err = PrefixParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s.split_once('/').ok_or(PrefixParseError::BadLength)?;
        let addr: Ipv4Addr = addr_s.parse()?;
        let len: u8 = len_s.parse().map_err(|_| PrefixParseError::BadLength)?;
        if len > 32 {
            return Err(PrefixParseError::BadLength);
        }
        Ok(Ipv4Net::new(addr.0, len))
    }
}

/// A BGP community value (RFC 1997), conventionally displayed as `asn:tag`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Community(pub u32);

impl Community {
    /// Build from the conventional `asn:value` pair.
    pub fn from_pair(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high 16 bits (conventionally an ASN).
    pub fn asn_part(&self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low 16 bits.
    pub fn value_part(&self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn_part(), self.value_part())
    }
}

impl FromStr for Community {
    type Err = PrefixParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, v) = s.split_once(':').ok_or(PrefixParseError::BadAddress)?;
        let a: u16 = a.parse().map_err(|_| PrefixParseError::BadAddress)?;
        let v: u16 = v.parse().map_err(|_| PrefixParseError::BadAddress)?;
        Ok(Community::from_pair(a, v))
    }
}

/// Convenience constructor: parse a prefix literal, panicking on error.
/// For tests and examples.
pub fn net(s: &str) -> Ipv4Net {
    s.parse()
        .unwrap_or_else(|e| panic!("bad prefix {s:?}: {e}"))
}

/// Convenience constructor: parse an address literal, panicking on error.
pub fn addr(s: &str) -> Ipv4Addr {
    s.parse()
        .unwrap_or_else(|e| panic!("bad address {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_canonicalizes_host_bits() {
        let p = Ipv4Net::new(0x0A01_02FF, 24);
        assert_eq!(p.addr(), 0x0A01_0200);
        assert_eq!(p.to_string(), "10.1.2.0/24");
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.128/25", "1.2.3.4/32"] {
            let p: Ipv4Net = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Net>().is_err());
        assert!("a.b.c.d/8".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.256/8".parse::<Ipv4Net>().is_err());
        assert!("1.2.3.4.5/8".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn covers_and_overlaps() {
        let p8 = net("10.0.0.0/8");
        let p16 = net("10.1.0.0/16");
        let other = net("11.0.0.0/8");
        assert!(p8.covers(&p16));
        assert!(!p16.covers(&p8));
        assert!(p8.overlaps(&p16));
        assert!(p16.overlaps(&p8));
        assert!(!p8.overlaps(&other));
        assert!(p8.covers(&p8));
    }

    #[test]
    fn default_route_contains_everything() {
        assert!(Ipv4Net::DEFAULT.contains_addr(0));
        assert!(Ipv4Net::DEFAULT.contains_addr(u32::MAX));
        assert!(Ipv4Net::DEFAULT.covers(&net("203.0.113.0/24")));
    }

    #[test]
    fn nlri_byte_counts() {
        assert_eq!(net("0.0.0.0/0").nlri_bytes(), 0);
        assert_eq!(net("10.0.0.0/8").nlri_bytes(), 1);
        assert_eq!(net("10.1.0.0/15").nlri_bytes(), 2);
        assert_eq!(net("10.1.0.0/16").nlri_bytes(), 2);
        assert_eq!(net("10.1.1.0/17").nlri_bytes(), 3);
        assert_eq!(net("10.1.1.1/32").nlri_bytes(), 4);
    }

    #[test]
    fn community_pair_roundtrip() {
        let c = Community::from_pair(65001, 42);
        assert_eq!(c.asn_part(), 65001);
        assert_eq!(c.value_part(), 42);
        assert_eq!(c.to_string(), "65001:42");
        assert_eq!("65001:42".parse::<Community>().unwrap(), c);
    }

    #[test]
    fn addr_display_roundtrip() {
        let a = addr("192.0.2.1");
        assert_eq!(a.to_string(), "192.0.2.1");
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn overlong_prefix_panics() {
        Ipv4Net::new(0, 33);
    }
}
