//! Grammar-based fuzzing of BGP UPDATE messages (paper insight (iii)).
//!
//! Systematic path exploration needs *small* inputs; variety comes from a
//! grammar that produces a large number of valid-by-construction messages.
//! The generator drives `dice_bgp::wire::encode`, so everything it emits is
//! structurally well-formed — the concolic layer is what mutates messages
//! *out* of the valid space along real code paths.

use dice_bgp::{
    AsPath, Asn, Community, Ipv4Addr, Ipv4Net, Message, Origin, PathAttrs, RawAttr, UpdateMsg,
};
use dice_netsim::SimRng;

/// The first of the origin ASes that terminate paths.
const ASN_POOL_BASE: u16 = 64900;
/// How many consecutive origin ASes, from [`ASN_POOL_BASE`], there are.
const ASN_POOL_LEN: usize = 8;
/// The /8 bases prefixes are derived from.
const PREFIX_BASES: [u8; 7] = [10, 20, 30, 172, 192, 198, 203];
/// Maximum NLRI entries per message.
const MAX_NLRI: u64 = 3;
/// Probability of a withdraw section.
const WITHDRAW_PROB: f64 = 0.2;
/// Probability of attaching an unknown transitive attribute.
const UNKNOWN_ATTR_PROB: f64 = 0.15;

/// The grammar-based UPDATE generator. Deterministic in its RNG.
#[derive(Debug)]
pub struct UpdateGrammar {
    /// The AS that "sends" the message (first AS in the path, so the
    /// first-AS check passes).
    peer_asn: Asn,
    rng: SimRng,
}

impl UpdateGrammar {
    /// A generator of UPDATEs as `peer_asn` sends them.
    pub fn new(peer_asn: Asn, seed: u64) -> Self {
        UpdateGrammar {
            peer_asn,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "rng.index(len) returns a value below len by contract"
    )]
    fn random_prefix(&mut self) -> Ipv4Net {
        let base = PREFIX_BASES[self.rng.index(PREFIX_BASES.len())];
        let len = 8 + self.rng.below(17) as u8; // /8 ..= /24
        let addr = ((base as u32) << 24) | (self.rng.next_u32() & 0x00FF_FF00);
        Ipv4Net::new(addr, len)
    }

    fn random_as_path(&mut self) -> AsPath {
        let hops = 1 + self.rng.below(3) as usize;
        let mut asns = vec![self.peer_asn.0];
        for _ in 0..hops {
            let a = ASN_POOL_BASE + self.rng.index(ASN_POOL_LEN) as u16;
            if !asns.contains(&a) {
                asns.push(a);
            }
        }
        AsPath::sequence(asns)
    }

    /// Generate one valid UPDATE message (wire bytes).
    pub fn generate(&mut self) -> Vec<u8> {
        let mut attrs = PathAttrs {
            origin: match self.rng.below(3) {
                0 => Origin::Igp,
                1 => Origin::Egp,
                _ => Origin::Incomplete,
            },
            as_path: self.random_as_path(),
            next_hop: Ipv4Addr(0x0A00_0000 | (1 + self.rng.below(250) as u32)),
            ..Default::default()
        };
        if self.rng.chance(0.3) {
            attrs.med = Some(self.rng.below(200) as u32);
        }
        if self.rng.chance(0.3) {
            let n = 1 + self.rng.below(3);
            for _ in 0..n {
                attrs.communities.insert(Community::from_pair(
                    65000 + self.rng.below(16) as u16,
                    self.rng.below(1000) as u16,
                ));
            }
        }
        if self.rng.chance(UNKNOWN_ATTR_PROB) {
            // Unknown transitive attribute with a *small* value — the
            // grammar stays in the benign range; only the concolic layer
            // will push the length into the overflow region.
            let len = 1 + self.rng.below(48) as usize;
            let mut value = vec![0u8; len];
            self.rng.fill_bytes(&mut value);
            attrs.unknown.push(RawAttr {
                flags: dice_bgp::attrs::flags::OPTIONAL | dice_bgp::attrs::flags::TRANSITIVE,
                code: 0xE0 + self.rng.below(16) as u8,
                value,
            });
        }
        let nlri_count = 1 + self.rng.below(MAX_NLRI) as usize;
        let mut nlri = Vec::with_capacity(nlri_count);
        for _ in 0..nlri_count {
            nlri.push(self.random_prefix());
        }
        let withdrawn = if self.rng.chance(WITHDRAW_PROB) {
            vec![self.random_prefix()]
        } else {
            vec![]
        };
        dice_bgp::encode(&Message::Update(UpdateMsg {
            withdrawn,
            attrs: Some(attrs),
            nlri,
        }))
    }

    /// Generate a batch of messages.
    pub fn batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| self.generate()).collect()
    }

    /// A "test-suite" seed exercising the unknown-attribute path with a
    /// *large* (but benign: code < 0xF0, so outside the defect's trigger
    /// window) value. Gives the concolic layer a message whose attribute
    /// region is big enough that flipping the high-code branch reaches the
    /// seeded-overflow region — the Oasis insight that exploration should
    /// start from the test suite's interesting inputs.
    pub fn generate_large_unknown(&mut self) -> Vec<u8> {
        let mut attrs = PathAttrs {
            origin: Origin::Igp,
            as_path: AsPath::sequence([self.peer_asn.0]),
            next_hop: Ipv4Addr(0x0A00_0001),
            ..Default::default()
        };
        let mut value = vec![0u8; 0xA0];
        self.rng.fill_bytes(&mut value);
        attrs.unknown.push(RawAttr {
            flags: dice_bgp::attrs::flags::OPTIONAL | dice_bgp::attrs::flags::TRANSITIVE,
            code: 0xE0 + self.rng.below(16) as u8,
            value,
        });
        dice_bgp::encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![self.random_prefix()],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::decode;

    #[test]
    fn everything_generated_is_wire_valid() {
        let mut g = UpdateGrammar::new(Asn(65002), 7);
        for bytes in g.batch(200) {
            let (msg, used) = decode(&bytes)
                .unwrap_or_else(|e| panic!("grammar produced invalid message: {e} ({bytes:02x?})"));
            assert_eq!(used, bytes.len());
            match msg {
                Message::Update(u) => {
                    assert!(!u.nlri.is_empty());
                    let attrs = u.attrs.expect("announcements carry attrs");
                    assert_eq!(attrs.as_path.first_asn(), Some(Asn(65002)));
                }
                other => panic!("expected update, got {other:?}"),
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = UpdateGrammar::new(Asn(65002), 42);
        let mut b = UpdateGrammar::new(Asn(65002), 42);
        assert_eq!(a.batch(50), b.batch(50));
    }

    #[test]
    fn messages_vary() {
        let mut g = UpdateGrammar::new(Asn(65002), 9);
        let batch = g.batch(50);
        let distinct: std::collections::BTreeSet<&Vec<u8>> = batch.iter().collect();
        assert!(distinct.len() > 40, "grammar should produce variety");
    }

    #[test]
    fn unknown_attrs_stay_benign() {
        let mut g = UpdateGrammar::new(Asn(65002), 11);
        for bytes in g.batch(300) {
            if let Ok((Message::Update(u), _)) = decode(&bytes) {
                if let Some(attrs) = u.attrs {
                    for raw in &attrs.unknown {
                        assert!(
                            raw.value.len() < 0x90,
                            "grammar must not trip the seeded bug by itself"
                        );
                    }
                }
            }
        }
    }
}
