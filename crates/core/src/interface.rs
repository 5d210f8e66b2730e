//! The narrow information-sharing interface (paper §2, last challenge).
//!
//! Federated domains will not reveal RIBs, policies or configuration. What
//! crosses domain boundaries is restricted to:
//!
//! 1. **Salted attestations** of prefix ownership — `SHA-256(salt ‖ prefix ‖
//!    origin AS)`. A checker holding a route can test *membership* ("is this
//!    (prefix, origin) pair attested?") but cannot enumerate what a domain
//!    owns.
//! 2. **Local verdicts** — the boolean outcome of a check run inside the
//!    domain, with a coarse detail string; never the state that produced it.
//!
//! This mirrors DiCE's design point that property checking must work
//! without unrestricted access to remote node state.

use crate::hash::{sha256, Sha256};
use dice_bgp::{Asn, Ipv4Net};
use dice_netsim::NodeId;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a registry shares: the salt and the digests, nothing else.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Published {
    salt: [u8; 16],
    digests: BTreeSet<[u8; 32]>,
}

/// Registry of salted ownership attestations, shared among participating
/// domains (e.g. seeded from an IRR-like registry).
#[derive(Debug, Clone)]
pub struct AttestationRegistry {
    published: Published,
    /// Names these contents within this process: re-minted by every
    /// [`AttestationRegistry::attest`], kept by `clone`, never serialized.
    /// Equal stamps mean equal answers, which is what lets a checker keep
    /// answers it has already computed ([`crate::check::CheckBaseline`]).
    stamp: u64,
}

fn mint_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Relaxed: the counter publishes nothing but its own value.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// The serialized form is `Published`'s, field for field what it was before
// the stamp existed; a registry read back is a new one.
impl Serialize for AttestationRegistry {
    fn to_value(&self) -> serde::Value {
        self.published.to_value()
    }
}
impl Deserialize for AttestationRegistry {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(AttestationRegistry {
            published: Published::from_value(v)?,
            stamp: mint_stamp(),
        })
    }
}

impl AttestationRegistry {
    /// A registry with the given shared salt.
    pub fn new(salt: [u8; 16]) -> Self {
        AttestationRegistry {
            published: Published {
                salt,
                digests: BTreeSet::new(),
            },
            stamp: mint_stamp(),
        }
    }

    /// The process-local identity of this registry's contents.
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// A registry with a salt derived from a seed (for deterministic tests).
    pub fn with_seed(seed: u64) -> Self {
        let d = sha256(&seed.to_be_bytes());
        let mut salt = [0u8; 16];
        salt.copy_from_slice(&d[..16]);
        Self::new(salt)
    }

    fn digest(&self, prefix: &Ipv4Net, origin: Asn) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.published.salt);
        h.update(&prefix.addr().to_be_bytes());
        h.update(&[prefix.len()]);
        h.update(&origin.0.to_be_bytes());
        h.finalize()
    }

    /// A domain attests that `origin` legitimately originates `prefix`.
    /// Only the digest enters the registry.
    pub fn attest(&mut self, prefix: &Ipv4Net, origin: Asn) {
        let d = self.digest(prefix, origin);
        self.published.digests.insert(d);
        self.stamp = mint_stamp();
    }

    /// Membership test used by the origin-authority checker.
    pub fn is_attested(&self, prefix: &Ipv4Net, origin: Asn) -> bool {
        self.published
            .digests
            .contains(&self.digest(prefix, origin))
    }

    /// Number of attestations.
    pub fn len(&self) -> usize {
        self.published.digests.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.published.digests.is_empty()
    }
}

/// The outcome of one local check, as shared across domain boundaries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalVerdict {
    /// The node that ran the check.
    pub node: NodeId,
    /// Checker identifier ([`crate::check::Checker::name`]; borrowed, so a
    /// verdict costs no allocation to name its checker).
    pub checker: Cow<'static, str>,
    /// Whether the property held locally.
    pub ok: bool,
    /// Coarse, non-confidential detail (prefix and class only).
    pub detail: String,
}

impl LocalVerdict {
    /// A passing verdict. Allocates nothing for a `&'static str` name.
    pub fn pass(node: NodeId, checker: impl Into<Cow<'static, str>>) -> Self {
        LocalVerdict {
            node,
            checker: checker.into(),
            ok: true,
            detail: String::new(),
        }
    }

    /// A failing verdict with a coarse detail string.
    pub fn fail(
        node: NodeId,
        checker: impl Into<Cow<'static, str>>,
        detail: impl Into<String>,
    ) -> Self {
        LocalVerdict {
            node,
            checker: checker.into(),
            ok: false,
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::net;

    #[test]
    fn attestation_membership() {
        let mut reg = AttestationRegistry::with_seed(42);
        reg.attest(&net("10.0.0.0/16"), Asn(65001));
        assert!(reg.is_attested(&net("10.0.0.0/16"), Asn(65001)));
        assert!(
            !reg.is_attested(&net("10.0.0.0/16"), Asn(65002)),
            "wrong origin"
        );
        assert!(
            !reg.is_attested(&net("10.0.0.0/24"), Asn(65001)),
            "different prefix"
        );
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn salt_separates_registries() {
        let mut a = AttestationRegistry::with_seed(1);
        let mut b = AttestationRegistry::with_seed(2);
        a.attest(&net("10.0.0.0/8"), Asn(1));
        b.attest(&net("10.0.0.0/8"), Asn(1));
        // Digest sets differ even for the same fact (salted).
        let fact_in_a = a.digest(&net("10.0.0.0/8"), Asn(1));
        let fact_in_b = b.digest(&net("10.0.0.0/8"), Asn(1));
        assert_ne!(fact_in_a, fact_in_b);
    }

    #[test]
    fn digests_do_not_reveal_prefix() {
        // The registry stores only 32-byte digests: check that nothing in
        // the serialized form contains the raw prefix bytes in sequence.
        let mut reg = AttestationRegistry::with_seed(7);
        reg.attest(&net("203.0.113.0/24"), Asn(64500));
        let json = serde_json::to_string(&reg).unwrap();
        // 203.0.113.0 encoded bytes as a JSON array fragment.
        assert!(!json.contains("203,0,113"), "raw prefix must not appear");
    }

    #[test]
    fn stamp_follows_contents_not_identity() {
        let mut reg = AttestationRegistry::with_seed(7);
        let empty = reg.stamp();
        reg.attest(&net("10.0.0.0/8"), Asn(1));
        assert_ne!(reg.stamp(), empty, "new contents, new stamp");
        assert_eq!(reg.clone().stamp(), reg.stamp(), "a clone answers alike");
        assert_ne!(
            AttestationRegistry::with_seed(7).stamp(),
            empty,
            "an equal registry built separately is not assumed equal"
        );
        // The stamp never travels: same JSON as the bare salt + digests,
        // and a registry read back is a new one.
        let json = serde_json::to_string(&reg).unwrap();
        assert_eq!(json, serde_json::to_string(&reg.published).unwrap());
        let back: AttestationRegistry = serde_json::from_str(&json).unwrap();
        assert_ne!(back.stamp(), reg.stamp());
        assert!(back.is_attested(&net("10.0.0.0/8"), Asn(1)));
    }

    #[test]
    fn verdict_constructors() {
        let p = LocalVerdict::pass(NodeId(3), "oscillation");
        assert!(p.ok);
        let f = LocalVerdict::fail(NodeId(3), "origin", "hijack 10.0.0.0/24");
        assert!(!f.ok);
        assert_eq!(f.node, NodeId(3));
        assert!(f.detail.contains("10.0.0.0/24"));
        assert!(matches!(p.checker, Cow::Borrowed("oscillation")));
        let json = serde_json::to_string(&f).unwrap();
        let back: LocalVerdict = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f, "a verdict read back owns its checker name");
    }
}
