//! Router configuration: sessions, originated prefixes and the named
//! [`Policy`] tables a router *interprets* at run time. DiCE's concolic
//! engine records constraints through that interpretation, so explored
//! paths cover configuration as well as code. Configurations are built in
//! code: [`RouterConfig::minimal`] plus the `with_*` builders, checked by
//! [`RouterConfig::validate`].

use crate::policy::Policy;
use crate::types::{Asn, Ipv4Net, RouterId};
use dice_netsim::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-neighbor session configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeighborConfig {
    /// Simulator node hosting the peer.
    pub node: NodeId,
    /// Expected peer AS (validated against the OPEN).
    pub asn: Asn,
    /// Name of the import policy.
    pub import: String,
    /// Name of the export policy.
    pub export: String,
}

/// Seeded-bug switches: deliberately planted defects used by the
/// fault-detection experiments. All default to off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct BugSwitches {
    /// BIRD-style signed-length defect: the parser stores the value length
    /// of unknown high-numbered attributes (type >= 0xF0) in a signed 8-bit
    /// temporary; lengths >= 0x90 overflow and trip an internal assertion,
    /// crashing the daemon (`crate::wire::validate_update`, on an
    /// established session).
    pub attr_overflow_crash: bool,
}

/// Complete configuration of one BGP router.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Own AS number.
    pub asn: Asn,
    /// BGP identifier.
    pub router_id: RouterId,
    /// Prefixes this router originates.
    pub networks: Vec<Ipv4Net>,
    /// Prefixes this router *legitimately* owns (for origin attestation).
    /// A misconfiguration may make `networks` exceed `owned` — that is the
    /// operator-mistake fault class.
    pub owned: Vec<Ipv4Net>,
    /// Neighbor sessions.
    pub neighbors: Vec<NeighborConfig>,
    /// Named policies referenced by neighbors.
    pub policies: BTreeMap<String, Policy>,
    /// Proposed hold time in seconds.
    pub hold_time: u16,
    /// Seeded-bug switches.
    pub bugs: BugSwitches,
}

impl RouterConfig {
    /// A minimal config with accept-all policies.
    pub fn minimal(asn: Asn, router_id: RouterId) -> Self {
        let mut policies = BTreeMap::new();
        policies.insert("all".to_string(), Policy::accept_all("all"));
        RouterConfig {
            asn,
            router_id,
            networks: Vec::new(),
            owned: Vec::new(),
            neighbors: Vec::new(),
            policies,
            hold_time: 90,
            bugs: BugSwitches::default(),
        }
    }

    /// Add a neighbor using the named policies.
    pub fn with_neighbor(
        mut self,
        node: NodeId,
        asn: Asn,
        import: impl Into<String>,
        export: impl Into<String>,
    ) -> Self {
        self.neighbors.push(NeighborConfig {
            node,
            asn,
            import: import.into(),
            export: export.into(),
        });
        self
    }

    /// Originate (and own) a prefix.
    pub fn with_network(mut self, n: Ipv4Net) -> Self {
        self.networks.push(n);
        if !self.owned.contains(&n) {
            self.owned.push(n);
        }
        self
    }

    /// Register a named policy.
    pub fn with_policy(mut self, p: Policy) -> Self {
        self.policies.insert(p.name.clone(), p);
        self
    }

    /// Cross-check internal consistency (policy references, duplicates).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for n in &self.neighbors {
            if !self.policies.contains_key(&n.import) {
                return Err(ConfigError::UnknownPolicy(n.import.clone()));
            }
            if !self.policies.contains_key(&n.export) {
                return Err(ConfigError::UnknownPolicy(n.export.clone()));
            }
        }
        let mut seen = Vec::new();
        for n in &self.neighbors {
            if seen.contains(&n.node) {
                return Err(ConfigError::DuplicateNeighbor(n.node));
            }
            seen.push(n.node);
        }
        Ok(())
    }

    /// Total policy complexity (for the code-vs-config experiment).
    pub fn policy_complexity(&self) -> usize {
        self.policies.values().map(|p| p.complexity()).sum()
    }
}

/// What [`RouterConfig::validate`] rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A neighbor references a policy that is not defined.
    UnknownPolicy(String),
    /// Two neighbor entries name the same node.
    DuplicateNeighbor(NodeId),
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::UnknownPolicy(p) => write!(f, "reference to undefined policy {p:?}"),
            ConfigError::DuplicateNeighbor(n) => write!(f, "duplicate neighbor {n}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_policy_reference_rejected() {
        let base = RouterConfig::minimal(Asn(1), RouterId(1));
        assert_eq!(base.validate(), Ok(()));
        for (import, export) in [("NOPE", "all"), ("all", "NOPE")] {
            let cfg = base
                .clone()
                .with_neighbor(NodeId(2), Asn(3), import, export);
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::UnknownPolicy("NOPE".to_string()))
            );
        }
    }

    #[test]
    fn duplicate_neighbor_rejected() {
        let cfg = RouterConfig::minimal(Asn(1), RouterId(1))
            .with_policy(Policy::accept_all("F"))
            .with_neighbor(NodeId(2), Asn(3), "F", "F")
            .with_neighbor(NodeId(2), Asn(4), "F", "F");
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::DuplicateNeighbor(NodeId(2)))
        );
    }
}
