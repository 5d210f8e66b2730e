//! The exploration twin of the router's UPDATE path, composed once over a
//! [`Domain`] from the router's own checks: framing, [`validate_update`],
//! [`screen_path`], the import policy's `decide`, then route preference.
//! DiCE runs it on concolic values, so exploration covers code and
//! configuration together; on `Concrete` bytes it is the router's verdict.

use std::sync::Arc;

use dice_netsim::{Domain, Twin, Verdict};

use crate::attrs::SegmentKind;
use crate::policy::{screen_path, PathFault, RouteView};
use crate::router::Resolved;
use crate::types::Asn;
use crate::wire::{sites, validate_update, MessageType, UpdateSink};
use crate::wire::{HEADER_LEN, MARKER_LEN, MAX_MESSAGE_LEN};

/// One router's UPDATE handling for inputs from one neighbour, built by
/// [`BgpRouter::update_twin`](crate::BgpRouter::update_twin).
#[derive(Debug, Clone)]
pub struct UpdateTwin {
    pub(crate) shared: Arc<Resolved>,
    /// The neighbour's slot in the router's neighbour table.
    pub(crate) neighbor: usize,
}

impl UpdateTwin {
    /// The AS of the neighbour whose inputs the twin handles.
    pub fn peer_asn(&self) -> Asn {
        self.shared.import(self.neighbor).0
    }
}

/// What the import decision reads of a validated UPDATE, as the validator
/// hands it over.
struct SymUpdate<W> {
    origin: Option<W>,
    path: Vec<W>,
    /// The first and the current AS_PATH segment are AS_SETs.
    first_set: bool,
    in_set: bool,
    /// One hop per sequence member, one per set.
    hops: u32,
    communities: Vec<W>,
    /// Each announced prefix: its address (missing NLRI bytes zero-filled)
    /// and length.
    prefixes: Vec<(W, W)>,
}

impl<W> Default for SymUpdate<W> {
    fn default() -> Self {
        SymUpdate {
            origin: None,
            path: Vec::new(),
            first_set: false,
            in_set: false,
            hops: 0,
            communities: Vec::new(),
            prefixes: Vec::new(),
        }
    }
}

impl<W: Copy> UpdateSink<W> for SymUpdate<W> {
    fn origin(&mut self, v: W) {
        self.origin = Some(v);
    }

    fn segment(&mut self, kind: SegmentKind, _count: W) {
        self.in_set = kind == SegmentKind::Set;
        self.hops += self.in_set as u32;
    }

    fn asn(&mut self, asn: W) {
        if self.path.is_empty() {
            self.first_set = self.in_set;
        }
        self.hops += !self.in_set as u32;
        self.path.push(asn);
    }

    fn community(&mut self, c: W) {
        self.communities.push(c);
    }

    fn nlri(&mut self, len: W, addr: W) {
        self.prefixes.push((addr, len));
    }
}

/// A segment has at least one member (the validator requires it), so the
/// last member's segment is the last one read.
impl<W: Copy> RouteView<W> for SymUpdate<W> {
    fn members(&self) -> impl Iterator<Item = W> + '_ {
        self.path.iter().copied()
    }

    fn first(&self) -> Option<(W, bool)> {
        self.path.first().map(|&asn| (asn, self.first_set))
    }

    fn last(&self) -> Option<(W, bool)> {
        self.path.last().map(|&asn| (asn, self.in_set))
    }

    fn hops(&self) -> u32 {
        self.hops
    }

    fn communities(&self) -> impl Iterator<Item = W> + '_ {
        self.communities.iter().copied()
    }

    fn origin(&self) -> Option<W> {
        self.origin
    }
}

impl Twin for UpdateTwin {
    fn run<D: Domain>(&mut self, d: &mut D) -> Result<(), Verdict<&'static str>> {
        // Framing is concrete by the marking policy; check it plainly.
        let total = d.len();
        if !(HEADER_LEN + 4..=MAX_MESSAGE_LEN).contains(&total) {
            return Err(Verdict::Reject("framing"));
        }
        let kind = d.read_u8(MARKER_LEN + 2);
        if d.value(kind) != MessageType::Update as u64 {
            return Err(Verdict::Reject("not-update"));
        }

        let config = &self.shared.config;
        let mut update = SymUpdate::default();
        validate_update(d, config.bugs, &mut update).map_err(|v| v.map(|e| e.stage()))?;
        if update.prefixes.is_empty() {
            // Withdraw-only update: accepted trivially.
            return Ok(());
        }
        let (peer_asn, import) = self.shared.import(self.neighbor);
        match screen_path(d, &update, config.asn, peer_asn) {
            Ok(()) => {}
            Err(PathFault::Loop) => return Err(Verdict::Reject("as-loop")),
            Err(PathFault::FirstAs) => return Err(Verdict::Reject("first-as")),
        }
        for (slot, &prefix) in update.prefixes.iter().enumerate() {
            if import
                .decide(d, prefix, &update, config.asn, slot)
                .is_none()
            {
                return Err(Verdict::Reject("import-policy"));
            }
        }

        // The route-preference condition, marked symbolic (paper §3).
        let preferred = d.free_bool(true);
        d.branch(sites::PREFERENCE_ORACLE, preferred);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use dice_netsim::{Concrete, NodeId};

    use super::*;
    use crate::policy::{Match, PrefixFilter, Rule};
    use crate::{
        encode, net, AsPath, BgpRouter, Ipv4Addr, Message, PathAttrs, Policy, RawAttr,
        RouterConfig, RouterId, UpdateMsg,
    };

    fn config_with_peer() -> RouterConfig {
        RouterConfig::minimal(Asn(65001), RouterId(0x0A000001)).with_neighbor(
            NodeId(2),
            Asn(65002),
            "all",
            "all",
        )
    }

    fn update(path: &[u16], nlri: &[&str]) -> Vec<u8> {
        let attrs = PathAttrs {
            as_path: AsPath::sequence(path.iter().copied()),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: nlri.iter().map(|s| net(s)).collect(),
        }))
    }

    fn run(cfg: RouterConfig, bytes: &[u8]) -> Result<(), Verdict<&'static str>> {
        let mut twin = BgpRouter::new(cfg).update_twin(NodeId(2)).unwrap();
        twin.run(&mut Concrete(bytes))
    }

    #[test]
    fn accepts_valid_update() {
        let bytes = update(&[65002, 65003], &["10.0.0.0/8"]);
        assert_eq!(run(config_with_peer(), &bytes), Ok(()));
    }

    #[test]
    fn only_a_neighbour_has_a_twin() {
        let router = BgpRouter::new(config_with_peer());
        assert!(router.update_twin(NodeId(2)).is_some());
        assert!(router.update_twin(NodeId(3)).is_none());
    }

    #[test]
    fn rejects_as_loop() {
        // The path holds the router's own AS.
        let bytes = update(&[65002, 65001], &["10.0.0.0/8"]);
        assert_eq!(
            run(config_with_peer(), &bytes),
            Err(Verdict::Reject("as-loop"))
        );
    }

    #[test]
    fn rejects_wrong_first_as() {
        let bytes = update(&[65009], &["10.0.0.0/8"]);
        assert_eq!(
            run(config_with_peer(), &bytes),
            Err(Verdict::Reject("first-as"))
        );
    }

    #[test]
    fn policy_rejection_mirrors_engine() {
        let mut cfg = config_with_peer().with_policy(Policy {
            name: "no10".into(),
            rules: vec![Rule::reject(vec![Match::PrefixIn(vec![
                PrefixFilter::or_longer(net("10.0.0.0/8")),
            ])])],
            default: crate::Verdict::Accept,
        });
        cfg.neighbors[0].import = "no10".into();
        let rejected = update(&[65002, 65003], &["10.1.0.0/16"]);
        let accepted = update(&[65002, 65003], &["20.0.0.0/8"]);
        assert_eq!(
            run(cfg.clone(), &rejected),
            Err(Verdict::Reject("import-policy"))
        );
        assert_eq!(run(cfg, &accepted), Ok(()));
    }

    #[test]
    fn seeded_bug_reached_only_when_enabled() {
        let mut attrs = PathAttrs {
            as_path: AsPath::sequence([65002]),
            next_hop: Ipv4Addr(0x0A000002),
            ..Default::default()
        };
        attrs.unknown.push(RawAttr {
            flags: crate::attrs::flags::OPTIONAL | crate::attrs::flags::TRANSITIVE,
            code: 0xF7,
            value: vec![0xAA; 0x95],
        });
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }));
        assert_eq!(run(config_with_peer(), &bytes), Ok(()));
        let mut buggy = config_with_peer();
        buggy.bugs.attr_overflow_crash = true;
        assert!(matches!(run(buggy, &bytes), Err(Verdict::Crash(_))));
    }

    #[test]
    fn withdraw_only_accepted() {
        let bytes = encode(&Message::Update(UpdateMsg {
            withdrawn: vec![net("10.0.0.0/8")],
            attrs: None,
            nlri: vec![],
        }));
        assert_eq!(run(config_with_peer(), &bytes), Ok(()));
    }
}
