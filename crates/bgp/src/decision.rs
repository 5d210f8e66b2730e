//! The BGP decision process (RFC 4271 §9.1): rank candidate routes and
//! report *which step* was decisive.
//!
//! The decisive step matters to DiCE twice over: the Loc-RIB keeps it
//! beside each best route ([`Selected::reason`](crate::rib::Selected)),
//! and the concolic handler marks the "is this route preferred" condition
//! symbolic to explore both outcomes of route selection (§3 of the paper).

use crate::rib::Route;
use serde::{Deserialize, Serialize};

/// Which step of the decision process selected the winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionReason {
    /// Only one candidate existed.
    OnlyRoute,
    /// Higher LOCAL_PREF won.
    LocalPref,
    /// Shorter AS_PATH won.
    AsPathLen,
    /// Lower ORIGIN won.
    Origin,
    /// Lower MED won (same neighbor AS).
    Med,
    /// eBGP beat iBGP.
    EbgpOverIbgp,
    /// Lower peer router-id broke the tie.
    RouterId,
    /// Lower peer address broke the final tie.
    PeerAddr,
}

/// Compare two candidate routes; `true` means `a` is preferred over `b`.
/// Also returns the decisive step.
pub fn prefer(a: &Route, b: &Route) -> (bool, DecisionReason) {
    // 1. LOCAL_PREF, higher wins.
    let (lpa, lpb) = (
        a.attrs.effective_local_pref(),
        b.attrs.effective_local_pref(),
    );
    if lpa != lpb {
        return (lpa > lpb, DecisionReason::LocalPref);
    }
    // 2. AS_PATH length, shorter wins.
    let (pla, plb) = (a.attrs.as_path.path_len(), b.attrs.as_path.path_len());
    if pla != plb {
        return (pla < plb, DecisionReason::AsPathLen);
    }
    // 3. ORIGIN, lower wins (IGP < EGP < INCOMPLETE).
    if a.attrs.origin != b.attrs.origin {
        return (a.attrs.origin < b.attrs.origin, DecisionReason::Origin);
    }
    // 4. MED, lower wins, only comparable between routes from the same
    //    neighboring AS.
    if a.attrs.as_path.first_asn() == b.attrs.as_path.first_asn() {
        let (ma, mb) = (a.attrs.effective_med(), b.attrs.effective_med());
        if ma != mb {
            return (ma < mb, DecisionReason::Med);
        }
    }
    // 5. eBGP over iBGP: locally originated (None) ranks as local, which we
    //    treat as preferred over any learned route at this step.
    match (a.from_peer, b.from_peer) {
        (None, Some(_)) => return (true, DecisionReason::EbgpOverIbgp),
        (Some(_), None) => return (false, DecisionReason::EbgpOverIbgp),
        _ => {}
    }
    // 6. Lowest peer router id.
    if a.peer_router_id != b.peer_router_id {
        return (
            a.peer_router_id < b.peer_router_id,
            DecisionReason::RouterId,
        );
    }
    // 7. Lowest peer address (node id as proxy).
    let (pa, pb) = (a.from_peer.unwrap_or(0), b.from_peer.unwrap_or(0));
    (pa <= pb, DecisionReason::PeerAddr)
}

/// Pick the best route among candidates; returns the winner and the reason
/// it beat the runner-up (or [`DecisionReason::OnlyRoute`]).
pub fn select<'a>(
    candidates: impl IntoIterator<Item = &'a Route>,
) -> Option<(&'a Route, DecisionReason)> {
    let mut it = candidates.into_iter();
    let first = it.next()?;
    let mut best = first;
    let mut reason = DecisionReason::OnlyRoute;
    for cand in it {
        let (cand_wins, r) = prefer(cand, best);
        if cand_wins {
            best = cand;
            reason = r;
        } else {
            // Remember why the incumbent survived its closest challenge.
            reason = r;
        }
    }
    Some((best, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, Origin, PathAttrs};
    use crate::types::Ipv4Addr;
    use std::sync::Arc;

    fn route(f: impl FnOnce(&mut Route)) -> Route {
        let mut r = Route {
            attrs: Arc::new(PathAttrs {
                as_path: AsPath::sequence([65002]),
                next_hop: Ipv4Addr(0x0A000001),
                ..Default::default()
            }),
            from_peer: Some(1),
            peer_router_id: 1,
        };
        f(&mut r);
        r
    }

    #[test]
    fn local_pref_dominates() {
        let a = route(|r| {
            Arc::make_mut(&mut r.attrs).local_pref = Some(200);
            Arc::make_mut(&mut r.attrs).as_path = AsPath::sequence([1, 2, 3, 4]);
        });
        let b = route(|r| Arc::make_mut(&mut r.attrs).local_pref = Some(100));
        let (wins, reason) = prefer(&a, &b);
        assert!(wins, "higher LOCAL_PREF wins despite longer path");
        assert_eq!(reason, DecisionReason::LocalPref);
    }

    #[test]
    fn shorter_path_wins() {
        let a = route(|r| Arc::make_mut(&mut r.attrs).as_path = AsPath::sequence([1]));
        let b = route(|r| Arc::make_mut(&mut r.attrs).as_path = AsPath::sequence([1, 2]));
        let (wins, reason) = prefer(&a, &b);
        assert!(wins);
        assert_eq!(reason, DecisionReason::AsPathLen);
    }

    #[test]
    fn origin_ordering() {
        let a = route(|r| Arc::make_mut(&mut r.attrs).origin = Origin::Igp);
        let b = route(|r| Arc::make_mut(&mut r.attrs).origin = Origin::Incomplete);
        let (wins, reason) = prefer(&a, &b);
        assert!(wins);
        assert_eq!(reason, DecisionReason::Origin);
    }

    #[test]
    fn med_only_within_same_neighbor_as() {
        let a = route(|r| {
            Arc::make_mut(&mut r.attrs).as_path = AsPath::sequence([7, 9]);
            Arc::make_mut(&mut r.attrs).med = Some(10);
        });
        let b = route(|r| {
            Arc::make_mut(&mut r.attrs).as_path = AsPath::sequence([7, 8]);
            Arc::make_mut(&mut r.attrs).med = Some(5);
        });
        let (wins, reason) = prefer(&b, &a);
        assert!(wins, "same first AS: lower MED wins");
        assert_eq!(reason, DecisionReason::Med);

        // Different first AS: MED skipped, falls to router id.
        let c = route(|r| {
            Arc::make_mut(&mut r.attrs).as_path = AsPath::sequence([6, 9]);
            Arc::make_mut(&mut r.attrs).med = Some(999);
            r.peer_router_id = 0;
        });
        let (wins, reason) = prefer(&c, &a);
        assert!(wins);
        assert_eq!(reason, DecisionReason::RouterId);
    }

    #[test]
    fn local_origination_beats_learned() {
        let mut local = Route::local(PathAttrs::originated(Ipv4Addr(1)));
        Arc::make_mut(&mut local.attrs).local_pref = Some(100);
        let learned = route(|r| Arc::make_mut(&mut r.attrs).local_pref = Some(100));
        // Same LP; local has shorter (empty) path, which decides first.
        let (wins, reason) = prefer(&local, &learned);
        assert!(wins);
        assert_eq!(reason, DecisionReason::AsPathLen);
    }

    #[test]
    fn router_id_tiebreak() {
        let a = route(|r| r.peer_router_id = 5);
        let b = route(|r| r.peer_router_id = 9);
        let (wins, reason) = prefer(&a, &b);
        assert!(wins);
        assert_eq!(reason, DecisionReason::RouterId);
    }

    #[test]
    fn select_finds_overall_best() {
        let routes = [
            route(|r| {
                Arc::make_mut(&mut r.attrs).local_pref = Some(100);
                r.peer_router_id = 3;
            }),
            route(|r| {
                Arc::make_mut(&mut r.attrs).local_pref = Some(300);
                r.peer_router_id = 2;
            }),
            route(|r| {
                Arc::make_mut(&mut r.attrs).local_pref = Some(200);
                r.peer_router_id = 1;
            }),
        ];
        let (best, _) = select(routes.iter()).unwrap();
        assert_eq!(best.attrs.local_pref, Some(300));
    }

    #[test]
    fn select_empty_is_none() {
        assert!(select(std::iter::empty()).is_none());
    }

    #[test]
    fn select_single_is_only_route() {
        let r = route(|_| {});
        let (_, reason) = select(std::iter::once(&r)).unwrap();
        assert_eq!(reason, DecisionReason::OnlyRoute);
    }

    #[test]
    fn preference_is_total_and_antisymmetric() {
        // For distinguishable routes, exactly one direction wins.
        let a = route(|r| Arc::make_mut(&mut r.attrs).local_pref = Some(110));
        let b = route(|r| Arc::make_mut(&mut r.attrs).local_pref = Some(120));
        let (ab, _) = prefer(&a, &b);
        let (ba, _) = prefer(&b, &a);
        assert!(ab != ba);
    }
}
