//! Differential property test: the instrumented UPDATE-handler twin must
//! agree with the concrete pipeline (wire decode → loop/first-AS checks →
//! import policy) on arbitrary grammar-generated and mutated messages —
//! the fidelity contract from DESIGN.md §2.

use dice_system::bgp::{decode, Asn, Message, Policy, RouterConfig, RouterId};
use dice_system::concolic::{ConcolicCtx, ConcolicProgram, RunStatus, SymInput};
use dice_system::dice::{GrammarConfig, SymbolicUpdateHandler, UpdateGrammar};
use dice_system::netsim::NodeId;
use proptest::prelude::*;

const OWN: Asn = Asn(65001);
const PEER: Asn = Asn(65002);

fn test_config(policy_variant: u8) -> RouterConfig {
    use dice_system::bgp::{Match, PrefixFilter, Rule, Verdict};
    let policy = match policy_variant % 3 {
        0 => Policy::accept_all("imp"),
        1 => Policy {
            name: "imp".into(),
            rules: vec![Rule::reject(vec![Match::PrefixIn(vec![
                PrefixFilter::or_longer(dice_system::bgp::net("10.0.0.0/8")),
            ])])],
            default: Verdict::Accept,
        },
        _ => Policy {
            name: "imp".into(),
            rules: vec![
                Rule {
                    matches: vec![Match::AsPathLenAtMost(2)],
                    actions: vec![dice_system::bgp::Action::SetLocalPref(200)],
                    verdict: Some(Verdict::Accept),
                },
                Rule::reject(vec![Match::OriginIs(dice_system::bgp::Origin::Incomplete)]),
            ],
            default: Verdict::Accept,
        },
    };
    RouterConfig::minimal(OWN, RouterId(1))
        .with_neighbor(NodeId(2), PEER, "imp", "all")
        .with_policy(policy)
}

/// The concrete reference pipeline, mirroring BgpRouter::handle_update's
/// accept/reject decision for announcements.
fn reference_verdict(cfg: &RouterConfig, bytes: &[u8]) -> Result<bool, String> {
    match decode(bytes) {
        Ok((Message::Update(u), _)) => {
            if u.nlri.is_empty() {
                return Ok(true); // withdraw-only accepted
            }
            let attrs = u.attrs.as_ref().expect("decoder enforces attrs with NLRI");
            if attrs.as_path.contains(OWN) {
                return Err("as-loop".into());
            }
            if attrs.as_path.first_asn() != Some(PEER) {
                return Err("first-as".into());
            }
            let policy = &cfg.policies["imp"];
            Ok(u.nlri.iter().all(|p| policy.apply(p, attrs, OWN).is_some()))
        }
        Ok(_) => Err("not-update".into()),
        Err(e) => Err(format!("decode:{e}")),
    }
}

fn twin_verdict(cfg: &RouterConfig, bytes: &[u8]) -> Result<bool, String> {
    let mut handler = SymbolicUpdateHandler::new(cfg.clone(), NodeId(2));
    let mut ctx = ConcolicCtx::new(SymInput::all_concrete(bytes.to_vec()));
    match handler.run(&mut ctx) {
        RunStatus::Ok => Ok(true),
        RunStatus::Rejected(stage) if stage == "import-policy" => Ok(false),
        RunStatus::Rejected(stage) => Err(stage.into_owned()),
        RunStatus::Crash(c) => Err(format!("crash:{c}")),
    }
}

proptest! {
    /// On valid grammar messages the twin and the reference agree exactly
    /// (accept vs policy-reject vs structural rejection).
    #[test]
    fn agrees_on_valid_messages(seed in any::<u64>(), variant in any::<u8>()) {
        let cfg = test_config(variant);
        let mut g = UpdateGrammar::new(GrammarConfig::for_peer(PEER), seed);
        for bytes in g.batch(10) {
            let reference = reference_verdict(&cfg, &bytes);
            let twin = twin_verdict(&cfg, &bytes);
            match (&reference, &twin) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "verdict mismatch"),
                (Err(_), Err(_)) => {} // both reject structurally
                other => prop_assert!(false, "divergence: {:?}", other),
            }
        }
    }

    /// On byte-mutated messages, accept/reject *classification* agrees:
    /// the twin accepts iff the reference accepts. (Error taxonomies may
    /// differ in wording, never in direction.)
    #[test]
    fn agrees_on_mutated_messages(
        seed in any::<u64>(),
        variant in any::<u8>(),
        mutations in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let cfg = test_config(variant);
        let mut g = UpdateGrammar::new(GrammarConfig::for_peer(PEER), seed);
        let mut bytes = g.generate();
        for (pos, val) in mutations {
            // Never corrupt the 19-byte header: the twin treats framing as
            // concrete (the marking policy keeps it fixed).
            let body = bytes.len() - 19;
            let i = 19 + (pos % body);
            bytes[i] = val;
        }
        let reference_ok = matches!(reference_verdict(&cfg, &bytes), Ok(true));
        let twin_ok = matches!(twin_verdict(&cfg, &bytes), Ok(true));
        prop_assert_eq!(reference_ok, twin_ok, "acceptance divergence on mutated input");
    }

    /// The twin is total: arbitrary bodies never panic it.
    #[test]
    fn twin_never_panics(body in prop::collection::vec(any::<u8>(), 4..256)) {
        let cfg = test_config(0);
        let mut bytes = vec![0xFF; 16];
        bytes.extend_from_slice(&((19 + body.len()) as u16).to_be_bytes());
        bytes.push(2); // UPDATE
        bytes.extend_from_slice(&body);
        let mut handler = SymbolicUpdateHandler::new(cfg, NodeId(2));
        let mask = dice_system::dice::mark_update(&bytes);
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes, mask));
        let _ = handler.run(&mut ctx);
    }
}
