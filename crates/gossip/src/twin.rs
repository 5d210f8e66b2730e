//! The exploration twin of a gossip node's frame handling, written once
//! over a [`Domain`]: the node's own [`validate`], then what only
//! exploration needs — subscription and interest membership over the
//! node's configuration, so constraints name its constants, and a free
//! condition for the novelty the node decides from state the twin lacks.

use std::sync::Arc;

use dice_netsim::{Domain, Twin, Verdict};

use crate::node::GossipConfig;
use crate::wire::{sites, validate, Frame, TopicId, DIGEST_ENTRY_LEN};

/// One node's frame handling, built by
/// [`GossipNode::frame_twin`](crate::GossipNode::frame_twin).
#[derive(Debug, Clone)]
pub struct FrameTwin {
    config: Arc<GossipConfig>,
    /// [`GossipConfig::interests`], in its order, computed once.
    interests: Vec<TopicId>,
}

impl FrameTwin {
    pub(crate) fn new(config: Arc<GossipConfig>) -> Self {
        let interests = config.interests().into_iter().collect();
        FrameTwin { config, interests }
    }
}

/// Membership of `topic` in `set`, as a disjunction of equalities, so the
/// branch on it records every configured constant.
fn member<D: Domain>(d: &mut D, topic: D::Word, set: &[TopicId]) -> D::Bool {
    let mut any = d.lit(false);
    for &t in set {
        let eq = d.eq_const(topic, t as u64);
        any = d.bor(any, eq);
    }
    any
}

impl Twin for FrameTwin {
    fn run<D: Domain>(&mut self, d: &mut D) -> Result<(), Verdict<&'static str>> {
        let frame = validate(d, self.config.bugs).map_err(|v| v.map(|e| e.stage()))?;
        match frame {
            Frame::Rumor { topic, .. } => {
                let subscribed = member(d, topic, &self.config.subscriptions);
                d.branch(sites::RUMOR_TOPIC_SUBSCRIBED, subscribed);
                // Novelty (seen-set membership) depends on node state the
                // twin does not carry; like the BGP twin's route
                // preference, it is left free.
                let novel = d.free_bool(true);
                d.branch(sites::RUMOR_NOVEL, novel);
            }
            Frame::Digest { count } => {
                for k in 0..d.value(count) as usize {
                    let at = 2 + k * DIGEST_ENTRY_LEN;
                    let topic = d.read_u16_be(at);
                    let _id = d.read_u32_be(at + 2);
                    // Either direction is fine (unknown entries are
                    // ignored), but the branch records config constants in
                    // the path condition.
                    let known = member(d, topic, &self.interests);
                    d.branch(sites::DIGEST_ENTRY_KNOWN, known);
                }
            }
            Frame::Subscribe { .. } | Frame::Ack { .. } => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use dice_netsim::{Concrete, NodeId};

    use super::*;
    use crate::{GossipNode, BUG_COUNT_THRESHOLD, OP_DIGEST};

    #[test]
    fn seeded_bug_reached_only_when_enabled() {
        let config = GossipConfig::new(61001).with_peer(NodeId(2)).subscribe(1);
        let attack = [OP_DIGEST, BUG_COUNT_THRESHOLD];
        let run = |config: GossipConfig| {
            GossipNode::new(config)
                .frame_twin()
                .run(&mut Concrete(&attack))
        };
        assert_eq!(run(config.clone()), Err(Verdict::Reject("digest-too-long")));
        let mut buggy = config;
        buggy.bugs.digest_count_overflow = true;
        assert!(matches!(run(buggy), Err(Verdict::Crash(_))));
    }
}
