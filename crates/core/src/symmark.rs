//! Symbolic-marking policy for BGP messages (paper §3).
//!
//! DiCE's BIRD integration marks as symbolic: the NLRI region of UPDATE
//! messages (prefixes and mask lengths), and each path attribute's type,
//! length and value fields. The 19-byte message header (marker, total
//! length, type) stays concrete so generated inputs remain well-framed —
//! framing is exercised offline, message *handling* is what online testing
//! targets (insight (ii): focus on state-changing code).

use dice_bgp::wire::HEADER_LEN;

/// Produce the symbolic mask for a BGP message: header concrete, entire
/// body (withdrawn routes, path attributes, NLRI) symbolic.
pub fn mark_update(bytes: &[u8]) -> Vec<bool> {
    let mut mask = vec![false; bytes.len()];
    for m in mask.iter_mut().skip(HEADER_LEN) {
        *m = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::{encode, net, AsPath, Ipv4Addr, Message, PathAttrs, UpdateMsg};

    fn sample_update() -> Vec<u8> {
        let attrs = PathAttrs {
            as_path: AsPath::sequence([65001]),
            next_hop: Ipv4Addr(0x0A000001),
            ..Default::default()
        };
        encode(&Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(attrs),
            nlri: vec![net("10.0.0.0/8")],
        }))
    }

    #[test]
    fn header_stays_concrete() {
        let bytes = sample_update();
        let mask = mark_update(&bytes);
        assert_eq!(mask.len(), bytes.len());
        assert!(mask[..HEADER_LEN].iter().all(|&m| !m));
        assert!(mask[HEADER_LEN..].iter().all(|&m| m));
    }
}
