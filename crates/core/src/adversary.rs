//! Malicious-SP behaviours for the §V-D security analysis.
//!
//! Each function takes an honest [`QueryResponse`] and mutates it the way a
//! cheating SP would, covering the three attack cases of Theorem 1:
//!
//! 1. forging the BoVW vector (tampering MRKD disclosures);
//! 2. forging the top-k set (swapping winners, tampering postings or
//!    filters);
//! 3. returning fake image data (with a stale or forged signature).
//!
//! Integration and unit tests assert the client rejects every one of them.

use crate::scheme::{BovwVoVariant, InvVoVariant, QueryVo};
use crate::sp::QueryResponse;
use imageproof_crypto::Signature;
use imageproof_invindex::InvVoOf;
use imageproof_mrkd::{BovwVo, Reveal, VoNode, VoTree};

/// Case 3: replace the first result's raw bytes (keeping its signature).
pub fn tamper_image_data(response: &mut QueryResponse) {
    let first = response.results.first_mut().expect("response has results");
    first.data[0] ^= 0xFF;
}

/// Case 3: replace the first result's signature with garbage.
pub fn forge_image_signature(response: &mut QueryResponse) {
    let QueryVo { signatures, .. } = &mut response.vo;
    signatures[0] = Signature::from_bytes([0x42; 64]);
}

/// Case 2: swap the first result for a different image of the database
/// (with that image's own *valid* payload and signature) while leaving the
/// inverted-index VO untouched — a "plausible" substitution attack.
pub fn substitute_result(
    response: &mut QueryResponse,
    substitute_id: u64,
    substitute_data: Vec<u8>,
    substitute_sig: Signature,
) {
    let first = response.results.first_mut().expect("response has results");
    first.id = substitute_id;
    first.data = substitute_data;
    response.vo.signatures[0] = substitute_sig;
}

/// Case 2: tamper a popped posting's impact value in the inverted VO.
pub fn tamper_posting(response: &mut QueryResponse) -> bool {
    fn first_popped<E>(vo: &mut InvVoOf<E>) -> Option<&mut E> {
        vo.lists.iter_mut().find_map(|l| l.popped.first_mut())
    }
    match &mut response.vo.inv {
        InvVoVariant::Plain(vo) => first_popped(vo).map(|p| p.1 *= 0.5).is_some(),
        InvVoVariant::Grouped(vo) => first_popped(vo).map(|g| g.members[0].1 *= 2.0).is_some(),
    }
}

/// Case 1: tamper a revealed centroid coordinate in the BoVW VO's cluster
/// table (every leaf naming the row then hashes the forged coordinates).
pub fn tamper_bovw_centroid(response: &mut QueryResponse) -> bool {
    fn tamper(vo: &mut BovwVo) -> bool {
        vo.clusters.iter_mut().any(|row| match &mut row.reveal {
            Reveal::Full { coords } | Reveal::FullCompressed { coords } => {
                coords[0] += 0.5;
                true
            }
            Reveal::Partial { .. } => false,
        })
    }
    match &mut response.vo.bovw {
        BovwVoVariant::Shared(vo) => tamper(vo),
        BovwVoVariant::PerQuery(vo) => vo.per_query.iter_mut().any(tamper),
    }
}

/// Case 1: tamper a splitting hyperplane in the BoVW VO (changes the
/// reconstructed root).
pub fn tamper_bovw_split(response: &mut QueryResponse) -> bool {
    fn tamper(tree: &mut VoTree) -> bool {
        let split = tree
            .nodes()
            .iter()
            .enumerate()
            .find_map(|(at, node)| match node {
                VoNode::Internal { dim, value, .. } => Some((at, *dim, *value)),
                VoNode::Pruned(_) | VoNode::Leaf(_) => None,
            });
        let Some((at, dim, value)) = split else {
            return false;
        };
        *tree = tree.splice(at..at + 1, |b| {
            b.internal(dim, value + 0.125);
        });
        true
    }
    match &mut response.vo.bovw {
        BovwVoVariant::Shared(vo) => tamper(&mut vo.tree),
        BovwVoVariant::PerQuery(vo) => vo.per_query.iter_mut().any(|q| tamper(&mut q.tree)),
    }
}
