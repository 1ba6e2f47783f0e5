//! Adversarial decode fuzzing: every VO / proof `Decode` impl and
//! `Client::verify` must be *total* over arbitrary byte strings — a hostile
//! SP controls every response byte, so truncated, bit-flipped, and random
//! inputs must surface as `Err(WireError)` / `Err(ClientError)`, never as a
//! panic or abort.
//!
//! Three attack modes per type:
//!   1. **Truncation** — every strict prefix of a valid encoding must `Err`
//!      (a canonical decoder reads the prefix identically and runs out).
//!   2. **Bit flips** — single-bit corruptions of a valid encoding must
//!      decode without panicking (they may legitimately decode `Ok` when the
//!      flip lands in a payload field; verification catches those).
//!   3. **Random bytes** — deterministic-PRNG garbage must decode without
//!      panicking.
//!
//! Deterministic `#[test]`s run everywhere (including the offline stub
//! toolchain); the `proptest!` block at the bottom adds randomized depth on
//! builders with the real dependency graph.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use imageproof_akm::AkmParams;
use imageproof_core::rpc::{
    ErrorClass, QueryPayload, Request, Response, TrimPayload, WireHealth, WireProfile, WireSpan,
    WireStats, MAX_FRAME_LEN,
};
use imageproof_core::{
    BovwVoVariant, Client, InvVoVariant, Owner, QueryResponse, QueryVo, Scheme, ServiceProvider,
    ShardBovw, ShardManifest, ShardVo, ShardedResponse, ShardedSp, ShardedVo, SharedSection,
};
use imageproof_crypto::wire::{Decode, Encode, WireError};
use imageproof_invindex::grouped::Group;
use imageproof_invindex::{FilterVo, InvVoOf, ListVoOf, Posting, RemainingVo};
use imageproof_mrkd::vo::MAX_VO_DEPTH;
use imageproof_mrkd::{BaselineBovwVo, BovwVo, Reveal, VoCluster, VoNode, VoTree, VoTreeBuilder};
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Deterministic corruption engine (no external RNG needed).

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&v[..n]);
        }
    }
}

/// Decodes under `catch_unwind`, converting any panic into a test failure
/// that names the offending type.
fn decode_total<T: Decode>(name: &str, bytes: &[u8]) -> Result<T, WireError> {
    catch_unwind(AssertUnwindSafe(|| T::from_wire(bytes)))
        .unwrap_or_else(|_| panic!("{name}::from_wire PANICKED on {} bytes", bytes.len()))
}

/// Caps exhaustive sweeps on large encodings: at most ~256 positions,
/// spread evenly, always including the first and last byte.
fn stride_for(len: usize) -> usize {
    (len / 256).max(1)
}

/// Runs all three attack modes against one type, seeded from a valid value.
fn fuzz_decode<T: Decode + Encode + PartialEq + std::fmt::Debug>(name: &str, sample: &T) {
    let wire = sample.to_wire();
    assert_eq!(
        &decode_total::<T>(name, &wire).unwrap_or_else(|e| panic!("{name} roundtrip: {e}")),
        sample,
        "{name}: roundtrip changed the value"
    );

    // Mode 1: truncations.
    let stride = stride_for(wire.len());
    let mut cut = 0;
    while cut < wire.len() {
        assert!(
            decode_total::<T>(name, &wire[..cut]).is_err(),
            "{name}: truncation to {cut}/{} bytes decoded Ok",
            wire.len()
        );
        cut += stride;
    }

    // Mode 2: single-bit flips (must not panic; Ok is allowed).
    let mut pos = 0;
    while pos < wire.len() {
        for bit in 0..8 {
            let mut m = wire.clone();
            m[pos] ^= 1 << bit;
            let _ = decode_total::<T>(name, &m);
        }
        pos += stride;
    }

    // Mode 3: deterministic random garbage, plus garbage-tail splices.
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15 ^ wire.len() as u64);
    for round in 0..128u64 {
        let len = (rng.next() % 192) as usize;
        let mut buf = vec![0u8; len];
        rng.fill(&mut buf);
        let _ = decode_total::<T>(name, &buf);
        // Valid prefix + garbage tail: exercises the trailing-byte check.
        if round % 4 == 0 {
            let keep = (rng.next() as usize) % (wire.len() + 1);
            let mut spliced = wire[..keep].to_vec();
            spliced.extend_from_slice(&buf);
            let _ = decode_total::<T>(name, &spliced);
        }
    }
}

// ---------------------------------------------------------------------------
// Fixture: real responses from the full pipeline, one per scheme family.

struct Fixture {
    client: Client,
    features: Vec<Vec<f32>>,
    k: usize,
    response: QueryResponse,
}

fn build_fixture(scheme: Scheme) -> Fixture {
    let corpus = Corpus::generate(&CorpusConfig {
        kind: DescriptorKind::Surf,
        n_images: 80,
        n_latent_words: 60,
        ..CorpusConfig::small(DescriptorKind::Surf)
    });
    let akm = AkmParams {
        n_clusters: 48,
        n_trees: 3,
        max_leaf_size: 2,
        max_checks: 16,
        iterations: 2,
        seed: 7,
    };
    let owner = Owner::new(&[9u8; 32]);
    let (db, published) = owner.build_system(&corpus, &akm, scheme);
    let sp = ServiceProvider::new(db);
    let client = Client::new(published);
    let features = corpus.query_from_image(17, 24, 3);
    let k = 5;
    let (response, _) = sp.query(&features, k);
    client
        .verify(&features, k, &response)
        .expect("fixture response must verify before we corrupt it");
    Fixture {
        client,
        features,
        k,
        response,
    }
}

fn fixtures() -> &'static [(Scheme, Fixture)] {
    static FIXTURES: OnceLock<Vec<(Scheme, Fixture)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [Scheme::Baseline, Scheme::ImageProof, Scheme::OptimizedBoth]
            .into_iter()
            .map(|s| (s, build_fixture(s)))
            .collect()
    })
}

// Sharded fixture: a 3-shard deployment answering the same query shape.

struct ShardedFixture {
    client: Client,
    manifest: ShardManifest,
    features: Vec<Vec<f32>>,
    k: usize,
    response: ShardedResponse,
}

fn sharded_fixture() -> &'static ShardedFixture {
    static FIXTURE: OnceLock<ShardedFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            kind: DescriptorKind::Surf,
            n_images: 80,
            n_latent_words: 60,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        let akm = AkmParams {
            n_clusters: 48,
            n_trees: 3,
            max_leaf_size: 2,
            max_checks: 16,
            iterations: 2,
            seed: 7,
        };
        let owner = Owner::new(&[9u8; 32]);
        let system = owner.build_sharded_system(&corpus, &akm, Scheme::ImageProof, 3);
        let sp = ShardedSp::new(system.shards);
        let client = Client::new(system.published);
        let features = corpus.query_from_image(17, 24, 3);
        let k = 5;
        let (response, _) = sp.query(&features, k);
        client
            .verify_sharded(&features, k, &response, &system.manifest)
            .expect("sharded fixture response must verify before we corrupt it");
        ShardedFixture {
            client,
            manifest: system.manifest,
            features,
            k,
            response,
        }
    })
}

/// The first disclosed leaf of a VO tree, as a one-node tree of its own.
fn find_leaf(tree: &VoTree) -> Option<VoTree> {
    tree.nodes().iter().find_map(|node| match node {
        VoNode::Leaf(range) => Some(
            VoTreeBuilder::default()
                .leaf(tree.ids(range).iter().copied())
                .finish(),
        ),
        _ => None,
    })
}

/// Heap bytes a decoded BoVW VO owns, by allocation capacity: the table's
/// rows and their reveals, and the tree's node arena and leaf id list.
fn bovw_heap_bytes(vo: &BovwVo) -> usize {
    use std::mem::size_of;
    fn reveal_bytes(reveal: &Reveal) -> usize {
        match reveal {
            Reveal::Full { coords } | Reveal::FullCompressed { coords } => coords.capacity() * 4,
            Reveal::Partial { blocks, proof, .. } => {
                blocks.capacity() * size_of::<(u32, Vec<f32>)>()
                    + blocks.iter().map(|(_, c)| c.capacity() * 4).sum::<usize>()
                    + proof.fill.capacity() * 32
            }
        }
    }
    vo.clusters.capacity() * size_of::<VoCluster>()
        + vo.clusters
            .iter()
            .map(|r| reveal_bytes(&r.reveal))
            .sum::<usize>()
        + vo.tree.heap_bytes()
}

// ---------------------------------------------------------------------------
// Deterministic adversarial-decode tests, one per wire type.

#[test]
fn query_vo_decoding_is_total_for_every_scheme() {
    for (scheme, fx) in fixtures() {
        fuzz_decode(&format!("QueryVo[{scheme:?}]"), &fx.response.vo);
    }
}

#[test]
fn bovw_vo_decoding_is_total() {
    for (scheme, fx) in fixtures() {
        match &fx.response.vo.bovw {
            BovwVoVariant::Shared(vo) => {
                fuzz_decode::<BovwVo>(&format!("BovwVo[{scheme:?}]"), vo);
                fuzz_decode(&format!("VoTree[{scheme:?}]"), &vo.tree);
            }
            BovwVoVariant::PerQuery(vo) => {
                fuzz_decode::<BaselineBovwVo>(&format!("BaselineBovwVo[{scheme:?}]"), vo);
            }
        }
    }
}

/// The grammar before the ADS committed a single tree — `rows · n_t ·
/// VoTree*`, one tree opened and `n_t − 1` root stubs — is not a prefix,
/// suffix or variant of today's `rows · VoNode*`: the tree count reads as a
/// node tag no node has.
#[test]
fn an_eight_tree_bovw_vo_of_the_old_grammar_is_a_clean_decode_error() {
    for (scheme, fx) in fixtures() {
        let vo: &BovwVo = match &fx.response.vo.bovw {
            BovwVoVariant::Shared(vo) => vo,
            BovwVoVariant::PerQuery(vo) => vo.per_query.first().expect("a query vector"),
        };
        let (wire, tree) = (vo.to_wire(), vo.tree.to_wire());
        let mut old = wire[..wire.len() - tree.len()].to_vec();
        old.push(8);
        old.extend(&tree);
        for stub in 0..7u8 {
            let root = imageproof_crypto::Digest::of(&[stub]);
            old.extend(VoTreeBuilder::default().pruned(root).finish().to_wire());
        }
        assert_eq!(
            decode_total::<BovwVo>(&format!("old BovwVo[{scheme:?}]"), &old),
            Err(WireError::InvalidTag(8))
        );
    }
}

#[test]
fn table_row_leaf_and_reveal_decoding_is_total() {
    let mut checked = 0;
    for (scheme, fx) in fixtures() {
        let vo: &BovwVo = match &fx.response.vo.bovw {
            BovwVoVariant::Shared(vo) => vo,
            BovwVoVariant::PerQuery(vo) => match vo.per_query.first() {
                Some(b) => b,
                None => continue,
            },
        };
        let leaf = find_leaf(&vo.tree).expect("a disclosed leaf");
        fuzz_decode(&format!("VoTree leaf[{scheme:?}]"), &leaf);
        // One row of each reveal kind the scheme produces (`Discriminant`
        // is not `Ord`, so the seen set is a Vec).
        let mut kinds = Vec::new();
        for row in &vo.clusters {
            let kind = std::mem::discriminant(&row.reveal);
            if !kinds.contains(&kind) {
                kinds.push(kind);
                fuzz_decode(&format!("VoCluster[{scheme:?}]"), row);
                fuzz_decode::<Reveal>(&format!("Reveal[{scheme:?}]"), &row.reveal);
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 4,
        "Full, FullCompressed and Partial rows all fuzzed"
    );
}

/// Decoding must not amplify: whatever bytes decode to a `T` — honest,
/// bit-flipped, or spliced — the value's heap footprint (as `heap` counts
/// it) stays within a small constant of the wire length: `honest_max`× for
/// the honest encoding, 16× for corrupted ones. Returns how many corrupted
/// inputs decoded.
fn assert_heap_proportional<T: Decode + Encode>(
    name: &str,
    sample: &T,
    honest_max: usize,
    heap: impl Fn(&T) -> usize,
) -> usize {
    const MAX_AMPLIFICATION: usize = 16;
    let wire = sample.to_wire();
    let honest = heap(&T::from_wire(&wire).expect("roundtrip"));
    assert!(
        honest <= honest_max * wire.len(),
        "{name}: honest VO decodes to {honest} heap bytes from {} wire bytes",
        wire.len()
    );
    let mut rng = XorShift(0xB0B0 ^ wire.len() as u64);
    let mut checked = 0;
    for _ in 0..256 {
        let mut m = wire.clone();
        // Corrupt a byte near the front, where the length prefixes and
        // tags that shape the decode live.
        let pos = (rng.next() as usize) % m.len().min(4096);
        m[pos] = rng.next() as u8;
        if let Ok(decoded) = decode_total::<T>(name, &m) {
            let heap = heap(&decoded);
            assert!(
                heap <= MAX_AMPLIFICATION * m.len(),
                "{name}: {heap} heap bytes from {} wire bytes",
                m.len()
            );
            checked += 1;
        }
    }
    checked
}

/// (A leaf naming its clusters by id costs 4 heap bytes per wire byte at
/// worst; a back-reference that cloned a 256-byte centroid per 2-byte id
/// would not pass.)
#[test]
fn decoded_bovw_heap_is_proportional_to_wire_bytes() {
    let mut checked = 0;
    for (scheme, fx) in fixtures() {
        let vos: Vec<&BovwVo> = match &fx.response.vo.bovw {
            BovwVoVariant::Shared(vo) => vec![vo],
            BovwVoVariant::PerQuery(vo) => vo.per_query.iter().take(2).collect(),
        };
        for vo in vos {
            checked +=
                assert_heap_proportional(&format!("BovwVo[{scheme:?}]"), vo, 2, bovw_heap_bytes);
        }
    }
    assert!(checked > 0, "no corrupted VO decoded; sweep too narrow");
}

/// Heap bytes a decoded inverted-index VO owns, by allocation capacity:
/// the list table, every popped prefix (plus what each entry owns), and
/// the filter bytes of every skip proof.
fn inv_heap_bytes<E>(vo: &InvVoOf<E>, entry_heap: impl Fn(&E) -> usize) -> usize {
    use std::mem::size_of;
    let list_bytes = |l: &ListVoOf<E>| {
        let filter = match &l.remaining {
            RemainingVo::Skipped {
                filter: FilterVo::Bytes(bytes),
                ..
            } => bytes.capacity(),
            _ => 0,
        };
        l.popped.capacity() * size_of::<E>()
            + l.popped.iter().map(&entry_heap).sum::<usize>()
            + filter
    };
    vo.lists.capacity() * size_of::<ListVoOf<E>>() + vo.lists.iter().map(list_bytes).sum::<usize>()
}

/// The same bound for both inverted-index VOs. The honest factor is 4, not
/// the BoVW VO's 2: a popped posting or group member is a padded 16-byte
/// `(u64, f32)` in memory from as few as 5 wire bytes (varint id + f32),
/// and the Baseline's VO carries no filter bytes to dilute that.
#[test]
fn decoded_inverted_vo_heap_is_proportional_to_wire_bytes() {
    let (mut plain, mut grouped) = (0, 0);
    for (scheme, fx) in fixtures() {
        match &fx.response.vo.inv {
            InvVoVariant::Plain(vo) => {
                plain += assert_heap_proportional(&format!("InvVo[{scheme:?}]"), vo, 4, |vo| {
                    inv_heap_bytes(vo, |_| 0)
                });
            }
            InvVoVariant::Grouped(vo) => {
                grouped +=
                    assert_heap_proportional(&format!("GroupedInvVo[{scheme:?}]"), vo, 4, |vo| {
                        inv_heap_bytes(vo, |g: &Group| g.members.capacity() * 16)
                    });
            }
        }
    }
    assert!(plain > 0, "no corrupted plain VO decoded; sweep too narrow");
    assert!(
        grouped > 0,
        "no corrupted grouped VO decoded; sweep too narrow"
    );
}

/// A hostile group header must be refused at the length check, before any
/// allocation is sized from it: `80 80 40` is the member count 2^20, which
/// a bare `varint` + `with_capacity(count.min(1 << 20))` turned into a
/// 16 MiB allocation from a 4-byte input.
#[test]
fn hostile_group_member_count_is_refused_before_allocation() {
    let wire = [0x01, 0x80, 0x80, 0x40];
    assert_eq!(
        decode_total::<Group>("Group", &wire),
        Err(WireError::LengthOverflow)
    );
}

/// A body at the frame cap whose count claims one item per byte left, the
/// bytes after it all `0xFF` so the first item fails at once, must decode
/// to an error. A count bounded only by the bytes left, multiplied by an
/// item's size in memory, asks for tens of GiB here (208 bytes per
/// `QueryPayload`), and a failed allocation aborts the process.
#[test]
fn a_frame_sized_hostile_count_is_an_error_not_an_abort() {
    let minimal_vo = [
        BovwVoVariant::Shared(BovwVo {
            clusters: Vec::new(),
            tree: VoTreeBuilder::default()
                .pruned(imageproof_crypto::Digest::ZERO)
                .finish(),
        })
        .to_wire(),
        InvVoVariant::Plain(InvVoOf { lists: Vec::new() }).to_wire(),
    ]
    .concat();
    let no_templates = [&2u32.to_le_bytes()[..], &0u32.to_le_bytes()].concat();
    type Case = (&'static str, Vec<u8>, fn(&[u8]) -> bool);
    let cases: [Case; 5] = [
        (
            "Response::Query payloads",
            [&[3u8][..], &7u64.to_le_bytes()].concat(),
            |b| decode_total::<Response>("Response", b).is_err(),
        ),
        ("ShardedVo shards", no_templates, |b| {
            decode_total::<ShardedVo>("ShardedVo", b).is_err()
        }),
        ("ShardedVo templates", 2u32.to_le_bytes().to_vec(), |b| {
            decode_total::<ShardedVo>("ShardedVo", b).is_err()
        }),
        (
            "Request::Query queries",
            [&[3u8][..], &7u64.to_le_bytes(), &5u32.to_le_bytes(), &[0]].concat(),
            |b| decode_total::<Request>("Request", b).is_err(),
        ),
        ("QueryVo signatures", minimal_vo, |b| {
            decode_total::<QueryVo>("QueryVo", b).is_err()
        }),
    ];
    let mut body = vec![0xFFu8; MAX_FRAME_LEN];
    for (name, head, decodes_to_err) in cases {
        let count = (MAX_FRAME_LEN - head.len() - 4) as u32;
        body[..head.len()].copy_from_slice(&head);
        body[head.len()..head.len() + 4].copy_from_slice(&count.to_le_bytes());
        assert!(decodes_to_err(&body), "{name}");
        body[..head.len() + 4].fill(0xFF);
    }
}

/// Wire bytes of a VO tree that is one spine of `depth` internal nodes
/// over a stub, every other child a stub too: left-leaning puts the spine
/// in the left children (the decoder's pending stack grows with it),
/// right-leaning in the right ones (the stack stays at one entry while the
/// depth still grows).
fn spine(depth: usize, left_leaning: bool) -> Vec<u8> {
    let internal = [1u8, 3, 0, 0, 0, 0];
    let mut stub = vec![0u8];
    stub.extend([0xAB; 32]);
    let mut bytes = Vec::new();
    for _ in 0..depth {
        bytes.extend(internal);
        if !left_leaning {
            bytes.extend(&stub);
        }
    }
    bytes.extend(&stub);
    if left_leaning {
        for _ in 0..depth {
            bytes.extend(&stub);
        }
    }
    bytes
}

/// The depth cap is on a node's depth, not on the decoder's bookkeeping:
/// both leanings decode at the cap, to an arena within the amplification
/// bound of the bytes, and both are refused one level deeper — the
/// right-leaning one too, whose pending stack never exceeds one entry.
#[test]
fn vo_tree_depth_is_capped_for_both_leanings() {
    for left_leaning in [true, false] {
        let wire = spine(MAX_VO_DEPTH, left_leaning);
        let tree = decode_total::<VoTree>("VoTree", &wire).expect("a spine at the cap decodes");
        assert_eq!(tree.nodes().len(), 2 * MAX_VO_DEPTH + 1);
        assert_eq!(tree.to_wire(), wire);
        // 40 heap bytes per 6-byte internal node, doubled by `Vec` growth.
        assert!(tree.heap_bytes() <= 16 * wire.len());
        for over in [MAX_VO_DEPTH + 1, 4 * MAX_VO_DEPTH, 64 * MAX_VO_DEPTH] {
            assert_eq!(
                decode_total::<VoTree>("VoTree", &spine(over, left_leaning)),
                Err(WireError::DepthExceeded),
                "left_leaning = {left_leaning}, depth {over}"
            );
        }
    }
}

/// Internal nodes that never get their children run the decoder out of
/// bytes — up to the depth cap, past which the depth check comes first,
/// as it did when each level was a stack frame.
#[test]
fn an_internal_flood_without_children_is_an_unexpected_end() {
    let flood = |n: usize| {
        let mut bytes = spine(n, true);
        bytes.truncate(6 * n);
        decode_total::<VoTree>("VoTree", &bytes)
    };
    for n in [1, 7, MAX_VO_DEPTH] {
        assert_eq!(
            flood(n),
            Err(WireError::UnexpectedEnd),
            "{n} internal nodes"
        );
    }
    assert_eq!(flood(MAX_VO_DEPTH + 1), Err(WireError::DepthExceeded));
}

/// A leaf cannot claim more ids than the bytes behind it: a count of 2^32
/// — more than any `u32`-indexed id list could hold — is refused at the
/// length check, before a single id is read or stored.
#[test]
fn a_leaf_id_count_beyond_u32_is_refused_before_allocation() {
    let mut wire = vec![2u8, 0x80, 0x80, 0x80, 0x80, 0x10];
    assert_eq!(
        decode_total::<VoTree>("VoTree", &wire),
        Err(WireError::LengthOverflow)
    );
    wire.extend([1u8; 4096]);
    assert_eq!(
        decode_total::<VoTree>("VoTree", &wire),
        Err(WireError::LengthOverflow)
    );
}

/// A frequency beyond `u32` is an error, not a silent truncation that
/// would give two wire strings one decoded `Group`.
#[test]
fn over_range_group_frequency_is_rejected() {
    let mut w = imageproof_crypto::wire::Writer::new();
    w.varint((1u64 << 32) + 3);
    w.vseq_len(1);
    w.varint(9);
    w.f32(1.5);
    assert_eq!(
        decode_total::<Group>("Group", &w.finish()),
        Err(WireError::LengthOverflow)
    );
}

#[test]
fn inverted_index_vo_decoding_is_total() {
    let (mut plain, mut grouped) = (0, 0);
    for (scheme, fx) in fixtures() {
        match &fx.response.vo.inv {
            InvVoVariant::Plain(vo) => {
                fuzz_decode::<InvVoOf<Posting>>(&format!("InvVo[{scheme:?}]"), vo);
                if let Some(list) = vo.lists.first() {
                    fuzz_decode::<ListVoOf<Posting>>(&format!("ListVo[{scheme:?}]"), list);
                }
                plain += 1;
            }
            InvVoVariant::Grouped(vo) => {
                fuzz_decode::<InvVoOf<Group>>(&format!("GroupedInvVo[{scheme:?}]"), vo);
                if let Some(list) = vo.lists.first() {
                    fuzz_decode::<ListVoOf<Group>>(&format!("GroupedListVo[{scheme:?}]"), list);
                    if let Some(group) = list.popped.first() {
                        fuzz_decode::<Group>(&format!("Group[{scheme:?}]"), group);
                    }
                }
                grouped += 1;
            }
        }
    }
    assert!(plain > 0, "no plain inverted VO exercised");
    assert!(grouped > 0, "no grouped inverted VO exercised");
}

/// The blocked-list wire arms: every `RemainingVo` variant — exhausted,
/// skip proof with filter bytes, skip proof with filter digest — plus a
/// `ListVoOf<Posting>` carrying a skip proof, fuzzed from hand-built
/// samples so all three tags are exercised even if a particular fixture
/// happens to exhaust its lists. Shared by both entry types (one
/// `Encode`/`Decode` pair), so this also covers the grouped wire.
#[test]
fn blocked_remaining_vo_decoding_is_total() {
    use imageproof_crypto::Digest;
    let arms = [
        (
            "RemainingVo[exhausted]",
            RemainingVo::Exhausted {
                filter_digest: Digest::of(b"filter"),
            },
        ),
        (
            "RemainingVo[skipped/bytes]",
            RemainingVo::Skipped {
                max_impact: 0.75,
                fence_digest: Digest::of(b"fence"),
                filter: FilterVo::Bytes(vec![1, 2, 3, 4, 5, 6, 7, 8]),
            },
        ),
        (
            "RemainingVo[skipped/digest]",
            RemainingVo::Skipped {
                max_impact: 0.125,
                fence_digest: Digest::of(b"fence2"),
                filter: FilterVo::DigestOnly(Digest::of(b"fd")),
            },
        ),
    ];
    for (name, arm) in &arms {
        fuzz_decode(name, arm);
    }
    let list = ListVoOf::<Posting> {
        cluster: 3,
        weight: 1.5,
        popped: (0..16).map(|i| (i as u64, 2.0 - i as f32 * 0.1)).collect(),
        remaining: arms[1].1.clone(),
    };
    fuzz_decode("ListVo[skipped]", &list);

    // At least one real fixture must leave a list partially scanned, so the
    // skip-proof arm is also reached through the full pipeline.
    let skipped_in_fixtures = fixtures().iter().any(|(_, fx)| match &fx.response.vo.inv {
        InvVoVariant::Plain(vo) => vo
            .lists
            .iter()
            .any(|l| matches!(l.remaining, RemainingVo::Skipped { .. })),
        InvVoVariant::Grouped(vo) => vo
            .lists
            .iter()
            .any(|l| matches!(l.remaining, RemainingVo::Skipped { .. })),
    });
    assert!(
        skipped_in_fixtures,
        "no fixture exercises a skip proof end-to-end"
    );
}

#[test]
fn sharded_wire_types_decoding_is_total() {
    let fx = sharded_fixture();
    fuzz_decode::<ShardManifest>("ShardManifest", &fx.manifest);
    fuzz_decode::<ShardedVo>("ShardedVo", &fx.response.vo);
    fuzz_decode::<SharedSection>("SharedSection", &fx.response.vo.shared);
    let contributing = fx
        .response
        .vo
        .shards
        .iter()
        .find(|s| s.contributed > 0)
        .expect("sharded fixture has a contributing shard");
    fuzz_decode::<ShardVo>("ShardVo", contributing);
    if let Some(trimmed) = fx.response.vo.shards.iter().find(|s| s.contributed == 0) {
        fuzz_decode::<ShardVo>("ShardVo[trimmed]", trimmed);
    }
    // Both ShardBovw wire arms: the fixture's shards carry at least one
    // patched sub-VO (shared codebook ⇒ dedup applies), and resolving it
    // back yields an inline value to fuzz the other arm.
    let patched = fx
        .response
        .vo
        .shards
        .iter()
        .find(|s| matches!(s.bovw, ShardBovw::Patched { .. }))
        .expect("sharded fixture deduplicates at least one sub-VO");
    fuzz_decode::<ShardBovw>("ShardBovw[patched]", &patched.bovw);
    let inline = ShardBovw::Inline(
        patched
            .resolve_bovw(&fx.response.vo.shared)
            .expect("fixture patch resolves")
            .into_owned(),
    );
    fuzz_decode::<ShardBovw>("ShardBovw[inline]", &inline);
}

// ---------------------------------------------------------------------------
// RPC frame types: the socket protocol reuses the audited wire layer, and a
// hostile peer controls every frame byte, so every frame decoder must be
// total too.

/// A representative sample of every RPC wire type, seeded from a real
/// response (so payload arms carry realistic VOs) plus synthetic frames
/// for the arms a healthy fixture never produces.
type RpcSamples = (Vec<(&'static str, Request)>, Vec<(&'static str, Response)>);

fn rpc_samples() -> RpcSamples {
    use imageproof_crypto::Digest;
    let (_, fx) = &fixtures()[1]; // the ImageProof fixture
    let features = vec![vec![0.25f32; 8], vec![-1.5f32; 8]];
    let stats = WireStats {
        shared_ratio: 0.5,
        popped: 12,
        total_postings: 80,
        hashes_computed: 9,
        hashes_cached: 3,
        blocks_skipped: 2,
        blocks_scanned: 5,
    };
    let payload = QueryPayload {
        results: fx.response.results.clone(),
        vo: fx.response.vo.clone(),
        stats,
    };
    let trim = TrimPayload {
        topk: vec![(5, 0.9), (17, 0.25)],
        inv: fx.response.vo.inv.clone(),
        signatures: fx.response.vo.signatures.clone(),
    };
    let profile = WireProfile {
        root: Some(WireSpan {
            name: "rpc.query".into(),
            seconds: 0.125,
            counters: vec![("candidates".into(), 7)],
            children: vec![WireSpan {
                name: "fanout".into(),
                seconds: 0.0625,
                counters: Vec::new(),
                children: Vec::new(),
            }],
        }),
    };
    let requests = vec![
        ("Request[hello]", Request::Hello),
        (
            "Request[query]",
            Request::Query {
                id: 7,
                k: 5,
                want_telemetry: true,
                queries: vec![features.clone()],
            },
        ),
        (
            "Request[query_batch]",
            Request::Query {
                id: 8,
                k: 3,
                want_telemetry: false,
                queries: vec![features.clone(), Vec::new()],
            },
        ),
        (
            "Request[trim]",
            Request::Trim {
                id: 9,
                items: vec![(1, features.clone())],
            },
        ),
        (
            "Request[trim_batch]",
            Request::Trim {
                id: 10,
                items: vec![(2, features), (1, Vec::new())],
            },
        ),
        ("Request[health]", Request::Health { id: 11 }),
    ];
    let responses = vec![
        (
            "Response[hello]",
            Response::Hello {
                shard_id: 1,
                shard_count: 4,
                root: Digest::of(b"root"),
            },
        ),
        (
            "Response[query]",
            Response::Query {
                id: 7,
                payloads: vec![payload.clone()],
            },
        ),
        (
            "Response[query_batch]",
            Response::Query {
                id: 8,
                payloads: vec![payload.clone(), payload],
            },
        ),
        (
            "Response[trim]",
            Response::Trim {
                id: 9,
                payloads: vec![trim.clone()],
            },
        ),
        (
            "Response[trim_batch]",
            Response::Trim {
                id: 10,
                payloads: vec![trim.clone(), trim],
            },
        ),
        (
            "Response[telemetry]",
            Response::Telemetry { id: 7, profile },
        ),
        (
            "Response[error]",
            Response::Error {
                id: 0,
                message: "malformed request frame".into(),
            },
        ),
        (
            "Response[health]",
            Response::Health {
                id: 11,
                health: sample_wire_health(),
            },
        ),
    ];
    (requests, responses)
}

/// A heartbeat report with every field non-trivial, including a
/// non-default error class (the last byte on the wire — the strictly
/// decoded one worth corrupting).
fn sample_wire_health() -> WireHealth {
    use imageproof_crypto::Digest;
    WireHealth {
        shard_id: 3,
        shard_count: 8,
        root: Digest::of(b"fuzz-health-root"),
        uptime_seconds: 321.0625,
        queue_depth: 11,
        queries_served: 4096,
        last_error: ErrorClass::Oversize,
    }
}

#[test]
fn rpc_request_decoding_is_total() {
    let (requests, _) = rpc_samples();
    for (name, sample) in &requests {
        fuzz_decode(name, sample);
    }
}

#[test]
fn rpc_response_decoding_is_total() {
    let (_, responses) = rpc_samples();
    for (name, sample) in &responses {
        fuzz_decode(name, sample);
    }
}

/// Tags 2 and 4 carried the single-query `Query`/`Trim` forms before the
/// protocol became batch-only. They are reserved: a frame opening with one
/// is refused as `InvalidTag` in both directions, whatever follows it.
#[test]
fn rpc_retired_single_query_tags_are_rejected() {
    let (requests, responses) = rpc_samples();
    for tag in [2u8, 4] {
        for (name, sample) in &requests {
            let mut wire = sample.to_wire();
            wire[0] = tag;
            assert_eq!(
                decode_total::<Request>(name, &wire),
                Err(WireError::InvalidTag(tag)),
                "{name} re-tagged {tag}"
            );
        }
        for (name, sample) in &responses {
            let mut wire = sample.to_wire();
            wire[0] = tag;
            assert_eq!(
                decode_total::<Response>(name, &wire),
                Err(WireError::InvalidTag(tag)),
                "{name} re-tagged {tag}"
            );
        }
    }
}

/// Telemetry carries the span profile only. A frame in the earlier layout
/// — the profile followed by a registry snapshot — is a clean
/// `TrailingBytes` error, never a panic and never a silently accepted
/// prefix, whether the snapshot is empty or not.
#[test]
fn telemetry_with_a_trailing_registry_snapshot_is_rejected() {
    use imageproof_crypto::wire::Writer;
    let (_, responses) = rpc_samples();
    let telemetry = responses
        .iter()
        .find(|(name, _)| *name == "Response[telemetry]")
        .map(|(_, r)| r.to_wire())
        .expect("telemetry sample");
    // The old registry codec: counters (id, varint), gauges (id, u64),
    // histograms (id, count, sum, buckets); an id is a name plus labels.
    let registry = |counters: &[(&str, u64)]| {
        let mut w = Writer::new();
        w.seq_len(counters.len());
        for (name, v) in counters {
            w.bytes(name.as_bytes());
            w.seq_len(0);
            w.varint(*v);
        }
        w.seq_len(0);
        w.seq_len(0);
        w.finish()
    };
    for snapshot in [
        registry(&[]),
        registry(&[("imageproof_sp_queries_total", 7)]),
    ] {
        let mut wire = telemetry.clone();
        wire.extend_from_slice(&snapshot);
        assert_eq!(
            decode_total::<Response>("Response[telemetry+registry]", &wire),
            Err(WireError::TrailingBytes)
        );
    }
}

/// A signature is a length-prefixed 64-byte string; any other length is
/// the VO path's `InvalidTag(0xFF)` in every payload that carries one —
/// `TrimPayload` included, whose hand-rolled decoder used to answer
/// `UnexpectedEnd`.
#[test]
fn wrong_length_signature_is_one_error_everywhere() {
    let (_, fx) = &fixtures()[1];
    let trim = TrimPayload {
        topk: vec![(5, 0.9)],
        inv: fx.response.vo.inv.clone(),
        signatures: vec![fx.response.vo.signatures[0]],
    };
    // The signature is the payload's tail: a u32 length of 64, 64 bytes.
    // Shrink it to a well-formed 63-byte string.
    let shrink = |mut wire: Vec<u8>| {
        let at = wire.len() - 68;
        wire[at..at + 4].copy_from_slice(&63u32.to_le_bytes());
        wire.pop();
        wire
    };
    assert_eq!(
        decode_total::<TrimPayload>("TrimPayload", &shrink(trim.to_wire())),
        Err(WireError::InvalidTag(0xFF))
    );
    let vo = QueryVo {
        signatures: vec![fx.response.vo.signatures[0]],
        ..fx.response.vo.clone()
    };
    assert_eq!(
        decode_total::<QueryVo>("QueryVo", &shrink(vo.to_wire())),
        Err(WireError::InvalidTag(0xFF))
    );
}

/// The bare heartbeat report frame: truncations, bit flips, and garbage
/// must all reject or round-trip — and the trailing error-class byte is a
/// closed set, so any unknown class byte must be a typed decode error.
#[test]
fn rpc_health_frame_decoding_is_total() {
    let sample = sample_wire_health();
    fuzz_decode("WireHealth", &sample);
    let mut wire = sample.to_wire();
    let last = wire.len() - 1;
    for hostile in [4u8, 5, 17, 99, 255] {
        wire[last] = hostile;
        assert!(
            decode_total::<WireHealth>("WireHealth[hostile error class]", &wire).is_err(),
            "error class byte {hostile} must be rejected, not invented"
        );
    }
}

/// End-to-end for the sharded path: bit-flip the serialized sharded VO;
/// whenever the corruption still *decodes*, `verify_sharded` must reject
/// or accept without panicking — never crash.
#[test]
fn verify_sharded_never_panics_on_corrupted_vo() {
    let fx = sharded_fixture();
    let wire = fx.response.vo.to_wire();
    let stride = stride_for(wire.len()).max(3);
    let mut pos = 0;
    let mut verified_runs = 0u32;
    while pos < wire.len() {
        for bit in [0, 3, 7] {
            let mut m = wire.clone();
            m[pos] ^= 1 << bit;
            let Ok(vo) = decode_total::<ShardedVo>("ShardedVo", &m) else {
                continue;
            };
            let response = ShardedResponse {
                results: fx.response.results.clone(),
                vo,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                fx.client
                    .verify_sharded(&fx.features, fx.k, &response, &fx.manifest)
                    .err()
            }));
            assert!(
                outcome.is_ok(),
                "verify_sharded PANICKED with bit {bit} of byte {pos} flipped"
            );
            verified_runs += 1;
        }
        pos += stride;
    }
    assert!(
        verified_runs > 0,
        "no flipped sharded VO decoded; corruption sweep too narrow"
    );
}

/// End-to-end: bit-flip the serialized VO; whenever the corruption still
/// *decodes*, the full client verification must reject or accept without
/// panicking — never crash.
#[test]
fn client_verify_never_panics_on_corrupted_vo() {
    for (scheme, fx) in fixtures() {
        let wire = fx.response.vo.to_wire();
        let stride = stride_for(wire.len()).max(3);
        let mut pos = 0;
        let mut verified_runs = 0u32;
        while pos < wire.len() {
            for bit in [0, 3, 7] {
                let mut m = wire.clone();
                m[pos] ^= 1 << bit;
                let Ok(vo) = decode_total::<QueryVo>("QueryVo", &m) else {
                    continue;
                };
                let response = QueryResponse {
                    results: fx.response.results.clone(),
                    vo,
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    fx.client.verify(&fx.features, fx.k, &response).err()
                }));
                assert!(
                    outcome.is_ok(),
                    "Client::verify PANICKED for {scheme:?} with bit {bit} of byte {pos} flipped"
                );
                verified_runs += 1;
            }
            pos += stride;
        }
        assert!(
            verified_runs > 0,
            "{scheme:?}: no flipped VO decoded; corruption sweep too narrow"
        );
    }
}

// ---------------------------------------------------------------------------
// Randomized depth on builders with the real proptest crate (the offline
// stub toolchain compiles this block away).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = decode_total::<QueryVo>("QueryVo", &bytes);
        let _ = decode_total::<BovwVo>("BovwVo", &bytes);
        let _ = decode_total::<BaselineBovwVo>("BaselineBovwVo", &bytes);
        let _ = decode_total::<VoTree>("VoTree", &bytes);
        let _ = decode_total::<VoCluster>("VoCluster", &bytes);
        let _ = decode_total::<Reveal>("Reveal", &bytes);
        let _ = decode_total::<InvVoOf<Posting>>("InvVo", &bytes);
        let _ = decode_total::<ListVoOf<Posting>>("ListVo", &bytes);
        let _ = decode_total::<RemainingVo>("RemainingVo", &bytes);
        let _ = decode_total::<InvVoOf<Group>>("GroupedInvVo", &bytes);
        let _ = decode_total::<ListVoOf<Group>>("GroupedListVo", &bytes);
        let _ = decode_total::<Group>("Group", &bytes);
        let _ = decode_total::<ShardManifest>("ShardManifest", &bytes);
        let _ = decode_total::<ShardVo>("ShardVo", &bytes);
        let _ = decode_total::<ShardBovw>("ShardBovw", &bytes);
        let _ = decode_total::<SharedSection>("SharedSection", &bytes);
        let _ = decode_total::<ShardedVo>("ShardedVo", &bytes);
        let _ = decode_total::<Request>("Request", &bytes);
        let _ = decode_total::<Response>("Response", &bytes);
        let _ = decode_total::<QueryPayload>("QueryPayload", &bytes);
        let _ = decode_total::<TrimPayload>("TrimPayload", &bytes);
        let _ = decode_total::<WireStats>("WireStats", &bytes);
        let _ = decode_total::<WireSpan>("WireSpan", &bytes);
        let _ = decode_total::<WireProfile>("WireProfile", &bytes);
    }

    #[test]
    fn corrupted_tails_of_real_vos_never_panic(
        scheme_idx in 0usize..3,
        cut in 0usize..4096,
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let (_, fx) = &fixtures()[scheme_idx];
        let wire = fx.response.vo.to_wire();
        let keep = cut % (wire.len() + 1);
        let mut bytes = wire[..keep].to_vec();
        bytes.extend_from_slice(&tail);
        let _ = decode_total::<QueryVo>("QueryVo", &bytes);
    }
}

// A separate low-case-count block: each case builds two full systems.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Trimmed sharded verification is *exact*: for random tie-heavy
    /// corpora (a trio of images shares one encoding, so ties straddle
    /// shard boundaries), every scheme, S ∈ {1, 2, 4, 8}, and k, the
    /// verified sharded top-k equals the monolith's bit-for-bit — ids,
    /// scores, and tie resolution included — even though the sub-VOs are
    /// merge-trimmed and deduplicated.
    #[test]
    fn tie_heavy_trimmed_sharded_topk_equals_monolith(
        seed in 0u64..500,
        scheme_idx in 0usize..4,
        s_idx in 0usize..4,
        k in 1usize..7,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let shard_count = [1usize, 2, 4, 8][s_idx];
        let mut corpus = Corpus::generate(&CorpusConfig {
            kind: DescriptorKind::Surf,
            n_images: 40,
            n_latent_words: 40,
            features_per_image: 24,
            seed,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        // Tie-heavy: three images share one feature set and latent words,
        // so they score identically for every query and land in distinct
        // shards for every S ≥ 2 (9, 18, 23 differ mod 2, 4, and 8).
        let trio = [9usize, 18, 23];
        let f0 = corpus.images[trio[0]].features.clone();
        let w0 = corpus.images[trio[0]].latent_words.clone();
        for &dup in &trio[1..] {
            corpus.images[dup].features = f0.clone();
            corpus.images[dup].latent_words = w0.clone();
        }
        let akm = AkmParams {
            n_clusters: 24,
            n_trees: 2,
            max_leaf_size: 2,
            max_checks: 8,
            iterations: 1,
            seed: seed + 1,
        };
        let owner = Owner::new(&[13u8; 32]);
        let (db, published) = owner.build_system(&corpus, &akm, scheme);
        let mono_sp = ServiceProvider::new(db);
        let mono_client = Client::new(published);
        let system = owner.build_sharded_system(&corpus, &akm, scheme, shard_count);
        let sp = ShardedSp::new(system.shards);
        let client = Client::new(system.published);
        // Query from the trio so its three-way tie contends for the cut.
        let features = corpus.query_from_image(trio[0] as u64, 16, seed);
        let (mono_resp, _) = mono_sp.query(&features, k);
        let mono = mono_client
            .verify(&features, k, &mono_resp)
            .expect("monolith verifies");
        let (resp, _) = sp.query(&features, k);
        let verified = client
            .verify_sharded(&features, k, &resp, &system.manifest)
            .expect("trimmed sharded response verifies");
        prop_assert_eq!(
            verified.topk,
            mono.topk,
            "scheme {:?} S={} k={}: trimmed sharded top-k diverged",
            scheme,
            shard_count,
            k
        );
    }
}
