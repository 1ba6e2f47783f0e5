//! Reveal-once BoVW VO attack matrix: the cluster table under the MRKD VO
//! tree is authenticated only by leaves that name its rows and chain to the
//! signed root, so every way of making the table and the trees disagree
//! must be rejected — in one process, across in-process shards (where the
//! table rides in the shared-section template), and over the socket RPC.
//!
//! | attack                                         | rejected as                           |
//! |------------------------------------------------|---------------------------------------|
//! | unnamed row carrying a closer centroid         | `Malformed("table row named by no leaf")` |
//! | leaf naming a cluster without a row            | `Malformed("leaf names a cluster with no row")` |
//! | duplicate / descending rows                    | `Malformed("cluster table not ascending")` |
//! | cluster moved between two leaves               | root mismatch                         |
//! | the tree a bare root stub                      | `PrunedSubtreeReachable`              |
//! | honest VO over an uncommitted tree             | root mismatch                         |
//! | winner's leaf stubbed                          | `PrunedSubtreeReachable`              |
//! | winner row downgraded Full → Partial           | completeness check                    |
//! | Partial row re-proved over fewer blocks        | `PartialTooClose`                     |
//! | template row count ≠ digest patch              | `SharedPatchMismatch`                 |

mod rpc_util;

use imageproof_akm::rkd::Node;
use imageproof_core::rpc::{Response, RpcCoordinator, ShardEndpoint};
use imageproof_core::{
    BovwVoVariant, Client, ClientError, Owner, QueryResponse, Scheme, ServiceProvider, ShardBovw,
    ShardedError,
};
use imageproof_mrkd::tree::{block_range, n_blocks};
use imageproof_mrkd::{BovwVo, Reveal, VerifyError, VoCluster, VoNode};
use rpc_util::{Fault, Proxy};
use std::sync::Arc;

const K: usize = 3;

struct Mono {
    sp: ServiceProvider,
    client: Client,
    features: Vec<Vec<f32>>,
    response: QueryResponse,
}

fn mono(scheme: Scheme) -> Mono {
    let p = rpc_util::prepared();
    let (db, published) = Owner::new(&rpc_util::OWNER_SEED).build_system_prepared_config(
        &p.corpus,
        p.codebook.clone(),
        p.encodings.clone(),
        scheme,
    );
    let sp = ServiceProvider::new(db);
    let client = Client::new(published);
    let features = p.corpus.query_from_image(5, 24, 1);
    let (response, _) = sp.query(&features, K);
    client
        .verify(&features, K, &response)
        .expect("honest response verifies");
    Mono {
        sp,
        client,
        features,
        response,
    }
}

impl Mono {
    /// Applies `forge` to the response's BoVW VO (Baseline: the first
    /// query vector's own VO) and returns the client's verdict.
    fn verdict(&self, forge: impl FnOnce(&mut BovwVo)) -> Result<(), ClientError> {
        let mut forged = self.response.clone();
        forge(first_vo(&mut forged.vo.bovw));
        self.client.verify(&self.features, K, &forged).map(|_| ())
    }

    fn malformed(&self, forge: impl FnOnce(&mut BovwVo)) -> &'static str {
        match self.verdict(forge) {
            Err(ClientError::Bovw(VerifyError::Malformed(why))) => why,
            other => panic!("expected a malformed-VO rejection, got {other:?}"),
        }
    }
}

fn first_vo(bovw: &mut BovwVoVariant) -> &mut BovwVo {
    match bovw {
        BovwVoVariant::Shared(vo) => vo,
        BovwVoVariant::PerQuery(vo) => vo.per_query.first_mut().expect("a query vector"),
    }
}

/// Node index of every disclosed leaf, in DFS order.
fn leaves(vo: &BovwVo) -> Vec<usize> {
    let is_leaf = |at: &usize| matches!(vo.tree.nodes()[*at], VoNode::Leaf(_));
    (0..vo.tree.nodes().len()).filter(is_leaf).collect()
}

/// Re-emits the tree with the leaf at node `at` naming what `edit` makes of
/// its ids.
fn edit_leaf(vo: &mut BovwVo, at: usize, edit: impl FnOnce(&mut Vec<u32>)) {
    let VoNode::Leaf(range) = &vo.tree.nodes()[at] else {
        panic!("node {at} is not a leaf");
    };
    let mut ids = vo.tree.ids(range).to_vec();
    edit(&mut ids);
    vo.tree = vo.tree.splice(at..at + 1, |b| {
        b.leaf(ids);
    });
}

/// Plants a row for a cluster no leaf names, sitting exactly on `at` so it
/// would win phase 2, keeping the table ascending.
fn plant_closer_row(vo: &mut BovwVo, at: &[f32]) {
    let absent = (0u32..)
        .find(|c| vo.clusters.iter().all(|row| row.cluster != *c))
        .expect("a free cluster id");
    let compressed = vo
        .clusters
        .iter()
        .any(|row| !matches!(row.reveal, Reveal::Full { .. }));
    let coords = at.to_vec();
    let pos = vo.clusters.partition_point(|row| row.cluster < absent);
    vo.clusters.insert(
        pos,
        VoCluster {
            cluster: absent,
            inv_digest: vo.clusters[0].inv_digest,
            reveal: if compressed {
                Reveal::FullCompressed { coords }
            } else {
                Reveal::Full { coords }
            },
        },
    );
}

/// The last cluster of the first disclosed leaf moves into the last one
/// (a Baseline VO may disclose only one: then it moves to the front of its
/// own leaf). The row stays authentic and named once, and the digest slots
/// stay as many; the leaves no longer hash to what the root commits.
fn move_cluster_between_leaves(vo: &mut BovwVo) {
    let leaves = leaves(vo);
    let (from, to) = (leaves[0], *leaves.last().expect("a disclosed leaf"));
    let mut moved = None;
    edit_leaf(vo, from, |ids| moved = ids.pop());
    edit_leaf(vo, to, |ids| ids.insert(0, moved.expect("non-empty leaf")));
}

#[test]
fn table_and_tree_disagreements_are_rejected_for_every_scheme() {
    for scheme in Scheme::ALL {
        let m = mono(scheme);
        let q0 = m.features[0].clone();
        assert_eq!(
            m.malformed(|vo| plant_closer_row(vo, &q0)),
            "table row named by no leaf",
            "{scheme:?}"
        );
        assert_eq!(
            m.malformed(|vo| {
                vo.clusters.remove(0);
            }),
            "leaf names a cluster with no row",
            "{scheme:?}"
        );
        assert_eq!(
            m.malformed(|vo| edit_leaf(vo, leaves(vo)[0], |ids| ids[0] = u32::MAX)),
            "leaf names a cluster with no row",
            "{scheme:?}"
        );
        assert_eq!(
            m.malformed(|vo| {
                let copy = vo.clusters[0].clone();
                vo.clusters.insert(0, copy);
            }),
            "cluster table not ascending",
            "{scheme:?}"
        );
        assert_eq!(
            m.malformed(|vo| vo.clusters.reverse()),
            "cluster table not ascending",
            "{scheme:?}"
        );
        // Moving a cluster keeps every structural rule intact; only the
        // reconstructed root can notice.
        match m.verdict(move_cluster_between_leaves) {
            Err(ClientError::RootSignatureInvalid) | Err(ClientError::Bovw(_)) => {}
            other => panic!("{scheme:?}: moved cluster survived: {other:?}"),
        }
    }
}

/// One committed tree: a VO that does not walk it where the queries reach,
/// or walks some other tree, is rejected. Every forgery below carries only
/// genuine digests.
#[test]
fn the_committed_tree_must_be_walked_wherever_a_query_reaches() {
    for scheme in Scheme::ALL {
        let m = mono(scheme);
        let tree = &m.sp.database().mrkd;

        // The tree replaced by its own root stub: with the table dropped
        // the digest chains to the signed root, and every query sits at
        // bound 0 of the stub.
        let verdict = m.verdict(|vo| {
            vo.tree = vo.tree.splice(0..vo.tree.nodes().len(), |b| {
                b.pruned(tree.combined_root_digest());
            });
            vo.clusters.clear();
        });
        assert_eq!(
            verdict,
            Err(ClientError::Bovw(VerifyError::PrunedSubtreeReachable)),
            "{scheme:?}"
        );

        // The honest walk of another tree over the same codebook and the
        // same lists: consistent throughout, and not what the owner signed.
        let mut forged = m.response.clone();
        forged.vo.bovw = rpc_util::bovw_over_another_tree(m.sp.database(), &m.features);
        assert_eq!(
            m.client.verify(&m.features, K, &forged).map(|_| ()),
            Err(ClientError::RootSignatureInvalid),
            "{scheme:?}"
        );

        // The first query vector's winner hidden behind a stub, the rows
        // only that leaf named dropped.
        let victim =
            m.sp.database()
                .codebook
                .assign_with_threshold(&m.features[0])
                .0;
        let real_leaf =
            tree.rkd().nodes().iter().position(
                |node| matches!(node, Node::Leaf { clusters } if clusters.contains(&victim)),
            );
        let digest = tree.node_digest(real_leaf.expect("a leaf") as u32);
        let verdict = m.verdict(|vo| {
            let tree = &vo.tree;
            let at = tree.nodes().iter().position(
                |node| matches!(node, VoNode::Leaf(ids) if tree.ids(ids).contains(&victim)),
            );
            let at = at.expect("the winner's leaf is disclosed");
            vo.tree = tree.splice(at..at + 1, |b| {
                b.pruned(digest);
            });
            let named = vo.tree.leaf_ids().to_vec();
            vo.clusters.retain(|row| named.contains(&row.cluster));
        });
        assert_eq!(
            verdict,
            Err(ClientError::Bovw(VerifyError::PrunedSubtreeReachable)),
            "{scheme:?}"
        );
    }
}

/// A partial reveal of `cluster` over `blocks`, with a genuine subset
/// proof from the SP's own dimension tree.
fn partial(sp: &ServiceProvider, cluster: u32, blocks: &[usize]) -> Reveal {
    let db = sp.database();
    let center = &db.codebook.centers[cluster as usize];
    let dim_tree = db.mrkd.dim_tree(cluster).expect("compressed scheme");
    Reveal::Partial {
        dim_root: dim_tree.root(),
        blocks: blocks
            .iter()
            .map(|&b| (b as u32, center[block_range(b, center.len())].to_vec()))
            .collect(),
        proof: dim_tree.prove_subset(blocks),
    }
}

#[test]
fn downgraded_reveals_are_rejected_in_the_compressed_schemes() {
    for scheme in [Scheme::OptimizedBovw, Scheme::OptimizedBoth] {
        let m = mono(scheme);
        let honest = m.client.verify(&m.features, K, &m.response).expect("ok");
        let dim = m.features[0].len();
        let all: Vec<usize> = (0..n_blocks(dim)).collect();

        // Full -> Partial on a winner, disclosing every block with a
        // valid proof: the digest chain holds, the completeness check of
        // the query that lost its winner does not.
        let victim = honest.assignments[0];
        let forged = partial(&m.sp, victim, &all);
        match m.verdict(|vo| {
            let row = vo.clusters.iter_mut().find(|r| r.cluster == victim);
            row.expect("the winner has a row").reveal = forged;
        }) {
            Err(ClientError::Bovw(
                VerifyError::PartialTooClose { .. }
                | VerifyError::PrunedSubtreeReachable
                | VerifyError::NoCandidate,
            )) => {}
            other => panic!("{scheme:?}: downgraded winner survived: {other:?}"),
        }

        // Partial -> fewer blocks: re-prove each partial row over every
        // single block it discloses. A forgery either fails a query's
        // distance bound or (when one block happens to suffice) changes
        // nothing about the verified answer.
        let BovwVoVariant::Shared(vo) = &m.response.vo.bovw else {
            panic!("compressed schemes share one VO");
        };
        let (mut caught, mut harmless) = (0, 0);
        for row in &vo.clusters {
            let Reveal::Partial { blocks, .. } = &row.reveal else {
                continue;
            };
            if blocks.len() < 2 {
                continue;
            }
            for (b, _) in blocks {
                let forged = partial(&m.sp, row.cluster, &[*b as usize]);
                let mut response = m.response.clone();
                let target = first_vo(&mut response.vo.bovw)
                    .clusters
                    .iter_mut()
                    .find(|r| r.cluster == row.cluster);
                target.expect("row").reveal = forged;
                match m.client.verify(&m.features, K, &response) {
                    Err(ClientError::Bovw(VerifyError::PartialTooClose { cluster, .. })) => {
                        assert_eq!(cluster, row.cluster);
                        caught += 1;
                    }
                    Ok(v) => {
                        assert_eq!(v.assignments, honest.assignments);
                        assert_eq!(v.topk, honest.topk);
                        harmless += 1;
                    }
                    other => panic!("{scheme:?}: unexpected verdict {other:?}"),
                }
            }
        }
        assert!(
            caught > 0,
            "{scheme:?}: no shrunken partial was caught ({harmless} harmless)"
        );
    }
}

// ---------------------------------------------------------------------------
// Sharded: the table rides in the shared-section template, and every other
// shard re-instantiates it with its own digest patch.

#[test]
fn a_forged_template_table_fails_every_shard_that_resolves_it() {
    let fx = rpc_util::fixture(Scheme::ImageProof, 4);
    let features = fx.corpus().query_from_image(5, 24, 1);
    let (honest, _) = fx.sp.query(&features, K);
    fx.client
        .verify_sharded(&features, K, &honest, &fx.manifest)
        .expect("honest sharded response verifies");
    assert_eq!(honest.vo.shared.templates.len(), 1, "fixture dedups");
    let seeding = honest
        .vo
        .shards
        .iter()
        .find(|s| matches!(&s.bovw, ShardBovw::Patched { unique, .. } if unique.is_empty()))
        .expect("the seeding shard ships an empty patch")
        .shard_id;

    let verdict = |forge: &dyn Fn(&mut BovwVo)| {
        let mut forged = honest.clone();
        forge(first_vo(&mut forged.vo.shared.templates[0]));
        fx.client
            .verify_sharded(&features, K, &forged, &fx.manifest)
            .map(|_| ())
    };

    // Growing or shrinking the template's digest slots — one more table
    // row, one fewer — leaves every non-empty patch the wrong length.
    for forge in [
        (&|vo: &mut BovwVo| plant_closer_row(vo, &features[0])) as &dyn Fn(&mut BovwVo),
        &|vo: &mut BovwVo| {
            vo.clusters.pop();
        },
    ] {
        match verdict(forge) {
            // Shards are checked in order: whichever comes first — the
            // seeding shard (borrows the forged template as is) or a
            // patched one (payload no longer fits) — rejects.
            Err(ShardedError::SharedPatchMismatch { .. }) => {}
            Err(ShardedError::Shard { shard, .. }) => assert_eq!(shard, seeding),
            other => panic!("forged template survived: {other:?}"),
        }
    }

    // Same slot count, wrong geometry: every shard's patch still fits,
    // and every shard's root comes out wrong.
    match verdict(&move_cluster_between_leaves) {
        Err(ShardedError::Shard { error, .. }) => assert!(
            matches!(
                error,
                ClientError::RootSignatureInvalid | ClientError::Bovw(_)
            ),
            "{error:?}"
        ),
        other => panic!("moved cluster survived: {other:?}"),
    }

    // The seeding shard alone, with its empty patch swapped for an inline
    // VO carrying the planted row: rejected by name.
    let mut forged = honest.clone();
    let idx = forged
        .vo
        .shards
        .iter()
        .position(|s| s.shard_id == seeding)
        .expect("seeding shard");
    let mut inline = honest.vo.shared.templates[0].clone();
    plant_closer_row(first_vo(&mut inline), &features[0]);
    forged.vo.shards[idx].bovw = ShardBovw::Inline(inline);
    assert_eq!(
        fx.client
            .verify_sharded(&features, K, &forged, &fx.manifest)
            .map(|_| ()),
        Err(ShardedError::Shard {
            shard: seeding,
            error: ClientError::Bovw(VerifyError::Malformed("table row named by no leaf")),
        })
    );
}

// ---------------------------------------------------------------------------
// RPC: a man-in-the-middle on one shard's link plants the row in flight.

#[test]
fn a_row_planted_in_flight_is_rejected_by_the_client() {
    let fx = rpc_util::fixture(Scheme::ImageProof, 2);
    let features = fx.corpus().query_from_image(5, 24, 1);
    let target = 1usize;
    let q0 = features[0].clone();
    let proxy = Proxy::start(
        fx.endpoints[target].primary,
        Fault::MapResponses(Arc::new(move |resp| {
            Some(match resp {
                Response::Query { id, mut payloads } => {
                    plant_closer_row(first_vo(&mut payloads[0].vo.bovw), &q0);
                    Response::Query { id, payloads }
                }
                other => other,
            })
        })),
    );
    let mut endpoints = fx.endpoints.clone();
    endpoints[target] = ShardEndpoint::single(proxy.addr());
    let mut coord = RpcCoordinator::connect(endpoints, &fx.manifest, rpc_util::quick_config())
        .expect("connect through adversarial proxy");
    // The frames are well-formed, so the RPC layer delivers them...
    let (resp, _) = coord.query(&features, K).expect("well-formed RPC");
    let (local, _) = fx.sp.query(&features, K);
    assert_ne!(
        resp.vo.shards[target].bovw, local.vo.shards[target].bovw,
        "attack setup: the planted row must reach the assembled VO"
    );
    // ...and the client refuses the shard whose table grew a row no leaf
    // vouches for.
    assert_eq!(
        fx.client
            .verify_sharded(&features, K, &resp, &fx.manifest)
            .map(|_| ()),
        Err(ShardedError::Shard {
            shard: target as u32,
            error: ClientError::Bovw(VerifyError::Malformed("table row named by no leaf")),
        })
    );
}
