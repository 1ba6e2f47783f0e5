//! Reveal-once BoVW VO attack matrix: the cluster table under the MRKD VO
//! trees is authenticated only by leaves that name its rows and chain to a
//! signed root, so every way of making the table and the trees disagree
//! must be rejected — in one process, across in-process shards (where the
//! table rides in the shared-section template), and over the socket RPC.
//!
//! | attack                                         | rejected as                           |
//! |------------------------------------------------|---------------------------------------|
//! | unnamed row carrying a closer centroid         | `Malformed("table row named by no leaf")` |
//! | leaf naming a cluster without a row            | `Malformed("leaf names a cluster with no row")` |
//! | duplicate / descending rows                    | `Malformed("cluster table not ascending")` |
//! | cluster smuggled into a second, opened tree    | root mismatch                         |
//! | every tree a bare root stub                    | `PrunedSubtreeReachable`              |
//! | forged root stub of an unopened tree           | root mismatch                         |
//! | second tree opened down to reachable stubs     | `PrunedSubtreeReachable`              |
//! | winner's proof-tree leaf stubbed               | `PrunedSubtreeReachable`              |
//! | winner row downgraded Full → Partial           | completeness check                    |
//! | Partial row re-proved over fewer blocks        | `PartialTooClose`                     |
//! | template row/tree count ≠ digest patch         | `SharedPatchMismatch`                 |

mod rpc_util;

use imageproof_akm::rkd::{Node, RkdForest};
use imageproof_core::rpc::{Response, RpcCoordinator, ShardEndpoint};
use imageproof_core::{
    BovwVoVariant, Client, ClientError, Owner, QueryResponse, Scheme, ServiceProvider, ShardBovw,
    ShardedError,
};
use imageproof_crypto::Digest;
use imageproof_mrkd::tree::{block_range, n_blocks};
use imageproof_mrkd::{BovwVo, Reveal, VerifyError, VoCluster, VoNode, VoTree, VoTreeBuilder};
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

/// `(tree, node)` of every disclosed leaf, trees in order, DFS within a
/// tree.
fn leaves(vo: &BovwVo) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (t, tree) in vo.trees.iter().enumerate() {
        for (at, node) in tree.nodes().iter().enumerate() {
            if matches!(node, VoNode::Leaf(_)) {
                out.push((t, at));
            }
        }
    }
    out
}

/// Re-emits the tree holding `leaf` with that leaf naming what `edit` makes
/// of its ids.
fn edit_leaf(vo: &mut BovwVo, (t, at): (usize, usize), edit: impl FnOnce(&mut Vec<u32>)) {
    let tree = &vo.trees[t];
    let VoNode::Leaf(range) = &tree.nodes()[at] else {
        panic!("node {at} of tree {t} is not a leaf");
    };
    let mut ids = tree.ids(range).to_vec();
    edit(&mut ids);
    vo.trees[t] = tree.splice(at..at + 1, |b| {
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

/// The adversary opens a second tree to smuggle a row: the last cluster of
/// the proof tree's first leaf moves into a leaf grown over the last tree's
/// root stub, behind a split no query crosses (so the stub beside it, the
/// tree's genuine root, is unreachable and the digest slots stay as many).
/// The row stays authentic and named; neither tree hashes right.
fn move_cluster_between_trees(vo: &mut BovwVo) {
    let mut moved = None;
    edit_leaf(vo, leaves(vo)[0], |ids| moved = ids.pop());
    let last = vo.trees.last_mut().expect("a tree");
    let [VoNode::Pruned(root)] = last.nodes() else {
        panic!("honest VOs stub every tree but the first");
    };
    *last = VoTreeBuilder::default()
        .internal(0, f32::INFINITY)
        .leaf(moved)
        .pruned(*root)
        .finish();
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
        match m.verdict(move_cluster_between_trees) {
            Err(ClientError::RootSignatureInvalid) | Err(ClientError::Bovw(_)) => {}
            other => panic!("{scheme:?}: moved cluster survived: {other:?}"),
        }
    }
}

/// The one-opened-tree acceptance rule: an unopened tree contributes its
/// root stub to the signed root and nothing else, at least one tree must be
/// opened, and whatever is opened is checked in full. Every forgery below
/// carries only genuine digests unless it says otherwise.
#[test]
fn unopened_trees_lend_a_root_and_opened_trees_are_checked_in_full() {
    for scheme in Scheme::ALL {
        let m = mono(scheme);
        let forest = &m.sp.database().mrkd;
        let proof = RkdForest::PROOF_TREE;
        let mut honest = m.response.vo.bovw.clone();
        for (t, tree) in first_vo(&mut honest).trees.iter().enumerate() {
            let stub = VoTree::root_stub(forest.trees()[t].root_digest());
            assert_eq!(*tree == stub, t != proof, "{scheme:?}: tree {t}");
        }

        // No tree opened: with the table dropped every digest chains to
        // the signed root, and every query sits at bound 0 of a stub.
        let verdict = m.verdict(|vo| {
            vo.trees[proof] = VoTree::root_stub(forest.trees()[proof].root_digest());
            vo.clusters.clear();
        });
        assert_eq!(
            verdict,
            Err(ClientError::Bovw(VerifyError::PrunedSubtreeReachable)),
            "{scheme:?}"
        );

        // A forged stub is never walked; the root it folds into is not
        // the one the owner signed (nor, for Baseline, the one the other
        // query vectors' VOs reconstruct).
        match m.verdict(|vo| {
            *vo.trees.last_mut().expect("a tree") =
                VoTree::root_stub(Digest::of(b"some other tree"));
        }) {
            Err(ClientError::RootSignatureInvalid) => {}
            Err(ClientError::Bovw(VerifyError::Malformed("per-query roots disagree")))
                if !scheme.shares_nodes() => {}
            other => panic!("{scheme:?}: forged root stub survived: {other:?}"),
        }

        // A second tree opened one level deep, both children stubbed:
        // the signed root still reconstructs and the proof tree is
        // complete, but a non-stub tree is walked like any other.
        let second = &forest.trees()[proof + 1];
        let rkd = second.rkd();
        let Node::Internal {
            dim,
            value,
            left,
            right,
        } = rkd.nodes()[rkd.root() as usize]
        else {
            panic!("the fixture's trees have more than one leaf");
        };
        let verdict = m.verdict(|vo| {
            vo.trees[proof + 1] = VoTreeBuilder::default()
                .internal(dim, value)
                .pruned(second.node_digest(left))
                .pruned(second.node_digest(right))
                .finish();
        });
        assert_eq!(
            verdict,
            Err(ClientError::Bovw(VerifyError::PrunedSubtreeReachable)),
            "{scheme:?}"
        );

        // The first query vector's winner hidden behind a stub of the
        // proof tree, the rows only that leaf named dropped.
        let victim =
            m.sp.database()
                .codebook
                .assign_with_threshold(&m.features[0])
                .0;
        let rkd = forest.trees()[proof].rkd();
        let real_leaf = rkd
            .nodes()
            .iter()
            .position(|node| matches!(node, Node::Leaf { clusters } if clusters.contains(&victim)));
        let digest = forest.trees()[proof].node_digest(real_leaf.expect("a leaf") as u32);
        let verdict = m.verdict(|vo| {
            let tree = &vo.trees[proof];
            let at = tree.nodes().iter().position(
                |node| matches!(node, VoNode::Leaf(ids) if tree.ids(ids).contains(&victim)),
            );
            let at = at.expect("the winner's leaf is disclosed");
            vo.trees[proof] = tree.splice(at..at + 1, |b| {
                b.pruned(digest);
            });
            let named = vo.trees[proof].leaf_ids().to_vec();
            vo.clusters.retain(|row| named.contains(&row.cluster));
        });
        match verdict {
            Err(ClientError::Bovw(VerifyError::PrunedSubtreeReachable)) => {}
            // A Baseline VO serves one query vector and may have opened
            // that one leaf only.
            Err(ClientError::Bovw(VerifyError::NoCandidate)) if !scheme.shares_nodes() => {}
            other => panic!("{scheme:?}: hidden winner survived: {other:?}"),
        }
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
    // row, one tree fewer — leaves every non-empty patch the wrong length.
    for forge in [
        (&|vo: &mut BovwVo| plant_closer_row(vo, &features[0])) as &dyn Fn(&mut BovwVo),
        &|vo: &mut BovwVo| {
            vo.trees.pop();
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
    match verdict(&move_cluster_between_trees) {
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
