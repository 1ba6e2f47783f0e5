//! Randomized k-d trees and best-bin-first search (§II-A of the paper;
//! Silpa-Anan & Hartley's randomized k-d forest as used by FLANN/AKM).
//!
//! In contrast to a regular k-d tree, each internal node picks its split
//! dimension *randomly among the dimensions with the largest variances* of
//! the points below it. During training a forest of such trees is searched
//! with one global priority queue ordered by lower-bound distance, stopping
//! after a fixed number of leaf visits — AKM's approximation knob, which
//! only the Lloyd step uses. The protocol assigns with one tree's exact
//! search, [`RkdTree::nearest`].
//!
//! That tree is later wrapped by `imageproof-mrkd` with digests, so node
//! layout (arena of [`Node`] with `u32` links) and the *exact* distance
//! arithmetic used for pruning are part of this crate's public contract:
//! SP-side search and client-side verification must compute bit-identical
//! `f32` bounds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How many of the largest-variance dimensions a split samples from
/// (FLANN's classic choice).
pub const TOP_VARIANCE_DIMS: usize = 5;

/// An `f32` wrapper with total order, for use in heaps.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OrdF32(pub f32);

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One node of a randomized k-d tree, stored in an arena.
#[derive(Clone, Debug)]
pub enum Node {
    /// Splitting hyperplane `x[dim] = value`; children are arena indices.
    Internal {
        dim: u32,
        value: f32,
        left: u32,
        right: u32,
    },
    /// Indices (into the cluster table) of the clusters stored in this leaf.
    Leaf { clusters: Vec<u32> },
}

/// A single randomized k-d tree over a shared cluster table.
#[derive(Clone, Debug)]
pub struct RkdTree {
    nodes: Vec<Node>,
    root: u32,
}

impl RkdTree {
    /// Builds a tree over `points` (the cluster centroids).
    ///
    /// `max_leaf_size` bounds leaf occupancy (the paper uses 2).
    pub fn build(points: &[Vec<f32>], max_leaf_size: usize, rng: &mut StdRng) -> Self {
        assert!(!points.is_empty(), "cannot index zero clusters");
        assert!(max_leaf_size >= 1, "leaves must hold at least one cluster");
        let mut nodes = Vec::new();
        let mut indices: Vec<u32> = (0..points.len() as u32).collect();
        let root = build_recursive(points, &mut indices, max_leaf_size, rng, &mut nodes);
        RkdTree { nodes, root }
    }

    /// Arena accessor (used by the Merkle wrapper).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Root node index.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Exact nearest cluster to `query` (squared distance; ties go to the
    /// smaller id). This is the assignment rule the protocol fixes — the
    /// client verifies "nearest among all candidates within the threshold"
    /// (§IV-A2) — so the owner and the SP both encode with it.
    ///
    /// One branch-and-bound walk: near side first, so the query's own leaf
    /// seeds the radius, then a far cell only when its plane bound is within
    /// the best distance so far. The bound is the incremental point-to-cell
    /// arithmetic `MRKDSearch` and the client's verification use, so a cell
    /// this walk prunes is one they prune at the resulting threshold too.
    pub fn nearest(&self, points: &[Vec<f32>], query: &[f32]) -> Neighbor {
        let mut best = Neighbor {
            cluster: u32::MAX,
            dist_sq: f32::INFINITY,
        };
        let mut diffs = vec![0.0; query.len()];
        self.nearest_recursive(self.root, points, query, 0.0, &mut diffs, &mut best);
        best
    }

    /// `diffs[dim]` is `dim`'s current contribution to `bound_sq`, the
    /// squared distance from `query` to `node`'s cell.
    fn nearest_recursive(
        &self,
        node: u32,
        points: &[Vec<f32>],
        query: &[f32],
        bound_sq: f32,
        diffs: &mut [f32],
        best: &mut Neighbor,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { clusters } => best.offer_leaf(clusters, points, query),
            Node::Internal {
                dim,
                value,
                left,
                right,
            } => {
                let dim = *dim as usize;
                let d = query[dim] - value;
                let (near, far) = if d <= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.nearest_recursive(near, points, query, bound_sq, diffs, best);
                let far_bound = bound_sq - diffs[dim] + d * d;
                // `<=`: a cell at exactly the best distance may still hold
                // an equally near cluster with a smaller id.
                if far_bound <= best.dist_sq {
                    let saved = diffs[dim];
                    diffs[dim] = d * d;
                    self.nearest_recursive(far, points, query, far_bound, diffs, best);
                    diffs[dim] = saved;
                }
            }
        }
    }
}

fn build_recursive(
    points: &[Vec<f32>],
    indices: &mut [u32],
    max_leaf_size: usize,
    rng: &mut StdRng,
    nodes: &mut Vec<Node>,
) -> u32 {
    if indices.len() <= max_leaf_size {
        nodes.push(Node::Leaf {
            clusters: indices.to_vec(),
        });
        return (nodes.len() - 1) as u32;
    }

    let dim_count = points[indices[0] as usize].len();
    // Mean and variance per dimension over this node's points.
    let mut mean = vec![0.0f64; dim_count];
    for &i in indices.iter() {
        for (m, &v) in mean.iter_mut().zip(&points[i as usize]) {
            *m += v as f64;
        }
    }
    let n = indices.len() as f64;
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0f64; dim_count];
    for &i in indices.iter() {
        for ((v, m), &x) in var.iter_mut().zip(&mean).zip(&points[i as usize]) {
            let d = x as f64 - *m;
            *v += d * d;
        }
    }

    // Rank dimensions by variance; sample the split dim among the top few
    // with positive spread.
    let mut order: Vec<usize> = (0..dim_count).collect();
    order.sort_by(|&a, &b| var[b].total_cmp(&var[a]));
    let spreadable = order.iter().take_while(|&&d| var[d] > 0.0).count();
    if spreadable == 0 {
        // All points identical: a leaf, regardless of occupancy.
        nodes.push(Node::Leaf {
            clusters: indices.to_vec(),
        });
        return (nodes.len() - 1) as u32;
    }
    let pick = rng.gen_range(0..spreadable.min(TOP_VARIANCE_DIMS));
    let dim = order[pick];
    let split_value = mean[dim] as f32;

    // Partition around the mean; a degenerate partition falls back to the
    // median so progress is guaranteed.
    let mut left: Vec<u32> = Vec::new();
    let mut right: Vec<u32> = Vec::new();
    for &i in indices.iter() {
        if points[i as usize][dim] <= split_value {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    let (mut left, mut right, split_value) = if left.is_empty() || right.is_empty() {
        let mut sorted = indices.to_vec();
        sorted.sort_by(|&a, &b| points[a as usize][dim].total_cmp(&points[b as usize][dim]));
        let mid = sorted.len() / 2;
        let value = points[sorted[mid - 1] as usize][dim];
        let (l, r) = sorted.split_at(mid);
        (l.to_vec(), r.to_vec(), value)
    } else {
        (left, right, split_value)
    };

    // Reserve our slot before recursing so parents precede children.
    let my_index = nodes.len() as u32;
    nodes.push(Node::Leaf { clusters: vec![] }); // placeholder
    let left_idx = build_recursive(points, &mut left, max_leaf_size, rng, nodes);
    let right_idx = build_recursive(points, &mut right, max_leaf_size, rng, nodes);
    nodes[my_index as usize] = Node::Internal {
        dim: dim as u32,
        value: split_value,
        left: left_idx,
        right: right_idx,
    };
    my_index
}

/// A forest of randomized k-d trees searched jointly (the AKM index).
#[derive(Clone, Debug)]
pub struct RkdForest {
    trees: Vec<RkdTree>,
}

/// Result of an approximate nearest-cluster query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    pub cluster: u32,
    pub dist_sq: f32,
}

impl RkdForest {
    /// Builds `n_trees` randomized trees over the cluster table.
    pub fn build(points: &[Vec<f32>], n_trees: usize, max_leaf_size: usize, seed: u64) -> Self {
        assert!(n_trees >= 1, "forest needs at least one tree");
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = (0..n_trees)
            .map(|_| RkdTree::build(points, max_leaf_size, &mut rng))
            .collect();
        RkdForest { trees }
    }

    /// Best-bin-first search across all trees, visiting at most `max_checks`
    /// leaves in total (the paper stops after 32), returning the best
    /// cluster found. Training's Lloyd step only: the protocol assigns with
    /// [`RkdTree::nearest`].
    ///
    /// The distance bounds in the queue are FLANN-style accumulated
    /// plane-crossing sums — an inexpensive *over*-estimate that only
    /// affects approximation quality.
    pub fn approx_nearest(
        &self,
        points: &[Vec<f32>],
        query: &[f32],
        max_checks: usize,
    ) -> Neighbor {
        let mut heap: BinaryHeap<Reverse<(OrdF32, u32, u32)>> = BinaryHeap::new();
        let mut best = Neighbor {
            cluster: u32::MAX,
            dist_sq: f32::INFINITY,
        };
        for (t, tree) in self.trees.iter().enumerate() {
            heap.push(Reverse((OrdF32(0.0), t as u32, tree.root())));
        }
        let mut leaves_checked = 0usize;
        while let Some(Reverse((OrdF32(bound), t, mut node))) = heap.pop() {
            if bound > best.dist_sq {
                break;
            }
            let tree = &self.trees[t as usize];
            // Descend to a leaf, enqueueing the far side at each split.
            loop {
                match &tree.nodes()[node as usize] {
                    Node::Internal {
                        dim,
                        value,
                        left,
                        right,
                    } => {
                        let d = query[*dim as usize] - value;
                        let (near, far) = if d <= 0.0 {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        heap.push(Reverse((OrdF32(bound + d * d), t, far)));
                        node = near;
                    }
                    Node::Leaf { clusters } => {
                        best.offer_leaf(clusters, points, query);
                        leaves_checked += 1;
                        break;
                    }
                }
            }
            if leaves_checked >= max_checks {
                break;
            }
        }
        best
    }
}

impl Neighbor {
    /// Scores a leaf's clusters against the best so far; an equally near
    /// cluster wins only with a smaller id.
    fn offer_leaf(&mut self, clusters: &[u32], points: &[Vec<f32>], query: &[f32]) {
        for &c in clusters {
            // `None` proves d > self.dist_sq, which can neither beat the
            // best nor tie it.
            let Some(d) = crate::kernel::dist_sq_within(query, &points[c as usize], self.dist_sq)
            else {
                continue;
            };
            if d < self.dist_sq || (d == self.dist_sq && c < self.cluster) {
                *self = Neighbor {
                    cluster: c,
                    dist_sq: d,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::dist_sq;

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>()).collect())
            .collect()
    }

    fn brute_nearest(points: &[Vec<f32>], q: &[f32]) -> (u32, f32) {
        let mut best = (u32::MAX, f32::INFINITY);
        for (i, p) in points.iter().enumerate() {
            let d = dist_sq(q, p);
            if d < best.1 {
                best = (i as u32, d);
            }
        }
        best
    }

    #[test]
    fn every_cluster_appears_in_exactly_one_leaf() {
        let points = random_points(137, 16, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = RkdTree::build(&points, 2, &mut rng);
        let mut seen = vec![0u32; points.len()];
        for node in tree.nodes() {
            if let Node::Leaf { clusters } = node {
                for &c in clusters {
                    seen[c as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "partition property violated");
    }

    /// `RkdTree::nearest` against a full scan: same id, same distance bits.
    fn assert_nearest_is_brute_force(tree: &RkdTree, points: &[Vec<f32>], q: &[f32]) {
        let got = tree.nearest(points, q);
        let (want_c, want_d) = brute_nearest(points, q);
        assert_eq!(got.cluster, want_c, "query {q:?}");
        assert_eq!(got.dist_sq.to_bits(), want_d.to_bits(), "query {q:?}");
    }

    #[test]
    fn nearest_matches_brute_force() {
        let points = random_points(300, 12, 6);
        let tree = RkdTree::build(&points, 2, &mut StdRng::seed_from_u64(7));
        for q in &random_points(30, 12, 8) {
            assert_nearest_is_brute_force(&tree, &points, q);
        }
    }

    #[test]
    fn nearest_on_a_split_plane_matches_brute_force() {
        // `d == 0` descends left and leaves the right cell at bound 0, so it
        // must still be opened.
        let points = random_points(200, 8, 21);
        let tree = RkdTree::build(&points, 2, &mut StdRng::seed_from_u64(22));
        let queries = random_points(tree.nodes().len(), 8, 23);
        let mut planes = 0;
        for (node, mut q) in tree.nodes().iter().zip(queries) {
            if let Node::Internal { dim, value, .. } = node {
                q[*dim as usize] = *value;
                assert_nearest_is_brute_force(&tree, &points, &q);
                planes += 1;
            }
        }
        assert!(planes > 50);
    }

    #[test]
    fn approx_nearest_with_generous_checks_is_exact() {
        let points = random_points(100, 6, 9);
        let forest = RkdForest::build(&points, 4, 2, 10);
        let queries = random_points(20, 6, 11);
        for q in &queries {
            // Visiting every leaf makes best-bin-first exhaustive.
            let got = forest.approx_nearest(&points, q, 10_000);
            let (want_c, _) = brute_nearest(&points, q);
            assert_eq!(got.cluster, want_c);
        }
    }

    #[test]
    fn approx_nearest_distance_never_below_exact() {
        let points = random_points(500, 16, 12);
        let forest = RkdForest::build(&points, 2, 2, 13);
        let queries = random_points(50, 16, 14);
        for q in &queries {
            let approx = forest.approx_nearest(&points, q, 4);
            let (_, exact_d) = brute_nearest(&points, q);
            assert!(approx.dist_sq >= exact_d);
            assert!(approx.dist_sq.is_finite(), "must return something");
        }
    }

    #[test]
    fn duplicate_points_build_and_search() {
        let mut points = random_points(10, 4, 15);
        for _ in 0..20 {
            points.push(points[0].clone());
        }
        let tree = RkdTree::build(&points, 2, &mut StdRng::seed_from_u64(16));
        let got = tree.nearest(&points, &points[0]);
        assert_eq!((got.cluster, got.dist_sq), (0, 0.0));
    }

    #[test]
    fn ties_at_the_winning_distance_go_to_the_smaller_id() {
        // Duplicates share a leaf; equidistant distinct points on a dyadic
        // grid (exact in `f32`) tie across leaves.
        let mut rng = StdRng::seed_from_u64(24);
        let mut grid = |steps: u32, n: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| {
                    (0..4)
                        .map(|_| rng.gen_range(0..=steps) as f32 / steps as f32)
                        .collect()
                })
                .collect()
        };
        let mut points = grid(2, 120);
        points[5] = points[100].clone();
        let queries = grid(4, 60);
        let tree = RkdTree::build(&points, 2, &mut StdRng::seed_from_u64(25));
        let first = points.iter().position(|p| *p == points[100]).unwrap();
        assert!(first <= 5);
        assert_eq!(tree.nearest(&points, &points[100]).cluster, first as u32);
        for q in &queries {
            assert_nearest_is_brute_force(&tree, &points, q);
        }
    }

    #[test]
    fn single_point_tree() {
        let points = random_points(1, 4, 17);
        let tree = RkdTree::build(&points, 2, &mut StdRng::seed_from_u64(18));
        let q = vec![0.5f32; 4];
        assert_eq!(tree.nearest(&points, &q).cluster, 0);
    }

    #[test]
    fn trees_in_a_forest_differ() {
        let points = random_points(100, 8, 19);
        let forest = RkdForest::build(&points, 2, 2, 20);
        let a = format!("{:?}", forest.trees[0].nodes()[0]);
        let b = format!("{:?}", forest.trees[1].nodes()[0]);
        // Random split choice makes identical roots very unlikely; if this
        // ever flakes the seed can be adjusted, but determinism means it
        // either always passes or always fails.
        assert_ne!(a, b);
    }
}
