//! The shared multi-query traversal engine behind `MRKDSearch` (Alg. 1).
//!
//! Both sides of the protocol walk a k-d structure while maintaining, for
//! every query vector, an exact lower bound on the distance from the query to
//! the current node's cell:
//!
//! * the **SP** walks the real MRKD-tree to decide which subtrees to open
//!   and which to prune (emitting digests);
//! * the **client** walks the VO tree to check that every pruned subtree was
//!   legitimately prunable and every opened leaf is accounted for.
//!
//! Soundness requires both walks to compute *bit-identical* `f32` bounds, so
//! the bound arithmetic lives here, once. The incremental rule: descending
//! to the far child of a split on dimension `dim` with signed offset
//! `d = q[dim] - value` replaces that dimension's contribution with `d²`
//! (cells nest, so the new constraint dominates), giving the exact
//! point-to-cell squared distance.

use crate::tree::Shape;

/// One query that reaches the current node, with its cell-distance bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActiveQuery {
    /// Index into the query array.
    pub query: u32,
    /// Exact squared distance from the query to this node's cell.
    pub bound_sq: f32,
}

/// The structure being walked (real tree or VO tree). A node whose digest
/// is [`Shape::Known`] is an undisclosed subtree (only occurs in VO walks).
pub trait TreeSource {
    fn root(&self) -> usize;
    fn view(&self, node: usize) -> Shape<'_>;
}

/// Walk callbacks, fired in pre-order: a node's before anything below it,
/// its left subtree's before its right subtree's.
pub trait TraversalVisitor {
    type Err;

    /// A node no query reaches (the engine does not descend into it).
    fn inactive(&mut self, _node: usize) -> Result<(), Self::Err> {
        Ok(())
    }
    /// An opaque (pruned-in-VO) node that at least one query reaches.
    fn opaque(&mut self, node: usize, active: &[ActiveQuery]) -> Result<(), Self::Err>;
    /// A disclosed leaf reached by at least one query.
    fn leaf(&mut self, node: usize, active: &[ActiveQuery]) -> Result<(), Self::Err>;
    /// A disclosed internal node reached by at least one query, before
    /// either child.
    fn internal(
        &mut self,
        _node: usize,
        _dim: u32,
        _value: f32,
        _active: &[ActiveQuery],
    ) -> Result<(), Self::Err> {
        Ok(())
    }
}

/// Per-depth scratch buffers for the child partition built at each internal
/// node. The walk is depth-first, so exactly one invocation is live per
/// depth at any time: vectors are taken from the slot on entry and returned
/// (cleared, capacity retained) on exit, reducing allocation to O(depth)
/// per traversal instead of four `Vec`s per visited internal node.
#[derive(Default)]
struct FramePool {
    frames: Vec<Frame>,
}

#[derive(Default)]
struct Frame {
    left_active: Vec<ActiveQuery>,
    right_active: Vec<ActiveQuery>,
    left_crossers: Vec<(u32, f32)>,
    right_crossers: Vec<(u32, f32)>,
    saved: Vec<f32>,
}

impl FramePool {
    // audit:allow(panic) the pool is resized to depth + 1 immediately before the access
    fn take(&mut self, depth: usize) -> Frame {
        if self.frames.len() <= depth {
            self.frames.resize_with(depth + 1, Frame::default);
        }
        std::mem::take(&mut self.frames[depth])
    }

    // audit:allow(panic) put always follows take at the same depth, which sized the pool
    fn put(&mut self, depth: usize, mut frame: Frame) {
        frame.left_active.clear();
        frame.right_active.clear();
        frame.left_crossers.clear();
        frame.right_crossers.clear();
        frame.saved.clear();
        self.frames[depth] = frame;
    }
}

/// Runs the multi-query traversal.
///
/// `thresholds_sq[q]` is the squared radius within which query `q` must see
/// every cluster. Queries whose thresholds are negative never activate.
// audit:allow(panic) q ranges over 0..queries.len() and thresholds_sq has the same length (asserted on entry)
pub fn traverse<S: TreeSource, V: TraversalVisitor>(
    source: &S,
    queries: &[Vec<f32>],
    thresholds_sq: &[f32],
    visitor: &mut V,
) -> Result<(), V::Err> {
    assert_eq!(queries.len(), thresholds_sq.len());
    let dim = queries.first().map_or(0, Vec::len);
    let mut diffs = vec![0.0f32; queries.len() * dim];
    let active: Vec<ActiveQuery> = (0..queries.len() as u32)
        .filter(|&q| thresholds_sq[q as usize] >= 0.0)
        .map(|query| ActiveQuery {
            query,
            bound_sq: 0.0,
        })
        .collect();
    let mut pool = FramePool::default();
    recurse(
        source,
        source.root(),
        &active,
        &mut diffs,
        dim,
        queries,
        thresholds_sq,
        visitor,
        &mut pool,
        0,
    )
}

#[allow(clippy::too_many_arguments)]
// audit:allow(panic) query indices come from 0..queries.len(); split dims are the SP tree's own, or VO dims already validated by digest reconstruction
fn recurse<S: TreeSource, V: TraversalVisitor>(
    source: &S,
    node: usize,
    active: &[ActiveQuery],
    diffs: &mut [f32],
    dim_count: usize,
    queries: &[Vec<f32>],
    thresholds_sq: &[f32],
    visitor: &mut V,
    pool: &mut FramePool,
    depth: usize,
) -> Result<(), V::Err> {
    if active.is_empty() {
        return visitor.inactive(node);
    }
    match source.view(node) {
        Shape::Known(_) => visitor.opaque(node, active),
        Shape::Leaf(_) => visitor.leaf(node, active),
        Shape::Internal {
            dim,
            value,
            left,
            right,
        } => {
            visitor.internal(node, dim, value, active)?;
            let mut frame = pool.take(depth);
            let Frame {
                left_active,
                right_active,
                // Queries that enter a child across the split plane, with
                // the diff value to install during that child's recursion.
                left_crossers,
                right_crossers,
                saved,
            } = &mut frame;
            for aq in active {
                let q = aq.query as usize;
                let d = queries[q][dim as usize] - value;
                let far_bound = aq.bound_sq - diffs[q * dim_count + dim as usize] + d * d;
                if d <= 0.0 {
                    // Query on the left half-space.
                    left_active.push(*aq);
                    if far_bound <= thresholds_sq[q] {
                        right_active.push(ActiveQuery {
                            query: aq.query,
                            bound_sq: far_bound,
                        });
                        right_crossers.push((aq.query, d * d));
                    }
                } else {
                    right_active.push(*aq);
                    if far_bound <= thresholds_sq[q] {
                        left_active.push(ActiveQuery {
                            query: aq.query,
                            bound_sq: far_bound,
                        });
                        left_crossers.push((aq.query, d * d));
                    }
                }
            }

            with_diffs(diffs, dim_count, dim, left_crossers, saved, |diffs| {
                recurse(
                    source,
                    left,
                    left_active,
                    diffs,
                    dim_count,
                    queries,
                    thresholds_sq,
                    visitor,
                    pool,
                    depth + 1,
                )
            })?;
            with_diffs(diffs, dim_count, dim, right_crossers, saved, |diffs| {
                recurse(
                    source,
                    right,
                    right_active,
                    diffs,
                    dim_count,
                    queries,
                    thresholds_sq,
                    visitor,
                    pool,
                    depth + 1,
                )
            })?;
            pool.put(depth, frame);
            Ok(())
        }
    }
}

/// Temporarily installs crossing-diff values, restoring them afterwards.
/// `saved` is caller-provided scratch (cleared here before use).
// audit:allow(panic) crossers carry q and dim that recurse already used to index the same buffers
fn with_diffs<R>(
    diffs: &mut [f32],
    dim_count: usize,
    dim: u32,
    crossers: &[(u32, f32)],
    saved: &mut Vec<f32>,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    saved.clear();
    for &(q, new) in crossers {
        let slot = q as usize * dim_count + dim as usize;
        saved.push(diffs[slot]);
        diffs[slot] = new;
    }
    let out = f(diffs);
    for (&(q, _), &old) in crossers.iter().zip(saved.iter()) {
        diffs[q as usize * dim_count + dim as usize] = old;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use imageproof_akm::kernel::dist_sq;
    use imageproof_akm::rkd::{Node, RkdTree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// TreeSource over a plain randomized k-d tree.
    struct RkdSource<'a>(&'a RkdTree);

    impl TreeSource for RkdSource<'_> {
        fn root(&self) -> usize {
            self.0.root() as usize
        }
        fn view(&self, node: usize) -> Shape<'_> {
            match &self.0.nodes()[node] {
                Node::Internal {
                    dim,
                    value,
                    left,
                    right,
                } => Shape::Internal {
                    dim: *dim,
                    value: *value,
                    left: *left as usize,
                    right: *right as usize,
                },
                Node::Leaf { clusters } => Shape::Leaf(clusters),
            }
        }
    }

    /// Collects, per query, every cluster in every leaf the query reaches.
    struct Collector<'a> {
        tree: &'a RkdTree,
        reached: Vec<Vec<u32>>,
    }

    impl TraversalVisitor for Collector<'_> {
        type Err = std::convert::Infallible;

        fn opaque(&mut self, _node: usize, _a: &[ActiveQuery]) -> Result<(), Self::Err> {
            unreachable!("real trees have no opaque nodes")
        }
        fn leaf(&mut self, node: usize, active: &[ActiveQuery]) -> Result<(), Self::Err> {
            if let Node::Leaf { clusters } = &self.tree.nodes()[node] {
                for aq in active {
                    self.reached[aq.query as usize].extend(clusters.iter().copied());
                }
            }
            Ok(())
        }
    }

    #[test]
    fn multi_query_traversal_reaches_every_cluster_within_threshold() {
        let mut rng = StdRng::seed_from_u64(21);
        let points: Vec<Vec<f32>> = (0..150)
            .map(|_| (0..10).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let tree = RkdTree::build(&points, 2, &mut StdRng::seed_from_u64(22));
        let queries: Vec<Vec<f32>> = (0..12)
            .map(|_| (0..10).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let thresholds: Vec<f32> = (0..12).map(|i| 0.02 + 0.03 * i as f32).collect();

        let mut visitor = Collector {
            tree: &tree,
            reached: vec![Vec::new(); queries.len()],
        };
        traverse(&RkdSource(&tree), &queries, &thresholds, &mut visitor).expect("infallible");

        for (qi, q) in queries.iter().enumerate() {
            let within: Vec<u32> = (0..points.len() as u32)
                .filter(|&c| dist_sq(q, &points[c as usize]) <= thresholds[qi])
                .collect();
            for c in within {
                assert!(
                    visitor.reached[qi].contains(&c),
                    "query {qi} missed cluster {c}"
                );
            }
        }
    }

    #[test]
    fn negative_threshold_deactivates_a_query() {
        let points: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let tree = RkdTree::build(&points, 1, &mut StdRng::seed_from_u64(1));
        let queries = vec![vec![0.0f32, 0.0], vec![1.0f32, 1.0]];
        let thresholds = vec![-1.0f32, 0.5];
        let mut visitor = Collector {
            tree: &tree,
            reached: vec![Vec::new(); 2],
        };
        traverse(&RkdSource(&tree), &queries, &thresholds, &mut visitor).expect("infallible");
        assert!(visitor.reached[0].is_empty());
        assert!(!visitor.reached[1].is_empty());
    }

    #[test]
    fn shared_traversal_equals_per_query_traversals() {
        // The node-sharing optimization must not change which leaves each
        // query reaches (it only merges the walks).
        let mut rng = StdRng::seed_from_u64(31);
        let points: Vec<Vec<f32>> = (0..100)
            .map(|_| (0..6).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let tree = RkdTree::build(&points, 2, &mut StdRng::seed_from_u64(32));
        let queries: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..6).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let thresholds = vec![0.08f32; queries.len()];

        let mut shared = Collector {
            tree: &tree,
            reached: vec![Vec::new(); queries.len()],
        };
        traverse(&RkdSource(&tree), &queries, &thresholds, &mut shared).expect("infallible");

        for (qi, q) in queries.iter().enumerate() {
            let mut solo = Collector {
                tree: &tree,
                reached: vec![Vec::new()],
            };
            traverse(
                &RkdSource(&tree),
                std::slice::from_ref(q),
                &[thresholds[qi]],
                &mut solo,
            )
            .expect("infallible");
            let mut a = shared.reached[qi].clone();
            let mut b = solo.reached[0].clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {qi}");
        }
    }
}
