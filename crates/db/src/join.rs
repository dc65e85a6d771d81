//! Matching algorithms over decrypted `D` values.
//!
//! The paper's headline systems contribution over Hahn et al. is that
//! matching can use an **expected `O(n)` hash join** on the canonical
//! `D`-bytes instead of an `O(n²)` nested loop, because `SJ.Dec` outputs
//! directly comparable group elements. The server always runs the hash
//! join; the nested loop is kept as the §6.5 comparison arm
//! (`eqjoin-bench`'s `compare`) and as a test oracle, and no request
//! can select it.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Output of the hash join: the equality classes the server observed
/// — which are also the answer, since two rows match exactly when they
/// share a class ([`class_pairs`]) — and `comparisons`, one bucket probe
/// per row.
pub struct MatchOutcome {
    /// Equality classes over `(side, row)` with at least two members;
    /// side 0 = left, 1 = right. Classes come in the order of their
    /// first member and members in input order (the left rows, then the
    /// right rows), so equal inputs give equal outcomes.
    pub equality_classes: Vec<Vec<(u8, usize)>>,
    /// Number of equality comparisons performed.
    pub comparisons: u64,
}

/// The matched `(left row, right row)` pairs of equality classes,
/// sorted: in each class, every side-0 member with every side-1 member.
pub fn class_pairs(classes: &[Vec<(u8, usize)>]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(class_pair_count(classes));
    for class in classes {
        let side = |s: u8| class.iter().filter(move |m| m.0 == s).map(|m| m.1);
        for l in side(0) {
            pairs.extend(side(1).map(|r| (l, r)));
        }
    }
    pairs.sort_unstable();
    pairs
}

/// `class_pairs(classes).len()` without building them:
/// `Σ |side 0| × |side 1|` over the classes.
pub fn class_pair_count(classes: &[Vec<(u8, usize)>]) -> usize {
    classes
        .iter()
        .map(|class| {
            let side = |s: u8| class.iter().filter(|m| m.0 == s).count();
            side(0) * side(1)
        })
        .sum()
}

/// A `D` value as a bucket key: equal iff the whole values are equal,
/// hashed on its last 16 bytes only. In the engines' big-endian
/// canonical encodings those are low-order limb bytes, spread
/// uniformly, so 16 bytes bucket as well as the whole value (576 at
/// `Bls12`) at a fraction of the hashing; values that share the window
/// and differ elsewhere cost a probe, never a false match. The hasher
/// stays std's keyed one, and a crafted pile-up would need `SJ.Dec`
/// outputs that agree on 128 bits.
#[derive(PartialEq, Eq)]
struct DKey<'a>(&'a [u8]);

impl Hash for DKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.0.rchunks(16).next().unwrap_or_default());
    }
}

/// End of a bucket's chain in [`hash_join`]'s `next` (out of range).
const CHAIN_END: usize = usize::MAX;
/// A member [`hash_join`] has put in a class already (out of range).
const PLACED: usize = usize::MAX - 1;

/// Hash join: bucket both sides by `D` bytes; each bucket of two or
/// more rows is an equality class.
///
/// Members are numbered in input order, the left rows, then the right
/// rows. The bucket map holds each key's latest member, and one index
/// vector chains every member to the next one in its bucket, so
/// bucketing allocates nothing per row. A walk in input order then
/// turns each bucket that got a second member into a class, at its
/// first member: classes come in first-member order, members in input
/// order, whatever the hasher's keys.
pub fn hash_join<K: AsRef<[u8]>>(left: &[(usize, K)], right: &[(usize, K)]) -> MatchOutcome {
    let member = |at: usize| match at.checked_sub(left.len()) {
        None => left.get(at).map(|(row, key)| (0u8, *row, key)),
        Some(at) => right.get(at).map(|(row, key)| (1u8, *row, key)),
    };
    let members = || {
        let left = left.iter().map(|(row, key)| (0u8, *row, key));
        left.chain(right.iter().map(|(row, key)| (1u8, *row, key)))
    };
    let n = left.len() + right.len();
    let mut latest: HashMap<DKey, usize> = HashMap::with_capacity(n);
    let mut next = vec![CHAIN_END; n];
    for (at, (_, _, key)) in members().enumerate() {
        if let Some(previous) = latest.insert(DKey(key.as_ref()), at) {
            if let Some(link) = next.get_mut(previous) {
                *link = at;
            }
        }
    }

    // Each class takes a key and at least one row beyond its first.
    let distinct = latest.len();
    let mut equality_classes = Vec::with_capacity(distinct.min(n - distinct));
    for (at, (side, row, _)) in members().enumerate() {
        // A bucket's later members are placed by the time the walk
        // reaches them, so a member with a live link starts a class.
        let Some(&second) = next.get(at).filter(|&&to| to < n) else {
            continue;
        };
        let later = std::iter::successors(Some(second), |&at| {
            next.get(at).copied().filter(|&to| to < n)
        })
        .count();
        let mut class = Vec::with_capacity(1 + later);
        class.push((side, row));
        let mut at = second;
        while let Some(link) = next.get_mut(at) {
            class.extend(member(at).map(|(side, row, _)| (side, row)));
            at = std::mem::replace(link, PLACED);
        }
        equality_classes.push(class);
    }
    MatchOutcome {
        equality_classes,
        comparisons: n as u64, // one probe per row
    }
}

/// Output of the nested loop: the matched `(left row, right row)`
/// pairs, sorted, and the `|L|·|R|` comparisons that found them.
pub struct NestedLoopOutcome {
    /// Matched row-index pairs `(left_row, right_row)`.
    pub pairs: Vec<(usize, usize)>,
    /// Number of equality comparisons performed.
    pub comparisons: u64,
}

/// Nested-loop join: compare every left/right pair — `O(n²)`, Hahn et
/// al.'s constraint, and the reference the hash join's classes are
/// tested against.
pub fn nested_loop_join<K: AsRef<[u8]>>(
    left: &[(usize, K)],
    right: &[(usize, K)],
) -> NestedLoopOutcome {
    let mut pairs = Vec::new();
    let mut comparisons = 0u64;
    for (l, lk) in left {
        for (r, rk) in right {
            comparisons += 1;
            if lk.as_ref() == rk.as_ref() {
                pairs.push((*l, *r));
            }
        }
    }
    pairs.sort_unstable();
    NestedLoopOutcome { pairs, comparisons }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(pairs: &[(usize, u8)]) -> Vec<(usize, Vec<u8>)> {
        pairs.iter().map(|&(i, k)| (i, vec![k])).collect()
    }

    #[test]
    fn hash_join_matches_pairs() {
        let left = keyed(&[(0, 10), (1, 20), (2, 10)]);
        let right = keyed(&[(0, 10), (1, 30)]);
        let out = hash_join(&left, &right);
        assert_eq!(class_pairs(&out.equality_classes), vec![(0, 0), (2, 0)]);
        assert_eq!(class_pair_count(&out.equality_classes), 2);
    }

    #[test]
    fn nested_loop_agrees_with_hash_join() {
        let left = keyed(&[(0, 1), (1, 2), (2, 3), (3, 1), (4, 9)]);
        let right = keyed(&[(0, 1), (1, 1), (2, 3), (3, 7)]);
        let h = hash_join(&left, &right);
        let n = nested_loop_join(&left, &right);
        assert_eq!(class_pairs(&h.equality_classes), n.pairs);
        assert_eq!(class_pair_count(&h.equality_classes), n.pairs.len());
        assert_eq!(n.comparisons, 20, "nested loop does |L|·|R| comparisons");
        assert!(h.comparisons < n.comparisons);
    }

    #[test]
    fn classes_come_in_first_member_order_with_members_in_input_order() {
        let left = keyed(&[(5, 3), (6, 1), (7, 3), (8, 2)]);
        let right = keyed(&[(0, 2), (1, 1), (2, 3), (3, 9), (4, 9)]);
        let out = hash_join(&left, &right);
        assert_eq!(
            out.equality_classes,
            vec![
                vec![(0, 5), (0, 7), (1, 2)],
                vec![(0, 6), (1, 1)],
                vec![(0, 8), (1, 0)],
                vec![(1, 3), (1, 4)],
            ]
        );
        assert_eq!(out.comparisons, 9);
    }

    #[test]
    fn equality_classes_span_tables() {
        // Two left rows and one right row share a key: one class of 3.
        let left = keyed(&[(0, 5), (1, 5)]);
        let right = keyed(&[(7, 5), (8, 6)]);
        let out = hash_join(&left, &right);
        assert_eq!(out.equality_classes.len(), 1);
        let mut class = out.equality_classes[0].clone();
        class.sort_unstable();
        assert_eq!(class, vec![(0, 0), (0, 1), (1, 7)]);
    }

    #[test]
    fn within_table_only_class_detected() {
        // Equal keys on the same side with no cross match still form a
        // class (the paper's (b1,b2)-style transitive-closure leakage).
        let left = keyed(&[(0, 4), (1, 4)]);
        let right = keyed(&[(9, 5)]);
        let out = hash_join(&left, &right);
        assert!(class_pairs(&out.equality_classes).is_empty());
        assert_eq!(class_pair_count(&out.equality_classes), 0);
        assert_eq!(out.equality_classes.len(), 1);
        assert_eq!(out.equality_classes[0].len(), 2);
    }

    /// Equality classes in a canonical order, members sorted.
    fn canonical(mut classes: Vec<Vec<(u8, usize)>>) -> Vec<Vec<(u8, usize)>> {
        for class in &mut classes {
            class.sort_unstable();
        }
        classes.sort_unstable();
        classes
    }

    /// Classes by grouping on the whole value, independently of any hash.
    fn reference_classes(
        left: &[(usize, Vec<u8>)],
        right: &[(usize, Vec<u8>)],
    ) -> Vec<Vec<(u8, usize)>> {
        let mut groups: std::collections::BTreeMap<&[u8], Vec<(u8, usize)>> = Default::default();
        let sides = left
            .iter()
            .map(|r| (0u8, r))
            .chain(right.iter().map(|r| (1u8, r)));
        for (side, (idx, key)) in sides {
            groups.entry(key).or_default().push((side, *idx));
        }
        canonical(groups.into_values().filter(|c| c.len() >= 2).collect())
    }

    #[test]
    fn bucket_key_hashes_the_window_and_compares_the_whole_value() {
        // 576-byte values (a `Bls12` D) that share their last 16 bytes.
        let value = |head: u8| {
            let mut v = vec![head; 576];
            v[560..].copy_from_slice(&[7u8; 16]);
            v
        };
        let left = vec![(0, value(1)), (1, value(2)), (2, value(1))];
        let right = vec![(0, value(2)), (1, value(3)), (2, value(1))];
        let out = hash_join(&left, &right);
        assert_eq!(
            class_pairs(&out.equality_classes),
            vec![(0, 2), (1, 0), (2, 2)]
        );
        assert_eq!(
            canonical(out.equality_classes),
            vec![vec![(0, 0), (0, 2), (1, 2)], vec![(0, 1), (1, 0)]]
        );
        // Values shorter than the window bucket whole.
        let short = keyed(&[(0, 1), (1, 2)]);
        let out = hash_join(&short, &short);
        assert_eq!(class_pairs(&out.equality_classes), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn hash_join_agrees_with_nested_loop_on_pairs_and_classes() {
        // Values that differ outside the hashed window, inside it, or
        // not at all, from a small alphabet so that classes form.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut side = |n: usize| -> Vec<(usize, Vec<u8>)> {
                (0..n)
                    .map(|i| {
                        let r = next();
                        let mut v = vec![0u8; 40];
                        v[0] = (r % 3) as u8;
                        v[39] = ((r >> 8) % 3) as u8;
                        (i, v)
                    })
                    .collect()
            };
            let (left, right) = (side(12), side(9));
            let h = hash_join(&left, &right);
            let n = nested_loop_join(&left, &right);
            assert_eq!(class_pairs(&h.equality_classes), n.pairs);
            assert_eq!(class_pair_count(&h.equality_classes), n.pairs.len());
            assert_eq!(
                canonical(h.equality_classes),
                reference_classes(&left, &right)
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let out = hash_join::<Vec<u8>>(&[], &[]);
        assert!(out.equality_classes.is_empty());
        let out = nested_loop_join(&keyed(&[(0, 1)]), &[]);
        assert!(out.pairs.is_empty());
    }
}
