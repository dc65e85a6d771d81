//! Equality-pair sets and their transitive closure.

use crate::union_find::UnionFind;
use std::collections::{BTreeMap, BTreeSet};

/// A row identity: table name, row index, and the table's registration
/// — a re-created table numbers its rows from 0 again, and its rows are
/// new rows ([`LeakageLedger::register`](crate::LeakageLedger::register)).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node {
    /// Table name.
    pub table: String,
    /// Row index within the table.
    pub row: usize,
    /// The table's registration the row belongs to: 0 for the first,
    /// one more for each re-creation that replaced recorded rows.
    pub registration: usize,
}

impl Node {
    /// A row of a table's first registration.
    pub fn new(table: &str, row: usize) -> Self {
        Self::registered(table, row, 0)
    }

    /// A row of a table's `registration`-th registration (0-based).
    pub fn registered(table: &str, row: usize, registration: usize) -> Self {
        Node {
            table: table.to_owned(),
            row,
            registration,
        }
    }
}

/// A normalized set of unordered equality pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairSet {
    pairs: BTreeSet<(Node, Node)>,
}

impl PairSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an unordered pair (self-pairs are ignored).
    pub fn insert(&mut self, a: Node, b: Node) {
        if a == b {
            return;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.pairs.insert((lo, hi));
    }

    /// Membership test (order-insensitive).
    pub fn contains(&self, a: &Node, b: &Node) -> bool {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.pairs.contains(&(lo.clone(), hi.clone()))
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Union with another set.
    pub fn union_with(&mut self, other: &PairSet) {
        for (a, b) in &other.pairs {
            self.pairs.insert((a.clone(), b.clone()));
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &PairSet) -> PairSet {
        PairSet {
            pairs: self.pairs.difference(&other.pairs).cloned().collect(),
        }
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &PairSet) -> bool {
        self.pairs.is_subset(&other.pairs)
    }

    /// Iterate pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &(Node, Node)> {
        self.pairs.iter()
    }

    /// All nodes mentioned by any pair.
    pub fn nodes(&self) -> BTreeSet<Node> {
        self.pairs
            .iter()
            .flat_map(|(a, b)| [a.clone(), b.clone()])
            .collect()
    }
}

impl FromIterator<(Node, Node)> for PairSet {
    fn from_iter<I: IntoIterator<Item = (Node, Node)>>(iter: I) -> Self {
        let mut set = PairSet::new();
        for (a, b) in iter {
            set.insert(a, b);
        }
        set
    }
}

/// Expand equality classes into all their member pairs — the
/// definition [`LeakageLedger`](crate::LeakageLedger) is tested against;
/// the ledger itself records classes.
pub fn pairs_from_classes(classes: &[Vec<Node>]) -> PairSet {
    let mut set = PairSet::new();
    for class in classes {
        for i in 0..class.len() {
            for j in i + 1..class.len() {
                set.insert(class[i].clone(), class[j].clone());
            }
        }
    }
    set
}

/// Transitive closure: connect all pairs, then emit every pair within
/// each connected component — the paper's cumulative-leakage lower bound.
pub fn closure(pairs: &PairSet) -> PairSet {
    let nodes: Vec<Node> = pairs.nodes().into_iter().collect();
    let index: BTreeMap<&Node, usize> = nodes.iter().zip(0..).collect();
    let mut uf = UnionFind::new(nodes.len());
    for (a, b) in pairs.iter() {
        uf.union(index[a], index[b]);
    }
    let mut out = PairSet::new();
    for component in uf.components() {
        for i in 0..component.len() {
            for j in i + 1..component.len() {
                out.insert(nodes[component[i]].clone(), nodes[component[j]].clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(t: &str, r: usize) -> Node {
        Node::new(t, r)
    }

    #[test]
    fn insert_normalizes_order() {
        let mut s = PairSet::new();
        s.insert(n("b", 1), n("a", 0));
        s.insert(n("a", 0), n("b", 1));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&n("a", 0), &n("b", 1)));
        assert!(s.contains(&n("b", 1), &n("a", 0)));
    }

    #[test]
    fn self_pairs_dropped() {
        let mut s = PairSet::new();
        s.insert(n("a", 0), n("a", 0));
        assert!(s.is_empty());
    }

    #[test]
    fn closure_of_chain_is_clique() {
        // a-b, b-c  ⇒ closure adds a-c.
        let s: PairSet = [(n("t", 0), n("t", 1)), (n("t", 1), n("t", 2))]
            .into_iter()
            .collect();
        let c = closure(&s);
        assert_eq!(c.len(), 3);
        assert!(c.contains(&n("t", 0), &n("t", 2)));
    }

    #[test]
    fn closure_keeps_components_separate() {
        let s: PairSet = [(n("t", 0), n("t", 1)), (n("t", 5), n("t", 6))]
            .into_iter()
            .collect();
        let c = closure(&s);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(&n("t", 0), &n("t", 5)));
    }

    #[test]
    fn closure_is_monotone_and_idempotent() {
        let s: PairSet = [
            (n("a", 0), n("b", 0)),
            (n("b", 0), n("a", 1)),
            (n("c", 3), n("c", 4)),
        ]
        .into_iter()
        .collect();
        let c1 = closure(&s);
        let c2 = closure(&c1);
        assert_eq!(c1, c2, "closure is idempotent");
        assert!(s.is_subset(&c1), "closure contains the base set");
    }

    #[test]
    fn pairs_from_classes_expands_cliques() {
        let classes = vec![
            vec![n("a", 0), n("a", 1), n("b", 0)],
            vec![n("b", 7)], // singleton: contributes nothing
        ];
        let s = pairs_from_classes(&classes);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn difference_and_subset() {
        let big: PairSet = [(n("t", 0), n("t", 1)), (n("t", 2), n("t", 3))]
            .into_iter()
            .collect();
        let small: PairSet = [(n("t", 0), n("t", 1))].into_iter().collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        let diff = big.difference(&small);
        assert_eq!(diff.len(), 1);
        assert!(diff.contains(&n("t", 2), &n("t", 3)));
    }
}
