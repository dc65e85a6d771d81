//! Union–find (disjoint set) with path compression and union by size.

/// Disjoint-set forest over `0..n`; [`push`](Self::push) grows it by one
/// singleton.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Add one singleton set and return its element.
    pub fn push(&mut self) -> usize {
        let x = self.parent.len();
        self.parent.push(x);
        self.size.push(1);
        x
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`; returns true if they were separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        self.merge(a, b).is_some()
    }

    /// Merge the sets of `a` and `b`; if they were separate, returns
    /// their sizes before the merge.
    pub fn merge(&mut self, a: usize, b: usize) -> Option<(usize, usize)> {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        let sizes = (self.size[ra], self.size[rb]);
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        Some(sizes)
    }

    /// True iff `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True iff the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Group elements by component (components of size ≥ 2 only).
    pub fn components(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for x in 0..n {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().filter(|v| v.len() >= 2).collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_unions() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.components(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn chains_compress() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert!(uf.connected(0, 99));
        assert_eq!(uf.components()[0].len(), 100);
    }

    #[test]
    fn push_grows_and_merge_reports_sizes() {
        let mut uf = UnionFind::default();
        let (a, b, c) = (uf.push(), uf.push(), uf.push());
        assert_eq!((a, b, c, uf.len()), (0, 1, 2, 3));
        assert_eq!(uf.merge(a, b), Some((1, 1)));
        assert_eq!(uf.merge(c, a), Some((1, 2)));
        assert_eq!(uf.merge(b, c), None, "already one set");
        let d = uf.push();
        assert!(!uf.connected(a, d));
        assert_eq!(uf.components(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn empty_and_singletons() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.components().is_empty());
        let mut uf = UnionFind::new(3);
        assert!(uf.components().is_empty(), "singletons are not components");
    }
}
