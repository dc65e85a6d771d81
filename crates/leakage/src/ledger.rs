//! The leakage ledger: per-query observations, cumulative accounting and
//! the super-additivity verdict.
//!
//! For a series of queries `q₁ … q_μ`, let `σ(qᵢ)` be the equality pairs
//! a scheme reveals *while processing* `qᵢ` (for Secure Join these are
//! the matching `D`-value pairs; for baselines, whatever their mechanism
//! exposes). The paper's target (Corollary 5.2.2) is
//!
//! ```text
//!   cumulative leakage  ⊆  closure( σ(q₁) ∪ … ∪ σ(q_μ) )
//! ```
//!
//! A scheme exhibits **super-additive leakage** when the pairs it makes
//! visible exceed that closure (CryptDB's onion peel and Hahn et al.'s
//! cumulative unwrap both do; see `eqjoin-baselines`).
//!
//! The ledger keeps that closure as it grows instead of recomputing it.
//! A query's `σ(q)` is recorded as the equality classes it revealed
//! (every two members of one class are a pair of `σ(q)`). Every row a
//! class names is interned (a table's registration → small id,
//! `(id, row)` → union–find element), a class of `c` members is `c − 1`
//! unions against its first member, and the closure's size
//! `Σ C(|component|, 2)` rises by `|A|·|B|` whenever components `A` and
//! `B` merge. Recording a query costs `O(Σ c · α)` — its class members,
//! not its `Σ C(c, 2)` pairs — the counts are read in `O(1)`, and a pair
//! set is built only when one is asked for
//! ([`LeakageLedger::per_query`], [`LeakageLedger::union_of_queries`],
//! [`LeakageLedger::closure_bound`], [`LeakageLedger::visible_now`]).
//!
//! A row is named by its table and row id, and a re-created table
//! numbers its rows from 0 again. [`LeakageLedger::register`] marks
//! that: the table's rows recorded after it are new nodes (their
//! [`Node::registration`] is one higher), and the rows recorded before
//! it stay in the closure as they were.

use crate::pairs::{Node, PairSet};
use crate::union_find::UnionFind;
use std::collections::HashMap;

/// The observation recorded for one query.
#[derive(Clone, Debug)]
pub struct QueryLeakage {
    /// Query identifier (position in the series).
    pub query_id: u64,
    /// Pairs revealed *by this query alone* under the scheme's minimal
    /// semantics (for SJ: matched selected rows).
    pub per_query: PairSet,
    /// Pairs actually visible to the adversary after this query,
    /// cumulatively (schemes with state, like an onion peel, can expose
    /// strictly more than `per_query`).
    pub cumulative_visible: PairSet,
}

/// One recorded query as the ledger keeps it: `σ(q)` as classes of
/// interned nodes and the two counts [`LeakageLedger::growth_series`]
/// plots — never a pair set.
#[derive(Clone, Debug)]
pub struct LedgerEntry {
    /// Query identifier (position in the series).
    pub query_id: u64,
    /// Pairs visible to the adversary after this query.
    pub visible_pairs: usize,
    /// `|closure(σ(q₁) ∪ … ∪ σ(this query))|`.
    pub closure_bound: usize,
    /// `σ(q)` as classes of interned nodes, `Σ c` ids for classes of
    /// `c` members ([`LeakageLedger::per_query`] turns it into a
    /// [`PairSet`]).
    per_query: Vec<Vec<usize>>,
}

/// The registrations of one table name: the one its next rows belong
/// to, and `(registration, interned table)` for each one interned.
#[derive(Clone, Debug, Default)]
struct Registrations {
    current: usize,
    interned: Vec<(usize, usize)>,
}

impl Registrations {
    fn table(&self, registration: usize) -> Option<usize> {
        self.interned
            .iter()
            .find(|&&(r, _)| r == registration)
            .map(|&(_, id)| id)
    }
}

/// The closure of the union recorded so far, kept as the components of
/// a growing union–find over interned nodes.
#[derive(Clone, Debug, Default)]
struct Closure {
    /// `(name, registration)` of each interned table.
    tables: Vec<(String, usize)>,
    names: HashMap<String, Registrations>,
    /// `(table id, row)` of each union–find element, and back.
    nodes: Vec<(usize, usize)>,
    node_ids: HashMap<(usize, usize), usize>,
    components: UnionFind,
    /// `Σ C(|component|, 2)`: the number of pairs in the closure.
    pairs: usize,
}

impl Closure {
    /// The id of `name`'s `registration` (its current one if `None`),
    /// interned on first use.
    fn table(&mut self, name: &str, registration: Option<usize>) -> usize {
        let registrations = match self.names.get_mut(name) {
            Some(registrations) => registrations,
            None => self.names.entry(name.to_owned()).or_default(),
        };
        let registration = registration.unwrap_or(registrations.current);
        if let Some(id) = registrations.table(registration) {
            return id;
        }
        let id = self.tables.len();
        registrations.interned.push((registration, id));
        self.tables.push((name.to_owned(), registration));
        id
    }

    fn node_id(&mut self, table: usize, row: usize) -> usize {
        let key = (table, row);
        if let Some(&id) = self.node_ids.get(&key) {
            return id;
        }
        let id = self.components.push();
        self.nodes.push(key);
        self.node_ids.insert(key, id);
        id
    }

    fn intern(&mut self, node: &Node) -> usize {
        let table = self.table(&node.table, Some(node.registration));
        self.node_id(table, node.row)
    }

    fn lookup(&self, node: &Node) -> Option<usize> {
        let table = self.names.get(&node.table)?.table(node.registration)?;
        self.node_ids.get(&(table, node.row)).copied()
    }

    fn node(&self, id: usize) -> Node {
        let (table, row) = self.nodes[id];
        let (name, registration) = &self.tables[table];
        Node::registered(name, row, *registration)
    }

    /// Union the members of one class: `c − 1` unions against its
    /// first member.
    fn absorb(&mut self, class: &[usize]) {
        if let Some((&first, rest)) = class.split_first() {
            for &member in rest {
                if let Some((x, y)) = self.components.merge(first, member) {
                    self.pairs += x * y;
                }
            }
        }
    }

    /// Is `(a, b)` in the closure?
    fn contains(&mut self, a: &Node, b: &Node) -> bool {
        match (self.lookup(a), self.lookup(b)) {
            (Some(a), Some(b)) => self.components.connected(a, b),
            _ => false,
        }
    }

    /// Every pair of two members of one class.
    fn pairs_of<'a>(&self, classes: impl IntoIterator<Item = &'a Vec<usize>>) -> PairSet {
        let mut out = PairSet::new();
        for class in classes {
            for (i, &a) in class.iter().enumerate() {
                for &b in &class[i + 1..] {
                    out.insert(self.node(a), self.node(b));
                }
            }
        }
        out
    }

    fn materialise(&self) -> PairSet {
        self.pairs_of(&self.components.clone().components())
    }
}

/// What the latest [`LeakageLedger::record`] declared visible, and how
/// many of those pairs lie outside the closure.
#[derive(Clone, Debug)]
struct Declared {
    visible: PairSet,
    excess: usize,
}

/// Accumulates a query series for one scheme and renders verdicts.
#[derive(Clone, Debug, Default)]
pub struct LeakageLedger {
    history: Vec<LedgerEntry>,
    closure: Closure,
    /// `None` while the latest entry came from
    /// [`record_closed`](Self::record_closed): what is visible is then
    /// the closure itself.
    declared: Option<Declared>,
}

impl LeakageLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one query's leakage together with the pair set the
    /// scheme's state makes visible after it — for stateful schemes,
    /// whose visible set is not the closure. Each pair of `per_query`
    /// is kept as a class of two.
    pub fn record(&mut self, leakage: QueryLeakage) {
        let per_query = leakage
            .per_query
            .iter()
            .map(|(a, b)| {
                let class = vec![self.closure.intern(a), self.closure.intern(b)];
                self.closure.absorb(&class);
                class
            })
            .collect();
        let visible = leakage.cumulative_visible;
        let excess = visible
            .iter()
            .filter(|(a, b)| !self.closure.contains(a, b))
            .count();
        self.history.push(LedgerEntry {
            query_id: leakage.query_id,
            visible_pairs: visible.len(),
            closure_bound: self.closure.pairs,
            per_query,
        });
        self.declared = Some(Declared { visible, excess });
    }

    /// Record one query of a scheme whose visible set *is* the closure
    /// of the union (Secure Join), from the equality classes it
    /// revealed: a member `(t, row)` is row `row` of `tables[t]`, in
    /// that table's current registration. This is `record` with
    /// `per_query` every pair inside one class and `cumulative_visible =
    /// closure(σ(q₁) ∪ … ∪ σ(q))`, at `O(Σ c · α)` for classes of `c`
    /// members. Returns the number of pairs this query added to the
    /// closure.
    ///
    /// # Panics
    ///
    /// If a member's table index is not below `tables.len()`.
    pub fn record_closed<T: AsRef<str>>(
        &mut self,
        query_id: u64,
        tables: &[T],
        classes: &[Vec<(u8, usize)>],
    ) -> usize {
        let before = self.closure.pairs;
        let tables: Vec<usize> = tables
            .iter()
            .map(|name| self.closure.table(name.as_ref(), None))
            .collect();
        let per_query = classes
            .iter()
            .map(|class| {
                let class: Vec<usize> = class
                    .iter()
                    .map(|&(t, row)| self.closure.node_id(tables[usize::from(t)], row))
                    .collect();
                self.closure.absorb(&class);
                class
            })
            .collect();
        self.history.push(LedgerEntry {
            query_id,
            visible_pairs: self.closure.pairs,
            closure_bound: self.closure.pairs,
            per_query,
        });
        self.declared = None;
        self.closure.pairs - before
    }

    /// `table` was registered again and numbers its rows from 0 again:
    /// its rows recorded from now on are new nodes, one registration
    /// higher than the rows recorded so far, which stay in the closure
    /// as they were. A table with no rows recorded in its current
    /// registration keeps it.
    pub fn register(&mut self, table: &str) {
        if let Some(registrations) = self.closure.names.get_mut(table) {
            if registrations.table(registrations.current).is_some() {
                registrations.current += 1;
            }
        }
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Full per-query history in execution order.
    pub fn history(&self) -> &[LedgerEntry] {
        &self.history
    }

    /// The most recently recorded query, if any.
    pub fn last(&self) -> Option<&LedgerEntry> {
        self.history.last()
    }

    /// True iff nothing recorded.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// `σ(q)` of the `index`-th recorded query.
    pub fn per_query(&self, index: usize) -> PairSet {
        self.closure.pairs_of(&self.history[index].per_query)
    }

    /// The union of per-query leakages `σ(q₁) ∪ … ∪ σ(q_μ)`.
    pub fn union_of_queries(&self) -> PairSet {
        self.closure
            .pairs_of(self.history.iter().flat_map(|entry| &entry.per_query))
    }

    /// The paper's bound: `closure(union of per-query leakages)`.
    pub fn closure_bound(&self) -> PairSet {
        self.closure.materialise()
    }

    /// `|closure_bound()|`, without building it.
    pub fn closure_bound_len(&self) -> usize {
        self.closure.pairs
    }

    /// Latest cumulative visible pair set (empty if no queries ran).
    pub fn visible_now(&self) -> PairSet {
        match &self.declared {
            Some(declared) => declared.visible.clone(),
            None => self.closure_bound(),
        }
    }

    /// `|visible_now()|`, without building it.
    pub fn visible_len(&self) -> usize {
        self.history.last().map_or(0, |entry| entry.visible_pairs)
    }

    /// Corollary 5.2.2 check: does the cumulative visible leakage stay
    /// within the transitive-closure bound?
    pub fn is_within_closure_bound(&self) -> bool {
        self.super_additive_excess_len() == 0
    }

    /// The super-additive excess: visible pairs beyond the closure bound
    /// (empty for Secure Join; non-empty for Hahn/CryptDB-style schemes).
    pub fn super_additive_excess(&self) -> PairSet {
        match &self.declared {
            Some(declared) if declared.excess > 0 => {
                declared.visible.difference(&self.closure_bound())
            }
            _ => PairSet::new(),
        }
    }

    /// `|super_additive_excess()|`, without building it.
    pub fn super_additive_excess_len(&self) -> usize {
        self.declared.as_ref().map_or(0, |declared| declared.excess)
    }

    /// Per-query cumulative counts `(query id, visible pairs, bound)` —
    /// the series plotted by the leakage experiment.
    pub fn growth_series(&self) -> Vec<(u64, usize, usize)> {
        self.history
            .iter()
            .map(|entry| (entry.query_id, entry.visible_pairs, entry.closure_bound))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::Node;

    fn n(t: &str, r: usize) -> Node {
        Node::new(t, r)
    }

    type RawPair<'a> = ((&'a str, usize), (&'a str, usize));

    fn pairset(pairs: &[RawPair<'_>]) -> PairSet {
        pairs
            .iter()
            .map(|&((ta, ra), (tb, rb))| (n(ta, ra), n(tb, rb)))
            .collect()
    }

    #[test]
    fn additive_scheme_stays_within_bound() {
        // Two queries, each revealing one disjoint pair: the visible set
        // equals the union; no excess.
        let mut ledger = LeakageLedger::new();
        let p1 = pairset(&[(("a", 1), ("b", 2))]);
        ledger.record(QueryLeakage {
            query_id: 0,
            per_query: p1.clone(),
            cumulative_visible: p1.clone(),
        });
        let p2 = pairset(&[(("a", 2), ("b", 3))]);
        let mut vis = p1.clone();
        vis.union_with(&p2);
        ledger.record(QueryLeakage {
            query_id: 1,
            per_query: p2,
            cumulative_visible: vis,
        });
        assert!(ledger.is_within_closure_bound());
        assert!(ledger.super_additive_excess().is_empty());
        assert_eq!(ledger.closure_bound().len(), 2);
    }

    #[test]
    fn super_additive_scheme_detected() {
        // Query 1 reveals (a1,b2); query 2 reveals (a2,b3); but the
        // scheme's cumulative state exposes all six pairs (the paper's
        // Hahn-at-t2 situation).
        let mut ledger = LeakageLedger::new();
        let p1 = pairset(&[(("a", 1), ("b", 2))]);
        ledger.record(QueryLeakage {
            query_id: 0,
            per_query: p1.clone(),
            cumulative_visible: p1,
        });
        let p2 = pairset(&[(("a", 2), ("b", 3))]);
        let all_six = pairset(&[
            (("a", 1), ("b", 1)),
            (("a", 1), ("b", 2)),
            (("a", 2), ("b", 3)),
            (("a", 2), ("b", 4)),
            (("b", 1), ("b", 2)),
            (("b", 3), ("b", 4)),
        ]);
        ledger.record(QueryLeakage {
            query_id: 1,
            per_query: p2,
            cumulative_visible: all_six,
        });
        assert!(!ledger.is_within_closure_bound());
        let excess = ledger.super_additive_excess();
        assert_eq!(excess.len(), 4, "four pairs beyond the two queried ones");
    }

    #[test]
    fn closure_credit_for_linked_queries() {
        // Query 1 reveals (a1,b1); query 2 reveals (b1,b4). The closure
        // bound then *includes* (a1,b4): a scheme showing that pair is
        // still additive.
        let mut ledger = LeakageLedger::new();
        let p1 = pairset(&[(("a", 1), ("b", 1))]);
        ledger.record(QueryLeakage {
            query_id: 0,
            per_query: p1.clone(),
            cumulative_visible: p1.clone(),
        });
        let p2 = pairset(&[(("b", 1), ("b", 4))]);
        let mut vis = p1;
        vis.union_with(&p2);
        vis.insert(n("a", 1), n("b", 4)); // the transitive pair
        ledger.record(QueryLeakage {
            query_id: 1,
            per_query: p2,
            cumulative_visible: vis,
        });
        assert!(ledger.is_within_closure_bound());
        assert_eq!(ledger.closure_bound().len(), 3);
    }

    #[test]
    fn growth_series_tracks_both_curves() {
        let mut ledger = LeakageLedger::new();
        for i in 0..3u64 {
            let p = pairset(&[(("a", i as usize), ("b", i as usize))]);
            let mut vis = ledger.visible_now();
            vis.union_with(&p);
            ledger.record(QueryLeakage {
                query_id: i,
                per_query: p,
                cumulative_visible: vis,
            });
        }
        let series = ledger.growth_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (0, 1, 1));
        assert_eq!(series[2], (2, 3, 3));
    }

    #[test]
    fn record_closed_reports_what_each_query_added() {
        // {a1, b1} then {b1, b2}: the second query adds (b1,b2) and the
        // transitive (a1,b2); a repeat adds nothing.
        let mut ledger = LeakageLedger::new();
        let (ab, b) = (["a", "b"], ["b"]);
        assert_eq!(ledger.record_closed(0, &ab, &[vec![(0, 1), (1, 1)]]), 1);
        assert_eq!(ledger.record_closed(1, &b, &[vec![(0, 1), (0, 2)]]), 2);
        assert_eq!(ledger.record_closed(2, &b, &[vec![(0, 2), (0, 1)]]), 0);
        assert_eq!(
            ledger.growth_series(),
            vec![(0, 1, 1), (1, 3, 3), (2, 3, 3)]
        );
        assert_eq!(ledger.per_query(1), pairset(&[(("b", 1), ("b", 2))]));
        assert_eq!(ledger.visible_now(), ledger.closure_bound());
        assert_eq!(ledger.visible_len(), 3);
        assert!(ledger.is_within_closure_bound());
    }

    #[test]
    fn a_class_is_kept_as_its_members() {
        // Two classes of 2 000 rows each: the entry holds 4 000 ids, the
        // closure 2 × C(2 000, 2) pairs, and no pair set is built.
        let mut ledger = LeakageLedger::new();
        let classes: Vec<Vec<(u8, usize)>> = (0..2)
            .map(|parity| {
                (0..2_000)
                    .map(|i| ((i % 2) as u8, 2 * i + parity))
                    .collect()
            })
            .collect();
        let added = ledger.record_closed(0, &["L", "R"], &classes);
        assert_eq!(added, 3_998_000);
        assert_eq!(ledger.closure_bound_len(), 3_998_000);
        assert_eq!(ledger.visible_len(), 3_998_000);
        let ids: usize = ledger.history[0].per_query.iter().map(Vec::len).sum();
        assert_eq!(ids, 4_000);
        assert_eq!(ledger.closure.nodes.len(), 4_000);
    }

    #[test]
    fn a_registered_tables_next_rows_are_new_nodes() {
        let mut ledger = LeakageLedger::new();
        let lr = ["L", "R"];
        // Registering a table whose rows were never recorded changes
        // nothing: its first rows are registration 0.
        ledger.register("L");
        ledger.record_closed(0, &lr, &[vec![(0, 0), (1, 0)]]);
        ledger.register("L");
        ledger.register("L");
        ledger.record_closed(1, &lr, &[vec![(0, 0), (1, 1)]]);
        let old = (n("L", 0), n("R", 0));
        let new = (Node::registered("L", 0, 1), n("R", 1));
        assert_eq!(ledger.closure_bound(), [old, new].into_iter().collect());
        assert_eq!(ledger.visible_len(), 2);
        // The record path names registrations itself.
        ledger.record(QueryLeakage {
            query_id: 2,
            per_query: [(Node::registered("L", 0, 1), n("R", 0))]
                .into_iter()
                .collect(),
            cumulative_visible: PairSet::new(),
        });
        assert_eq!(ledger.closure_bound_len(), 6, "one class of four");
        ledger.record_closed(3, &lr, &[vec![(0, 0), (1, 2)]]);
        assert!(ledger
            .closure_bound()
            .contains(&Node::registered("L", 0, 1), &n("R", 2)));
    }

    #[test]
    fn empty_ledger() {
        let ledger = LeakageLedger::new();
        assert!(ledger.is_empty());
        assert!(ledger.is_within_closure_bound());
        assert!(ledger.visible_now().is_empty());
        assert_eq!(ledger.closure_bound_len(), 0);
        assert_eq!(ledger.visible_len(), 0);
    }
}
