//! Logical two-table equi-join queries — the shape the paper's scheme
//! executes natively:
//!
//! ```sql
//! SELECT * FROM T_A JOIN T_B ON A0 = B0
//! WHERE A1 IN (φ…) AND B3 IN (ψ…)
//! ```
//!
//! A [`JoinQuery`] is the pairwise special case of the session's
//! [`QueryPlan`](crate::plan::QueryPlan) IR
//! ([`QueryPlan::pairwise`](crate::plan::QueryPlan::pairwise) embeds
//! one); multi-way chains and projections live in [`crate::plan`].

use crate::data::Value;

/// One `column IN (values…)` predicate on a specific table.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct InFilter {
    /// Table the predicate applies to.
    pub table: String,
    /// Filter column name.
    pub column: String,
    /// The `IN`-clause values (an equality predicate is a 1-element list).
    pub values: Vec<Value>,
}

/// A logical equi-join query over two encrypted tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinQuery {
    /// Left table name (`T_A`).
    pub left_table: String,
    /// Right table name (`T_B`).
    pub right_table: String,
    /// Join column of the left table.
    pub left_join_column: String,
    /// Join column of the right table.
    pub right_join_column: String,
    /// Conjunction of `IN` predicates (each bound to one table).
    pub filters: Vec<InFilter>,
}

impl JoinQuery {
    /// Convenience constructor for the unfiltered join.
    pub fn on(
        left_table: &str,
        left_join_column: &str,
        right_table: &str,
        right_join_column: &str,
    ) -> Self {
        JoinQuery {
            left_table: left_table.to_owned(),
            right_table: right_table.to_owned(),
            left_join_column: left_join_column.to_owned(),
            right_join_column: right_join_column.to_owned(),
            filters: Vec::new(),
        }
    }

    /// Add an `IN` predicate (builder style).
    pub fn filter(mut self, table: &str, column: &str, values: Vec<Value>) -> Self {
        self.filters.push(InFilter {
            table: table.to_owned(),
            column: column.to_owned(),
            values,
        });
        self
    }

    /// All predicates bound to `table`.
    pub fn filters_for(&self, table: &str) -> Vec<&InFilter> {
        self.filters.iter().filter(|f| f.table == table).collect()
    }

    /// The query's *effective* IN sets, canonicalized: values are sorted
    /// and deduplicated, and multiple filters on one `(table, column)`
    /// are intersected (`x IN (a,b) AND x IN (b,c)` ≡ `x IN (b)`).
    /// Returned sorted by `(table, column)`. A declared-empty list or a
    /// contradictory conjunction yields an empty value set (token
    /// generation rejects it as [`EmptyInClause`]).
    ///
    /// Token generation and the session token cache both key off this
    /// canonical form, so two queries with equal canonical sets are
    /// guaranteed to select the same rows.
    ///
    /// [`EmptyInClause`]: crate::error::DbError::EmptyInClause
    pub fn canonical_filter_sets(&self) -> Vec<((String, String), Vec<Value>)> {
        let mut map: std::collections::BTreeMap<(String, String), Option<Vec<Value>>> =
            std::collections::BTreeMap::new();
        for f in &self.filters {
            let key = (f.table.clone(), f.column.clone());
            let mut values = f.values.clone();
            values.sort();
            values.dedup();
            let entry = map.entry(key).or_insert(None);
            *entry = Some(match entry.take() {
                None => values,
                Some(mut prev) => {
                    prev.retain(|v| values.contains(v));
                    prev
                }
            });
        }
        map.into_iter()
            .map(|(key, values)| (key, values.unwrap_or_default()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sets_dedupe_and_intersect() {
        let q = JoinQuery::on("A", "k", "B", "k")
            .filter("A", "x", vec![2.into(), 1.into(), 2.into()])
            .filter("A", "x", vec![3.into(), 2.into()])
            .filter("B", "y", vec!["u".into()]);
        let sets = q.canonical_filter_sets();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].0, ("A".into(), "x".into()));
        assert_eq!(sets[0].1, vec![crate::data::Value::Int(2)]);
        assert_eq!(sets[1].0, ("B".into(), "y".into()));
        // Contradictory conjunction → empty effective set.
        let q = JoinQuery::on("A", "k", "B", "k")
            .filter("A", "x", vec![1.into()])
            .filter("A", "x", vec![2.into()]);
        assert!(q.canonical_filter_sets()[0].1.is_empty());
    }

    #[test]
    fn builder_and_lookup() {
        let q = JoinQuery::on("Employees", "Team", "Teams", "Key")
            .filter("Teams", "Name", vec!["Web Application".into()])
            .filter("Employees", "Role", vec!["Tester".into()]);
        assert_eq!(q.filters.len(), 2);
        assert_eq!(q.filters_for("Teams").len(), 1);
        assert_eq!(q.filters_for("Employees")[0].column, "Role");
        assert!(q.filters_for("Nope").is_empty());
    }
}
