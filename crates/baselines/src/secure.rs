//! Adapter exposing this paper's Secure Join engine through the uniform
//! [`JoinScheme`] interface, so the leakage experiments can put it side
//! by side with the baselines.
//!
//! Internally this drives the engine's [`Session`] API — the same path
//! applications use — so the comparison experiments also exercise the
//! session's protocol backend, token cache and embedded ledger. The
//! adversary's view under Secure Join is the per-query `D`-equality
//! pattern; across queries nothing new becomes comparable (fresh `k`),
//! so the derivable pair set is exactly the transitive closure of the
//! union of per-query observations — which the session ledger then
//! confirms is the paper's bound.

use crate::traits::{JoinScheme, QueryOutcome, SchemeSetup};
use eqjoin_db::{JoinQuery, Session, SessionConfig, Table, TableConfig};
use eqjoin_leakage::PairSet;
use eqjoin_pairing::Engine;

/// Secure Join behind the comparison interface.
pub struct SecureJoinScheme<E: Engine> {
    session: Session<E>,
}

impl<E: Engine> SecureJoinScheme<E> {
    /// Create with scheme dimensions `m`, `t` and a deterministic seed.
    pub fn new(m: usize, t: usize, seed: u64) -> Self {
        Self::with_config(SessionConfig::new(m, t).seed(seed))
    }

    /// Create from a full session configuration (join algorithm,
    /// threads, pre-filter, token cache).
    pub fn with_config(config: SessionConfig) -> Self {
        SecureJoinScheme {
            session: Session::local(config),
        }
    }

    /// The underlying session (experiments read its stats and ledger).
    pub fn session(&self) -> &Session<E> {
        &self.session
    }
}

impl<E: Engine> JoinScheme for SecureJoinScheme<E> {
    fn name(&self) -> &'static str {
        "secure-join (this paper)"
    }

    fn upload(&mut self, left: &Table, right: &Table, setup: &SchemeSetup) -> PairSet {
        for (table, (join_col, filter_cols)) in [(left, &setup.left), (right, &setup.right)] {
            let config = TableConfig {
                join_column: join_col.clone(),
                filter_columns: filter_cols.clone(),
            };
            self.session
                .create_table(table, config)
                .expect("table encrypts");
        }
        PairSet::new() // probabilistic ciphertexts: nothing at t0
    }

    fn run_query(&mut self, query: &JoinQuery) -> QueryOutcome {
        let result = self.session.execute(query).expect("join executes");
        // The session already recorded what the server observed this
        // query into its ledger; report that σ(q) to the harness.
        let ledger = self.session.ledger();
        let per_query_leakage = ledger.per_query(ledger.len() - 1);
        QueryOutcome {
            result_pairs: result
                .tuples
                .iter()
                .map(|t| (t[0], t[t.len() - 1]))
                .collect(),
            per_query_leakage,
        }
    }

    fn visible_pairs(&self) -> PairSet {
        self.session.visible_pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::{self, example_2_1};
    use eqjoin_leakage::Node;
    use eqjoin_pairing::MockEngine;

    fn setup_spec() -> SchemeSetup {
        SchemeSetup {
            left: ("Key".into(), vec!["Name".into()]),
            right: ("Team".into(), vec!["Role".into()]),
            t: 2,
        }
    }

    fn t1_query() -> JoinQuery {
        JoinQuery::on("Teams", "Key", "Employees", "Team")
            .filter("Teams", "Name", vec!["Web Application".into()])
            .filter("Employees", "Role", vec!["Tester".into()])
    }

    fn t2_query() -> JoinQuery {
        JoinQuery::on("Teams", "Key", "Employees", "Team")
            .filter("Teams", "Name", vec!["Database".into()])
            .filter("Employees", "Role", vec!["Programmer".into()])
    }

    #[test]
    fn paper_example_minimal_leakage() {
        // The challenge sentence of §2.1: reveal only (a1,b2) and (a2,b3)
        // at time t2.
        let (teams, employees) = example_2_1();
        let mut scheme = SecureJoinScheme::<MockEngine>::new(3, 2, 21);
        let t0 = scheme.upload(&teams, &employees, &setup_spec());
        assert!(t0.is_empty());

        let out1 = scheme.run_query(&t1_query());
        assert_eq!(out1.result_pairs, vec![(0, 1)]);
        assert_eq!(scheme.visible_pairs().len(), 1);

        let out2 = scheme.run_query(&t2_query());
        assert_eq!(out2.result_pairs, vec![(1, 2)]);
        let visible = scheme.visible_pairs();
        assert_eq!(
            visible.len(),
            2,
            "exactly the two queried pairs: {visible:?}"
        );
        assert!(visible.contains(&Node::new("Teams", 0), &Node::new("Employees", 1)));
        assert!(visible.contains(&Node::new("Teams", 1), &Node::new("Employees", 2)));
        // The session's own verdict agrees with the harness view.
        let report = scheme.session().leakage_report();
        assert!(report.within_bound);
        assert_eq!(report.visible_pairs, 2);
    }

    #[test]
    fn per_query_leakage_matches_ground_truth_sigma() {
        let (teams, employees) = example_2_1();
        let mut scheme = SecureJoinScheme::<MockEngine>::new(3, 2, 22);
        scheme.upload(&teams, &employees, &setup_spec());
        for query in [t1_query(), t2_query()] {
            let out = scheme.run_query(&query);
            let sigma = ground_truth::sigma(&teams, &employees, &query);
            assert_eq!(out.per_query_leakage, sigma, "query {query:?}");
            assert_eq!(
                out.result_pairs,
                ground_truth::reference_join(&teams, &employees, &query)
            );
        }
    }

    #[test]
    fn results_match_reference_on_unfiltered_join() {
        let (teams, employees) = example_2_1();
        let mut scheme = SecureJoinScheme::<MockEngine>::new(3, 2, 23);
        scheme.upload(&teams, &employees, &setup_spec());
        let q = JoinQuery::on("Teams", "Key", "Employees", "Team");
        let out = scheme.run_query(&q);
        assert_eq!(
            out.result_pairs,
            ground_truth::reference_join(&teams, &employees, &q)
        );
    }
}
