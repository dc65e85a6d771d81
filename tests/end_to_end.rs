//! End-to-end integration through the [`Session`](eqjoin::Session) API:
//! SQL text → planner → tokens → protocol backend → join → decrypted
//! plaintext result, on the real BLS12-381 engine (small tables) and the
//! mock engine (larger).

use eqjoin::baselines::ground_truth::example_2_1;
use eqjoin::db::{Session, SessionConfig, TableConfig, Value};
use eqjoin::pairing::{Bls12, Engine, MockEngine};

/// A session holding the paper's Teams/Employees tables (Example 2.1).
fn paper_session<E: Engine>(seed: u64, prefilter: bool) -> Session<E> {
    let (teams, employees) = example_2_1();
    let mut session =
        eqjoin::session::<E>(SessionConfig::new(3, 2).seed(seed).prefilter(prefilter));
    session
        .create_table(
            &teams,
            TableConfig {
                join_column: "Key".into(),
                filter_columns: vec!["Name".into()],
            },
        )
        .unwrap();
    session
        .create_table(
            &employees,
            TableConfig {
                join_column: "Team".into(),
                filter_columns: vec!["Record".into(), "Employee".into(), "Role".into()],
            },
        )
        .unwrap();
    session
}

#[test]
fn paper_query_end_to_end_bls12() {
    let mut session = paper_session::<Bls12>(424242, false);

    // The exact SQL from the paper, at time t1 — one call from text to
    // plaintext rows.
    let result = session
        .execute(
            "SELECT * FROM Employees JOIN Teams ON Team = Key \
             WHERE Name = 'Web Application' AND Role = 'Tester'",
        )
        .unwrap();

    // Table 3: | 2 | Kaily | Tester | 1 | Web Application |
    // SELECT * lays out Employees' columns then Teams' columns.
    assert_eq!(result.rows.len(), 1);
    let row = &result.rows[0];
    assert_eq!(row.get(0), &Value::Int(2)); // Record
    assert_eq!(row.get(1), &Value::Str("Kaily".into()));
    assert_eq!(row.get(2), &Value::Str("Tester".into()));
    assert_eq!(row.get(3), &Value::Int(1), "θ via Employees.Team");
    assert_eq!(row.get(4), &Value::Int(1), "θ via Teams.Key");
    assert_eq!(row.get(5), &Value::Str("Web Application".into()));
}

#[test]
fn second_paper_query_end_to_end_bls12() {
    let mut session = paper_session::<Bls12>(77, false);
    let result = session
        .execute(
            "SELECT * FROM Employees JOIN Teams ON Team = Key \
             WHERE Name = 'Database' AND Role = 'Programmer'",
        )
        .unwrap();

    // Table 4: | 3 | John | Programmer | 2 | Database |
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0].get(1), &Value::Str("John".into()));
    assert_eq!(result.rows[0].get(4), &Value::Int(2), "θ via Teams.Key");
}

#[test]
fn paper_series_stays_within_leakage_bound_bls12() {
    // Both paper queries through one session: the embedded ledger
    // renders the Corollary 5.2.2 verdict without manual bookkeeping.
    let mut session = paper_session::<Bls12>(7, false);
    for sql in [
        "SELECT * FROM Employees JOIN Teams ON Team = Key \
         WHERE Name = 'Web Application' AND Role = 'Tester'",
        "SELECT * FROM Employees JOIN Teams ON Team = Key \
         WHERE Name = 'Database' AND Role = 'Programmer'",
    ] {
        session.execute(sql).unwrap();
    }
    let report = session.leakage_report();
    assert_eq!(report.queries, 2);
    assert_eq!(report.visible_pairs, 2, "exactly (a1,b2) and (a2,b3)");
    assert!(report.within_bound);
    assert_eq!(report.super_additive_excess, 0);
}

#[test]
fn many_to_many_join_mock() {
    // Non-PK/FK join: duplicate join values on both sides (the paper
    // stresses its scheme is not limited to primary-key/foreign-key).
    use eqjoin::db::{JoinQuery, Schema, Table};
    let mut left = Table::new(Schema::new("L", &["k", "x"]));
    let mut right = Table::new(Schema::new("R", &["k", "y"]));
    for i in 0..6 {
        left.push_row(vec![Value::Int(i % 2), Value::Str(format!("l{i}"))]);
        right.push_row(vec![Value::Int(i % 3), Value::Str(format!("r{i}"))]);
    }
    let mut session = Session::<MockEngine>::local(SessionConfig::new(1, 2).seed(5));
    for (t, cfg) in [
        (
            &left,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["x".into()],
            },
        ),
        (
            &right,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["y".into()],
            },
        ),
    ] {
        session.create_table(t, cfg).unwrap();
    }
    let result = session.execute(JoinQuery::on("L", "k", "R", "k")).unwrap();
    // L has 3 rows with k=0 and 3 with k=1; R has 2 rows each of k=0,1,2.
    // Matches: 3·2 + 3·2 = 12.
    assert_eq!(result.rows.len(), 12);
    for row in &result.rows {
        assert_eq!(row.get(0), row.get(2), "join condition holds");
    }
}

#[test]
fn prefiltered_run_matches_unfiltered_run_bls12() {
    // The pre-filter is a pure performance optimization: result sets must
    // be identical with and without it.
    let run = |prefilter: bool| -> Vec<Vec<usize>> {
        let mut session = paper_session::<Bls12>(31337, prefilter);
        session
            .execute(
                "SELECT * FROM Teams JOIN Employees ON Key = Team \
                 WHERE Role = 'Tester'",
            )
            .unwrap()
            .tuples
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn low_level_client_server_path_still_works_bls12() {
    // DbClient/DbServer remain the documented low-level layer: drive one
    // query by hand and check it against the session path.
    use eqjoin::db::{DbClient, DbServer, JoinOptions, JoinQuery};
    let (teams, employees) = example_2_1();
    let mut client = DbClient::<Bls12>::new(3, 2, 424242);
    let mut server = DbServer::new();
    server
        .insert_table(
            client
                .encrypt_table(
                    &teams,
                    TableConfig {
                        join_column: "Key".into(),
                        filter_columns: vec!["Name".into()],
                    },
                )
                .unwrap(),
        )
        .unwrap();
    server
        .insert_table(
            client
                .encrypt_table(
                    &employees,
                    TableConfig {
                        join_column: "Team".into(),
                        filter_columns: vec!["Record".into(), "Employee".into(), "Role".into()],
                    },
                )
                .unwrap(),
        )
        .unwrap();
    let query = JoinQuery::on("Employees", "Team", "Teams", "Key")
        .filter("Teams", "Name", vec!["Web Application".into()])
        .filter("Employees", "Role", vec!["Tester".into()]);
    let tokens = client.query_tokens(&query).unwrap();
    let (result, observation) = server
        .execute_join(&tokens, &JoinOptions::default())
        .unwrap();
    let pairs = observation.pairs();
    assert_eq!(pairs.len(), 1);
    let (employee, payloads) = &result.left_rows[0];
    assert_eq!(*employee, pairs[0].0, "the matched employee row ships");
    let name = client
        .open_value("Employees", *employee, 1, &payloads[1])
        .unwrap();
    assert_eq!(name, Value::Str("Kaily".into()));
}
