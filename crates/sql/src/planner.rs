//! SQL into the engine's [`Session`]: [`plan`] resolves a `SELECT`
//! against the catalog into a [`QueryPlan`], and [`run`] executes any
//! statement. Both resolve through
//! [`ParsedQuery::resolve`](crate::ParsedQuery::resolve), so a
//! statement that does not fit the catalog fails before anything is
//! sent.

use crate::parser::{parse, parse_statement, ParsedStatement};
use eqjoin_db::{Catalog, DbError, QueryPlan, ResultSet, Session, Value};
use eqjoin_pairing::Engine;

/// What one SQL statement produced.
#[derive(Debug)]
pub enum Outcome {
    /// A `SELECT`'s decrypted result set (boxed: result sets dwarf the
    /// update counters).
    Rows(Box<ResultSet>),
    /// Number of rows an `INSERT INTO` appended.
    Inserted(usize),
    /// Number of rows a `DELETE FROM` removed.
    Deleted(usize),
    /// Number of rows a `COPY … FROM VALUES` bulk-loaded.
    Copied(usize),
}

/// Parse a `SELECT` of the supported select-project-join shape (any
/// number of `[INNER] JOIN … ON …` clauses, explicit column lists or
/// `*`) and resolve it against `catalog` into a [`QueryPlan`].
///
/// ```
/// use eqjoin_db::{Row, Schema, Session, SessionConfig, Table, TableConfig, Value};
/// use eqjoin_pairing::MockEngine;
///
/// let mut session = Session::<MockEngine>::local(SessionConfig::new(1, 2));
/// for (name, columns) in [("A", ["k", "x"]), ("B", ["k", "y"]), ("C", ["k", "z"])] {
///     let mut t = Table::new(Schema::new(name, &columns));
///     t.push_row(vec![Value::Int(1), Value::Int(1)]);
///     let cfg = TableConfig { join_column: columns[0].into(), filter_columns: vec![] };
///     session.create_table(&t, cfg).unwrap();
/// }
/// let plan = eqjoin_sql::plan(
///     "SELECT A.x, z FROM A JOIN B ON A.k = B.k INNER JOIN C ON B.k = C.k",
///     session.catalog(),
/// )
/// .unwrap();
/// let result = session.execute(&plan).unwrap();
/// assert_eq!(result.stage_stats.len(), 2);
/// assert_eq!(result.rows, vec![Row(vec![Value::Int(1), Value::Int(1)])]);
/// ```
pub fn plan(sql: &str, catalog: &Catalog) -> Result<QueryPlan, DbError> {
    parse(sql)?.resolve(catalog)
}

/// Run one SQL statement on `session`: a `SELECT` executes like
/// [`Session::execute`]; `INSERT INTO`, `DELETE FROM` and `COPY`
/// apply incremental updates. A statement naming an unknown table, or
/// a row of the wrong width, fails before anything is sent.
pub fn run<E: Engine>(session: &mut Session<E>, sql: &str) -> Result<Outcome, DbError> {
    match parse_statement(sql)? {
        ParsedStatement::Select(query) => {
            let plan = query.resolve(session.catalog())?;
            session
                .execute(&plan)
                .map(|rows| Outcome::Rows(Box::new(rows)))
        }
        ParsedStatement::Insert { table, rows } => {
            check_width("INSERT INTO", &table, &rows, session.catalog())?;
            session.insert_rows(&table, &rows).map(Outcome::Inserted)
        }
        ParsedStatement::Delete { table, rows } => {
            if !session.catalog().contains_key(&table) {
                return Err(DbError::UnknownTable(table));
            }
            session.delete_rows(&table, &rows).map(Outcome::Deleted)
        }
        ParsedStatement::Copy { table, rows } => {
            check_width("COPY", &table, &rows, session.catalog())?;
            session.copy_rows(&table, &rows).map(Outcome::Copied)
        }
    }
}

/// `table` is registered and each of `rows` has one value per column.
fn check_width(
    statement: &str,
    table: &str,
    rows: &[Vec<Value>],
    catalog: &Catalog,
) -> Result<(), DbError> {
    let columns = catalog
        .get(table)
        .ok_or_else(|| DbError::UnknownTable(table.to_owned()))?
        .len();
    match rows.iter().find(|row| row.len() != columns) {
        Some(row) => Err(DbError::Sql(format!(
            "{statement} {table}: row has {} values, table has {columns} columns",
            row.len()
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_db::{Schema, SessionConfig, Table, TableConfig};
    use eqjoin_pairing::MockEngine;

    /// A session holding the paper's Employees and Teams tables (and an
    /// Offices table), one row each.
    fn session() -> Session<MockEngine> {
        let mut s = Session::local(SessionConfig::new(2, 2).seed(7));
        let tables: [(&str, &[&str]); 3] = [
            ("Employees", &["Team", "Record", "Employee", "Role"]),
            ("Teams", &["Key", "Name"]),
            ("Offices", &["Key", "City"]),
        ];
        for (name, columns) in tables {
            let mut t = Table::new(Schema::new(name, columns));
            t.push_row(columns.iter().map(|_| Value::Int(1)).collect());
            let cfg = TableConfig {
                join_column: columns[0].into(),
                filter_columns: vec![columns[1].into()],
            };
            s.create_table(&t, cfg).unwrap();
        }
        s
    }

    #[test]
    fn plans_the_papers_query_from_the_catalog() {
        let s = session();
        let plan = plan(
            "SELECT * FROM Employees JOIN Teams ON Team = Key \
             WHERE Name = 'Web Application' AND Role = 'Tester'",
            s.catalog(),
        )
        .unwrap();
        let lowered = plan.lower(s.catalog()).unwrap();
        assert_eq!(lowered.tables, vec!["Employees", "Teams"]);
        let stage = &lowered.stages[0].query;
        assert_eq!(stage.left_table, "Employees");
        assert_eq!(stage.left_join_column, "Team");
        assert_eq!(stage.filters.len(), 2);
        assert_eq!(stage.filters[0].table, "Teams");
    }

    #[test]
    fn plans_a_three_table_chain_with_projection() {
        let s = session();
        let plan = plan(
            "SELECT Employee, City FROM Employees JOIN Teams ON Team = Teams.Key \
             INNER JOIN Offices ON Teams.Key = Offices.Key",
            s.catalog(),
        )
        .unwrap();
        let lowered = plan.lower(s.catalog()).unwrap();
        assert_eq!(lowered.tables, vec!["Employees", "Teams", "Offices"]);
        assert_eq!(lowered.stages.len(), 2);
        assert_eq!(lowered.projection.len(), 2);
        assert_eq!(lowered.projection[1].id.table, "Offices");
    }

    #[test]
    fn unknown_table_reported_as_db_error() {
        let err = plan(
            "SELECT * FROM Ghost JOIN Teams ON a = Key",
            session().catalog(),
        );
        assert_eq!(err.unwrap_err(), DbError::UnknownTable("Ghost".into()));
    }

    #[test]
    fn every_statement_kind_runs() {
        let mut s = session();
        let inserted = run(
            &mut s,
            "INSERT INTO Teams VALUES (1, 'Platform'), (2, 'QA')",
        );
        assert!(matches!(inserted, Ok(Outcome::Inserted(2))));
        let copied = run(&mut s, "COPY Teams FROM VALUES (1, 'Web')");
        assert!(matches!(copied, Ok(Outcome::Copied(1))));
        let deleted = run(&mut s, "DELETE FROM Teams WHERE rowid IN (0, 2)");
        assert!(matches!(deleted, Ok(Outcome::Deleted(2))));
        // The one employee (team 1) now matches team rows 1 and 3.
        match run(&mut s, "SELECT * FROM Employees JOIN Teams ON Team = Key") {
            Ok(Outcome::Rows(result)) => assert_eq!(result.tuples, vec![vec![0, 1], vec![0, 3]]),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_become_sql_errors() {
        assert!(matches!(
            plan("SELECT nope", session().catalog()),
            Err(DbError::Sql(_))
        ));
        assert!(matches!(
            run(&mut session(), "SELECT nope"),
            Err(DbError::Sql(_))
        ));
    }
}
