//! The [`SqlPlanner`] implementation that plugs this crate's parser into
//! the engine's [`Session`](eqjoin_db::Session).

use crate::parser::{parse, parse_statement, ParsedQuery, ParsedStatement, ResolutionContext};
use eqjoin_db::session::{Catalog, SqlPlanner, SqlStatement};
use eqjoin_db::{DbError, QueryPlan};

/// The SQL front-end as a session planner: parses the supported
/// select-project-join shape (any number of `[INNER] JOIN … ON …`
/// clauses, explicit column lists or `*`) and resolves bare column
/// references against the session catalog into a [`QueryPlan`].
///
/// ```
/// use eqjoin_db::session::{Catalog, SqlPlanner};
/// use eqjoin_sql::SqlFrontend;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("A".into(), vec!["k".into(), "x".into()]);
/// catalog.insert("B".into(), vec!["k".into(), "j".into()]);
/// catalog.insert("C".into(), vec!["j".into(), "z".into()]);
/// let plan = SqlFrontend
///     .plan(
///         "SELECT A.x, z FROM A JOIN B ON A.k = B.k INNER JOIN C ON B.j = C.j \
///          WHERE x = 1",
///         &catalog,
///     )
///     .unwrap();
/// let lowered = plan.lower(&catalog).unwrap();
/// assert_eq!(lowered.tables, vec!["A", "B", "C"]);
/// assert_eq!(lowered.stages.len(), 2);
/// assert_eq!(lowered.projection.len(), 2);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SqlFrontend;

impl SqlPlanner for SqlFrontend {
    fn plan(&self, sql: &str, catalog: &Catalog) -> Result<QueryPlan, DbError> {
        let parsed = parse(sql).map_err(|e| DbError::Sql(e.to_string()))?;
        resolve(&parsed, catalog)
    }

    fn statement(&self, sql: &str, catalog: &Catalog) -> Result<SqlStatement, DbError> {
        match parse_statement(sql).map_err(|e| DbError::Sql(e.to_string()))? {
            ParsedStatement::Select(parsed) => resolve(&parsed, catalog).map(SqlStatement::Select),
            ParsedStatement::Insert { table, rows } => {
                let cols = catalog
                    .get(&table)
                    .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                for row in &rows {
                    if row.len() != cols.len() {
                        return Err(DbError::Sql(format!(
                            "INSERT INTO {table}: row has {} values, table has {} columns",
                            row.len(),
                            cols.len()
                        )));
                    }
                }
                Ok(SqlStatement::Insert { table, rows })
            }
            ParsedStatement::Delete { table, rows } => {
                if !catalog.contains_key(&table) {
                    return Err(DbError::UnknownTable(table));
                }
                Ok(SqlStatement::Delete { table, rows })
            }
            ParsedStatement::Copy { table, rows } => {
                let cols = catalog
                    .get(&table)
                    .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                for row in &rows {
                    if row.len() != cols.len() {
                        return Err(DbError::Sql(format!(
                            "COPY {table}: row has {} values, table has {} columns",
                            row.len(),
                            cols.len()
                        )));
                    }
                }
                Ok(SqlStatement::Copy { table, rows })
            }
        }
    }
}

/// Resolve a parsed `SELECT` against the catalog: the one path from
/// parsed SQL to a [`QueryPlan`], for [`SqlPlanner::plan`] and
/// [`SqlPlanner::statement`] alike.
fn resolve(parsed: &ParsedQuery, catalog: &Catalog) -> Result<QueryPlan, DbError> {
    let mut tables = Vec::with_capacity(parsed.tables.len());
    for table in &parsed.tables {
        let cols = catalog
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
        tables.push((table.as_str(), cols.as_slice()));
    }
    let ctx = ResolutionContext { tables };
    parsed
        .resolve(&ctx)
        .map_err(|e| DbError::Sql(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            "Employees".into(),
            vec![
                "Record".into(),
                "Employee".into(),
                "Role".into(),
                "Team".into(),
            ],
        );
        c.insert("Teams".into(), vec!["Key".into(), "Name".into()]);
        c.insert("Offices".into(), vec!["Key".into(), "City".into()]);
        c
    }

    #[test]
    fn plans_the_papers_query_from_the_catalog() {
        let plan = SqlFrontend
            .plan(
                "SELECT * FROM Employees JOIN Teams ON Team = Key \
                 WHERE Name = 'Web Application' AND Role = 'Tester'",
                &catalog(),
            )
            .unwrap();
        let lowered = plan.lower(&catalog()).unwrap();
        assert_eq!(lowered.tables, vec!["Employees", "Teams"]);
        let stage = &lowered.stages[0].query;
        assert_eq!(stage.left_table, "Employees");
        assert_eq!(stage.left_join_column, "Team");
        assert_eq!(stage.filters.len(), 2);
        assert_eq!(stage.filters[0].table, "Teams");
    }

    #[test]
    fn plans_a_three_table_chain_with_projection() {
        let plan = SqlFrontend
            .plan(
                "SELECT Employee, City FROM Employees JOIN Teams ON Team = Teams.Key \
                 INNER JOIN Offices ON Teams.Key = Offices.Key",
                &catalog(),
            )
            .unwrap();
        let lowered = plan.lower(&catalog()).unwrap();
        assert_eq!(lowered.tables, vec!["Employees", "Teams", "Offices"]);
        assert_eq!(lowered.stages.len(), 2);
        assert_eq!(lowered.projection.len(), 2);
        assert_eq!(lowered.projection[1].id.table, "Offices");
    }

    #[test]
    fn unknown_table_reported_as_db_error() {
        let err = SqlFrontend
            .plan("SELECT * FROM Ghost JOIN Teams ON a = Key", &catalog())
            .unwrap_err();
        assert_eq!(err, DbError::UnknownTable("Ghost".into()));
    }

    #[test]
    fn statements_resolve_against_the_catalog() {
        let insert = SqlFrontend
            .statement(
                "INSERT INTO Teams VALUES (9, 'Platform'), (10, 'QA')",
                &catalog(),
            )
            .unwrap();
        match insert {
            SqlStatement::Insert { table, rows } => {
                assert_eq!(table, "Teams");
                assert_eq!(rows.len(), 2);
            }
            other => panic!("expected Insert, got {other:?}"),
        }
        match SqlFrontend
            .statement("DELETE FROM Teams WHERE rowid IN (0, 1)", &catalog())
            .unwrap()
        {
            SqlStatement::Delete { table, rows } => {
                assert_eq!(table, "Teams");
                assert_eq!(rows, vec![0, 1]);
            }
            other => panic!("expected Delete, got {other:?}"),
        }
        // SELECT statements flow through the plan path.
        assert!(matches!(
            SqlFrontend
                .statement(
                    "SELECT * FROM Employees JOIN Teams ON Team = Key",
                    &catalog()
                )
                .unwrap(),
            SqlStatement::Select(_)
        ));
        // Catalog violations are rejected before anything executes.
        assert_eq!(
            SqlFrontend
                .statement("INSERT INTO Ghost VALUES (1)", &catalog())
                .unwrap_err(),
            DbError::UnknownTable("Ghost".into())
        );
        assert!(matches!(
            SqlFrontend.statement("INSERT INTO Teams VALUES (1)", &catalog()),
            Err(DbError::Sql(_))
        ));
        assert_eq!(
            SqlFrontend
                .statement("DELETE FROM Ghost WHERE rowid = 0", &catalog())
                .unwrap_err(),
            DbError::UnknownTable("Ghost".into())
        );
    }

    #[test]
    fn parse_errors_become_sql_errors() {
        assert!(matches!(
            SqlFrontend.plan("SELECT nope", &catalog()),
            Err(DbError::Sql(_))
        ));
    }
}
