//! Recursive-descent parser producing a [`ParsedQuery`], and the
//! resolver that turns it into the engine's [`QueryPlan`].
//!
//! Supported statement shape (select-project-join over any number of
//! joined tables):
//!
//! ```sql
//! SELECT customer.name, total   -- or SELECT *
//! FROM customer JOIN orders ON customer.custkey = orders.custkey
//!               INNER JOIN nation ON ...
//! WHERE col IN (v, …) AND t.col = v [;]
//! ```
//!
//! (No table aliases — tables are always referenced by name.)

use crate::lexer::{tokenize, SqlError, Token};
use eqjoin_db::{Catalog, DbError, QueryPlan, Value};

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Qualifying table, if written as `Table.col`.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// The `SELECT` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectList {
    /// `SELECT *` — every column of every joined table.
    Star,
    /// An explicit projection.
    Columns(Vec<ColumnRef>),
}

/// A parsed (not yet resolved) query.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// The projection.
    pub select: SelectList,
    /// Joined tables in `FROM … JOIN …` order.
    pub tables: Vec<String>,
    /// `ON` conditions: `joins[i]` attaches `tables[i + 1]`.
    pub joins: Vec<(ColumnRef, ColumnRef)>,
    /// WHERE conjuncts: `(column, values)`; `=` is a 1-element `IN`.
    pub predicates: Vec<(ColumnRef, Vec<Value>)>,
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|(_, p)| *p)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        let at = self.here();
        match self.next() {
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(SqlError::new(
                format!("expected keyword {kw}, found {other:?}"),
                at,
            )),
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), SqlError> {
        let at = self.here();
        match self.next() {
            Some(t) if t == *tok => Ok(()),
            other => Err(SqlError::new(
                format!("expected {tok:?}, found {other:?}"),
                at,
            )),
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        let at = self.here();
        match self.next() {
            Some(Token::Ident(w)) => Ok(w),
            other => Err(SqlError::new(
                format!("expected identifier, found {other:?}"),
                at,
            )),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef, SqlError> {
        let first = self.ident()?;
        if self.peek() == Some(&Token::Dot) {
            self.next();
            let column = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    fn literal(&mut self) -> Result<Value, SqlError> {
        let at = self.here();
        match self.next() {
            Some(Token::StringLit(s)) => Ok(Value::Str(s)),
            Some(Token::IntLit(v)) => Ok(Value::Int(v)),
            Some(Token::DecimalLit(c)) => Ok(Value::Decimal(c)),
            other => Err(SqlError::new(
                format!("expected literal, found {other:?}"),
                at,
            )),
        }
    }

    fn keyword_is(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(w)) if w.eq_ignore_ascii_case(kw))
    }

    /// Consume an optional trailing `;` and reject anything after it.
    fn finish_statement(&mut self) -> Result<(), SqlError> {
        if self.peek() == Some(&Token::Semicolon) {
            self.next();
        }
        if let Some(tok) = self.peek() {
            return Err(SqlError::new(
                format!("unexpected trailing token {tok:?}"),
                self.here(),
            ));
        }
        Ok(())
    }
}

/// A parsed SQL statement: a select-project-join query, or one of the
/// incremental update statements.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedStatement {
    /// `SELECT … FROM … JOIN …`.
    Select(ParsedQuery),
    /// `INSERT INTO t VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Literal rows, in schema column order.
        rows: Vec<Vec<Value>>,
    },
    /// `DELETE FROM t WHERE rowid = n` / `… WHERE rowid IN (n, …)`.
    /// `rowid` is the stable row id result sets report (the engine
    /// cannot evaluate arbitrary predicates server-side without running
    /// a query — deletion is by id, the SQLite idiom).
    Delete {
        /// Target table.
        table: String,
        /// Row ids to delete.
        rows: Vec<u64>,
    },
    /// `COPY t FROM VALUES (…), (…)` — the bulk-load statement. Same
    /// literal-rows shape as `INSERT INTO`, but the session streams the
    /// rows to the server in self-describing chunks over the COPY wire
    /// path instead of one append request.
    Copy {
        /// Target table.
        table: String,
        /// Literal rows, in schema column order.
        rows: Vec<Vec<Value>>,
    },
}

/// Parse a full statement: `SELECT …`, `INSERT INTO …`,
/// `DELETE FROM …` or `COPY … FROM VALUES …`.
pub fn parse_statement(input: &str) -> Result<ParsedStatement, SqlError> {
    let tokens = tokenize(input)?;
    match tokens.first() {
        Some((Token::Ident(w), _)) if w.eq_ignore_ascii_case("INSERT") => {
            parse_insert(Parser { tokens, pos: 0 })
        }
        Some((Token::Ident(w), _)) if w.eq_ignore_ascii_case("DELETE") => {
            parse_delete(Parser { tokens, pos: 0 })
        }
        Some((Token::Ident(w), _)) if w.eq_ignore_ascii_case("COPY") => {
            parse_copy(Parser { tokens, pos: 0 })
        }
        _ => parse_select(Parser { tokens, pos: 0 }).map(ParsedStatement::Select),
    }
}

/// `(v, …) [, (v, …)]*` — the literal rows shared by `INSERT INTO` and
/// `COPY`. All rows must agree on arity.
fn parse_values_rows(p: &mut Parser) -> Result<Vec<Vec<Value>>, SqlError> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    loop {
        p.expect(&Token::LParen)?;
        let mut row = vec![p.literal()?];
        while p.peek() == Some(&Token::Comma) {
            p.next();
            row.push(p.literal()?);
        }
        p.expect(&Token::RParen)?;
        if !rows.is_empty() && row.len() != rows[0].len() {
            return Err(SqlError::new(
                format!(
                    "VALUES rows disagree on arity ({} vs {})",
                    row.len(),
                    rows[0].len()
                ),
                p.here(),
            ));
        }
        rows.push(row);
        if p.peek() == Some(&Token::Comma) {
            p.next();
        } else {
            break;
        }
    }
    Ok(rows)
}

/// `INSERT INTO t VALUES (v, …) [, (v, …)]* [;]`
fn parse_insert(mut p: Parser) -> Result<ParsedStatement, SqlError> {
    p.expect_keyword("INSERT")?;
    p.expect_keyword("INTO")?;
    let table = p.ident()?;
    p.expect_keyword("VALUES")?;
    let rows = parse_values_rows(&mut p)?;
    p.finish_statement()?;
    Ok(ParsedStatement::Insert { table, rows })
}

/// `COPY t FROM VALUES (v, …) [, (v, …)]* [;]`
fn parse_copy(mut p: Parser) -> Result<ParsedStatement, SqlError> {
    p.expect_keyword("COPY")?;
    let table = p.ident()?;
    p.expect_keyword("FROM")?;
    p.expect_keyword("VALUES")?;
    let rows = parse_values_rows(&mut p)?;
    p.finish_statement()?;
    Ok(ParsedStatement::Copy { table, rows })
}

/// `DELETE FROM t WHERE rowid (= n | IN (n, …)) [;]`
fn parse_delete(mut p: Parser) -> Result<ParsedStatement, SqlError> {
    p.expect_keyword("DELETE")?;
    p.expect_keyword("FROM")?;
    let table = p.ident()?;
    p.expect_keyword("WHERE")?;
    let at = p.here();
    let col = p.ident()?;
    if !col.eq_ignore_ascii_case("rowid") {
        return Err(SqlError::new(
            format!("DELETE supports only the rowid pseudo-column, found {col:?}"),
            at,
        ));
    }
    let mut rows: Vec<u64> = Vec::new();
    let rowid = |p: &mut Parser| -> Result<u64, SqlError> {
        let at = p.here();
        match p.next() {
            Some(Token::IntLit(v)) if v >= 0 => Ok(v as u64),
            other => Err(SqlError::new(
                format!("expected a non-negative rowid, found {other:?}"),
                at,
            )),
        }
    };
    let at = p.here();
    match p.next() {
        Some(Token::Equals) => rows.push(rowid(&mut p)?),
        Some(Token::Ident(w)) if w.eq_ignore_ascii_case("IN") => {
            p.expect(&Token::LParen)?;
            rows.push(rowid(&mut p)?);
            while p.peek() == Some(&Token::Comma) {
                p.next();
                rows.push(rowid(&mut p)?);
            }
            p.expect(&Token::RParen)?;
        }
        other => {
            return Err(SqlError::new(
                format!("expected '=' or IN after rowid, found {other:?}"),
                at,
            ))
        }
    }
    p.finish_statement()?;
    Ok(ParsedStatement::Delete { table, rows })
}

/// Parse the supported statement shape:
///
/// `SELECT (* | col, …) FROM a [INNER] JOIN b ON x = y ([INNER] JOIN c
/// ON x = y)* [WHERE col IN (v, …) [AND …]] [;]`
pub fn parse(input: &str) -> Result<ParsedQuery, SqlError> {
    parse_select(Parser {
        tokens: tokenize(input)?,
        pos: 0,
    })
}

/// [`parse`] over tokens already lexed.
fn parse_select(mut p: Parser) -> Result<ParsedQuery, SqlError> {
    p.expect_keyword("SELECT")?;
    let select = if p.peek() == Some(&Token::Star) {
        p.next();
        SelectList::Star
    } else {
        let mut columns = vec![p.column_ref()?];
        while p.peek() == Some(&Token::Comma) {
            p.next();
            columns.push(p.column_ref()?);
        }
        SelectList::Columns(columns)
    };
    p.expect_keyword("FROM")?;
    let mut tables = vec![p.ident()?];
    let mut joins = Vec::new();
    loop {
        // `INNER JOIN` is a synonym for `JOIN`.
        if p.keyword_is("INNER") {
            p.next();
            p.expect_keyword("JOIN")?;
        } else if p.keyword_is("JOIN") {
            p.next();
        } else {
            break;
        }
        tables.push(p.ident()?);
        p.expect_keyword("ON")?;
        let on_left = p.column_ref()?;
        p.expect(&Token::Equals)?;
        let on_right = p.column_ref()?;
        joins.push((on_left, on_right));
    }
    if joins.is_empty() {
        return Err(SqlError::new("expected at least one JOIN clause", p.here()));
    }

    let mut predicates = Vec::new();
    if p.keyword_is("WHERE") {
        p.next();
        loop {
            let col = p.column_ref()?;
            let at = p.here();
            let values = match p.next() {
                Some(Token::Equals) => vec![p.literal()?],
                Some(Token::Ident(w)) if w.eq_ignore_ascii_case("IN") => {
                    p.expect(&Token::LParen)?;
                    let mut vs = vec![p.literal()?];
                    while p.peek() == Some(&Token::Comma) {
                        p.next();
                        vs.push(p.literal()?);
                    }
                    p.expect(&Token::RParen)?;
                    vs
                }
                other => {
                    return Err(SqlError::new(
                        format!("expected '=' or IN, found {other:?}"),
                        at,
                    ))
                }
            };
            predicates.push((col, values));
            if p.keyword_is("AND") {
                p.next();
            } else {
                break;
            }
        }
    }
    if p.peek() == Some(&Token::Semicolon) {
        p.next();
    }
    if let Some(tok) = p.peek() {
        return Err(SqlError::new(
            format!("unexpected trailing token {tok:?}"),
            p.here(),
        ));
    }
    Ok(ParsedQuery {
        select,
        tables,
        joins,
        predicates,
    })
}

impl ParsedQuery {
    /// Resolve against the session catalog into the engine's
    /// [`QueryPlan`]: every joined table must be registered
    /// ([`DbError::UnknownTable`]), bare columns are attributed to
    /// whichever joined table has them (erroring on ambiguity), and
    /// duplicate projection columns are rejected ([`DbError::Sql`]).
    pub fn resolve(&self, catalog: &Catalog) -> Result<QueryPlan, DbError> {
        let mut tables = Vec::with_capacity(self.tables.len());
        for table in &self.tables {
            let columns = catalog
                .get(table)
                .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
            tables.push((table.as_str(), columns));
        }
        let resolve_col = |col: &ColumnRef| -> Result<(String, String), SqlError> {
            if let Some(table) = &col.table {
                return Ok((table.clone(), col.column.clone()));
            }
            let owners: Vec<&str> = tables
                .iter()
                .filter(|(_, cols)| cols.iter().any(|c| c == &col.column))
                .map(|(t, _)| *t)
                .collect();
            match owners.as_slice() {
                [table] => Ok(((*table).to_owned(), col.column.clone())),
                [] => Err(SqlError::new(
                    format!("column {:?} not found in joined tables", col.column),
                    0,
                )),
                _ => Err(SqlError::new(
                    format!("column {:?} is ambiguous between tables", col.column),
                    0,
                )),
            }
        };

        let mut plan = QueryPlan::scan(&self.tables[0]);
        for (i, (on_left, on_right)) in self.joins.iter().enumerate() {
            let new_table = &self.tables[i + 1];
            let (lt, lc) = resolve_col(on_left)?;
            let (rt, rc) = resolve_col(on_right)?;
            // Orient the condition so the right side names the table
            // this JOIN clause introduces.
            let ((lt, lc), (rt, rc)) = if rt == *new_table {
                ((lt, lc), (rt, rc))
            } else if lt == *new_table {
                ((rt, rc), (lt, lc))
            } else {
                return Err(SqlError::new(
                    format!(
                        "ON condition {on_left} = {on_right} must reference the joined \
                         table {new_table:?}"
                    ),
                    0,
                )
                .into());
            };
            if !self.tables[..=i].contains(&lt) {
                return Err(SqlError::new(
                    format!("ON condition references {lt:?}, which is not joined yet"),
                    0,
                )
                .into());
            }
            plan = plan.join_on(&lt, &lc, &rt, &rc);
        }

        for (col, values) in &self.predicates {
            let (table, column) = resolve_col(col)?;
            plan = plan.filter(&table, &column, values.clone());
        }

        if let SelectList::Columns(columns) = &self.select {
            let mut resolved: Vec<(String, String)> = Vec::with_capacity(columns.len());
            for col in columns {
                let (table, column) = resolve_col(col)?;
                if resolved.contains(&(table.clone(), column.clone())) {
                    return Err(SqlError::new(
                        format!("duplicate column {table}.{column} in select list"),
                        0,
                    )
                    .into());
                }
                resolved.push((table, column));
            }
            let refs: Vec<(&str, &str)> = resolved
                .iter()
                .map(|(t, c)| (t.as_str(), c.as_str()))
                .collect();
            plan = plan.project(&refs);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(tables: &[(&str, &[&str])]) -> Catalog {
        tables
            .iter()
            .map(|(name, columns)| {
                let columns = columns.iter().map(|c| (*c).to_owned()).collect();
                ((*name).to_owned(), columns)
            })
            .collect()
    }

    /// Plan `sql` against `tables` and lower it.
    fn lower(sql: &str, tables: &[(&str, &[&str])]) -> eqjoin_db::LoweredPlan {
        let catalog = catalog(tables);
        crate::plan(sql, &catalog).unwrap().lower(&catalog).unwrap()
    }

    /// The message `sql` is refused with when planned against `tables`.
    fn refusal(sql: &str, tables: &[(&str, &[&str])]) -> String {
        match crate::plan(sql, &catalog(tables)) {
            Err(DbError::Sql(message)) => message,
            other => panic!("{sql}: expected an SQL error, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_papers_query() {
        let q = parse(
            "SELECT * FROM Employees JOIN Teams ON Team = Key \
             WHERE Name = 'Web Application' AND Role = 'Tester'",
        )
        .unwrap();
        assert_eq!(q.select, SelectList::Star);
        assert_eq!(q.tables, vec!["Employees", "Teams"]);
        assert_eq!(q.joins[0].0.column, "Team");
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(
            q.predicates[0].1,
            vec![Value::Str("Web Application".into())]
        );
    }

    #[test]
    fn resolves_bare_columns() {
        let lowered = lower(
            "SELECT * FROM Employees JOIN Teams ON Team = Key \
             WHERE Name = 'Web Application' AND Role = 'Tester'",
            &[
                ("Employees", &["Record", "Employee", "Role", "Team"]),
                ("Teams", &["Key", "Name"]),
            ],
        );
        let stage = &lowered.stages[0].query;
        assert_eq!(stage.left_join_column, "Team");
        assert_eq!(stage.right_join_column, "Key");
        assert_eq!(stage.filters.len(), 2);
        assert_eq!(stage.filters[0].table, "Teams");
        assert_eq!(stage.filters[1].table, "Employees");
    }

    #[test]
    fn in_clause_and_qualified_refs() {
        let lowered = lower(
            "SELECT * FROM A JOIN B ON A.k = B.k WHERE A.x IN (1, 2, 3) AND B.y IN ('u');",
            &[("A", &["k", "x"]), ("B", &["k", "y"])],
        );
        let stage = &lowered.stages[0].query;
        assert_eq!(stage.filters[0].values.len(), 3);
        assert_eq!(stage.filters[0].values[2], Value::Int(3));
        assert_eq!(stage.filters[1].values, vec![Value::Str("u".into())]);
    }

    #[test]
    fn multi_table_chain_with_inner_join_and_projection() {
        let lowered = lower(
            "SELECT A.x, z FROM A JOIN B ON A.k = B.k \
             INNER JOIN C ON B.j = C.j WHERE y = 1",
            &[
                ("A", &["k", "x"]),
                ("B", &["k", "j", "y"]),
                ("C", &["j", "z"]),
            ],
        );
        assert_eq!(lowered.tables, vec!["A", "B", "C"]);
        assert_eq!(lowered.stages.len(), 2);
        assert_eq!(lowered.stages[1].query.left_table, "B");
        assert_eq!(lowered.stages[1].query.left_join_column, "j");
        assert!(!lowered.select_star);
        assert_eq!(lowered.projection.len(), 2);
        assert_eq!(lowered.projection[0].id.table, "A");
        assert_eq!(lowered.projection[1].id.table, "C");
        // The bare `y = 1` filter resolved to B and rides both stages.
        assert_eq!(lowered.stages[0].query.filters.len(), 1);
        assert_eq!(lowered.stages[1].query.filters.len(), 1);
    }

    #[test]
    fn duplicate_projection_column_rejected_with_precise_error() {
        let err = refusal(
            "SELECT x, A.x FROM A JOIN B ON A.k = B.k",
            &[("A", &["k", "x"]), ("B", &["k", "y"])],
        );
        assert!(err.contains("duplicate column A.x in select list"), "{err}");
    }

    #[test]
    fn ambiguous_projection_column_rejected() {
        let err = refusal(
            "SELECT shared FROM A JOIN B ON A.k = B.k",
            &[("A", &["k", "shared"]), ("B", &["k", "shared"])],
        );
        assert!(err.contains("ambiguous"), "{err}");
    }

    #[test]
    fn on_condition_reorientation() {
        // ON written right-table-first must still resolve correctly.
        let lowered = lower(
            "SELECT * FROM A JOIN B ON kb = ka",
            &[("A", &["ka", "x"]), ("B", &["kb", "y"])],
        );
        assert_eq!(lowered.stages[0].query.left_join_column, "ka");
        assert_eq!(lowered.stages[0].query.right_join_column, "kb");
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        let err = refusal(
            "SELECT * FROM A JOIN B ON A.k = B.k WHERE shared = 1",
            &[("A", &["k", "shared"]), ("B", &["k", "shared"])],
        );
        assert!(err.contains("ambiguous"));
    }

    #[test]
    fn unknown_column_rejected() {
        let err = refusal(
            "SELECT * FROM A JOIN B ON A.k = B.k WHERE ghost = 1",
            &[("A", &["k"]), ("B", &["k"])],
        );
        assert!(err.contains("not found"));
    }

    #[test]
    fn on_condition_must_reference_the_new_table() {
        let err = refusal(
            "SELECT * FROM A JOIN B ON A.k = B.k JOIN C ON A.k = B.k",
            &[("A", &["k"]), ("B", &["k"]), ("C", &["k"])],
        );
        assert!(err.contains("must reference the joined table"));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("SELECT * FROM A").is_err());
        assert!(parse("SELECT FROM A JOIN B ON a = b").is_err());
        assert!(parse("SELECT * FROM A JOIN B ON a = b WHERE x IN ()").is_err());
        assert!(parse("SELECT * FROM A JOIN B ON a = b trailing").is_err());
        assert!(parse("SELECT * FROM A JOIN B ON a = b WHERE x > 1").is_err());
        assert!(parse("SELECT * FROM A INNER B ON a = b").is_err());
        assert!(parse("SELECT *, x FROM A JOIN B ON a = b").is_err());
    }

    #[test]
    fn insert_into_parses_multi_row_values() {
        let stmt = parse_statement(
            "INSERT INTO Employees VALUES (7, 'gil', 'Tester', 2), (8, 'ana', 'Dev', 1);",
        )
        .unwrap();
        match stmt {
            ParsedStatement::Insert { table, rows } => {
                assert_eq!(table, "Employees");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Value::Int(7));
                assert_eq!(rows[1][1], Value::Str("ana".into()));
            }
            other => panic!("expected Insert, got {other:?}"),
        }
        // A SELECT still routes through the query parser.
        assert!(matches!(
            parse_statement("SELECT * FROM A JOIN B ON a = b").unwrap(),
            ParsedStatement::Select(_)
        ));
    }

    #[test]
    fn delete_from_parses_rowid_forms() {
        match parse_statement("DELETE FROM T WHERE rowid = 3").unwrap() {
            ParsedStatement::Delete { table, rows } => {
                assert_eq!(table, "T");
                assert_eq!(rows, vec![3]);
            }
            other => panic!("expected Delete, got {other:?}"),
        }
        match parse_statement("DELETE FROM T WHERE ROWID IN (1, 4, 9);").unwrap() {
            ParsedStatement::Delete { rows, .. } => assert_eq!(rows, vec![1, 4, 9]),
            other => panic!("expected Delete, got {other:?}"),
        }
    }

    #[test]
    fn malformed_statements_rejected() {
        // Ragged VALUES arity.
        assert!(parse_statement("INSERT INTO T VALUES (1, 2), (3)").is_err());
        // Missing VALUES / empty row.
        assert!(parse_statement("INSERT INTO T (1)").is_err());
        assert!(parse_statement("INSERT INTO T VALUES ()").is_err());
        // DELETE by anything but rowid, negative ids, trailing junk.
        assert!(parse_statement("DELETE FROM T WHERE name = 'x'").is_err());
        assert!(parse_statement("DELETE FROM T WHERE rowid = -1").is_err());
        assert!(parse_statement("DELETE FROM T WHERE rowid IN (1) junk").is_err());
        assert!(parse_statement("DELETE FROM T").is_err());
    }

    #[test]
    fn decimal_and_negative_literals() {
        let q = parse("SELECT * FROM A JOIN B ON a = b WHERE x IN (-5, 10.25)").unwrap();
        assert_eq!(
            q.predicates[0].1,
            vec![Value::Int(-5), Value::Decimal(1025)]
        );
    }
}
