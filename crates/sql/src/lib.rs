//! A small SQL front-end for the engine's select-project-join class:
//!
//! ```sql
//! SELECT * FROM Employees JOIN Teams ON Team = Key
//! WHERE Name = 'Web Application' AND Role = 'Tester'
//!
//! SELECT customer.name, supplier.name FROM customer
//!   JOIN nation ON customer.nationkey = nation.nationkey
//!   INNER JOIN supplier ON nation.nationkey = supplier.nationkey
//!   WHERE nation.name IN ('FRANCE', 'GERMANY')
//! ```
//!
//! The `SELECT` list may be `*` or an explicit column list (duplicates
//! rejected); any number of `[INNER] JOIN … ON …` clauses chain tables
//! left to right. Column references may be qualified (`Table.col`) or
//! bare; bare references are resolved against the joined tables'
//! schemas at planning time (the paper's example queries use bare
//! names), with ambiguous names rejected. `col = v` is sugar for
//! `col IN (v)`. [`plan`] resolves a query against the session catalog
//! into the engine's [`QueryPlan`], which the session lowers to
//! pipelined pairwise join stages; [`run`] executes any statement,
//! `INSERT INTO`, `DELETE FROM` and `COPY … FROM VALUES` included.
//!
//! [`QueryPlan`]: eqjoin_db::QueryPlan

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parser;
pub mod planner;

pub use lexer::{tokenize, SqlError, Token};
pub use parser::{parse, parse_statement, ColumnRef, ParsedQuery, ParsedStatement, SelectList};
pub use planner::{plan, run, Outcome};
