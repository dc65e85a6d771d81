//! The [`QueryPlan`] IR: logical select-project-join trees over
//! encrypted tables, and their lowering to pairwise join stages.
//!
//! The paper's scheme executes one shape natively — a pairwise
//! equi-join with `IN` filters. Real query series mix projections and
//! multi-table chains, so the session plans queries as a small logical
//! tree first:
//!
//! ```text
//!   Project(cols…)                SELECT n.name, o.total
//!     Join(on B.k = C.k)          FROM A JOIN B ON … JOIN C ON …
//!       Join(on A.k = B.k)        WHERE A.x IN (…)
//!         Filter(A.x IN …)
//!           Scan(A)   Scan(B)
//!       Scan(C)
//! ```
//!
//! [`QueryPlan::lower`] validates the tree against the session
//! [`Catalog`] and flattens it into a [`LoweredPlan`]: an ordered table
//! list, one pairwise [`JoinQuery`] **stage** per join edge, and a
//! resolved projection. A multi-way chain `A⋈B⋈C` therefore executes
//! as pipelined pairwise joins (`A⋈B`, then `B⋈C`) — each stage is an
//! ordinary `ExecuteJoin` for every backend, each stage's equality
//! pattern is recorded in the leakage ledger, and the session token
//! cache is keyed **per stage**, so overlapping chains across a series
//! reuse each other's stage tokens. The client reads each stage's
//! equality classes once and walks them into the chain's tuples, depth
//! first from position 0 (see
//! [`Session`](crate::session::Session)'s "Assembling the answer"), and
//! decrypts only the projected columns.
//!
//! [`JoinQuery`] remains as the two-table special case;
//! [`QueryPlan::pairwise`] embeds it, so existing callers migrate
//! mechanically.

use crate::data::Value;
use crate::error::DbError;
use crate::query::{InFilter, JoinQuery};
use crate::session::Catalog;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// A qualified column reference `table.column`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColumnId {
    /// Construct from string slices.
    pub fn new(table: &str, column: &str) -> Self {
        ColumnId {
            table: table.to_owned(),
            column: column.to_owned(),
        }
    }
}

impl std::fmt::Display for ColumnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

impl From<(&str, &str)> for ColumnId {
    fn from((table, column): (&str, &str)) -> Self {
        ColumnId::new(table, column)
    }
}

/// One node of the logical plan tree.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PlanNode {
    /// Read one encrypted table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Keep rows whose filter column is in the `IN` set. Filters may
    /// sit anywhere above their table's scan; lowering pushes them down
    /// to the stages that touch the table.
    Filter {
        /// Input node.
        input: Box<PlanNode>,
        /// The `IN` predicate.
        filter: InFilter,
    },
    /// Equi-join two subtrees. The right subtree must contribute
    /// exactly one new table (left-deep trees only — that is the shape
    /// the pairwise crypto can pipeline).
    Join {
        /// Left input (the chain built so far).
        left: Box<PlanNode>,
        /// Right input (one new table, possibly filtered).
        right: Box<PlanNode>,
        /// Join column on a table of the left subtree.
        left_on: ColumnId,
        /// Join column on the right subtree's table.
        right_on: ColumnId,
    },
    /// Keep only the listed output columns (root only). Without a
    /// `Project` node the plan is `SELECT *`.
    Project {
        /// Input node.
        input: Box<PlanNode>,
        /// Output columns in order.
        columns: Vec<ColumnId>,
    },
}

/// A logical select-project-join query over encrypted tables — the
/// session's unit of execution.
///
/// Build one with the fluent constructors and hand it to
/// [`Session::execute`](crate::session::Session::execute):
///
/// ```
/// use eqjoin_db::QueryPlan;
/// let plan = QueryPlan::scan("customer")
///     .join_on("customer", "nationkey", "nation", "nationkey")
///     .join_on("nation", "nationkey", "supplier", "nationkey")
///     .filter("nation", "name", vec!["FRANCE".into()])
///     .project(&[("customer", "name"), ("supplier", "name")]);
/// assert_eq!(plan.table_names(), vec!["customer", "nation", "supplier"]);
/// ```
///
/// The tree is shared: cloning a plan, or passing `&plan` to
/// `execute`, copies a pointer, not the tree.
#[derive(Clone, Debug, Eq)]
pub struct QueryPlan {
    root: Arc<PlanNode>,
    /// The tree's hash, taken when the plan is built: a session looks
    /// up the plan's memoized lowering at every execution.
    hash: u64,
}

impl PartialEq for QueryPlan {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.root == other.root
    }
}

impl Hash for QueryPlan {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl QueryPlan {
    /// Plan rooted at a single table scan.
    pub fn scan(table: &str) -> Self {
        QueryPlan::new(PlanNode::Scan {
            table: table.to_owned(),
        })
    }

    fn new(root: PlanNode) -> Self {
        // Keyed once per process, so equal trees hash equal and the keys
        // stay unknown to whoever writes the plan.
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        QueryPlan {
            hash: KEYS.get_or_init(RandomState::new).hash_one(&root),
            root: Arc::new(root),
        }
    }

    /// The root node, taken out of the shared tree (copied only when
    /// another plan still shares it).
    fn into_root(self) -> PlanNode {
        Arc::unwrap_or_clone(self.root)
    }

    /// The root node.
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// Add an `IN` filter on `table.column` (builder style). If the
    /// plan is already projected, the filter slides in beneath the
    /// root `Project` node, so builder order does not matter.
    pub fn filter(self, table: &str, column: &str, values: Vec<Value>) -> Self {
        let filter = InFilter {
            table: table.to_owned(),
            column: column.to_owned(),
            values,
        };
        QueryPlan::new(match self.into_root() {
            PlanNode::Project { input, columns } => PlanNode::Project {
                input: Box::new(PlanNode::Filter { input, filter }),
                columns,
            },
            other => PlanNode::Filter {
                input: Box::new(other),
                filter,
            },
        })
    }

    /// Join with another subtree on `left_on = right_on`.
    pub fn join(self, right: QueryPlan, left_on: ColumnId, right_on: ColumnId) -> Self {
        QueryPlan::new(PlanNode::Join {
            left: Box::new(self.into_root()),
            right: Box::new(right.into_root()),
            left_on,
            right_on,
        })
    }

    /// Attach a fresh scan of `right_table`, joined on
    /// `left_table.left_column = right_table.right_column` — the
    /// convenient way to grow a chain one table at a time.
    pub fn join_on(
        self,
        left_table: &str,
        left_column: &str,
        right_table: &str,
        right_column: &str,
    ) -> Self {
        self.join(
            QueryPlan::scan(right_table),
            ColumnId::new(left_table, left_column),
            ColumnId::new(right_table, right_column),
        )
    }

    /// Project onto the listed `(table, column)` output columns. A plan
    /// without a projection is `SELECT *` (every column of every table,
    /// in join order).
    pub fn project(self, columns: &[(&str, &str)]) -> Self {
        QueryPlan::new(PlanNode::Project {
            input: Box::new(self.into_root()),
            columns: columns.iter().map(|&(t, c)| ColumnId::new(t, c)).collect(),
        })
    }

    /// Embed a two-table [`JoinQuery`] as a plan — the thin shim that
    /// keeps the legacy API one constructor away from the IR.
    pub fn pairwise(query: &JoinQuery) -> Self {
        let mut plan = QueryPlan::scan(&query.left_table).join(
            QueryPlan::scan(&query.right_table),
            ColumnId::new(&query.left_table, &query.left_join_column),
            ColumnId::new(&query.right_table, &query.right_join_column),
        );
        for f in &query.filters {
            plan = plan.filter(&f.table, &f.column, f.values.clone());
        }
        plan
    }

    /// The scanned table names in join order (left-deep walk).
    pub fn table_names(&self) -> Vec<String> {
        fn walk(node: &PlanNode, out: &mut Vec<String>) {
            match node {
                PlanNode::Scan { table } => out.push(table.clone()),
                PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => {
                    walk(input, out)
                }
                PlanNode::Join { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Validate against the catalog and flatten into pairwise stages.
    /// See [`LoweredPlan`] for what comes out.
    pub fn lower(&self, catalog: &Catalog) -> Result<LoweredPlan, DbError> {
        lower(self, catalog)
    }
}

impl From<JoinQuery> for QueryPlan {
    fn from(query: JoinQuery) -> Self {
        QueryPlan::pairwise(&query)
    }
}

impl From<&JoinQuery> for QueryPlan {
    fn from(query: &JoinQuery) -> Self {
        QueryPlan::pairwise(query)
    }
}

/// One pairwise join stage of a lowered plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stage {
    /// The pairwise query the backend executes (filters of both touched
    /// tables included, so every stage prunes as early as possible).
    pub query: JoinQuery,
    /// Position (in [`LoweredPlan::tables`]) of the stage's left table —
    /// the *anchor* already joined by earlier stages.
    pub left_position: usize,
    /// Position of the table this stage attaches (always `stage index
    /// + 1`).
    pub right_position: usize,
}

/// One resolved output column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputColumn {
    /// Position of the source table in [`LoweredPlan::tables`].
    pub position: usize,
    /// Column index within that table's schema.
    pub column_index: usize,
    /// The qualified name (header for result rendering).
    pub id: ColumnId,
}

/// A validated, flattened plan: what the session actually executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoweredPlan {
    /// Tables in join order; positions index this list.
    pub tables: Vec<String>,
    /// Pairwise stages in execution order (`stages.len() == tables.len()
    /// - 1`).
    pub stages: Vec<Stage>,
    /// Output columns in order (all columns of all tables for
    /// `SELECT *`).
    pub projection: Vec<OutputColumn>,
    /// Whether the plan was `SELECT *` (no explicit `Project` node).
    pub select_star: bool,
}

impl LoweredPlan {
    /// The payload columns the client needs from table `position`:
    /// `None` for all of them (`SELECT *`), else the sorted, distinct
    /// schema indices of the projected columns.
    pub fn wanted_columns(&self, position: usize) -> Option<Vec<usize>> {
        if self.select_star {
            return None;
        }
        let mut cols: Vec<usize> = self
            .projection
            .iter()
            .filter(|c| c.position == position)
            .map(|c| c.column_index)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        Some(cols)
    }
}

/// Everything gathered from one subtree during lowering.
struct Walked {
    tables: Vec<String>,
    edges: Vec<(ColumnId, ColumnId)>,
    filters: Vec<InFilter>,
}

fn lower(plan: &QueryPlan, catalog: &Catalog) -> Result<LoweredPlan, DbError> {
    // Peel the optional root projection first; a Project anywhere else
    // is a shape error.
    let (projection_cols, body) = match plan.root() {
        PlanNode::Project { input, columns } => (Some(columns.clone()), input.as_ref()),
        other => (None, other),
    };

    let walked = walk(body)?;
    if walked.tables.len() < 2 {
        return Err(DbError::InvalidPlan(
            "a plan must join at least two tables".into(),
        ));
    }
    for table in &walked.tables {
        if !catalog.contains_key(table) {
            return Err(DbError::UnknownTable(table.clone()));
        }
    }
    let duplicated = walked
        .tables
        .iter()
        .enumerate()
        .any(|(i, t)| walked.tables[..i].contains(t));
    if duplicated && walked.tables.len() > 2 {
        return Err(DbError::InvalidPlan(
            "a table may be scanned twice only in a two-table self-join".into(),
        ));
    }

    let column_index = |id: &ColumnId| -> Result<usize, DbError> {
        catalog
            .get(&id.table)
            .and_then(|cols| cols.iter().position(|c| *c == id.column))
            .ok_or_else(|| DbError::UnknownColumn {
                table: id.table.clone(),
                column: id.column.clone(),
            })
    };

    // Filters must name a table of the plan (the satellite bugfix: a
    // typo'd table used to silently leave that side unfiltered) and an
    // existing column.
    for f in &walked.filters {
        if !walked.tables.contains(&f.table) {
            return Err(DbError::FilterTableNotInQuery {
                table: f.table.clone(),
                column: f.column.clone(),
            });
        }
        column_index(&ColumnId::new(&f.table, &f.column))?;
    }

    // Stages: edge i attaches table position i + 1; its anchor is
    // whichever earlier table the edge's left column names.
    let mut stages = Vec::with_capacity(walked.edges.len());
    for (i, (left_on, right_on)) in walked.edges.iter().enumerate() {
        column_index(left_on)?;
        column_index(right_on)?;
        let right_position = i + 1;
        // Accept the edge written in either orientation.
        let (left_on, right_on) = if right_on.table == walked.tables[right_position] {
            (left_on, right_on)
        } else if left_on.table == walked.tables[right_position] {
            (right_on, left_on)
        } else {
            return Err(DbError::InvalidPlan(format!(
                "join edge {left_on} = {right_on} does not reference the newly joined table {:?}",
                walked.tables[right_position]
            )));
        };
        let left_position = walked.tables[..right_position]
            .iter()
            .position(|t| *t == left_on.table)
            .ok_or_else(|| {
                DbError::InvalidPlan(format!(
                    "join edge references {:?}, which is not joined yet",
                    left_on.table
                ))
            })?;
        let mut query = JoinQuery::on(
            &left_on.table,
            &left_on.column,
            &right_on.table,
            &right_on.column,
        );
        for f in &walked.filters {
            if f.table == left_on.table || f.table == right_on.table {
                query.filters.push(f.clone());
            }
        }
        stages.push(Stage {
            query,
            left_position,
            right_position,
        });
    }

    // Projection: resolve explicit columns, or expand `SELECT *`.
    let select_star = projection_cols.is_none();
    let projection = match projection_cols {
        None => {
            let mut out = Vec::new();
            for (position, table) in walked.tables.iter().enumerate() {
                for (column_index, column) in catalog[table].iter().enumerate() {
                    out.push(OutputColumn {
                        position,
                        column_index,
                        id: ColumnId::new(table, column),
                    });
                }
            }
            out
        }
        Some(columns) => {
            if duplicated {
                return Err(DbError::InvalidPlan(
                    "projections over a self-join are ambiguous; use SELECT *".into(),
                ));
            }
            let mut out = Vec::with_capacity(columns.len());
            for id in columns {
                let position = walked
                    .tables
                    .iter()
                    .position(|t| *t == id.table)
                    .ok_or_else(|| DbError::UnknownColumn {
                        table: id.table.clone(),
                        column: id.column.clone(),
                    })?;
                let column_index = column_index(&id)?;
                if out.iter().any(|c: &OutputColumn| {
                    c.position == position && c.column_index == column_index
                }) {
                    return Err(DbError::DuplicateProjectionColumn {
                        table: id.table,
                        column: id.column,
                    });
                }
                out.push(OutputColumn {
                    position,
                    column_index,
                    id,
                });
            }
            out
        }
    };

    Ok(LoweredPlan {
        tables: walked.tables,
        stages,
        projection,
        select_star,
    })
}

fn walk(node: &PlanNode) -> Result<Walked, DbError> {
    match node {
        PlanNode::Scan { table } => Ok(Walked {
            tables: vec![table.clone()],
            edges: Vec::new(),
            filters: Vec::new(),
        }),
        PlanNode::Filter { input, filter } => {
            let mut walked = walk(input)?;
            walked.filters.push(filter.clone());
            Ok(walked)
        }
        PlanNode::Project { .. } => Err(DbError::InvalidPlan(
            "Project is only allowed at the plan root".into(),
        )),
        PlanNode::Join {
            left,
            right,
            left_on,
            right_on,
        } => {
            let mut walked = walk(left)?;
            let right_walked = walk(right)?;
            if right_walked.tables.len() != 1 {
                return Err(DbError::InvalidPlan(
                    "only left-deep join trees are supported (the right join input \
                     must be a single scan, possibly filtered)"
                        .into(),
                ));
            }
            walked.tables.extend(right_walked.tables);
            walked.filters.extend(right_walked.filters);
            walked.edges.push((left_on.clone(), right_on.clone()));
            Ok(walked)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert("A".into(), vec!["k".into(), "x".into()]);
        c.insert("B".into(), vec!["k".into(), "j".into(), "y".into()]);
        c.insert("C".into(), vec!["j".into(), "z".into()]);
        c
    }

    fn chain() -> QueryPlan {
        QueryPlan::scan("A")
            .join_on("A", "k", "B", "k")
            .join_on("B", "j", "C", "j")
    }

    #[test]
    fn chain_lowers_to_pipelined_pairwise_stages() {
        let lowered = chain()
            .filter("B", "y", vec![1.into()])
            .lower(&catalog())
            .unwrap();
        assert_eq!(lowered.tables, vec!["A", "B", "C"]);
        assert_eq!(lowered.stages.len(), 2);
        let s0 = &lowered.stages[0];
        assert_eq!((s0.left_position, s0.right_position), (0, 1));
        assert_eq!(s0.query.left_table, "A");
        assert_eq!(s0.query.right_table, "B");
        assert_eq!(s0.query.filters.len(), 1, "B filter rides stage 0");
        let s1 = &lowered.stages[1];
        assert_eq!((s1.left_position, s1.right_position), (1, 2));
        assert_eq!(s1.query.left_table, "B");
        assert_eq!(s1.query.left_join_column, "j");
        assert_eq!(s1.query.filters.len(), 1, "…and stage 1 (both touch B)");
        // SELECT *: every column of every table, in join order.
        assert!(lowered.select_star);
        assert_eq!(lowered.projection.len(), 2 + 3 + 2);
        assert_eq!(lowered.wanted_columns(0), None);
    }

    #[test]
    fn projection_resolves_and_rejects_duplicates() {
        let lowered = chain()
            .project(&[("C", "z"), ("A", "x")])
            .lower(&catalog())
            .unwrap();
        assert!(!lowered.select_star);
        assert_eq!(lowered.projection.len(), 2);
        assert_eq!(lowered.projection[0].position, 2);
        assert_eq!(lowered.projection[0].column_index, 1);
        assert_eq!(lowered.wanted_columns(0), Some(vec![1]));
        assert_eq!(lowered.wanted_columns(1), Some(vec![]));
        let dup = chain().project(&[("A", "x"), ("A", "x")]).lower(&catalog());
        assert_eq!(
            dup.unwrap_err(),
            DbError::DuplicateProjectionColumn {
                table: "A".into(),
                column: "x".into(),
            }
        );
        let ghost = chain().project(&[("A", "ghost")]).lower(&catalog());
        assert!(matches!(ghost, Err(DbError::UnknownColumn { .. })));
    }

    #[test]
    fn filter_on_foreign_table_is_rejected() {
        let bad = chain().filter("Zz", "y", vec![1.into()]).lower(&catalog());
        assert_eq!(
            bad.unwrap_err(),
            DbError::FilterTableNotInQuery {
                table: "Zz".into(),
                column: "y".into(),
            }
        );
    }

    #[test]
    fn pairwise_embeds_join_query() {
        let q = JoinQuery::on("A", "k", "B", "k").filter("A", "x", vec![1.into()]);
        let lowered = QueryPlan::pairwise(&q).lower(&catalog()).unwrap();
        assert_eq!(lowered.stages.len(), 1);
        assert_eq!(lowered.stages[0].query.left_table, "A");
        assert_eq!(lowered.stages[0].query.filters, q.filters);
        // Self-joins stay legal in the two-table shape.
        let self_join = QueryPlan::pairwise(&JoinQuery::on("A", "k", "A", "k"));
        assert!(self_join.lower(&catalog()).is_ok());
    }

    #[test]
    fn shape_errors() {
        // Single table, no join.
        assert!(matches!(
            QueryPlan::scan("A").lower(&catalog()),
            Err(DbError::InvalidPlan(_))
        ));
        // Bushy tree: right input with two tables.
        let bushy = QueryPlan::scan("A").join(
            QueryPlan::scan("B").join_on("B", "j", "C", "j"),
            ColumnId::new("A", "k"),
            ColumnId::new("B", "k"),
        );
        assert!(matches!(
            bushy.lower(&catalog()),
            Err(DbError::InvalidPlan(_))
        ));
        // Edge referencing a table joined later.
        let forward = QueryPlan::scan("A")
            .join_on("C", "j", "B", "k")
            .join_on("B", "j", "C", "j");
        assert!(matches!(
            forward.lower(&catalog()),
            Err(DbError::InvalidPlan(_))
        ));
        // Unknown table.
        assert!(matches!(
            QueryPlan::scan("A")
                .join_on("A", "k", "Zz", "k")
                .lower(&catalog()),
            Err(DbError::UnknownTable(_))
        ));
        // Project below a join.
        let buried = QueryPlan::scan("A")
            .project(&[("A", "k")])
            .join_on("A", "k", "B", "k");
        assert!(matches!(
            buried.lower(&catalog()),
            Err(DbError::InvalidPlan(_))
        ));
        // Chains joining the same table twice are rejected (ambiguous).
        let twice = chain().join_on("B", "k", "A", "k");
        assert!(matches!(
            twice.lower(&catalog()),
            Err(DbError::InvalidPlan(_))
        ));
    }

    #[test]
    fn filter_after_project_slides_beneath_the_projection() {
        let lowered = chain()
            .project(&[("A", "x")])
            .filter("B", "y", vec![1.into()])
            .lower(&catalog())
            .unwrap();
        assert_eq!(lowered.projection.len(), 1);
        assert_eq!(lowered.stages[0].query.filters.len(), 1);
    }

    #[test]
    fn reversed_edge_orientation_is_accepted() {
        let plan = QueryPlan::scan("A").join(
            QueryPlan::scan("B"),
            ColumnId::new("B", "k"), // written backwards
            ColumnId::new("A", "k"),
        );
        let lowered = plan.lower(&catalog()).unwrap();
        assert_eq!(lowered.stages[0].query.left_table, "A");
        assert_eq!(lowered.stages[0].query.right_table, "B");
    }
}
