//! # eqjoin — Equi-Joins over Encrypted Data for Series of Queries
//!
//! Facade crate re-exporting the full reproduction of Shafieinejad et
//! al., *"Equi-Joins over Encrypted Data for Series of Queries"*
//! (ICDE 2022).
//!
//! The primary entry point is the [`Session`] API — one object owning
//! keys, query planning ([`db::QueryPlan`]: select-project-join trees,
//! lowered to pairwise join stages), transport and per-stage leakage
//! accounting:
//!
//! ```text
//!   session(config)                        backend (ServerApi)
//!   ┌──────────────────────────┐      ┌───────────────────────────┐
//!   │ create_table(plain, cfg) ┼──────▶ encrypted tables          │
//!   │ execute("SELECT c, …     ┼──────▶ SJ.Dec + SJ.Match per     │
//!   │   FROM a JOIN b … JOIN c │      │ pairwise stage, projected │
//!   │   …") └ stage token cache│◀─────┼ payloads + observation    │
//!   │ stitch + column decrypt  │      └───────────────────────────┘
//!   │ leakage_report()         │
//!   └──────────────────────────┘
//! ```
//!
//! ```
//! use eqjoin::db::{Schema, SessionConfig, Table, TableConfig, Value};
//! use eqjoin::pairing::MockEngine;
//!
//! let mut session = eqjoin::session::<MockEngine>(SessionConfig::new(1, 2));
//! for name in ["L", "R"] {
//!     let mut t = Table::new(Schema::new(name, &["k", "a"]));
//!     t.push_row(vec![Value::Int(1), name.into()]);
//!     let cfg = TableConfig { join_column: "k".into(), filter_columns: vec!["a".into()] };
//!     session.create_table(&t, cfg).unwrap();
//! }
//! let result = session.execute("SELECT * FROM L JOIN R ON L.k = R.k").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! assert!(session.leakage_report().within_bound);
//! ```
//!
//! Underneath: [`db::DbClient`]/[`db::DbServer`] are the documented
//! low-level layer (manual token shuttling), and [`core`] holds the raw
//! `SJ.{Setup, Enc, TokenGen, Dec, Match}` scheme. See
//! `examples/quickstart.rs` for the five-minute tour.

#![forbid(unsafe_code)]

pub use eqjoin_baselines as baselines;
pub use eqjoin_core as core;
pub use eqjoin_crypto as crypto;
pub use eqjoin_db as db;
pub use eqjoin_fhipe as fhipe;
pub use eqjoin_leakage as leakage;
pub use eqjoin_obs as obs;
pub use eqjoin_pairing as pairing;
pub use eqjoin_sql as sql;
pub use eqjoin_tpch as tpch;

pub use eqjoin_db::{Session, SessionConfig};

/// A local-backend [`Session`] with the SQL front-end installed — the
/// one-call way to run SQL over encrypted tables.
pub fn session<E: eqjoin_pairing::Engine>(config: SessionConfig) -> Session<E> {
    Session::local(config).with_planner(Box::new(eqjoin_sql::SqlFrontend))
}

/// A [`Session`] over a TCP connection to an `eqjoind` server (run one
/// with `cargo run --release -p eqjoind`), SQL front-end installed.
/// The engine type must match the server's `--engine` flag — the wire
/// codec validates group elements under the engine it is given.
///
/// Connection failure is [`db::DbError::Transport`], which
/// also marks any later loss of the connection — errors the *server*
/// reports keep their original variants.
pub fn session_remote<E: eqjoin_pairing::Engine>(
    config: SessionConfig,
    addr: &str,
) -> Result<Session<E>, eqjoin_db::DbError> {
    Ok(Session::remote(config, addr)?.with_planner(Box::new(eqjoin_sql::SqlFrontend)))
}
