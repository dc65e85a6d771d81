//! Per-tenant namespaces: a [`TenantRegistry`] routes
//! [`Request::WithTenant`] envelopes to isolated per-tenant backends.
//!
//! Isolation is the point, and it is total by construction: each
//! tenant gets its **own** [`LocalBackend`] — own
//! [`EncryptedStore`](eqjoin_db::EncryptedStore) (so decrypt-cache
//! entries can never be shared across tenants: a cache hit proves the
//! same tenant decrypted that row before), own snapshot file under
//! `<data-dir>/tenants/<name>/store.snap`, and own server-side
//! transport/execution counters. Leakage accounting stays per-tenant
//! on the *client* side too — each tenant's sessions carry their own
//! ledger — so one tenant's query pattern never influences another's
//! leakage report.
//!
//! Tenantless requests go to a default backend whose snapshot lives at
//! `<data-dir>/store.snap`, exactly where the single-tenant server
//! kept it — a warm restart predating tenants keeps working.
//!
//! The registry is itself a [`ServerApi`]: the reactor serves it like
//! any other backend, and tests drive it in-process through
//! `Session::with_backend` as the reference for the TCP path.

use eqjoin_db::TransportStats;
use eqjoin_db::{
    valid_tenant_name, DbError, LocalBackend, Request, Response, ServerApi, ServerMetrics,
};
use eqjoin_pairing::Engine;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Cached per-tenant observability handles — resolved once per tenant,
/// so the per-request path is three `Relaxed` atomic ops, not a
/// registry lookup.
struct TenantMetrics {
    requests: Arc<eqjoin_obs::Counter>,
    errors: Arc<eqjoin_obs::Counter>,
    latency: Arc<eqjoin_obs::Histogram>,
}

/// The label the default (tenantless) namespace reports under.
const DEFAULT_TENANT_LABEL: &str = "default";

/// One tenant's backend, opened once: the cell is published under the
/// registry lock, the open (snapshot load + journal replay) runs outside
/// it, and requests arriving meanwhile wait on the cell, not the registry.
type TenantSlot<E> = Arc<OnceLock<Result<Arc<LocalBackend<E>>, DbError>>>;

/// The backend in a cell, once its open has succeeded.
fn opened<E: Engine>(slot: &TenantSlot<E>) -> Option<&Arc<LocalBackend<E>>> {
    slot.get()?.as_ref().ok()
}

/// Routes requests to per-tenant [`LocalBackend`]s, creating them on
/// first use (or only for an allow-listed set of names).
pub struct TenantRegistry<E: Engine> {
    default: LocalBackend<E>,
    tenants: RwLock<HashMap<String, TenantSlot<E>>>,
    /// `Some` restricts tenants to this set; `None` admits any name.
    allowed: Option<Vec<String>>,
    data_dir: Option<PathBuf>,
    threads: Option<usize>,
    cache_cap: Option<usize>,
    compaction_threshold: u64,
    obs: RwLock<HashMap<String, Arc<TenantMetrics>>>,
}

impl<E: Engine> TenantRegistry<E> {
    /// In-memory registry (no persistence). `allowed` restricts the
    /// tenant namespace; `None` admits any well-formed name.
    pub fn new(
        threads: Option<usize>,
        cache_cap: Option<usize>,
        allowed: Option<Vec<String>>,
    ) -> Self {
        TenantRegistry {
            default: LocalBackend::with_config(threads, cache_cap),
            tenants: RwLock::new(HashMap::new()),
            allowed,
            data_dir: None,
            threads,
            cache_cap,
            compaction_threshold: 0,
            obs: RwLock::new(HashMap::new()),
        }
    }

    /// Persistent registry: the default namespace snapshots to
    /// `data_dir/store.snap` (the pre-tenant layout, so old data dirs
    /// restart warm), tenant `t` to `data_dir/tenants/t/store.snap`.
    /// Existing snapshots are loaded eagerly for the default namespace
    /// and lazily (on first request) for tenants.
    /// `compaction_threshold` (journal bytes) arms O(delta) persistence
    /// for every namespace; `0` keeps flush-per-mutation.
    pub fn with_persistence(
        data_dir: PathBuf,
        threads: Option<usize>,
        cache_cap: Option<usize>,
        compaction_threshold: u64,
        allowed: Option<Vec<String>>,
    ) -> Result<Self, DbError> {
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| DbError::Snapshot(format!("create {}: {e}", data_dir.display())))?;
        let default = LocalBackend::with_persistence(
            data_dir.join("store.snap"),
            threads,
            cache_cap,
            compaction_threshold,
        )?;
        Ok(TenantRegistry {
            default,
            tenants: RwLock::new(HashMap::new()),
            allowed,
            data_dir: Some(data_dir),
            threads,
            cache_cap,
            compaction_threshold,
            obs: RwLock::new(HashMap::new()),
        })
    }

    /// The cached observability handles for `tenant` (the default
    /// namespace reports as `tenant="default"`).
    fn metrics_for(&self, tenant: &str) -> Arc<TenantMetrics> {
        if let Some(metrics) = self
            .obs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant)
        {
            return Arc::clone(metrics);
        }
        let mut obs = self.obs.write().unwrap_or_else(|e| e.into_inner());
        let registry = eqjoin_obs::registry();
        Arc::clone(obs.entry(tenant.to_owned()).or_insert_with(|| {
            let label = Some(("tenant", tenant));
            Arc::new(TenantMetrics {
                requests: registry.counter_labeled("eqjoin_tenant_requests_total", label),
                errors: registry.counter_labeled("eqjoin_tenant_errors_total", label),
                latency: registry.histogram_labeled("eqjoin_tenant_request_seconds", label),
            })
        }))
    }

    /// Serve `request` with `serve`, counting it in namespace `label`'s
    /// request, latency and error metrics.
    fn observed(
        &self,
        label: &str,
        request: Request<E>,
        serve: impl FnOnce(Request<E>) -> Response,
    ) -> Response {
        let metrics = self.metrics_for(label);
        metrics.requests.add(request.request_count());
        let start = Instant::now();
        let response = serve(request);
        metrics.latency.record(start.elapsed());
        if has_error(&response) {
            metrics.errors.inc();
        }
        response
    }

    /// The backend serving `tenant`, opened on first use. The registry
    /// lock is held only to publish the tenant's cell: open tenants never
    /// wait on another's recovery, and two tenants recover side by side.
    fn tenant_backend(&self, tenant: &str) -> Result<Arc<LocalBackend<E>>, DbError> {
        if let Some(backend) = self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant)
            .and_then(opened)
        {
            return Ok(Arc::clone(backend));
        }
        // The wire codec already validated the name, but local callers
        // can reach this too — and the name becomes a directory.
        if !valid_tenant_name(tenant) {
            return Err(DbError::Protocol(format!("invalid tenant name {tenant:?}")));
        }
        if let Some(allowed) = &self.allowed {
            if !allowed.iter().any(|a| a == tenant) {
                return Err(DbError::Protocol(format!(
                    "unknown tenant {tenant:?} (server allows: {})",
                    allowed.join(", ")
                )));
            }
        }
        let slot = {
            let mut tenants = self.tenants.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(tenants.entry(tenant.to_owned()).or_default())
        };
        match slot.get_or_init(|| self.open_tenant(tenant).map(Arc::new)) {
            Ok(backend) => Ok(Arc::clone(backend)),
            Err(e) => {
                // Everyone who waited on this attempt gets its error; it is
                // not cached — unpublish this attempt's cell so the next retries.
                let mut tenants = self.tenants.write().unwrap_or_else(|e| e.into_inner());
                if tenants.get(tenant).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    tenants.remove(tenant);
                }
                Err(e.clone())
            }
        }
    }

    /// Open `tenant`'s backend: in memory, or from its snapshot and
    /// journal under `<data-dir>/tenants/<tenant>/`.
    fn open_tenant(&self, tenant: &str) -> Result<LocalBackend<E>, DbError> {
        let Some(dir) = &self.data_dir else {
            return Ok(LocalBackend::with_config(self.threads, self.cache_cap));
        };
        let tenant_dir = dir.join("tenants").join(tenant);
        std::fs::create_dir_all(&tenant_dir)
            .map_err(|e| DbError::Snapshot(format!("create {}: {e}", tenant_dir.display())))?;
        LocalBackend::with_persistence(
            tenant_dir.join("store.snap"),
            self.threads,
            self.cache_cap,
            self.compaction_threshold,
        )
    }

    /// Every open tenant's backend, collected under the read lock and
    /// returned without it: a flush or stats walk never holds the registry.
    fn open_tenants(&self) -> Vec<Arc<LocalBackend<E>>> {
        let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        tenants.values().filter_map(opened).cloned().collect()
    }

    /// Tenants that have been materialized, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = tenants
            .iter()
            .filter(|(_, slot)| opened(slot).is_some())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// One tenant's server-side transport counters (`None` for the
    /// default namespace; `Some(name)` must be materialized).
    pub fn tenant_stats(&self, tenant: Option<&str>) -> Option<TransportStats> {
        match tenant {
            None => Some(ServerApi::<E>::transport_stats(&self.default)),
            Some(name) => self
                .tenants
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .get(name)
                .and_then(opened)
                .map(|b| ServerApi::<E>::transport_stats(b.as_ref())),
        }
    }

    /// Flush every namespace's snapshot (the drain path). The first
    /// failure wins; the rest still get their flush attempt.
    pub fn flush_all(&self) -> Result<(), DbError> {
        let mut first_err = self.default.flush().err();
        for backend in self.open_tenants() {
            if let Err(e) = backend.flush() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Does a response report any failure (top level or inside a batch)?
fn has_error(response: &Response) -> bool {
    match response {
        Response::Error(_) => true,
        Response::Batch(responses) => responses.iter().any(has_error),
        _ => false,
    }
}

impl<E: Engine> ServerApi<E> for TenantRegistry<E> {
    fn handle(&self, request: Request<E>) -> Response {
        match request {
            Request::WithTenant { tenant, inner } => self.observed(&tenant, *inner, |inner| {
                match self.tenant_backend(&tenant) {
                    Ok(backend) => backend.handle(inner),
                    Err(e) => Response::Error(e),
                }
            }),
            // Drain flushes EVERY namespace, not just the default one.
            Request::Drain => match self.flush_all() {
                Ok(()) => Response::Pong,
                Err(e) => Response::Error(e),
            },
            // A top-level (tenantless) stats probe reports the
            // *aggregate* transport view across every namespace; wrap
            // it in a tenant envelope to scope it to one tenant.
            Request::Stats => Response::Stats(ServerMetrics {
                transport: ServerApi::<E>::transport_stats(self),
                exposition: eqjoin_obs::exposition(),
            }),
            other => self.observed(DEFAULT_TENANT_LABEL, other, |r| self.default.handle(r)),
        }
    }

    fn transport_stats(&self) -> TransportStats {
        // Aggregate view: the default namespace plus every tenant.
        let mut total = ServerApi::<E>::transport_stats(&self.default);
        for backend in self.open_tenants() {
            total.merge(&ServerApi::<E>::transport_stats(backend.as_ref()));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_pairing::MockEngine;

    fn ping() -> Request<MockEngine> {
        Request::Ping
    }

    #[test]
    fn tenants_materialize_on_demand_and_are_isolated() {
        let registry = TenantRegistry::<MockEngine>::new(None, None, None);
        assert!(registry.tenant_names().is_empty());
        let r = registry.handle(Request::WithTenant {
            tenant: "acme".into(),
            inner: Box::new(ping()),
        });
        assert!(matches!(r, Response::Pong));
        assert_eq!(registry.tenant_names(), vec!["acme".to_owned()]);
        // Per-tenant stats are separate: acme served one request, the
        // default namespace none.
        assert_eq!(registry.tenant_stats(Some("acme")).unwrap().round_trips, 1);
        assert_eq!(registry.tenant_stats(None).unwrap().round_trips, 0);
        assert!(registry.tenant_stats(Some("ghost")).is_none());
    }

    #[test]
    fn allow_list_rejects_unknown_tenants() {
        let registry =
            TenantRegistry::<MockEngine>::new(None, None, Some(vec!["a".into(), "b".into()]));
        let ok = registry.handle(Request::WithTenant {
            tenant: "a".into(),
            inner: Box::new(ping()),
        });
        assert!(matches!(ok, Response::Pong));
        let rejected = registry.handle(Request::WithTenant {
            tenant: "mallory".into(),
            inner: Box::new(ping()),
        });
        match rejected {
            Response::Error(DbError::Protocol(msg)) => assert!(msg.contains("unknown tenant")),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(registry.tenant_names(), vec!["a".to_owned()]);
    }

    #[test]
    fn drain_acknowledges_and_default_namespace_serves_plain_requests() {
        let registry = TenantRegistry::<MockEngine>::new(None, None, None);
        assert!(matches!(registry.handle(ping()), Response::Pong));
        assert!(matches!(registry.handle(Request::Drain), Response::Pong));
        assert_eq!(registry.tenant_stats(None).unwrap().round_trips, 1);
    }

    #[test]
    fn aggregate_transport_stats_sum_every_field_of_every_namespace() {
        let registry = TenantRegistry::<MockEngine>::new(None, None, None);
        let in_tenant = |tenant: &str, inner: Request<MockEngine>| Request::WithTenant {
            tenant: tenant.into(),
            inner: Box::new(inner),
        };
        registry.handle(ping());
        registry.handle(in_tenant("acme", ping()));
        registry.handle(in_tenant(
            "acme",
            Request::Batch(vec![ping(), ping(), ping()]),
        ));
        registry.handle(in_tenant("beta", Request::Batch(vec![ping(), ping()])));
        let parts = [None, Some("acme"), Some("beta")].map(|t| registry.tenant_stats(t).unwrap());
        let sum = |field: fn(&TransportStats) -> u64| parts.iter().map(field).sum::<u64>();
        // Destructured field by field: a counter added to
        // `TransportStats` must be added here too.
        let TransportStats {
            round_trips,
            requests,
            batches,
            bytes_sent,
            bytes_received,
            reconnects,
            retries,
            gave_up,
        } = ServerApi::<MockEngine>::transport_stats(&registry);
        assert_eq!(round_trips, sum(|s| s.round_trips));
        assert_eq!(requests, sum(|s| s.requests));
        assert_eq!(batches, sum(|s| s.batches));
        assert_eq!(bytes_sent, sum(|s| s.bytes_sent));
        assert_eq!(bytes_received, sum(|s| s.bytes_received));
        assert_eq!(reconnects, sum(|s| s.reconnects));
        assert_eq!(retries, sum(|s| s.retries));
        assert_eq!(gave_up, sum(|s| s.gave_up));
        // The traffic reached all three namespaces.
        assert_eq!((round_trips, requests, batches), (4, 7, 2));
        assert!(parts.iter().all(|s| s.round_trips > 0));
    }

    #[test]
    fn persistent_registry_keeps_tenant_snapshots_apart() {
        let dir =
            std::env::temp_dir().join(format!("eqjoind-net-tenant-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let registry =
                TenantRegistry::<MockEngine>::with_persistence(dir.clone(), None, None, 0, None)
                    .unwrap();
            for tenant in ["alpha", "beta"] {
                let r = registry.handle(Request::WithTenant {
                    tenant: tenant.into(),
                    inner: Box::new(ping()),
                });
                assert!(matches!(r, Response::Pong));
            }
            registry.flush_all().unwrap();
            // Ping dirties nothing, so no snapshot files yet — but the
            // per-tenant directories exist and are distinct.
            assert!(dir.join("tenants/alpha").is_dir());
            assert!(dir.join("tenants/beta").is_dir());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
