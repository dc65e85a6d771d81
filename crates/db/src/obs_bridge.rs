//! One source of truth for metric exposition: converts a backend's
//! [`TransportStats`] into canonical [`eqjoin_obs`] samples and
//! registers them as a *snapshot source* — a closure the registry
//! evaluates at scrape time against the live counters.
//!
//! The point is that the scrape surface and the programmatic snapshots
//! can never disagree: both read the same atomics at the moment they
//! are asked, instead of a second hand-maintained copy drifting. The
//! metric names below are the canonical catalog (see the README's
//! Observability section); tests assert that a scraped delta equals the
//! corresponding snapshot delta.

use crate::backend::TransportStats;
use crate::protocol::ServerApi;
use eqjoin_obs::{Sample, SampleKind};
use eqjoin_pairing::Engine;
use std::sync::Arc;

fn counter(name: &str, label: Option<(&str, &str)>, value: u64) -> Sample {
    Sample {
        name: name.to_owned(),
        labels: label
            .map(|(k, v)| vec![(k.to_owned(), v.to_owned())])
            .unwrap_or_default(),
        kind: SampleKind::Counter,
        value: value as f64,
    }
}

/// [`TransportStats`] under canonical names, optionally labeled (the
/// tenant registry labels each namespace's counters by tenant).
pub fn transport_samples(stats: &TransportStats, label: Option<(&str, &str)>) -> Vec<Sample> {
    vec![
        counter(
            "eqjoin_transport_round_trips_total",
            label,
            stats.round_trips,
        ),
        counter("eqjoin_transport_requests_total", label, stats.requests),
        counter("eqjoin_transport_batches_total", label, stats.batches),
        counter("eqjoin_transport_bytes_sent_total", label, stats.bytes_sent),
        counter(
            "eqjoin_transport_bytes_received_total",
            label,
            stats.bytes_received,
        ),
        counter("eqjoin_transport_reconnects_total", label, stats.reconnects),
        counter("eqjoin_transport_retries_total", label, stats.retries),
        counter("eqjoin_transport_gave_up_total", label, stats.gave_up),
    ]
}

/// Register `backend`'s transport counters as the scrape source named
/// `source` — each scrape calls `transport_stats()` live. Re-registering
/// the same source name replaces the previous closure (a restarted
/// server keeps one source, not a pile of dead ones).
pub fn register_transport_source<E, B>(source: &str, backend: Arc<B>)
where
    E: Engine,
    B: ServerApi<E> + ?Sized + 'static,
{
    eqjoin_obs::registry().register_source(
        source,
        Box::new(move || transport_samples(&backend.transport_stats(), None)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalBackend;
    use crate::protocol::Request;
    use eqjoin_pairing::MockEngine;

    /// Pull one metric's value back out of a rendered exposition.
    fn scraped_value(text: &str, metric: &str) -> Option<f64> {
        text.lines().find_map(|line| {
            let (name, value) = line.split_once(' ')?;
            (name == metric).then(|| value.parse().ok())?
        })
    }

    #[test]
    fn scraped_transport_counters_track_snapshot_deltas() {
        let backend = Arc::new(LocalBackend::<MockEngine>::new());
        register_transport_source("test_transport_bridge", Arc::clone(&backend));
        let registry = eqjoin_obs::registry();

        let before_snap = ServerApi::<MockEngine>::transport_stats(backend.as_ref());
        let before_scrape =
            scraped_value(&registry.render(), "eqjoin_transport_round_trips_total").unwrap();

        for _ in 0..5 {
            backend.handle(Request::Ping);
        }

        let after_snap = ServerApi::<MockEngine>::transport_stats(backend.as_ref());
        let after_scrape =
            scraped_value(&registry.render(), "eqjoin_transport_round_trips_total").unwrap();
        assert_eq!(after_snap.round_trips - before_snap.round_trips, 5);
        assert_eq!(
            (after_scrape - before_scrape) as u64,
            5,
            "scraped delta must equal the programmatic snapshot delta"
        );

        // Drop the source so other tests' renders don't see this backend.
        registry.register_source("test_transport_bridge", Box::new(Vec::new));
    }

    #[test]
    fn sample_sets_cover_every_struct_field() {
        // One sample per field: if a field is ever added to
        // `TransportStats` without a canonical metric, this count goes
        // stale and points straight at the omission.
        let t = transport_samples(&TransportStats::default(), None);
        assert_eq!(t.len(), 8);
        for sample in &t {
            assert!(sample.name.starts_with("eqjoin_"), "{}", sample.name);
            assert!(sample.name.ends_with("_total"), "{}", sample.name);
        }
        let labeled = transport_samples(&TransportStats::default(), Some(("tenant", "acme")));
        assert_eq!(
            labeled[0].labels,
            vec![("tenant".to_owned(), "acme".to_owned())]
        );
    }
}
