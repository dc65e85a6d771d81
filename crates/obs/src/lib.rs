//! # eqjoin-obs — dependency-free observability for the eqjoin stack
//!
//! A process-wide metrics registry (atomic counters, gauges, log-scale
//! histograms), lightweight structured spans, JSONL logging/tracing to
//! stderr, a Prometheus text renderer, and a tiny read-only scrape
//! listener. Zero external dependencies, in the style of the
//! `failpoint` and `audit` crates.
//!
//! ## No-alloc hot path
//!
//! Every recording primitive resolves its metric handle once per call
//! site (the [`counter!`]/[`gauge!`]/[`histogram!`] macros cache the
//! `Arc` in a per-site `OnceLock`) and then records with `Relaxed`
//! atomics — no locks, no formatting, no allocation. Histograms use 48
//! fixed power-of-two nanosecond buckets, so p50/p90/p99/max fall out
//! of a stack-copied bucket array at scrape time. Spans read a clock on
//! entry and drop; their label formatting runs only when JSONL tracing
//! or debug logging is actually enabled, so with everything off a span
//! costs two `Instant::now()` calls and one histogram record.
//!
//! ## Why leakage is a metric
//!
//! In this system's threat model, what the server *learns* is as
//! operationally important as what it *spends*: each executed join
//! reveals an equality pattern the leakage ledger accounts for. The
//! scrape surface therefore exports the ledger summary
//! (`eqjoin_leakage_*`) next to latency and throughput — an operator
//! watching a dashboard sees cumulative disclosure grow with the same
//! fidelity as p99, instead of leakage being a client-side report
//! nobody reads in production.
//!
//! ## Logging & tracing
//!
//! [`set_log_level`] gates JSONL log events ([`info!`], [`debug!`]) to
//! stderr; [`set_tracing`] (or the `EQJOIN_TRACE` environment
//! variable) additionally emits one JSONL trace event per completed
//! span. Every line is a single JSON object:
//! `{"ts_ms":…,"level":"info","event":"conn_open","peer":"…"}`.

#![forbid(unsafe_code)]

mod metrics;
pub mod serve;

pub use metrics::{
    bucket_index, bucket_upper_ns, registry, Counter, Gauge, Histogram, HistogramSnapshot,
    Registry, HISTOGRAM_BUCKETS,
};
pub use serve::MetricsServer;

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Log verbosity for the stderr JSONL stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No log events.
    Off = 0,
    /// Lifecycle events: connections, admission rejections, drain,
    /// snapshot flushes.
    Info = 1,
    /// Everything, including one event per completed span.
    Debug = 2,
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Level::Off),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!("unknown log level {other:?} (off|info|debug)")),
        }
    }
}

static LOG_LEVEL: AtomicU8 = AtomicU8::new(0);
static TRACING: AtomicBool = AtomicBool::new(false);

/// Set the global log level (the `eqjoind --log-level` switch).
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether events at `level` are currently emitted.
pub fn log_enabled(level: Level) -> bool {
    LOG_LEVEL.load(Ordering::Relaxed) >= level as u8
}

/// Turn per-span JSONL trace events on or off at runtime.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether span trace events are emitted — true when [`set_tracing`]
/// was called with `true`, the `EQJOIN_TRACE` environment variable is
/// set (checked once), or the log level is `debug`.
pub fn tracing_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    TRACING.load(Ordering::Relaxed)
        || *ENV.get_or_init(|| std::env::var_os("EQJOIN_TRACE").is_some())
        || log_enabled(Level::Debug)
}

/// Process start instant; pinned on first use, so call [`init_start_time`]
/// early in `main` for accurate uptime.
fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Pin the process start time for `eqjoin_uptime_seconds`.
pub fn init_start_time() {
    let _ = start_instant();
}

/// Seconds since [`init_start_time`] (or first observability use).
pub fn uptime_seconds() -> f64 {
    start_instant().elapsed().as_secs_f64()
}

/// `eqjoin_build_info` and `eqjoin_uptime_seconds` samples — appended
/// by the scrape listener so every exposition carries them.
pub fn build_info_exposition() -> String {
    format!(
        "# TYPE eqjoin_build_info gauge\n\
         eqjoin_build_info{{version=\"{}\"}} 1\n\
         # TYPE eqjoin_uptime_seconds gauge\n\
         eqjoin_uptime_seconds {}\n",
        escape(env!("CARGO_PKG_VERSION")),
        uptime_seconds()
    )
}

/// The full scrape payload: the registry rendering followed by
/// [`build_info_exposition`]. Both the `--metrics-addr` listener and
/// the wire-level `Stats` reply use this, so the two introspection
/// surfaces can never disagree.
pub fn exposition() -> String {
    let mut out = registry().render();
    out.push_str(&build_info_exposition());
    out
}

/// Escape a string for embedding in a JSON string or a Prometheus
/// label value (the escape sets coincide for `\`, `"`, and newlines).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Milliseconds since the Unix epoch, for event timestamps.
pub fn unix_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// Emit one pre-assembled JSONL event line to stderr. `fields` must be
/// a (possibly empty) string of `,"key":value` pairs, already escaped.
pub fn emit_event(level: &str, event: &str, fields: &str) {
    eprintln!(
        "{{\"ts_ms\":{},\"level\":\"{}\",\"event\":\"{}\"{}}}",
        unix_ms(),
        level,
        escape(event),
        fields
    );
}

/// Timed scope handle produced by [`span!`]. On drop it records the
/// elapsed wall time into its histogram and, when tracing is enabled,
/// emits a JSONL trace event.
pub struct SpanGuard {
    name: &'static str,
    histogram: &'static Arc<Histogram>,
    start: Instant,
    /// Pre-rendered `,"key":"value"` pairs; `None` unless tracing was
    /// enabled at span entry (so the hot path never formats).
    fields: Option<String>,
}

impl SpanGuard {
    /// Construct a guard — use the [`span!`] macro instead.
    pub fn new(
        name: &'static str,
        histogram: &'static Arc<Histogram>,
        fields: Option<String>,
    ) -> SpanGuard {
        SpanGuard {
            name,
            histogram,
            start: Instant::now(),
            fields,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.histogram.record(elapsed);
        if let Some(fields) = &self.fields {
            emit_event(
                "trace",
                self.name,
                &format!("{fields},\"elapsed_us\":{}", elapsed.as_micros()),
            );
        }
    }
}

/// Resolve (once per call site) and return a `&'static Arc<Counter>`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
    ($name:expr, $lk:expr => $lv:expr) => {
        $crate::registry().counter_labeled($name, Some(($lk, $lv)))
    };
}

/// Resolve (once per call site) and return a `&'static Arc<Gauge>`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Resolve (once per call site) and return a `&'static Arc<Histogram>`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Open a timed span recording into the histogram
/// `eqjoin_<name>_seconds`; bind the result or it drops immediately.
///
/// ```ignore
/// let _span = eqjoin_obs::span!("store_sj_dec", "table" => table_name);
/// ```
///
/// Label values are formatted with `Display` — and only when tracing
/// is enabled at span entry.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanGuard::new(
            $name,
            $crate::histogram!(concat!("eqjoin_", $name, "_seconds")),
            if $crate::tracing_enabled() {
                Some(String::new())
            } else {
                None
            },
        )
    };
    ($name:literal, $($lk:literal => $lv:expr),+ $(,)?) => {
        $crate::SpanGuard::new(
            $name,
            $crate::histogram!(concat!("eqjoin_", $name, "_seconds")),
            if $crate::tracing_enabled() {
                let mut fields = String::new();
                $(
                    fields.push_str(",\"");
                    fields.push_str($lk);
                    fields.push_str("\":\"");
                    fields.push_str(&$crate::escape(&format!("{}", $lv)));
                    fields.push('"');
                )+
                Some(fields)
            } else {
                None
            },
        )
    };
}

/// Emit an info-level JSONL event if the log level allows.
///
/// ```ignore
/// eqjoin_obs::info!("conn_open", "peer" => addr);
/// ```
#[macro_export]
macro_rules! info {
    ($event:literal $(, $lk:literal => $lv:expr)* $(,)?) => {
        if $crate::log_enabled($crate::Level::Info) {
            #[allow(unused_mut)]
            let mut fields = String::new();
            $(
                fields.push_str(",\"");
                fields.push_str($lk);
                fields.push_str("\":\"");
                fields.push_str(&$crate::escape(&format!("{}", $lv)));
                fields.push('"');
            )*
            $crate::emit_event("info", $event, &fields);
        }
    };
}

/// Emit a debug-level JSONL event if the log level allows.
#[macro_export]
macro_rules! debug {
    ($event:literal $(, $lk:literal => $lv:expr)* $(,)?) => {
        if $crate::log_enabled($crate::Level::Debug) {
            #[allow(unused_mut)]
            let mut fields = String::new();
            $(
                fields.push_str(",\"");
                fields.push_str($lk);
                fields.push_str("\":\"");
                fields.push_str(&$crate::escape(&format!("{}", $lv)));
                fields.push('"');
            )*
            $crate::emit_event("debug", $event, &fields);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!("off".parse::<Level>().unwrap(), Level::Off);
        assert_eq!("info".parse::<Level>().unwrap(), Level::Info);
        assert_eq!("debug".parse::<Level>().unwrap(), Level::Debug);
        assert!("verbose".parse::<Level>().is_err());
        assert!(Level::Debug > Level::Info && Level::Info > Level::Off);
    }

    #[test]
    fn escape_covers_json_and_label_metacharacters() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn span_records_into_named_histogram() {
        {
            let _span = span!("obs_selftest", "k" => "v");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let h = registry().histogram("eqjoin_obs_selftest_seconds");
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(
            snap.sum_ns >= 1_000_000,
            "slept ≥1ms, got {}ns",
            snap.sum_ns
        );
    }

    #[test]
    fn build_info_has_version_and_uptime() {
        init_start_time();
        let text = build_info_exposition();
        assert!(text.contains("eqjoin_build_info{version="));
        assert!(text.contains("eqjoin_uptime_seconds "));
    }
}
