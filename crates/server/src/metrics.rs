//! Serving-layer counters: request/response classes, admission
//! rejections, deadline timeouts, request-cache joins (reported as
//! `cache` hits/misses and `singleflight` leaders/joins), and in-flight
//! gauges. All atomics — recorded from connection and worker threads
//! without contention.

use crate::cache::Join;
use preexec_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregated server metrics, surfaced by `GET /metrics`.
#[derive(Default)]
pub struct ServerMetrics {
    requests: AtomicU64,
    resp_2xx: AtomicU64,
    resp_4xx: AtomicU64,
    resp_5xx: AtomicU64,
    rejected_429: AtomicU64,
    timeouts_504: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    sf_leaders: AtomicU64,
    sf_joins: AtomicU64,
    streams: AtomicU64,
    in_flight: AtomicU64,
}

impl ServerMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Records an accepted, parsed request.
    pub fn inc_requests(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the final status of a response.
    pub fn count_status(&self, status: u16) {
        let cell = match status {
            200..=299 => &self.resp_2xx,
            400..=499 => &self.resp_4xx,
            _ => &self.resp_5xx,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        if status == 429 {
            self.rejected_429.fetch_add(1, Ordering::Relaxed);
        }
        if status == 504 {
            self.timeouts_504.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a request-cache join: a hit, or a miss that leads a
    /// computation or follows one already in flight.
    pub fn count_join(&self, join: &Join) {
        let (cache, role) = match join {
            Join::Hit(_) => (&self.cache_hits, None),
            Join::Lead(_) => (&self.cache_misses, Some(&self.sf_leaders)),
            Join::Follow(_) => (&self.cache_misses, Some(&self.sf_joins)),
        };
        cache.fetch_add(1, Ordering::Relaxed);
        if let Some(role) = role {
            role.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an SSE stream served.
    pub fn inc_streams(&self) {
        self.streams.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one computation entering a worker.
    pub fn enter_work(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one computation leaving a worker.
    pub fn exit_work(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Snapshot as JSON. `queue_depth` is the admission queue's current
    /// waiting-job count (a gauge owned by the queue, passed in).
    pub fn to_json(&self, queue_depth: usize) -> Json {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Json::object()
            .with("requests", g(&self.requests))
            .with(
                "responses",
                Json::object()
                    .with("2xx", g(&self.resp_2xx))
                    .with("4xx", g(&self.resp_4xx))
                    .with("5xx", g(&self.resp_5xx)),
            )
            .with("rejected_429", g(&self.rejected_429))
            .with("timeouts_504", g(&self.timeouts_504))
            .with(
                "cache",
                Json::object()
                    .with("hits", g(&self.cache_hits))
                    .with("misses", g(&self.cache_misses)),
            )
            .with(
                "singleflight",
                Json::object()
                    .with("leaders", g(&self.sf_leaders))
                    .with("joins", g(&self.sf_joins)),
            )
            .with("streams", g(&self.streams))
            .with("in_flight", g(&self.in_flight))
            .with("queue_depth", queue_depth as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classes_and_special_counters() {
        let m = ServerMetrics::new();
        m.inc_requests();
        m.count_status(200);
        m.count_status(429);
        m.count_status(504);
        let j = m.to_json(3);
        assert_eq!(
            j.get("responses").unwrap().get("2xx").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            j.get("responses").unwrap().get("4xx").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            j.get("responses").unwrap().get("5xx").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(j.get("rejected_429").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("timeouts_504").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("queue_depth").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn work_gauge_balances() {
        let m = ServerMetrics::new();
        m.enter_work();
        m.enter_work();
        m.exit_work();
        assert_eq!(m.to_json(0).get("in_flight").unwrap().as_u64(), Some(1));
    }
}
