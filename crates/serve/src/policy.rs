//! Server policy: every knob that bounds what one request, one
//! connection, or the whole process may consume.
//!
//! The policy is the *server-side* half of the governor story: clients ask
//! for deadlines and budgets per request, and the policy clamps each axis
//! to a ceiling ([`ServePolicy::clamp`]) so no client can opt out of
//! admission control. Requests that arrive without limits get the policy's
//! defaults — an unlimited query is something the operator must configure,
//! never something a client can request.

use crate::http::HttpLimits;
use flexpath_engine::QueryLimits;
use std::time::Duration;

/// Everything the server enforces per request, per connection, and
/// process-wide. Build one with the field syntax over
/// [`ServePolicy::default`].
#[derive(Debug, Clone)]
pub struct ServePolicy {
    /// Worker threads serving connections (= maximum concurrent
    /// connections being read/written).
    pub workers: usize,
    /// Accepted connections waiting for a worker. Overflow is shed at the
    /// door with `503`.
    pub conn_queue_depth: usize,
    /// Queries allowed to execute concurrently once slow-start has
    /// finished ramping.
    pub max_concurrent_queries: usize,
    /// Initial concurrent-query limit; each completed query raises the
    /// limit by one until [`ServePolicy::max_concurrent_queries`]
    /// (slow-start: a cold process with cold caches serves few queries at
    /// once and earns capacity as it proves it can complete work).
    pub initial_concurrent_queries: usize,
    /// How long a request may wait for an execution slot before it is
    /// shed with `429`.
    pub admission_timeout: Duration,
    /// Requests allowed to wait for an execution slot at once; overflow
    /// is shed immediately with `429`.
    pub admission_queue_depth: usize,
    /// Deadline applied to requests that do not ask for one.
    pub default_deadline: Duration,
    /// Ceiling for every per-request limit axis; requested limits are
    /// clamped to this with [`QueryLimits::clamp_to`].
    pub limit_ceiling: QueryLimits,
    /// Socket read timeout (whole-request bound together with the HTTP
    /// size caps: a peer may hold a connection no longer than this
    /// between bytes).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Request head/body size caps.
    pub http: HttpLimits,
    /// Requests served on one keep-alive connection before the server
    /// closes it (bounds per-connection state lifetime).
    pub max_requests_per_conn: usize,
    /// How long `SIGINT`/shutdown waits for in-flight requests before
    /// cancelling their queries via the drain [`flexpath::CancelToken`].
    pub drain_deadline: Duration,
    /// The `Retry-After` hint (seconds) attached to shed responses and to
    /// partial (budget-tripped) results.
    pub retry_after_secs: u64,
    /// Honor the `test_delay_ms` request field (tests and load harness
    /// only: makes a request hold its execution slot for a fixed time so
    /// overload is deterministic). Never enable in production.
    pub allow_test_delay: bool,
    /// Completed-query records kept by the flight recorder (served from
    /// `/debug/queries`). Zero still keeps a minimal ring (one record per
    /// stripe) — the recorder itself cannot be disabled, only shrunk.
    pub recorder_capacity: usize,
    /// Queries at or above this duration are mirrored into the slow ring
    /// (`/debug/slow`) and, when [`ServePolicy::slow_log`] is set,
    /// appended to the slow-query log file.
    pub slow_query_threshold: Duration,
    /// JSON-lines slow-query log file (`--slow-log` on the CLI). `None`
    /// keeps the slow ring in memory only.
    pub slow_log: Option<std::path::PathBuf>,
}

impl Default for ServePolicy {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 32);
        ServePolicy {
            workers,
            conn_queue_depth: 64,
            max_concurrent_queries: workers,
            initial_concurrent_queries: 1,
            admission_timeout: Duration::from_millis(500),
            admission_queue_depth: 32,
            default_deadline: Duration::from_secs(2),
            limit_ceiling: QueryLimits::default()
                .with_deadline(Duration::from_secs(10))
                .with_max_candidate_answers(5_000_000)
                .with_max_ft_postings_scanned(500_000_000),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            http: HttpLimits::default(),
            max_requests_per_conn: 10_000,
            drain_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
            allow_test_delay: false,
            recorder_capacity: 256,
            slow_query_threshold: Duration::from_millis(500),
            slow_log: None,
        }
    }
}

impl ServePolicy {
    /// Clamps `requested` limits to the policy ceiling and applies the
    /// default deadline when the request set none. The result never
    /// exceeds the ceiling on any axis.
    pub fn clamp(&self, requested: &QueryLimits) -> QueryLimits {
        let mut requested = requested.clone();
        if requested.deadline.is_none() {
            // Default first, clamp second: the ceiling caps the default
            // too if an operator configures them inconsistently.
            requested.deadline = Some(self.default_deadline);
        }
        requested.clamp_to(&self.limit_ceiling)
    }

    /// A policy scaled down for unit tests: tiny queues, short timeouts,
    /// deterministic overload via `test_delay_ms`.
    pub fn for_tests() -> Self {
        ServePolicy {
            workers: 4,
            conn_queue_depth: 2,
            max_concurrent_queries: 2,
            initial_concurrent_queries: 2,
            admission_timeout: Duration::from_millis(50),
            admission_queue_depth: 1,
            default_deadline: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(2),
            allow_test_delay: true,
            recorder_capacity: 32,
            // Everything is "slow" under tests so /debug/slow is exercised
            // deterministically without actually sleeping.
            slow_query_threshold: Duration::ZERO,
            ..ServePolicy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_bounds_every_axis_and_defaults_the_deadline() {
        let policy = ServePolicy {
            default_deadline: Duration::from_millis(100),
            limit_ceiling: QueryLimits::default()
                .with_deadline(Duration::from_secs(1))
                .with_max_candidate_answers(10),
            ..ServePolicy::default()
        };
        // No limits requested: default deadline + ceiling caps.
        let clamped = policy.clamp(&QueryLimits::default());
        assert_eq!(clamped.deadline, Some(Duration::from_millis(100)));
        assert_eq!(clamped.max_candidate_answers, Some(10));
        // A greedy request cannot exceed the ceiling.
        let greedy = QueryLimits::default()
            .with_deadline(Duration::from_secs(3600))
            .with_max_candidate_answers(u64::MAX - 1);
        let clamped = policy.clamp(&greedy);
        assert_eq!(clamped.deadline, Some(Duration::from_secs(1)));
        assert_eq!(clamped.max_candidate_answers, Some(10));
        // A modest request passes through.
        let modest = QueryLimits::default().with_deadline(Duration::from_millis(5));
        assert_eq!(
            policy.clamp(&modest).deadline,
            Some(Duration::from_millis(5))
        );
    }

    #[test]
    fn defaults_are_sane() {
        let p = ServePolicy::default();
        assert!(p.workers >= 2);
        assert!(p.max_concurrent_queries >= 1);
        assert!(p.initial_concurrent_queries <= p.max_concurrent_queries);
        assert!(p.limit_ceiling.deadline.is_some());
    }
}
