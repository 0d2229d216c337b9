//! Adaptive backpressure for the farm: tune the effective batch size from
//! observed reducer lag.
//!
//! The static `chunk_ticks`/`channel_capacity` knobs force one trade at
//! configuration time: small chunks keep the reducer's latency low and the
//! snapshot pool small, big chunks amortise per-batch overhead (channel
//! traffic, `Vec` recycling, reducer wakeups). When the reducer keeps up,
//! the static choice is fine; when it lags (an expensive fold, a slow
//! consumer downstream), workers stall on a full channel and the per-batch
//! overhead is pure waste.
//!
//! [`LagController`] closes that loop. Workers read
//! [`chunk_ticks`](LagController::chunk_ticks) before each chunk and call
//! [`before_send`](LagController::before_send) before publishing a batch;
//! the reducer calls [`after_recv`](LagController::after_recv) as batches
//! land. The controller watches channel occupancy (its own in-flight
//! count — exact, unlike peeking at channel internals):
//!
//! * sustained high occupancy → the reducer is the bottleneck → double the
//!   chunk size (fewer, larger batches; bounded by `64 × base`), and widen
//!   the soft in-flight cap toward the configured capacity;
//! * an empty channel → the workers are the bottleneck → halve the chunk
//!   size back toward the configured base, restoring snapshot latency.
//!
//! Everything the controller changes is **unobservable in the results**:
//! chunk boundaries and channel capacity were proven result-invariant by
//! the PR-4 proptests (the ordered reducer restores replica order, and
//! per-replica sample values never depend on where a chunk ends), so
//! adaptive mode keeps the bit-identity pin. The controller is plain
//! atomics — no locks, no syscalls — and its throttle wait escalates
//! through bounded yields, so it can neither wedge a farm whose reducer
//! died (the real send detects disconnection) nor tax an idle host.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How far the controller may grow a chunk above the configured
/// `chunk_ticks` base. Bounds snapshot latency and pool growth.
const MAX_CHUNK_GROWTH: u64 = 64;

/// Throttle loop bound: a producer waiting for the soft cap yields at most
/// this many times before proceeding to the real bounded send, so a dead
/// reducer can never wedge a worker here.
const MAX_THROTTLE_POLLS: u32 = 1024;

/// Occupancy-driven controller for the farm's chunking and in-flight
/// depth. One instance per farm run, shared by reference between the
/// worker closures and the reducer. Disabled instances compile down to a
/// relaxed load per chunk and two no-op calls per batch.
pub(crate) struct LagController {
    enabled: bool,
    base_chunk: u64,
    max_chunk: u64,
    capacity: usize,
    /// The chunk size workers use for their next chunk.
    chunk: AtomicU64,
    /// Batches sent but not yet folded — the exact channel occupancy.
    inflight: AtomicUsize,
    /// Soft bound on `inflight`; starts low and widens under sustained
    /// stall so a keeping-up reducer sees short queues (low latency) and
    /// a lagging one gets the full configured capacity.
    soft_cap: AtomicUsize,
    /// Telemetry for tests: chunk raises, chunk shrinks, soft-cap stalls.
    raises: AtomicUsize,
    shrinks: AtomicUsize,
    stalls: AtomicUsize,
    /// Live instruments mirroring the above plus the chunk trajectory
    /// (`pipeline.send_throttle_stalls`, `pipeline.chunk_raises`,
    /// `pipeline.chunk_shrinks`, `pipeline.chunk_ticks`). Zero-sized
    /// no-ops without the `telemetry` feature.
    stall_counter: logit_telemetry::Counter,
    raise_counter: logit_telemetry::Counter,
    shrink_counter: logit_telemetry::Counter,
    chunk_gauge: logit_telemetry::Gauge,
}

impl LagController {
    /// A controller for one farm run. When `enabled` is false every hook
    /// is a no-op and `chunk_ticks()` always returns `base_chunk`.
    pub(crate) fn new(enabled: bool, base_chunk: u64, capacity: usize, workers: usize) -> Self {
        assert!(base_chunk >= 1, "chunk_ticks must be at least 1");
        assert!(capacity >= 1, "channel_capacity must be at least 1");
        let registry = logit_telemetry::global();
        LagController {
            enabled,
            base_chunk,
            max_chunk: base_chunk.saturating_mul(MAX_CHUNK_GROWTH),
            capacity,
            chunk: AtomicU64::new(base_chunk),
            inflight: AtomicUsize::new(0),
            // Two batches in flight per worker keeps everyone busy
            // without queueing latency; widened on demand.
            soft_cap: AtomicUsize::new((2 * workers.max(1)).clamp(1, capacity)),
            raises: AtomicUsize::new(0),
            shrinks: AtomicUsize::new(0),
            stalls: AtomicUsize::new(0),
            stall_counter: registry.counter("pipeline.send_throttle_stalls"),
            raise_counter: registry.counter("pipeline.chunk_raises"),
            shrink_counter: registry.counter("pipeline.chunk_shrinks"),
            chunk_gauge: registry.gauge("pipeline.chunk_ticks"),
        }
    }

    /// The chunk size a worker should use for its next chunk of ticks.
    pub(crate) fn chunk_ticks(&self) -> u64 {
        if !self.enabled {
            return self.base_chunk;
        }
        self.chunk.load(Ordering::Relaxed)
    }

    /// Called by a worker immediately before sending a batch: waits
    /// (bounded) while the soft in-flight cap is hit, then registers the
    /// batch. The wait is a latency hint, not a correctness gate — the
    /// real backpressure is the bounded channel send that follows.
    pub(crate) fn before_send(&self) {
        if !self.enabled {
            return;
        }
        let mut polls = 0u32;
        while self.inflight.load(Ordering::Relaxed) >= self.soft_cap.load(Ordering::Relaxed) {
            polls += 1;
            if polls > MAX_THROTTLE_POLLS {
                // Sustained stall: the reducer is far behind (or gone).
                // Widen the soft cap toward the hard capacity so the
                // configured buffering is actually used, and proceed to
                // the real send rather than spinning forever.
                self.stalls.fetch_add(1, Ordering::Relaxed);
                self.stall_counter.inc();
                let cap = self.soft_cap.load(Ordering::Relaxed);
                let widened = (cap * 2).clamp(1, self.capacity);
                self.soft_cap.store(widened, Ordering::Relaxed);
                break;
            }
            std::thread::yield_now();
        }
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Called by the reducer as each batch arrives: retires the batch and
    /// adjusts the chunk size from the occupancy it observed.
    pub(crate) fn after_recv(&self) {
        if !self.enabled {
            return;
        }
        let occupancy = self.inflight.fetch_sub(1, Ordering::Relaxed);
        let cap = self.soft_cap.load(Ordering::Relaxed).max(1);
        if occupancy * 4 >= cap * 3 {
            // ≥ 75 % full on arrival: the reducer is lagging; amortise
            // its per-batch overhead with bigger chunks.
            let chunk = self.chunk.load(Ordering::Relaxed);
            if chunk < self.max_chunk {
                let raised = (chunk * 2).min(self.max_chunk);
                self.chunk.store(raised, Ordering::Relaxed);
                self.raises.fetch_add(1, Ordering::Relaxed);
                self.raise_counter.inc();
                self.chunk_gauge.set(raised as f64);
            }
        } else if occupancy <= 1 {
            // The queue ran dry: the workers are the bottleneck; shrink
            // back toward the configured base for snapshot latency.
            let chunk = self.chunk.load(Ordering::Relaxed);
            if chunk > self.base_chunk {
                let shrunk = (chunk / 2).max(self.base_chunk);
                self.chunk.store(shrunk, Ordering::Relaxed);
                self.shrinks.fetch_add(1, Ordering::Relaxed);
                self.shrink_counter.inc();
                self.chunk_gauge.set(shrunk as f64);
            }
        }
    }

    #[cfg(test)]
    fn counters(&self) -> (usize, usize, usize) {
        (
            self.raises.load(Ordering::Relaxed),
            self.shrinks.load(Ordering::Relaxed),
            self.stalls.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_controller_never_moves_off_the_base_chunk() {
        let ctl = LagController::new(false, 7, 4, 2);
        for _ in 0..100 {
            ctl.before_send();
        }
        for _ in 0..100 {
            ctl.after_recv();
        }
        assert_eq!(ctl.chunk_ticks(), 7);
        assert_eq!(ctl.counters(), (0, 0, 0));
    }

    #[test]
    fn sustained_occupancy_grows_the_chunk_toward_the_cap() {
        let ctl = LagController::new(true, 4, 8, 1);
        // Fill to the soft cap, then model a lagging reducer: every
        // arrival still sees a near-full queue.
        for _ in 0..8 {
            ctl.before_send();
        }
        for _ in 0..20 {
            ctl.after_recv();
            ctl.before_send();
        }
        assert!(
            ctl.chunk_ticks() > 4,
            "a lagging reducer must raise the chunk, got {}",
            ctl.chunk_ticks()
        );
        assert!(ctl.chunk_ticks() <= 4 * MAX_CHUNK_GROWTH);
        let (raises, _, _) = ctl.counters();
        assert!(raises >= 1);
    }

    #[test]
    fn an_empty_queue_shrinks_the_chunk_back_to_the_base() {
        let ctl = LagController::new(true, 4, 8, 1);
        for _ in 0..8 {
            ctl.before_send();
        }
        for _ in 0..20 {
            ctl.after_recv();
            ctl.before_send();
        }
        let grown = ctl.chunk_ticks();
        assert!(grown > 4);
        // Now the reducer keeps up: drain completely between sends.
        for _ in 0..8 {
            ctl.after_recv();
        }
        for _ in 0..20 {
            ctl.before_send();
            ctl.after_recv();
        }
        assert_eq!(
            ctl.chunk_ticks(),
            4,
            "an idle queue must shrink the chunk back to the base"
        );
        let (_, shrinks, _) = ctl.counters();
        assert!(shrinks >= 1);
    }

    #[test]
    fn the_throttle_wait_is_bounded_and_widens_the_soft_cap() {
        let ctl = LagController::new(true, 1, 64, 1);
        // Nothing ever calls after_recv (a dead reducer): every send past
        // the soft cap must still return after the bounded wait.
        for _ in 0..10 {
            ctl.before_send();
        }
        let (_, _, stalls) = ctl.counters();
        assert!(
            stalls >= 1,
            "a saturated soft cap must be recorded as a stall"
        );
        assert!(ctl.soft_cap.load(Ordering::Relaxed) > 2);
        assert!(ctl.soft_cap.load(Ordering::Relaxed) <= 64);
    }

    #[test]
    fn the_chunk_growth_cap_bounds_snapshot_latency() {
        let ctl = LagController::new(true, 3, 4, 1);
        // Hammer the raise path far past the cap.
        for _ in 0..4 {
            ctl.before_send();
        }
        for _ in 0..200 {
            ctl.after_recv();
            ctl.before_send();
        }
        assert!(ctl.chunk_ticks() <= 3 * MAX_CHUNK_GROWTH);
    }
}
