//! Injectable time sources.
//!
//! Everything on the request path that needs "now" asks a [`Clock`]
//! instead of calling [`Instant::now`] directly. The production
//! implementation ([`MonotonicClock`]) *is* `Instant::now`, with zero
//! overhead beyond the virtual call; the test/bench implementation
//! ([`ManualClock`]) is a microsecond counter advanced explicitly by the
//! driver, which makes deadline expiry, EDF ordering, slack promotion and
//! latency histograms exactly reproducible.
//!
//! The trait returns [`Instant`] — not a raw microsecond count — so the
//! queue's `(Instant, seq)` lane keys, `Job::deadline` and every other
//! existing `Instant`-typed field keep working unchanged whichever clock
//! is plugged in. A `ManualClock` maps its counter onto real `Instant`
//! space by offsetting a base instant captured at construction.
//!
//! Each clock also owns the **trace time base**: [`Clock::origin`] is the
//! zero point every flight-recorder stamp counts from, so every
//! component sharing a clock — shard workers, remote clients, the
//! failure detector, a failover replacement built later — stamps one
//! joined timeline. A `ManualClock`'s origin is its base instant; the
//! [`MonotonicClock`]'s is one process-wide instant fixed at the first
//! [`monotonic`] call.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A source of monotonic "now" instants.
///
/// Implementations must be monotone: successive `now()` calls never go
/// backwards. `Send + Sync` because one clock is shared by every shard
/// worker and the submitting threads.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current instant.
    fn now(&self) -> Instant;

    /// The zero point of trace timestamps, fixed for the clock's life.
    fn origin(&self) -> Instant;

    /// Microseconds from [`Clock::origin`] to `at` (0 before it).
    fn us_at(&self, at: Instant) -> u64 {
        micros_between(self.origin(), at)
    }

    /// Microseconds since [`Clock::origin`] — the trace stamp of now.
    fn now_us(&self) -> u64 {
        self.us_at(self.now())
    }
}

/// A shareable clock handle, as carried by service configuration.
pub type SharedClock = Arc<dyn Clock>;

/// The production clock: [`Instant::now`], with one process-wide
/// origin.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicClock;

/// The [`MonotonicClock`]'s origin, fixed by the first use.
static MONOTONIC_ORIGIN: OnceLock<Instant> = OnceLock::new();

impl Clock for MonotonicClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn origin(&self) -> Instant {
        *MONOTONIC_ORIGIN.get_or_init(Instant::now)
    }
}

/// The default production clock as a [`SharedClock`]. The first call
/// fixes the process-wide trace origin.
pub fn monotonic() -> SharedClock {
    MonotonicClock.origin();
    Arc::new(MonotonicClock)
}

/// A manually driven clock for tests and deterministic replay.
///
/// Time is a microsecond offset from a base instant captured at
/// construction; it only moves when the owner calls
/// [`ManualClock::advance_us`] or [`ManualClock::set_us`]. Both are
/// monotone (`set_us` to a past time is a no-op), so the [`Clock`]
/// contract holds even with concurrent drivers.
#[derive(Debug)]
pub struct ManualClock {
    base: Instant,
    offset_us: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at offset 0.
    pub fn new() -> ManualClock {
        ManualClock {
            base: Instant::now(),
            offset_us: AtomicU64::new(0),
        }
    }

    /// Moves time forward by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.offset_us.fetch_add(us, Ordering::SeqCst);
    }

    /// Jumps time to `us` microseconds since construction. Monotone: a
    /// target earlier than the current offset leaves the clock where it
    /// is (time never goes backwards).
    pub fn set_us(&self, us: u64) {
        self.offset_us.fetch_max(us, Ordering::SeqCst);
    }
}

impl Default for ManualClock {
    fn default() -> ManualClock {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        self.base + Duration::from_micros(self.offset_us.load(Ordering::SeqCst))
    }

    fn origin(&self) -> Instant {
        self.base
    }
}

/// Saturating microseconds from `earlier` to `later` (0 if reversed).
pub fn micros_between(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_tracks_instant_now() {
        let clock = MonotonicClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_when_driven() {
        let clock = ManualClock::new();
        let t0 = clock.now();
        assert_eq!(clock.now(), t0, "time is frozen until advanced");
        clock.advance_us(250);
        assert_eq!(micros_between(t0, clock.now()), 250);
        clock.set_us(1_000);
        assert_eq!(clock.now_us(), 1_000);
        // Monotone: setting a past time is a no-op.
        clock.set_us(10);
        assert_eq!(clock.now_us(), 1_000);
    }

    #[test]
    fn manual_clock_is_shareable_as_dyn_clock() {
        let manual = Arc::new(ManualClock::new());
        let shared: SharedClock = Arc::clone(&manual) as SharedClock;
        let before = shared.now();
        manual.advance_us(42);
        assert_eq!(micros_between(before, shared.now()), 42);
    }

    #[test]
    fn stamps_count_from_the_clock_origin() {
        let manual = ManualClock::new();
        manual.advance_us(1_500);
        assert_eq!(
            manual.now_us(),
            1_500,
            "a manual clock's origin is offset 0"
        );
        assert_eq!(manual.us_at(manual.origin()), 0);
        let a = MonotonicClock;
        let b = monotonic();
        assert_eq!(a.origin(), b.origin(), "one origin per process");
        assert!(a.now_us() <= b.now_us());
    }

    #[test]
    fn micros_between_saturates_reversed_order() {
        let clock = ManualClock::new();
        let early = clock.now();
        clock.advance_us(5);
        assert_eq!(micros_between(clock.now(), early), 0);
    }
}
