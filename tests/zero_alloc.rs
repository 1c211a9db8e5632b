//! The zero-allocation proof: a counting global allocator wraps the
//! system allocator, and the steady-state plane-kernel hot path —
//! `retrieve`, `retrieve_batch_into`, `retrieve_n_best_into` over a warm
//! [`PlaneEngine`] — must perform **zero** heap allocations per request.
//!
//! The file holds exactly one `#[test]` so no concurrent test can
//! allocate while the counter window is open (integration-test files are
//! separate binaries, but tests *within* one file share the process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rqfa::core::{KernelPath, PlaneEngine, Request};
use rqfa::workloads::{CaseGen, RequestGen};

/// System allocator with a global allocation counter.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to the system allocator;
// the counter is a relaxed atomic side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_plane_retrieval_allocates_nothing() {
    // A non-trivial shape: sparse columns (6 of 10 attrs bound) and
    // enough variants that a regression to per-request allocation would
    // be unmissable across the measured window.
    let case_base = CaseGen::new(8, 16, 6, 10).seed(0xA110C).build();
    let pool = RequestGen::new(&case_base)
        .seed(0xA110C + 1)
        .count(256)
        .repeat_fraction(0.2)
        .generate();
    let mut out = Vec::new();
    let mut ranked = Vec::new();
    let batches: Vec<Vec<&Request>> = pool.chunks(32).map(|c| c.iter().collect()).collect();

    // Both kernel paths must be allocation-free: the auto path (the wide
    // SIMD kernel where the host has it) and the pinned scalar fallback.
    for path in [KernelPath::Auto, KernelPath::ForceScalar] {
        let mut engine = PlaneEngine::with_kernel(path);

        // Warm-up: compile the plane, size the scratch arena and the
        // reused output buffers.
        for request in &pool {
            engine.retrieve(&case_base, request).unwrap();
            engine
                .retrieve_n_best_into(&case_base, request, 4, &mut ranked)
                .unwrap();
        }
        for batch in &batches {
            engine.retrieve_batch_into(&case_base, batch, &mut out);
        }

        // Measured window: single-request retrievals and rankings.
        let before = allocations();
        for _ in 0..4 {
            for request in &pool {
                std::hint::black_box(engine.retrieve(&case_base, request).unwrap());
                engine
                    .retrieve_n_best_into(&case_base, request, 4, &mut ranked)
                    .unwrap();
            }
        }
        assert_eq!(
            allocations(),
            before,
            "steady-state retrieve / n-best must not allocate ({path:?})"
        );

        // Measured window: batch retrievals (register-blocked column
        // streaming). The `Vec<&Request>` of borrows is built outside
        // the window — a service worker holds its own job buffer; the
        // engine itself must stay allocation-free.
        let before = allocations();
        for _ in 0..4 {
            for batch in &batches {
                engine.retrieve_batch_into(&case_base, batch, &mut out);
            }
        }
        assert_eq!(
            allocations(),
            before,
            "steady-state batch retrieval must not allocate ({path:?})"
        );
    }
    // Measured window: the telemetry hot path. Enabling tracing must not
    // put an allocation on the request path: recording an event (ring
    // slot overwrite, including wraparound — the ring holds 1024 and the
    // window writes 4 × 4096), stamping through a trace sink (attached or
    // detached) and reading an injectable clock are all free.
    use rqfa::telemetry::{
        Clock, EventKind, FlightRecorder, ManualClock, MonotonicClock, TraceSink,
    };
    let recorder = std::sync::Arc::new(FlightRecorder::new(1024));
    let sink = TraceSink::to(std::sync::Arc::clone(&recorder));
    let detached = TraceSink::default();
    let clock = ManualClock::new();
    recorder.record(0, 0, 0, EventKind::Submitted, 0);
    sink.record(&MonotonicClock, 0, 0, EventKind::Submitted, 0);
    let before = allocations();
    for i in 0..4096u64 {
        clock.advance_us(1);
        let class = (i % 4) as u8;
        let at_us = std::hint::black_box(clock.now_us());
        recorder.record(at_us, i, class, EventKind::Dispatched, 0);
        sink.record(&clock, i, class, EventKind::Scheduled, 0);
        sink.record_at(clock.us_at(clock.now()), i, class, EventKind::Replied, 0);
        sink.record(&MonotonicClock, i, class, EventKind::FrameSent, 0);
        detached.record(&clock, i, class, EventKind::Submitted, 0);
    }
    assert_eq!(
        allocations(),
        before,
        "flight-recorder record, trace-sink stamping + clocks must not allocate"
    );
    assert_eq!(
        recorder.recorded(),
        2 + 4 * 4096,
        "the detached sink recorded nothing"
    );

    // Contrast: the naive engine allocates on every request (this is the
    // cost the plane removes — if this ever goes to zero the harness
    // window itself is broken).
    let naive = rqfa::core::FixedEngine::new();
    let before = allocations();
    for request in pool.iter().take(16) {
        std::hint::black_box(naive.retrieve(&case_base, request).unwrap());
    }
    assert!(
        allocations() > before,
        "sanity: the naive path allocates, so the counter window works"
    );
}
