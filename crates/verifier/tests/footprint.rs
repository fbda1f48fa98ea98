//! The registry's heap footprint, pinned with a counting global
//! allocator (this test binary only). A fleet with servebench's helper
//! sizes is enrolled through `Verifier::enroll_batch`, then every
//! device authenticates once (its rate window allocates on the first
//! query). The registry keeps each helper's digest, not the helper, and
//! `enroll_batch` frees input helpers as it digests them and stages one
//! shard at a time. `realloc` is left to the default (allocate, copy,
//! free), so a moving reallocation counts both blocks at its peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ropuf_constructions::DeviceResponse;
use ropuf_verifier::{client_tag, AuthQuery, BatchEnrollment, Verifier};

/// Live and peak heap bytes, as requested by callers.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both calls forward to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Devices enrolled: large enough that per-shard fixed costs are noise,
/// small enough for a debug build.
const DEVICES: u64 = 1 << 15;

/// Helper sizes of servebench's four constructions (bytes).
const HELPER_SIZES: [usize; 4] = [271, 275, 151, 72];

/// Heap the registry may keep per enrolled device.
const KEPT_PER_DEVICE: usize = 300;

/// Heap `enroll_batch` may add above its input, per device.
const PEAK_PER_DEVICE: usize = 200;

fn helper(id: u64) -> Vec<u8> {
    vec![id as u8; HELPER_SIZES[(id % 4) as usize]]
}

fn key_digest(id: u64) -> [u8; 32] {
    let mut digest = [0u8; 32];
    digest[..8].copy_from_slice(&id.to_le_bytes());
    digest
}

#[test]
fn registry_heap_and_enroll_batch_peak_per_device() {
    let verifier = Verifier::default();
    let baseline = LIVE.load(Ordering::Relaxed);
    let batch: Vec<BatchEnrollment> = (0..DEVICES)
        .map(|id| BatchEnrollment {
            device_id: id,
            scheme_tag: b'L',
            helper: helper(id),
            key_digest: key_digest(id),
        })
        .collect();
    let with_input = LIVE.load(Ordering::Relaxed);
    PEAK.store(with_input, Ordering::Relaxed);
    let results = verifier.enroll_batch(batch);
    let peak_over_input = PEAK.load(Ordering::Relaxed) - with_input;
    assert!(results.iter().all(Result::is_ok));
    drop(results);

    for id in 0..DEVICES {
        let nonce = id.to_le_bytes();
        let presented = helper(id);
        let verdict = verifier.authenticate_query(AuthQuery {
            device_id: id,
            now: 0,
            nonce: &nonce,
            response: DeviceResponse::Tag(client_tag(&key_digest(id), &nonce)),
            presented_helper: Some(&presented),
        });
        assert!(verdict.is_accept(), "device {id}: {verdict:?}");
    }
    let kept = LIVE.load(Ordering::Relaxed) - baseline;

    let n = DEVICES as usize;
    println!(
        "{DEVICES} devices: registry keeps {} B/device, enroll_batch peaks {} B/device over its input",
        kept / n,
        peak_over_input / n
    );
    assert!(
        kept <= KEPT_PER_DEVICE * n,
        "registry keeps {} B/device (bound {KEPT_PER_DEVICE})",
        kept / n
    );
    assert!(
        peak_over_input <= PEAK_PER_DEVICE * n,
        "enroll_batch peaks {} B/device over its input (bound {PEAK_PER_DEVICE})",
        peak_over_input / n
    );
}
