//! The byte counters of the [`CountingAllocator`](ltc_bench::alloc):
//! live and peak heap bytes.
//!
//! `CURRENT` and `PEAK` are process-global. In a binary running several
//! tests, any thread that frees memory between a test's
//! [`reset_peak`](alloc::reset_peak) and its allocation (a sibling
//! test, or a finished test thread tearing down) pulls the live count
//! under the baseline and hides the growth from the peak — which made
//! these checks fail about half the time as unit tests. They therefore
//! live alone in this binary, as one test: nothing else runs while it
//! measures, so the exact assertions hold.

use ltc_bench::alloc::{current_bytes, peak_bytes, reset_peak};

#[test]
fn byte_counters_track_allocations_reallocations_and_peaks() {
    // A large allocation raises the peak by its size; dropping it lowers
    // the live count again.
    // `black_box` keeps a release build from eliding the unused
    // allocations below.
    let baseline = reset_peak();
    let v = std::hint::black_box(vec![0u8; 1 << 20]);
    assert!(peak_bytes() >= baseline + (1 << 20));
    drop(v);
    assert!(current_bytes() < baseline + (1 << 20));

    // The peak survives the deallocation that follows it.
    let baseline = reset_peak();
    {
        let _v = std::hint::black_box(vec![0u64; 100_000]);
    }
    assert!(peak_bytes() >= baseline + 800_000);

    // Growth through `realloc` is tracked too.
    let baseline = reset_peak();
    let mut v: Vec<u8> = Vec::with_capacity(16);
    v.extend(std::iter::repeat_n(1u8, 1 << 18));
    std::hint::black_box(&v);
    assert!(peak_bytes() >= baseline + (1 << 18));
}
