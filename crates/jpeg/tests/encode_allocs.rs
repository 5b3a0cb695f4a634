//! What `encode_coeffs` asks of the allocator, counted per thread.
//!
//! Every scan of every mode records into one per-thread scratch and
//! replays straight into the output, so a warmed thread allocates for the
//! output and the table specs and nothing else; a cold thread produces
//! the same bytes; and one huge photo does not pin its op stream to the
//! thread. Own test binary: the counting `#[global_allocator]` must not
//! see another test's traffic (the counters are per thread, the harness
//! runs each test on its own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use p3_jpeg::encoder::{encode_coeffs, pixels_to_coeffs, Mode, Subsampling};
use p3_jpeg::{CoeffImage, QuantTable};

mod common;

thread_local! {
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(calls: usize, bytes: usize, live: isize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocator calls, bytes requested)` of `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (calls, bytes) = (CALLS.get(), BYTES.get());
    let out = f();
    (out, CALLS.get() - calls, BYTES.get() - bytes)
}

fn photo() -> CoeffImage {
    pixels_to_coeffs(&common::card(7, 320, 240), 85, Subsampling::S420).expect("coefficients")
}

#[test]
fn a_warmed_thread_allocates_for_the_output_and_little_else() {
    let ci = photo();
    // (mode, allocator calls, bytes requested). Before the one emitter
    // this test read 3 175 calls / 1 991 396 bytes for the progressive
    // encode and 31 / 127 443 for the baseline-optimized one. Since every
    // mode walks one script of scans it reads 48 / 145 081 and
    // 18 / 32 983 (the same in debug and under either dispatch level);
    // each bound is that reading plus under 10 %.
    for (mode, max_calls, max_bytes) in
        [(Mode::Progressive, 52, 159_000), (Mode::BaselineOptimized, 19, 36_000)]
    {
        let warm = encode_coeffs(&ci, mode, 0).expect("warm-up");
        let (jpeg, calls, bytes) = counted(|| encode_coeffs(&ci, mode, 0).expect("encode"));
        assert_eq!(jpeg, warm);
        println!("{mode:?}: {calls} allocator calls, {bytes} bytes for a {} byte JPEG", jpeg.len());
        assert!(calls <= max_calls, "{mode:?}: {calls} allocator calls > {max_calls}");
        assert!(bytes <= max_bytes, "{mode:?}: {bytes} bytes allocated > {max_bytes}");
        // The caller keeps this `Vec`: each scan is sized from its code
        // lengths before it is written, so it carries no growth slack.
        let slack = jpeg.capacity() - jpeg.len();
        assert!(slack <= jpeg.len() / 16, "{mode:?}: {slack} spare bytes on {}", jpeg.len());
    }
}

#[test]
fn a_cold_thread_produces_the_same_bytes() {
    let ci = photo();
    for mode in [Mode::Baseline, Mode::BaselineOptimized, Mode::Progressive] {
        let _ = encode_coeffs(&ci, mode, 0).expect("warm-up");
        let warm = encode_coeffs(&ci, mode, 0).expect("encode");
        let cold = std::thread::scope(|s| {
            s.spawn(|| encode_coeffs(&ci, mode, 0).expect("cold encode")).join().expect("thread")
        });
        assert_eq!(cold, warm, "{mode:?}");
    }
}

/// 2 048 × 1 536 at 4:2:0 with ~20 nonzero coefficients a block, written
/// straight into the blocks (no 3-megapixel DCT in a debug test run).
fn huge() -> CoeffImage {
    let qt = vec![QuantTable::luma(85), QuantTable::chroma(85)];
    let mut ci = CoeffImage::zeroed(2048, 1536, qt, &[(2, 2), (1, 1), (1, 1)], &[0, 1, 1])
        .expect("coefficient image");
    let mut s = 0x2545_f491_4f6c_dd1du64;
    for comp in &mut ci.components {
        for block in &mut comp.blocks {
            for _ in 0..20 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                block[(s >> 40) as usize % 64] = ((s >> 20) % 31) as i32 - 15;
            }
        }
    }
    ci
}

#[test]
fn one_huge_photo_does_not_pin_its_op_stream_to_the_thread() {
    /// What a thread may keep between encodes (the encoder's
    /// `SCRATCH_KEPT` plus slack for the harness's own bookkeeping).
    const KEPT: isize = (4 << 20) + (64 << 10);
    let big = huge();
    let small =
        pixels_to_coeffs(&common::card(9, 75, 56), 85, Subsampling::S420).expect("coefficients");
    let ops_at_least = big.components.iter().map(|c| c.blocks.len()).sum::<usize>() * 8 * 8;
    for mode in [Mode::BaselineOptimized, Mode::Progressive] {
        let before = LIVE.get();
        drop(encode_coeffs(&big, mode, 0).expect("huge encode"));
        drop(encode_coeffs(&small, mode, 0).expect("small encode"));
        let kept = LIVE.get() - before;
        println!("{mode:?}: {kept} bytes kept (the huge op stream is over {ops_at_least})");
        assert!(kept <= KEPT, "{mode:?}: thread keeps {kept} bytes after a 75x56 encode");
    }
}
