//! What reading a reply asks of the allocator, counted per thread.
//!
//! A reply's `content-length` is a claim made by an untrusted peer (the
//! PSP, a storage node): until the bytes arrive it may buy no more
//! memory than the parser's bounded reservation. Own test binary: the
//! counting `#[global_allocator]` must not see another test's traffic
//! (the counters are per thread, the harness runs each test on its own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Cursor};

use p3_net::http::{HttpError, Response};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_declared_length_is_not_an_allocation() {
    // 64 MiB promised, 10 bytes sent, then the peer hangs up.
    let mut wire = b"HTTP/1.1 200 OK\r\ncontent-length: 67108864\r\n\r\n".to_vec();
    wire.extend_from_slice(b"0123456789");
    let mut reader = BufReader::new(Cursor::new(wire));
    LARGEST.set(0);
    let outcome = Response::read_from(&mut reader);
    let largest = LARGEST.get();
    println!("largest single allocation: {largest} bytes");
    assert!(matches!(outcome, Err(HttpError::Parse(_))), "got {outcome:?}");
    assert!(largest <= 1 << 20, "allocated {largest} bytes on a 10-byte body's say-so");
}
