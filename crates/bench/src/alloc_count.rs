//! A counting global allocator, shared by the allocation tests
//! (`tests/snapshot_alloc.rs`) and the state census (`scale_probe`).
//!
//! A test or binary opts in with
//!
//! ```text
//! #[global_allocator]
//! static ALLOCATOR: rxview_bench::alloc_count::Counting = rxview_bench::alloc_count::Counting;
//! ```
//!
//! and every call then goes to the system allocator unchanged, counted:
//! bytes requested and allocator calls by the whole process
//! ([`allocated_by`]), bytes live in the whole process ([`live_bytes`]),
//! and what the calling thread keeps allocated ([`kept_by`]) — in bytes,
//! in glibc malloc chunks and in allocations. Without the
//! declaration every count stays zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The counting allocator: [`System`], with counters beside it.
pub struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// What a thread keeps allocated, or what running some code left it
/// keeping more: negative where the code freed more than it kept.
#[derive(Clone, Copy, Debug)]
pub struct Kept {
    /// Bytes requested.
    pub bytes: isize,
    /// The same requests rounded up to glibc's malloc chunks.
    pub chunks: isize,
    /// Allocations.
    pub allocs: isize,
}

impl std::ops::Add for Kept {
    type Output = Kept;
    fn add(self, o: Kept) -> Kept {
        Kept {
            bytes: self.bytes + o.bytes,
            chunks: self.chunks + o.chunks,
            allocs: self.allocs + o.allocs,
        }
    }
}

impl std::ops::Sub for Kept {
    type Output = Kept;
    fn sub(self, o: Kept) -> Kept {
        Kept {
            bytes: self.bytes - o.bytes,
            chunks: self.chunks - o.chunks,
            allocs: self.allocs - o.allocs,
        }
    }
}

thread_local! {
    /// What this thread allocated less what it freed: what [`kept_by`]
    /// reads, so that another thread releasing its thread-locals as it
    /// exits is not counted as a result's bytes coming free.
    static THREAD_LIVE: Cell<Kept> = const {
        Cell::new(Kept { bytes: 0, chunks: 0, allocs: 0 })
    };
}

/// The glibc chunk that serves a request of `size` bytes: the request plus
/// an 8-byte header, rounded up to 16 bytes, at least 32 — what resident
/// memory pays for it.
pub fn chunk(size: usize) -> isize {
    ((size + 8 + 15) & !15).max(32) as isize
}

/// Adds `bytes` (and their chunks) and `allocs` to this thread's counts.
fn thread_live(bytes: isize, chunks: isize, allocs: isize) {
    let more = Kept {
        bytes,
        chunks,
        allocs,
    };
    THREAD_LIVE.with(|c| c.set(c.get() + more));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and a
// const-initialized thread-local, and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        thread_live(layout.size() as isize, chunk(layout.size()), 1);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        thread_live(-(layout.size() as isize), -chunk(layout.size()), -1);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // Wrapping, as two steps: the sum stays right whichever is larger.
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        let grown = new_size as isize - layout.size() as isize;
        thread_live(grown, chunk(new_size) - chunk(layout.size()), 0);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested and allocator calls made, by every thread, while `f`
/// runs.
pub fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (b0, c0) = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let out = f();
    (
        out,
        BYTES.load(Ordering::Relaxed) - b0,
        CALLS.load(Ordering::Relaxed) - c0,
    )
}

/// What `f`'s result keeps allocated, counted on this thread.
pub fn kept_by<T>(f: impl FnOnce() -> T) -> (T, Kept) {
    let before = THREAD_LIVE.with(Cell::get);
    let out = f();
    (out, THREAD_LIVE.with(Cell::get) - before)
}

/// Bytes allocated and not yet freed, by every thread.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}
