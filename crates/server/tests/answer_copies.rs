//! How many bytes a served `Query` allocates, counted exactly: a read's
//! answer is copied once, from the relation's kept text into its
//! response frame, and the client takes that frame's buffer as the
//! answer's `String`.
//!
//! A request runs on its client's thread, so a counting global allocator
//! with a thread-local count sees every byte the request allocates, on
//! both sides of the wire, and none of another thread's. The file holds
//! one test: the allocator is the whole binary's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use eve_server::protocol::{RequestBody, ResponseBody};
use eve_server::{Server, ServerConfig, Warehouse};
use eve_sync::EvolutionOp;

/// The system allocator, counting the bytes each thread asks it for: the
/// size of every allocation and the new size of every reallocation.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down has no count left to add to.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: each method passes its caller's arguments unchanged to the
// same method of `System`, so it keeps `System`'s guarantees; the count
// is a `const`-initialised thread-local, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout`, as `GlobalAlloc::alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout`, as `GlobalAlloc::alloc_zeroed`
        // requires.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller guarantees `new_size` as `realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

#[test]
fn a_served_query_allocates_its_answer_once() {
    const ROWS: i64 = 3_000;
    let root = std::env::temp_dir().join(format!("eve-answer-copies-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("copies").unwrap();
    for line in ["site 1 tokyo", "relation R @1 (K:int, P:text)"] {
        let answer = c.request(RequestBody::Statement { esql: line.into() });
        assert!(
            matches!(answer, Ok(ResponseBody::Output { .. })),
            "{answer:?}"
        );
    }
    let rows = (0..ROWS)
        .map(|k| eve_relational::tup![k, format!("row {k}, a value of some length")])
        .collect();
    let applied = c.request(RequestBody::Apply {
        ops: vec![EvolutionOp::insert("R", rows)],
    });
    assert!(
        matches!(applied, Ok(ResponseBody::Output { .. })),
        "{applied:?}"
    );
    let view = "view CREATE VIEW V (VE = '~') AS SELECT X.K, X.P FROM R X (RR = true)";
    let defined = c.request(RequestBody::Statement { esql: view.into() });
    assert!(
        matches!(defined, Ok(ResponseBody::Output { .. })),
        "{defined:?}"
    );

    let query = || RequestBody::Query { view: "V".into() };
    // The first query renders the answer and keeps it.
    let warm = match c.request(query()).unwrap() {
        ResponseBody::Output { text } => text,
        other => panic!("{other:?}"),
    };
    assert!(warm.len() >= 64 << 10, "{} bytes", warm.len());

    let before = allocated();
    let answer = c.request(query()).unwrap();
    let bytes = allocated() - before;
    let ResponseBody::Output { text } = answer else {
        panic!("{answer:?}");
    };
    assert_eq!(text, warm);
    let len = text.len() as u64;
    eprintln!(
        "a query of a {len}-byte answer allocated {bytes} bytes ({:.2} x the answer)",
        bytes as f64 / len as f64
    );
    assert!(
        bytes <= len + len / 10 + 4096,
        "a query of a {len}-byte answer allocated {bytes} bytes"
    );
    drop(c);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
