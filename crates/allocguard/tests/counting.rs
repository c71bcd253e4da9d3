//! The counters must actually observe heap traffic routed through the
//! installed global allocator — otherwise the zero-alloc steady-state test
//! could pass vacuously against a miswired allocator.

use paradyn_allocguard::{checkpoint, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counters_observe_alloc_realloc_dealloc() {
    let mark = checkpoint();

    let mut v: Vec<u64> = Vec::with_capacity(8);
    assert!(mark.allocations_since() >= 1, "Vec::with_capacity must allocate");
    assert!(mark.bytes_since() >= 64);

    // Growing past capacity reaches the allocator again (realloc or a
    // fresh alloc+copy, depending on the allocator's strategy).
    let traffic_before_grow = mark.heap_traffic_since();
    v.extend(std::iter::repeat(7).take(64));
    assert!(
        mark.heap_traffic_since() > traffic_before_grow,
        "growth past capacity must produce heap traffic"
    );

    let deallocs_before_drop = mark.deallocations_since();
    drop(v);
    assert!(mark.deallocations_since() > deallocs_before_drop);
}

#[test]
fn in_place_mutation_is_free() {
    let mut v: Vec<u64> = Vec::with_capacity(1024);
    let mark = checkpoint();
    for i in 0..1024 {
        v.push(i); // within capacity: no heap traffic
    }
    v.clear();
    assert_eq!(mark.heap_traffic_since(), 0);
    assert_eq!(mark.deallocations_since(), 0);
}

#[test]
fn counters_are_scoped_to_the_calling_thread() {
    // The harness runs tests on parallel threads; a window measured here
    // must not see another thread's heap traffic, while that thread still
    // sees its own. Spawning allocates on this thread, so the window opens
    // after the spawn and the two threads meet at a barrier around the
    // other thread's allocation.
    use std::sync::{Arc, Barrier};
    let gate = Arc::new(Barrier::new(2));
    let other = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            gate.wait();
            let mark = checkpoint();
            let v: Vec<u64> = Vec::with_capacity(4096);
            drop(v);
            let seen = mark.allocations_since();
            gate.wait();
            seen
        })
    };
    let mark = checkpoint();
    gate.wait();
    gate.wait();
    let here = mark.allocations_since();
    let there = other.join().unwrap();
    assert!(
        there >= 1,
        "the allocating thread must count its own allocation"
    );
    assert_eq!(
        here, 0,
        "another thread's allocations leaked into this thread's window"
    );
}
