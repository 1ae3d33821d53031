//! C3 fixture: `unsafe` / `static mut` / `UnsafeCell` need `// SAFETY:`.

fn fires_unsafe() {
    unsafe { poke(); }
}

static mut BARE: u32 = 0;

use core::cell::UnsafeCell;

fn documented() {
    // SAFETY: the callee only reads the pinned buffer
    unsafe { poke(); }
}

// SAFETY: written once before any worker thread starts
// (enforced by the constructor ordering)
static mut DOCUMENTED: u32 = 0;

fn same_line() {
    let x = unsafe { read() }; // SAFETY: bounds checked by the caller
}
