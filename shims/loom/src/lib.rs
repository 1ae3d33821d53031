//! Empty placeholder: nothing uses loom; the crate stays only so `perfbench/Cargo.lock` keeps resolving.
