//! The point of the zeroed backing: a 256 MiB machine that stores one word
//! costs the host a few pages, not 256 MiB.
//!
//! Resident set size is process-wide, so this test has a test binary (a
//! process) to itself.
#![cfg(target_os = "linux")]

use txsim_mem::SimMemory;

fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm resident field");
    // statm counts host pages. Where those are larger than 4 KiB this
    // under-reads, and an eager 256 MiB still shows as at least 16 MiB.
    pages * 4096
}

#[test]
fn untouched_memory_is_not_resident() {
    const BYTES: u64 = 256 << 20;
    let before = resident_bytes();
    let m = SimMemory::new(BYTES);
    m.store(BYTES / 2, 1);
    let growth = resident_bytes().saturating_sub(before);
    assert_eq!(m.load(BYTES / 2), 1);
    assert!(
        growth < 8 << 20,
        "a 256 MiB SimMemory with one word stored grew RSS by {growth} bytes"
    );
}
