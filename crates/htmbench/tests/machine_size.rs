//! The size of the simulated machine is not a simulation input.
//!
//! `SimMemory` is backed by lazily mapped host pages, so where the host
//! places a program's data depends on what the program touches. Dice et
//! al. (*The Influence of Malloc Placement on TSX HTM*) show placement
//! moving HTM abort rates by integer factors; here only *host* placement
//! may move. Simulated addresses come from `TxHeap`'s bump pointer, which
//! never looks at `memory_bytes`, so a program that fits must run
//! identically on a 64 MiB and a 256 MiB machine.

use htmbench::harness::{RunConfig, RunOutcome};
use htmbench::registry;

fn run_native(name: &str, memory_bytes: Option<u64>) -> RunOutcome {
    let spec = registry::all()
        .into_iter()
        .find(|s| s.name == name)
        .expect("program is registered");
    let mut cfg = RunConfig::quick().with_threads(1).native();
    if let Some(bytes) = memory_bytes {
        cfg.domain = cfg.domain.with_memory(bytes);
    }
    (spec.run)(&cfg)
}

#[test]
fn machine_size_does_not_change_a_one_thread_run() {
    // One program per placement-sensitive behaviour: capacity aborts depend
    // on which cache sets the addresses fall in, vacation allocates tree
    // nodes from the heap all through the run.
    for name in ["micro/capacity", "stamp/vacation"] {
        let small = run_native(name, Some(64 << 20));
        let default = run_native(name, None);
        assert_eq!(small.checksum, default.checksum, "{name}: checksum");
        assert_eq!(
            small.total_cycles, default.total_cycles,
            "{name}: total_cycles"
        );
        assert_eq!(
            small.makespan_cycles, default.makespan_cycles,
            "{name}: makespan_cycles"
        );
        assert_eq!(small.stats, default.stats, "{name}: CpuStats");
        assert_eq!(
            small.truth.totals(),
            default.truth.totals(),
            "{name}: Truth totals"
        );
        assert!(default.stats.tx_begins > 0, "{name}: ran no transactions");
    }
}
