//! Both ways a blocked simulated thread can wait — spinning on its wake
//! word, or parked on its condvar — are checked against one oracle: a
//! counter every thread hammers must end at the sequential total.
//!
//! Two threads take whichever path the host allows; more threads than the
//! host has cores always park. Neither run may lose an increment, leave a
//! section unaccounted for or leave a line claimed in the directory
//! (`run_workload` asserts the directory drained on every run).

use htmbench::harness::RunConfig;
use htmbench::micro;

#[test]
fn true_sharing_matches_the_sequential_oracle_on_both_wait_paths() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunConfig::quick().native();
    // `micro::true_sharing` runs `Worker::scaled(20_000)` sections a thread.
    let per_thread = cfg.scale * 20_000 / 100;
    for threads in [2, 2 * host + 1] {
        for seed in [1, 2, 3] {
            let out = micro::true_sharing(&cfg.clone().with_threads(threads).with_seed(seed));
            let sections = threads as u64 * per_thread;
            assert_eq!(out.checksum, sections, "{threads} threads, seed {seed}");
            let t = out.truth.totals();
            assert_eq!(
                t.htm_commits + t.fallbacks,
                sections,
                "{threads} threads, seed {seed}: every section commits exactly once"
            );
        }
    }
}
