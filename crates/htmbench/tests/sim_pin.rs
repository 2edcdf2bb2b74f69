//! Every simulated quantity of a one-thread run, pinned per fallback kind.
//!
//! A one-thread run has no scheduler hand-offs and no host-time races, so
//! its cycles, ground truth, sample count and obs counters repeat exactly.
//! The rows below were recorded before the engine and the runtime were cut
//! down to one speculation path each; a refactor of either must reproduce
//! them bit for bit under all four `--fallback` kinds. The repo benchmark
//! cannot give this guard: its repeatable digests are all lock-fallback.
//!
//! One `#[test]`: the obs registry is process-wide. To rebless after an
//! intended change of simulated behaviour, paste the `actual` block the
//! failure prints over `PINNED`.

use htmbench::harness::{RunConfig, RunOutcome};
use htmbench::registry;
use obs::{Counter, Snapshot};
use rtm_runtime::FallbackKind;

/// Capacity, sync and irrevocable aborts, a phase change for the adaptive
/// policy, a heap-allocating STAMP program, and the `hle_section` user.
const PROGRAMS: [&str; 6] = [
    "micro/capacity",
    "micro/sync_abort",
    "micro/irrevocable",
    "micro/mixed_phase",
    "stamp/vacation",
    "kyotocabinet",
];

const PINNED: &str = "\
micro/capacity lock checksum=1 total_cycles=151395 makespan_cycles=151395 stats=CpuStats { tx_begins: 39,commits: 15,aborts_conflict: 0,aborts_capacity: 15,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 9,stm_commits: 0,aborts_validation: 0,wasted_cycles: 57257,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 15,fallbacks: 15,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 15,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 9,aborts_validation: 0,abort_weight: 57257 } samples=22 tx_begins=39 tx_commits=15 tx_aborts=24 rtm_htm_attempts=39 rtm_retries=9 rtm_fallbacks=15 rtm_lock_waits=39 rtm_backend_switches=0 rtm_hist_stores=30 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/capacity stm checksum=1 total_cycles=433498 makespan_cycles=433498 stats=CpuStats { tx_begins: 31,commits: 15,aborts_conflict: 0,aborts_capacity: 15,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 1,stm_commits: 15,aborts_validation: 0,wasted_cycles: 45456,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 15,fallbacks: 15,stm_commits: 15,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 15,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 1,aborts_validation: 0,abort_weight: 45456 } samples=67 tx_begins=31 tx_commits=15 tx_aborts=16 rtm_htm_attempts=31 rtm_retries=1 rtm_fallbacks=15 rtm_lock_waits=31 rtm_backend_switches=0 rtm_hist_stores=30 stm_begins=15 stm_commits=15 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/capacity hle checksum=1 total_cycles=187317 makespan_cycles=187317 stats=CpuStats { tx_begins: 52,commits: 15,aborts_conflict: 0,aborts_capacity: 25,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 12,stm_commits: 0,aborts_validation: 0,wasted_cycles: 89892,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 15,fallbacks: 15,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 25,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 12,aborts_validation: 0,abort_weight: 89892 } samples=29 tx_begins=52 tx_commits=15 tx_aborts=37 rtm_htm_attempts=37 rtm_retries=7 rtm_fallbacks=15 rtm_lock_waits=37 rtm_backend_switches=0 rtm_hist_stores=30 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/capacity adaptive checksum=1 total_cycles=342440 makespan_cycles=342440 stats=CpuStats { tx_begins: 30,commits: 15,aborts_conflict: 0,aborts_capacity: 4,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 11,stm_commits: 11,aborts_validation: 0,wasted_cycles: 33479,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 15,fallbacks: 15,stm_commits: 11,hle_commits: 0,backend_switches: 1,aborts_conflict: 0,aborts_capacity: 4,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 11,aborts_validation: 0,abort_weight: 33479 } samples=53 tx_begins=30 tx_commits=15 tx_aborts=15 rtm_htm_attempts=30 rtm_retries=0 rtm_fallbacks=15 rtm_lock_waits=30 rtm_backend_switches=1 rtm_hist_stores=30 stm_begins=11 stm_commits=11 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/sync_abort lock checksum=200 total_cycles=125045 makespan_cycles=125045 stats=CpuStats { tx_begins: 200,commits: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 200,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 1218,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 0,fallbacks: 200,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 200,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 1218 } samples=36 tx_begins=200 tx_commits=0 tx_aborts=200 rtm_htm_attempts=200 rtm_retries=0 rtm_fallbacks=200 rtm_lock_waits=200 rtm_backend_switches=0 rtm_hist_stores=200 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/sync_abort stm checksum=200 total_cycles=140019 makespan_cycles=140019 stats=CpuStats { tx_begins: 200,commits: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 200,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 1258,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 0,fallbacks: 200,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 200,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 1258 } samples=36 tx_begins=200 tx_commits=0 tx_aborts=200 rtm_htm_attempts=200 rtm_retries=0 rtm_fallbacks=200 rtm_lock_waits=400 rtm_backend_switches=0 rtm_hist_stores=200 stm_begins=200 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=200
micro/sync_abort hle checksum=200 total_cycles=164604 makespan_cycles=164604 stats=CpuStats { tx_begins: 400,commits: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 400,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 2407,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 0,fallbacks: 200,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 400,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 2407 } samples=68 tx_begins=400 tx_commits=0 tx_aborts=400 rtm_htm_attempts=200 rtm_retries=0 rtm_fallbacks=200 rtm_lock_waits=200 rtm_backend_switches=0 rtm_hist_stores=200 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/sync_abort adaptive checksum=200 total_cycles=88218 makespan_cycles=88218 stats=CpuStats { tx_begins: 18,commits: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 18,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 72,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 0,fallbacks: 200,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 18,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 72 } samples=6 tx_begins=18 tx_commits=0 tx_aborts=18 rtm_htm_attempts=18 rtm_retries=0 rtm_fallbacks=200 rtm_lock_waits=18 rtm_backend_switches=0 rtm_hist_stores=200 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/irrevocable lock checksum=200 total_cycles=129585 makespan_cycles=129585 stats=CpuStats { tx_begins: 200,commits: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 200,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 3769,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 0,fallbacks: 200,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 200,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 3769 } samples=36 tx_begins=200 tx_commits=0 tx_aborts=200 rtm_htm_attempts=200 rtm_retries=0 rtm_fallbacks=200 rtm_lock_waits=200 rtm_backend_switches=0 rtm_hist_stores=200 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/irrevocable stm checksum=200 total_cycles=146583 makespan_cycles=146583 stats=CpuStats { tx_begins: 200,commits: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 200,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 3654,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 0,fallbacks: 200,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 200,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 3654 } samples=37 tx_begins=200 tx_commits=0 tx_aborts=200 rtm_htm_attempts=200 rtm_retries=0 rtm_fallbacks=200 rtm_lock_waits=400 rtm_backend_switches=0 rtm_hist_stores=200 stm_begins=200 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=200
micro/irrevocable hle checksum=200 total_cycles=171068 makespan_cycles=171068 stats=CpuStats { tx_begins: 400,commits: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 400,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 7288,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 0,fallbacks: 200,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 400,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 7288 } samples=68 tx_begins=400 tx_commits=0 tx_aborts=400 rtm_htm_attempts=200 rtm_retries=0 rtm_fallbacks=200 rtm_lock_waits=200 rtm_backend_switches=0 rtm_hist_stores=200 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/irrevocable adaptive checksum=200 total_cycles=90481 makespan_cycles=90481 stats=CpuStats { tx_begins: 18,commits: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 18,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 296,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 0,fallbacks: 200,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 18,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 296 } samples=6 tx_begins=18 tx_commits=0 tx_aborts=18 rtm_htm_attempts=18 rtm_retries=0 rtm_fallbacks=200 rtm_lock_waits=18 rtm_backend_switches=0 rtm_hist_stores=200 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/mixed_phase lock checksum=225 total_cycles=61368 makespan_cycles=61368 stats=CpuStats { tx_begins: 225,commits: 150,aborts_conflict: 0,aborts_capacity: 37,aborts_sync: 38,aborts_explicit: 0,aborts_interrupt: 0,stm_commits: 0,aborts_validation: 0,wasted_cycles: 2481,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 150,fallbacks: 75,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 37,aborts_sync: 38,aborts_explicit: 0,aborts_interrupt: 0,aborts_validation: 0,abort_weight: 2481 } samples=13 tx_begins=225 tx_commits=150 tx_aborts=75 rtm_htm_attempts=225 rtm_retries=0 rtm_fallbacks=75 rtm_lock_waits=225 rtm_backend_switches=0 rtm_hist_stores=225 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/mixed_phase stm checksum=225 total_cycles=81084 makespan_cycles=81084 stats=CpuStats { tx_begins: 226,commits: 150,aborts_conflict: 0,aborts_capacity: 37,aborts_sync: 38,aborts_explicit: 0,aborts_interrupt: 1,stm_commits: 37,aborts_validation: 0,wasted_cycles: 2378,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 150,fallbacks: 75,stm_commits: 37,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 37,aborts_sync: 38,aborts_explicit: 0,aborts_interrupt: 1,aborts_validation: 0,abort_weight: 2378 } samples=17 tx_begins=226 tx_commits=150 tx_aborts=76 rtm_htm_attempts=226 rtm_retries=1 rtm_fallbacks=75 rtm_lock_waits=264 rtm_backend_switches=0 rtm_hist_stores=225 stm_begins=75 stm_commits=37 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=38
micro/mixed_phase hle checksum=225 total_cycles=78187 makespan_cycles=78187 stats=CpuStats { tx_begins: 301,commits: 150,aborts_conflict: 0,aborts_capacity: 74,aborts_sync: 76,aborts_explicit: 0,aborts_interrupt: 1,stm_commits: 0,aborts_validation: 0,wasted_cycles: 4847,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 150,fallbacks: 75,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 74,aborts_sync: 76,aborts_explicit: 0,aborts_interrupt: 1,aborts_validation: 0,abort_weight: 4847 } samples=26 tx_begins=301 tx_commits=150 tx_aborts=151 rtm_htm_attempts=226 rtm_retries=1 rtm_fallbacks=75 rtm_lock_waits=226 rtm_backend_switches=0 rtm_hist_stores=225 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
micro/mixed_phase adaptive checksum=225 total_cycles=64565 makespan_cycles=64565 stats=CpuStats { tx_begins: 181,commits: 150,aborts_conflict: 0,aborts_capacity: 15,aborts_sync: 15,aborts_explicit: 0,aborts_interrupt: 1,stm_commits: 29,aborts_validation: 0,wasted_cycles: 1300,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 150,fallbacks: 75,stm_commits: 29,hle_commits: 0,backend_switches: 1,aborts_conflict: 0,aborts_capacity: 15,aborts_sync: 15,aborts_explicit: 0,aborts_interrupt: 1,aborts_validation: 0,abort_weight: 1300 } samples=8 tx_begins=181 tx_commits=150 tx_aborts=31 rtm_htm_attempts=181 rtm_retries=1 rtm_fallbacks=75 rtm_lock_waits=181 rtm_backend_switches=1 rtm_hist_stores=225 stm_begins=29 stm_commits=29 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
stamp/vacation lock checksum=1801 total_cycles=124193 makespan_cycles=124193 stats=CpuStats { tx_begins: 307,commits: 300,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 7,stm_commits: 0,aborts_validation: 0,wasted_cycles: 1215,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 300,fallbacks: 0,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 7,aborts_validation: 0,abort_weight: 1215 } samples=9 tx_begins=307 tx_commits=300 tx_aborts=7 rtm_htm_attempts=307 rtm_retries=7 rtm_fallbacks=0 rtm_lock_waits=307 rtm_backend_switches=0 rtm_hist_stores=300 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
stamp/vacation stm checksum=1801 total_cycles=124193 makespan_cycles=124193 stats=CpuStats { tx_begins: 307,commits: 300,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 7,stm_commits: 0,aborts_validation: 0,wasted_cycles: 1215,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 300,fallbacks: 0,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 7,aborts_validation: 0,abort_weight: 1215 } samples=9 tx_begins=307 tx_commits=300 tx_aborts=7 rtm_htm_attempts=307 rtm_retries=7 rtm_fallbacks=0 rtm_lock_waits=307 rtm_backend_switches=0 rtm_hist_stores=300 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
stamp/vacation hle checksum=1801 total_cycles=124193 makespan_cycles=124193 stats=CpuStats { tx_begins: 307,commits: 300,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 7,stm_commits: 0,aborts_validation: 0,wasted_cycles: 1215,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 300,fallbacks: 0,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 7,aborts_validation: 0,abort_weight: 1215 } samples=9 tx_begins=307 tx_commits=300 tx_aborts=7 rtm_htm_attempts=307 rtm_retries=7 rtm_fallbacks=0 rtm_lock_waits=307 rtm_backend_switches=0 rtm_hist_stores=300 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
stamp/vacation adaptive checksum=1801 total_cycles=123472 makespan_cycles=123472 stats=CpuStats { tx_begins: 301,commits: 296,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 5,stm_commits: 0,aborts_validation: 0,wasted_cycles: 1142,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 296,fallbacks: 4,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 5,aborts_validation: 0,abort_weight: 1142 } samples=8 tx_begins=301 tx_commits=296 tx_aborts=5 rtm_htm_attempts=301 rtm_retries=1 rtm_fallbacks=4 rtm_lock_waits=301 rtm_backend_switches=0 rtm_hist_stores=300 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
kyotocabinet lock checksum=500 total_cycles=196717 makespan_cycles=196717 stats=CpuStats { tx_begins: 500,commits: 498,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 2,stm_commits: 0,aborts_validation: 0,wasted_cycles: 53,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 498,fallbacks: 2,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 2,aborts_validation: 0,abort_weight: 53 } samples=9 tx_begins=500 tx_commits=498 tx_aborts=2 rtm_htm_attempts=0 rtm_retries=0 rtm_fallbacks=0 rtm_lock_waits=0 rtm_backend_switches=0 rtm_hist_stores=0 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
kyotocabinet stm checksum=500 total_cycles=196717 makespan_cycles=196717 stats=CpuStats { tx_begins: 500,commits: 498,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 2,stm_commits: 0,aborts_validation: 0,wasted_cycles: 53,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 498,fallbacks: 2,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 2,aborts_validation: 0,abort_weight: 53 } samples=9 tx_begins=500 tx_commits=498 tx_aborts=2 rtm_htm_attempts=0 rtm_retries=0 rtm_fallbacks=0 rtm_lock_waits=0 rtm_backend_switches=0 rtm_hist_stores=0 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
kyotocabinet hle checksum=500 total_cycles=196717 makespan_cycles=196717 stats=CpuStats { tx_begins: 500,commits: 498,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 2,stm_commits: 0,aborts_validation: 0,wasted_cycles: 53,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 498,fallbacks: 2,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 2,aborts_validation: 0,abort_weight: 53 } samples=9 tx_begins=500 tx_commits=498 tx_aborts=2 rtm_htm_attempts=0 rtm_retries=0 rtm_fallbacks=0 rtm_lock_waits=0 rtm_backend_switches=0 rtm_hist_stores=0 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
kyotocabinet adaptive checksum=500 total_cycles=196717 makespan_cycles=196717 stats=CpuStats { tx_begins: 500,commits: 498,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 2,stm_commits: 0,aborts_validation: 0,wasted_cycles: 53,parks_in_tx: 0,parks: 1 } truth=SiteTruth { htm_commits: 498,fallbacks: 2,stm_commits: 0,hle_commits: 0,backend_switches: 0,aborts_conflict: 0,aborts_capacity: 0,aborts_sync: 0,aborts_explicit: 0,aborts_interrupt: 2,aborts_validation: 0,abort_weight: 53 } samples=9 tx_begins=500 tx_commits=498 tx_aborts=2 rtm_htm_attempts=0 rtm_retries=0 rtm_fallbacks=0 rtm_lock_waits=0 rtm_backend_switches=0 rtm_hist_stores=0 stm_begins=0 stm_commits=0 stm_validation_aborts=0 stm_lock_busy=0 stm_irrevocable=0
";

/// One run as one line of `key=value` pairs.
fn row(name: &str, kind: FallbackKind, out: &RunOutcome, obs: &Snapshot) -> String {
    let mut line = format!(
        "{name} {kind} checksum={} total_cycles={} makespan_cycles={}",
        out.checksum, out.total_cycles, out.makespan_cycles
    );
    line += &format!(" stats={:?}", out.stats);
    line += &format!(" truth={:?}", out.truth.totals());
    let profile = out.profile.as_ref().expect("profiled run");
    line += &format!(" samples={}", profile.samples);
    for &c in Counter::ALL {
        if ["rtm_", "stm_", "tx_"]
            .iter()
            .any(|p| c.name().starts_with(p))
        {
            line += &format!(" {}={}", c.name(), obs.get(c));
        }
    }
    line.replace(", ", ",")
}

#[test]
fn one_thread_runs_are_pinned_under_every_fallback() {
    let specs = registry::all();
    obs::set_enabled(true);
    let mut actual = Vec::new();
    for name in PROGRAMS {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .expect("program is registered");
        for kind in FallbackKind::ALL {
            let cfg = RunConfig::quick().with_threads(1).with_fallback(kind);
            obs::registry().reset();
            let out = (spec.run)(&cfg);
            actual.push(row(name, kind, &out, &obs::registry().snapshot()));
        }
    }
    obs::set_enabled(false);

    let pinned: Vec<&str> = PINNED.lines().collect();
    let mut moved = 0;
    for (i, line) in actual.iter().enumerate() {
        if pinned.get(i) != Some(&line.as_str()) {
            moved += 1;
            eprintln!("pinned: {}\nactual: {line}", pinned.get(i).unwrap_or(&"-"));
        }
    }
    assert!(
        moved == 0 && pinned.len() == actual.len(),
        "{moved} of {} rows moved; actual block:\n{}",
        actual.len(),
        actual.join("\n")
    );
}
