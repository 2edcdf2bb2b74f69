//! The per-thread simulated CPU.
//!
//! A CPU speculates in at most one way at a time — not at all, as a
//! hardware transaction, or as the STM fallback's software transaction —
//! and keeps what it has speculatively touched in one [`Footprint`] it owns
//! for its whole life. Every memory instruction dispatches on the
//! footprint's mode; whether a hardware footprint still fits is
//! [`txsim_mem::CacheGeometry::admits`]'s call, not this file's.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use obs::Counter;
use txsim_mem::{Addr, LineId, LineUse};
use txsim_pmu::{
    now_tsc, AbortClass, BranchKind, EventKind, Frame, FuncId, Ip, LbrEntry, PmuThread, Sample,
    SampleSink, SamplingConfig,
};

use crate::directory::Declare;
use crate::domain::HtmDomain;
use crate::status::{AbortInfo, TxAbort, TxResult};

/// Exact per-thread execution statistics, maintained by the simulator itself.
///
/// These are the *ground truth* the paper validates TxSampler against
/// (§7.2): the profiler only ever sees PMU samples; tests compare its
/// estimates to these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Transactions started.
    pub tx_begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborts due to data conflicts.
    pub aborts_conflict: u64,
    /// Aborts due to capacity overflow.
    pub aborts_capacity: u64,
    /// Synchronous aborts (unfriendly instructions).
    pub aborts_sync: u64,
    /// Explicit `xabort`s.
    pub aborts_explicit: u64,
    /// Aborts caused by PMU sampling interrupts (profiler perturbation).
    pub aborts_interrupt: u64,
    /// Software-transaction commits (TL2-style STM fallback).
    pub stm_commits: u64,
    /// Software-transaction aborts from failed commit-time validation.
    pub aborts_validation: u64,
    /// Total cycles wasted in aborted transaction attempts.
    pub wasted_cycles: u64,
    /// Scheduler parks while a transaction was open (diagnostics).
    pub parks_in_tx: u64,
    /// Scheduler parks total (diagnostics).
    pub parks: u64,
}

impl CpuStats {
    /// Total aborts of all classes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_conflict
            + self.aborts_capacity
            + self.aborts_sync
            + self.aborts_explicit
            + self.aborts_validation
            + self.aborts_interrupt
    }

    /// Aborts that the *application* caused (excluding profiler-induced).
    pub fn app_aborts(&self) -> u64 {
        self.total_aborts() - self.aborts_interrupt
    }

    /// Add another CPU's counts into this one. The destructuring is
    /// exhaustive on purpose: a counter added to the struct does not
    /// compile until it is summed here.
    pub fn merge(&mut self, o: &CpuStats) {
        let CpuStats {
            tx_begins,
            commits,
            aborts_conflict,
            aborts_capacity,
            aborts_sync,
            aborts_explicit,
            aborts_interrupt,
            stm_commits,
            aborts_validation,
            wasted_cycles,
            parks_in_tx,
            parks,
        } = self;
        *tx_begins += o.tx_begins;
        *commits += o.commits;
        *aborts_conflict += o.aborts_conflict;
        *aborts_capacity += o.aborts_capacity;
        *aborts_sync += o.aborts_sync;
        *aborts_explicit += o.aborts_explicit;
        *aborts_interrupt += o.aborts_interrupt;
        *stm_commits += o.stm_commits;
        *aborts_validation += o.aborts_validation;
        *wasted_cycles += o.wasted_cycles;
        *parks_in_tx += o.parks_in_tx;
        *parks += o.parks;
    }

    fn record_abort(&mut self, class: AbortClass, weight: u64) {
        match class {
            AbortClass::Conflict => self.aborts_conflict += 1,
            AbortClass::Capacity => self.aborts_capacity += 1,
            AbortClass::Sync => self.aborts_sync += 1,
            AbortClass::Explicit => self.aborts_explicit += 1,
            AbortClass::Validation => self.aborts_validation += 1,
            AbortClass::Interrupt => self.aborts_interrupt += 1,
        }
        self.wasted_cycles += weight;
    }
}

/// How a CPU is speculating, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Not speculating: accesses hit memory directly.
    Plain,
    /// Inside a hardware transaction: lines are claimed in the conflict
    /// directory, the footprint is bounded by the cache geometry, and a
    /// sampling interrupt aborts.
    Htm,
    /// Inside software speculation (the STM fallback): nothing is claimed in
    /// the directory and nothing bounds the footprint; reads go through as
    /// plain loads (recording the line), writes are buffered until the
    /// STM's commit protocol publishes them, and interrupts do not abort.
    Stm,
}

/// What the open (or most recent) speculation has touched. Owned by the
/// CPU for its whole life and cleared, not rebuilt, when speculation
/// begins, so a steady-state transaction allocates nothing here. The line
/// lists and the write buffer are plain vectors — what commit and abort
/// hand to the directory and to TL2 as slices — each with a hash index
/// beside it for membership.
struct Footprint {
    mode: Mode,
    /// Read (bit 0) / write (bit 1) membership of every tracked line.
    tracked: HashMap<LineId, u8>,
    /// Lines in the read set, in first-touch order.
    read_lines: Vec<LineId>,
    /// Lines in the write set, in first-touch order.
    write_lines: Vec<LineId>,
    /// Buffered speculative stores, in first-store order.
    writes: Vec<(Addr, u64)>,
    /// Where in `writes` each buffered address sits.
    write_slot: HashMap<Addr, usize>,
    /// Write lines per cache set (indexed by set id), for the geometry's
    /// associativity bound. Only hardware transactions fill it.
    set_fill: Vec<u32>,
    /// Clock at begin (abort weight = now − this).
    begin_clock: u64,
    /// Shadow-stack depth at begin; rollback truncates to it.
    begin_depth: usize,
    /// The begin IP — where control lands after an abort, and where abort
    /// samples are attributed.
    begin_ip: Ip,
}

impl Footprint {
    fn new(sets: u32) -> Self {
        Footprint {
            mode: Mode::Plain,
            tracked: HashMap::new(),
            read_lines: Vec::new(),
            write_lines: Vec::new(),
            writes: Vec::new(),
            write_slot: HashMap::new(),
            set_fill: vec![0; sets as usize],
            begin_clock: 0,
            begin_depth: 0,
            begin_ip: Ip::UNKNOWN,
        }
    }

    /// Begin speculating in `mode` with an empty footprint.
    fn open(&mut self, mode: Mode, clock: u64, depth: usize, ip: Ip) {
        self.mode = mode;
        self.tracked.clear();
        self.read_lines.clear();
        self.write_lines.clear();
        self.writes.clear();
        self.write_slot.clear();
        self.set_fill.fill(0);
        self.begin_clock = clock;
        self.begin_depth = depth;
        self.begin_ip = ip;
    }

    fn bit(usage: LineUse) -> u8 {
        match usage {
            LineUse::Read => 1,
            LineUse::Write => 2,
        }
    }

    fn tracks(&self, line: LineId, usage: LineUse) -> bool {
        self.tracked
            .get(&line)
            .is_some_and(|bits| bits & Self::bit(usage) != 0)
    }

    /// Add `line` to the read or write set; a no-op if it is there.
    fn track(&mut self, line: LineId, usage: LineUse) {
        let bits = self.tracked.entry(line).or_insert(0);
        if *bits & Self::bit(usage) != 0 {
            return;
        }
        *bits |= Self::bit(usage);
        match usage {
            LineUse::Read => self.read_lines.push(line),
            LineUse::Write => self.write_lines.push(line),
        }
    }

    /// The buffered value of `addr`, if this speculation stored to it.
    fn buffered(&self, addr: Addr) -> Option<u64> {
        self.write_slot.get(&addr).map(|&slot| self.writes[slot].1)
    }

    fn buffer(&mut self, addr: Addr, value: u64) {
        match self.write_slot.entry(addr) {
            Entry::Occupied(slot) => self.writes[*slot.get()].1 = value,
            Entry::Vacant(slot) => {
                slot.insert(self.writes.len());
                self.writes.push((addr, value));
            }
        }
    }
}

/// The speculative footprint lent to the STM's commit protocol by
/// [`SimCpu::stm_take`]: everything TL2 needs to lock, validate and publish,
/// plus the attribution info for a failure.
pub struct StmTaken {
    /// Lines read, sorted.
    pub read_lines: Vec<LineId>,
    /// Lines written, sorted.
    pub write_lines: Vec<LineId>,
    /// Buffered stores to publish on success, sorted by address.
    pub writes: Vec<(Addr, u64)>,
    /// Where the software transaction began (abort attribution).
    pub begin_ip: Ip,
    /// Clock at `stm_begin` (abort weight = now − this).
    pub begin_clock: u64,
}

/// A simulated hardware thread: virtual clock, shadow call stack, PMU, and
/// the RTM engine. See the crate docs for the execution model.
pub struct SimCpu {
    domain: Arc<HtmDomain>,
    tid: usize,
    clock: u64,
    /// Virtual time until which the scheduler has granted execution.
    allowed_until: u64,
    retired: bool,
    /// xorshift state for memory-latency jitter.
    timing_rng: u64,
    stack: Vec<Frame>,
    cur_line: u32,
    pmu: PmuThread,
    sink: Option<Box<dyn SampleSink>>,
    /// The LBR snapshot buffer every delivered sample reuses.
    lbr_scratch: Vec<LbrEntry>,
    spec: Footprint,
    last_abort: Option<AbortInfo>,
    stats: CpuStats,
}

impl SimCpu {
    pub(crate) fn new(domain: Arc<HtmDomain>, tid: usize, sampling: SamplingConfig) -> Self {
        let spec = Footprint::new(domain.geometry.sets);
        SimCpu {
            domain,
            tid,
            clock: 0,
            allowed_until: 0,
            retired: false,
            timing_rng: (tid as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1,
            stack: Vec::with_capacity(64),
            cur_line: 0,
            pmu: PmuThread::new(sampling, tid),
            sink: None,
            lbr_scratch: Vec::new(),
            spec,
            last_abort: None,
            stats: CpuStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// This CPU's simulated thread id.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Virtual cycles executed so far.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.clock
    }

    /// Whether a transaction is open.
    #[inline]
    pub fn in_tx(&self) -> bool {
        self.spec.mode == Mode::Htm
    }

    /// Whether a *software* transaction (STM fallback speculation) is open.
    #[inline]
    pub fn stm_active(&self) -> bool {
        self.spec.mode == Mode::Stm
    }

    /// The machine this CPU belongs to.
    pub fn domain(&self) -> &Arc<HtmDomain> {
        &self.domain
    }

    /// Exact execution statistics (ground truth for profiler validation).
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Per-thread PMU (aggregate counts, configuration).
    pub fn pmu(&self) -> &PmuThread {
        &self.pmu
    }

    /// Status of the most recent abort, like reading EAX after `xbegin`.
    pub fn last_abort(&self) -> Option<AbortInfo> {
        self.last_abort
    }

    /// Depth of the shadow call stack (tests).
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }

    /// Register the profiler's sample sink. Replaces any previous sink.
    pub fn set_sink(&mut self, sink: Box<dyn SampleSink>) {
        self.sink = Some(sink);
    }

    /// Remove and return the sample sink (to collect a profiler's state
    /// after the workload finishes).
    pub fn take_sink(&mut self) -> Option<Box<dyn SampleSink>> {
        self.sink.take()
    }

    /// Ask the sink to hand off anything it batched (a profiler's residual
    /// delta). Call after the workload finishes, before reading results
    /// through the profiler's handle; dropping the CPU flushes implicitly.
    pub fn flush_sink(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }

    /// Variable memory latency: most accesses hit L1, an occasional one
    /// costs a miss. Besides realism, this timing noise is load-bearing:
    /// identical per-thread loops under deterministic costs settle into a
    /// stable phase stagger where transactions never overlap — a pattern
    /// real machines break up with cache and scheduling noise.
    #[inline]
    fn mem_cost(&mut self, base: u64) -> u64 {
        let mut x = self.timing_rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.timing_rng = x;
        if x.is_multiple_of(16) {
            base + 12 + x % 31
        } else {
            base
        }
    }

    /// The current instruction pointer: top-of-stack function + last line.
    #[inline]
    pub fn cur_ip(&self) -> Ip {
        let func = self.stack.last().map_or(FuncId::UNKNOWN, |f| f.func);
        Ip::new(func, self.cur_line)
    }

    // ------------------------------------------------------------------
    // Core ticking: cycles, doom checks, interrupt delivery
    // ------------------------------------------------------------------

    /// Charge `cycles`, checking the doom flag and delivering any sampling
    /// interrupt. The only source of `Err` is an in-transaction abort.
    #[inline]
    fn tick(&mut self, cycles: u64) -> TxResult<()> {
        if self.in_tx() && self.domain.directory.doomed(self.tid) != 0 {
            return self.abort_err(AbortClass::Conflict, 0);
        }
        self.clock += cycles;
        if self.clock >= self.allowed_until {
            // Virtual-time scheduling: wait until this thread's clock is
            // within a quantum of the slowest peer, so that transaction
            // windows overlap by *simulated* time, not host timing. The
            // check runs AFTER charging this op's cycles so the thread
            // parks inside the op that crossed the grant — with whatever
            // transactional claims that op holds — rather than on the
            // instruction after it.
            self.stats.parks += 1;
            if self.in_tx() {
                self.stats.parks_in_tx += 1;
            }
            self.allowed_until = self.domain.scheduler.sync(self.tid, self.clock);
            if self.in_tx() && self.domain.directory.doomed(self.tid) != 0 {
                // Doomed while parked: abort before doing anything else.
                return self.abort_err(AbortClass::Conflict, 0);
            }
        }
        if self.pmu.advance(EventKind::Cycles, cycles) {
            self.interrupt(EventKind::Cycles, None)?;
        }
        Ok(())
    }

    /// Deliver a PMU interrupt for `event`. Inside a transaction this first
    /// performs the architectural abort, then hands the profiler a sample
    /// whose LBR tail carries the abort bit — the paper's Challenge I.
    fn interrupt(&mut self, event: EventKind, addr: Option<Addr>) -> TxResult<()> {
        let precise_ip = self.cur_ip();
        let was_in_tx = self.in_tx();
        if was_in_tx {
            self.abort_rollback(AbortClass::Interrupt, 0);
        }
        // The interrupt itself appears as the newest LBR entry; its abort
        // bit tells the profiler whether this sample killed a transaction.
        self.pmu.record_branch(LbrEntry {
            from: precise_ip,
            to: self.cur_ip(),
            kind: BranchKind::Interrupt,
            in_tsx: false,
            abort: was_in_tx,
        });
        self.deliver_sample(event, precise_ip, was_in_tx, was_in_tx, addr, 0, None);
        if was_in_tx {
            Err(TxAbort)
        } else {
            Ok(())
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver_sample(
        &mut self,
        event: EventKind,
        ip: Ip,
        in_tx: bool,
        caused_abort: bool,
        addr: Option<Addr>,
        weight: u64,
        abort_class: Option<AbortClass>,
    ) {
        let Self {
            sink,
            stack,
            pmu,
            tid,
            lbr_scratch,
            ..
        } = self;
        if let Some(sink) = sink {
            obs::count(Counter::SamplesTaken);
            let mut lbr = std::mem::take(lbr_scratch);
            pmu.lbr().snapshot_into(&mut lbr);
            let sample = Sample {
                event,
                ip,
                tid: *tid,
                in_tx,
                caused_abort,
                addr,
                weight,
                abort_class,
                tsc: now_tsc(),
                lbr,
            };
            sink.on_sample(&sample, stack);
            *lbr_scratch = sample.lbr;
        }
    }

    // ------------------------------------------------------------------
    // Abort machinery
    // ------------------------------------------------------------------

    /// Architectural abort: discard speculation, release directory state,
    /// roll the stack and IP back to `xbegin`, record the LBR abort branch,
    /// count the PMU abort event (possibly sampling it).
    fn abort_rollback(&mut self, class: AbortClass, code: u8) {
        assert!(self.in_tx(), "abort_rollback outside a transaction");
        let abort_from = self.cur_ip();
        let tx = &mut self.spec;
        tx.mode = Mode::Plain;
        let begin_ip = tx.begin_ip;
        let weight = self.clock - tx.begin_clock;

        self.domain
            .directory
            .release_aborted(self.tid, &tx.read_lines, &tx.write_lines);
        self.domain.directory.tx_finished();

        // Roll back the architectural state: stack depth and IP return to
        // the xbegin point. This is why a profiler's signal handler cannot
        // see in-transaction frames (paper §3.4).
        self.stack.truncate(self.spec.begin_depth);
        self.cur_line = begin_ip.line;

        self.pmu.record_branch(LbrEntry {
            from: abort_from,
            to: begin_ip,
            kind: BranchKind::TxAbort,
            in_tsx: false,
            abort: true,
        });

        // Rollback penalty cycles (charged outside the dead transaction).
        self.clock += self.domain.costs.abort_rollback;
        let cycles_overflow = self
            .pmu
            .advance(EventKind::Cycles, self.domain.costs.abort_rollback);

        self.stats.record_abort(class, weight);
        obs::count(Counter::TxAborts);
        self.last_abort = Some(AbortInfo::new(class, code, weight));

        // RTM_RETIRED:ABORTED retires now; its PEBS record carries the abort
        // weight and class, attributed at the fallback IP (the architectural
        // state has rolled back) — in-transaction context is only available
        // through the LBR, exactly as on real hardware.
        if self.pmu.advance(EventKind::TxAbort, 1) {
            self.deliver_sample(
                EventKind::TxAbort,
                begin_ip,
                false,
                false,
                None,
                weight,
                Some(class),
            );
        }
        if cycles_overflow {
            self.deliver_sample(EventKind::Cycles, begin_ip, false, false, None, 0, None);
        }
    }

    /// Abort and return the canonical `Err`.
    fn abort_err<T>(&mut self, class: AbortClass, code: u8) -> TxResult<T> {
        self.abort_rollback(class, code);
        Err(TxAbort)
    }

    // ------------------------------------------------------------------
    // RTM instructions
    // ------------------------------------------------------------------

    /// Begin speculating in `mode` at source `line`. Panics if speculation
    /// of either kind is already open (TSX flattens nests; the runtime
    /// above never creates them, nor mixes the two kinds).
    fn begin(&mut self, mode: Mode, line: u32) -> TxResult<()> {
        assert!(
            self.spec.mode == Mode::Plain,
            "nested speculation is not supported"
        );
        self.cur_line = line;
        self.tick(self.domain.costs.xbegin)?; // charged before speculation begins
        let ip = self.cur_ip();
        self.spec.open(mode, self.clock, self.stack.len(), ip);
        Ok(())
    }

    /// Start a hardware transaction. Panics if one is already open.
    pub fn xbegin(&mut self, line: u32) -> TxResult<()> {
        self.begin(Mode::Htm, line)?;
        self.domain.directory.tx_started();
        self.stats.tx_begins += 1;
        obs::count(Counter::TxBegins);
        Ok(())
    }

    /// Commit the open transaction. On a conflict discovered at commit time
    /// the transaction aborts like any other conflict.
    pub fn xend(&mut self, line: u32) -> TxResult<()> {
        assert!(self.in_tx(), "xend without xbegin");
        self.cur_line = line;
        // The commit sequence costs cycles *while the transaction is still
        // open and abortable* — on real TSX a conflicting snoop or a PMI
        // during xend still aborts. Charging this after the commit point
        // would shrink every transaction's conflict window by the commit
        // latency and grossly under-produce conflicts.
        self.tick(self.domain.costs.xend)?;
        if self.domain.directory.doomed(self.tid) != 0 {
            return self.abort_err(AbortClass::Conflict, 0);
        }
        // Sorts the write lines in place: publish ownership is acquired in
        // one global order.
        if !self
            .domain
            .directory
            .begin_commit(self.tid, &mut self.spec.write_lines)
        {
            return self.abort_err(AbortClass::Conflict, 0);
        }
        // Publish the write buffer; conflicting accesses self-abort until
        // end_commit because every write line is flagged as committing.
        let tx = &mut self.spec;
        tx.mode = Mode::Plain;
        for &(addr, val) in &tx.writes {
            self.domain.mem.store(addr, val);
        }
        self.domain
            .directory
            .end_commit(self.tid, &tx.read_lines, &tx.write_lines);
        self.domain.directory.tx_finished();
        self.stats.commits += 1;
        obs::count(Counter::TxCommits);
        if self.pmu.advance(EventKind::TxCommit, 1) {
            let ip = self.cur_ip();
            self.deliver_sample(EventKind::TxCommit, ip, false, false, None, 0, None);
        }
        Ok(())
    }

    /// Explicitly abort the open transaction with an 8-bit code
    /// (`xabort` instruction). No-op outside a transaction, like TSX.
    pub fn xabort(&mut self, line: u32, code: u8) -> TxResult<()> {
        self.cur_line = line;
        if self.in_tx() {
            return self.abort_err(AbortClass::Explicit, code);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Ordinary instructions
    // ------------------------------------------------------------------

    /// Execute `cycles` of pure computation at source `line`.
    ///
    /// Large blocks are charged in scheduler-quantum-sized chunks: a single
    /// bulk advance would cross grant boundaries inside one uninterruptible
    /// op, letting long computations execute atomically in real time and
    /// hiding any transactional claims they hold from concurrent threads.
    pub fn compute(&mut self, line: u32, cycles: u64) -> TxResult<()> {
        self.cur_line = line;
        let chunk = self.domain.quantum.max(8);
        let mut remaining = cycles;
        while remaining > chunk {
            self.tick(chunk)?;
            remaining -= chunk;
        }
        self.tick(remaining)
    }

    /// Load the word at `addr`. Transactional when inside a transaction.
    pub fn load(&mut self, line: u32, addr: Addr) -> TxResult<u64> {
        self.cur_line = line;
        let cost = self.mem_cost(self.domain.costs.load);
        self.tick(cost)?;
        let value = self.read_word(addr)?;
        if self.pmu.advance(EventKind::MemLoad, 1) {
            self.interrupt(EventKind::MemLoad, Some(addr))?;
        }
        Ok(value)
    }

    /// Store `value` to the word at `addr`. Transactional (buffered) inside
    /// a transaction; otherwise a committed store whose coherence snoop
    /// dooms conflicting speculating peers.
    pub fn store(&mut self, line: u32, addr: Addr, value: u64) -> TxResult<()> {
        self.cur_line = line;
        let cost = self.mem_cost(self.domain.costs.store);
        self.tick(cost)?;
        self.write_word(addr, value)?;
        if self.pmu.advance(EventKind::MemStore, 1) {
            self.interrupt(EventKind::MemStore, Some(addr))?;
        }
        Ok(())
    }

    /// Load-modify-store the word at `addr` (convenience for counters).
    /// Returns the *previous* value.
    pub fn rmw(&mut self, line: u32, addr: Addr, f: impl FnOnce(u64) -> u64) -> TxResult<u64> {
        let old = self.load(line, addr)?;
        self.store(line, addr, f(old))?;
        Ok(old)
    }

    /// Compare-and-swap on the word at `addr`. Inside a transaction this is
    /// an ordinary speculative read-modify-write; outside it is an atomic
    /// operation whose store half always snoops (used for the elided lock
    /// word, where a racing `xbegin` must never miss the invalidation).
    ///
    /// Returns `Ok(previous)` on success, `Err(actual)` on mismatch —
    /// wrapped in the usual `TxResult`.
    #[allow(clippy::type_complexity)]
    pub fn cas(
        &mut self,
        line: u32,
        addr: Addr,
        current: u64,
        new: u64,
    ) -> TxResult<Result<u64, u64>> {
        self.cur_line = line;
        self.tick(self.domain.costs.load + self.domain.costs.store)?;
        let result = match self.spec.mode {
            Mode::Plain => {
                let lid = self.domain.geometry.line_of(addr);
                let d = &self.domain;
                let mut result = Err(0);
                d.directory.plain_store(lid, Some(self.tid), true, || {
                    result = d.mem.compare_exchange(addr, current, new);
                });
                result
            }
            Mode::Htm | Mode::Stm => {
                let v = self.read_word(addr)?;
                if v == current {
                    self.write_word(addr, new)?;
                    Ok(v)
                } else {
                    Err(v)
                }
            }
        };
        if self.pmu.advance(EventKind::MemLoad, 1) {
            self.interrupt(EventKind::MemLoad, Some(addr))?;
        }
        if result.is_ok() && self.pmu.advance(EventKind::MemStore, 1) {
            self.interrupt(EventKind::MemStore, Some(addr))?;
        }
        Ok(result)
    }

    /// A plain committed store that always snoops, bypassing the
    /// active-transaction fast path. The RTM runtime uses this for lock
    /// release; cf. [`SimCpu::cas`].
    pub fn store_forced(&mut self, line: u32, addr: Addr, value: u64) -> TxResult<()> {
        self.cur_line = line;
        assert!(
            self.spec.mode == Mode::Plain,
            "store_forced is a non-transactional primitive"
        );
        self.tick(self.domain.costs.store)?;
        let lid = self.domain.geometry.line_of(addr);
        let d = &self.domain;
        d.directory
            .plain_store(lid, Some(self.tid), true, || d.mem.store(addr, value));
        if self.pmu.advance(EventKind::MemStore, 1) {
            self.interrupt(EventKind::MemStore, Some(addr))?;
        }
        Ok(())
    }

    /// Execute a system call: synchronous abort inside a transaction, a
    /// demand for irrevocable execution inside software speculation,
    /// otherwise just expensive.
    pub fn syscall(&mut self, line: u32) -> TxResult<()> {
        self.cur_line = line;
        match self.spec.mode {
            Mode::Plain => self.tick(self.domain.costs.syscall),
            Mode::Htm => self.abort_err(AbortClass::Sync, 0),
            Mode::Stm => {
                // Signal the STM runtime to escalate to irrevocable (serial)
                // execution. The speculative state stays open for
                // [`SimCpu::stm_cancel`].
                let weight = self.clock - self.spec.begin_clock;
                self.last_abort = Some(AbortInfo::new(AbortClass::Sync, 0, weight));
                Err(TxAbort)
            }
        }
    }

    /// Take a page fault: as unfriendly to speculation as a system call,
    /// and outside it costs a syscall's worth of cycles (fault handling).
    pub fn page_fault(&mut self, line: u32) -> TxResult<()> {
        self.syscall(line)
    }

    /// One iteration of a spin-wait loop (cheaper than `compute` and
    /// semantically marked for cost-model ablations).
    pub fn spin(&mut self, line: u32) -> TxResult<()> {
        self.cur_line = line;
        self.tick(self.domain.costs.spin)
    }

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------

    /// Call into `func` from source `line`. Pushes a shadow-stack frame and
    /// records the branch in the LBR.
    pub fn call(&mut self, line: u32, func: FuncId) -> TxResult<()> {
        self.cur_line = line;
        let from = self.cur_ip();
        self.stack.push(Frame {
            func,
            callsite: from,
        });
        self.pmu.record_branch(LbrEntry {
            from,
            to: Ip::new(func, 0),
            kind: BranchKind::Call,
            in_tsx: self.in_tx(),
            abort: false,
        });
        self.cur_line = 0;
        self.tick(self.domain.costs.call)
    }

    /// Return from the current function. Pops the shadow stack and records
    /// the branch; control resumes at the call site.
    pub fn ret(&mut self) -> TxResult<()> {
        let from = self.cur_ip();
        let frame = self.stack.pop().expect("ret with empty shadow stack");
        self.cur_line = frame.callsite.line;
        self.pmu.record_branch(LbrEntry {
            from,
            to: frame.callsite,
            kind: BranchKind::Return,
            in_tsx: self.in_tx(),
            abort: false,
        });
        self.tick(self.domain.costs.ret)
    }

    /// Run `body` as the body of `func` called from `line`: `call`, the
    /// body, then `ret`. If the body aborts (inside a transaction) the
    /// `ret` is skipped — the architectural rollback restores the stack.
    pub fn frame<T>(
        &mut self,
        line: u32,
        func: FuncId,
        body: impl FnOnce(&mut Self) -> TxResult<T>,
    ) -> TxResult<T> {
        self.call(line, func)?;
        let value = body(self)?;
        self.ret()?;
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Memory access by speculation mode
    // ------------------------------------------------------------------

    /// The memory half of a load, in whichever mode the CPU is in.
    fn read_word(&mut self, addr: Addr) -> TxResult<u64> {
        let lid = self.domain.geometry.line_of(addr);
        match self.spec.mode {
            Mode::Plain => self.domain.directory.plain_load(lid),
            Mode::Htm => {
                if let Some(v) = self.spec.buffered(addr) {
                    return Ok(v);
                }
                if !self.spec.tracks(lid, LineUse::Read) {
                    let held = self.spec.read_lines.len();
                    if !self.domain.geometry.admits(LineUse::Read, held, 0) {
                        return self.abort_err(AbortClass::Capacity, 0);
                    }
                    if self.domain.directory.tx_read(lid, self.tid) == Declare::SelfConflict {
                        return self.abort_err(AbortClass::Conflict, 0);
                    }
                    self.spec.track(lid, LineUse::Read);
                }
            }
            Mode::Stm => {
                if let Some(v) = self.spec.buffered(addr) {
                    return Ok(v);
                }
                // The plain-load snoop dooms a speculating HTM writer of
                // the line, exactly like the lock-based fallback's plain
                // reads.
                self.domain.directory.plain_load(lid);
                self.spec.track(lid, LineUse::Read);
            }
        }
        Ok(self.domain.mem.load(addr))
    }

    /// The memory half of a store: a committed store whose coherence snoop
    /// dooms conflicting speculating peers, or a buffered one.
    fn write_word(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        let lid = self.domain.geometry.line_of(addr);
        match self.spec.mode {
            Mode::Plain => {
                let d = &self.domain;
                d.directory
                    .plain_store(lid, Some(self.tid), false, || d.mem.store(addr, value));
                return Ok(());
            }
            Mode::Htm => {
                if !self.spec.tracks(lid, LineUse::Write) {
                    let set = self.domain.geometry.set_of(lid).0 as usize;
                    let held = self.spec.write_lines.len();
                    let set_fill = self.spec.set_fill[set];
                    if !self.domain.geometry.admits(LineUse::Write, held, set_fill) {
                        return self.abort_err(AbortClass::Capacity, 0);
                    }
                    if self.domain.directory.tx_write(lid, self.tid) == Declare::SelfConflict {
                        return self.abort_err(AbortClass::Conflict, 0);
                    }
                    self.spec.set_fill[set] += 1;
                    self.spec.track(lid, LineUse::Write);
                }
            }
            Mode::Stm => self.spec.track(lid, LineUse::Write),
        }
        self.spec.buffer(addr, value);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Software speculation (STM fallback)
    // ------------------------------------------------------------------

    /// Begin software speculation. The body then runs with buffered writes
    /// and read-line tracking; the STM runtime drives the commit protocol
    /// from outside via [`SimCpu::stm_take`]. Unlike `xbegin`, software
    /// speculation survives sampling interrupts.
    pub fn stm_begin(&mut self, line: u32) -> TxResult<()> {
        self.begin(Mode::Stm, line)
    }

    /// Discard the open software transaction and restore the architectural
    /// state (shadow stack, IP) to `stm_begin` — the STM's setjmp-style
    /// restart. Returns the begin IP and the wasted cycles; accounting is
    /// the caller's job (see [`SimCpu::stm_report_abort`]).
    pub fn stm_cancel(&mut self) -> (Ip, u64) {
        assert!(self.stm_active(), "stm_cancel without stm_begin");
        let sw = &mut self.spec;
        sw.mode = Mode::Plain;
        self.stack.truncate(sw.begin_depth);
        self.cur_line = sw.begin_ip.line;
        (sw.begin_ip, self.clock - sw.begin_clock)
    }

    /// Close out a completed software speculation: lend its footprint,
    /// sorted, to the STM commit protocol `protocol`. The CPU is back in
    /// plain (non-speculative) mode while the protocol runs, so its
    /// lock/validate/publish accesses hit memory directly; the footprint's
    /// buffers return to the CPU afterwards for the next speculation.
    pub fn stm_take<R>(
        &mut self,
        line: u32,
        protocol: impl FnOnce(&mut SimCpu, &StmTaken) -> R,
    ) -> R {
        assert!(self.stm_active(), "stm_take without stm_begin");
        let sw = &mut self.spec;
        sw.mode = Mode::Plain;
        self.cur_line = line;
        let mut taken = StmTaken {
            read_lines: std::mem::take(&mut sw.read_lines),
            write_lines: std::mem::take(&mut sw.write_lines),
            writes: std::mem::take(&mut sw.writes),
            begin_ip: sw.begin_ip,
            begin_clock: sw.begin_clock,
        };
        taken.read_lines.sort_unstable();
        taken.write_lines.sort_unstable();
        taken.writes.sort_unstable_by_key(|&(a, _)| a);
        let out = protocol(self, &taken);
        self.spec.read_lines = taken.read_lines;
        self.spec.write_lines = taken.write_lines;
        self.spec.writes = taken.writes;
        out
    }

    /// Record a committed software transaction: ground-truth counter plus a
    /// sampled `TxCommit` event, so STM commits share the HTM commit
    /// accounting in profiles.
    pub fn stm_report_commit(&mut self, line: u32) {
        self.cur_line = line;
        self.stats.stm_commits += 1;
        if self.pmu.advance(EventKind::TxCommit, 1) {
            let ip = self.cur_ip();
            self.deliver_sample(EventKind::TxCommit, ip, false, false, None, 0, None);
        }
    }

    /// Record a software transaction killed by failed commit-time
    /// validation, attributed to the transaction's begin IP with the cycles
    /// wasted since `stm_begin` as the abort weight — mirroring how
    /// hardware attributes `RTM_RETIRED:ABORTED`.
    pub fn stm_report_abort(&mut self, ip: Ip, weight: u64) {
        self.stats.record_abort(AbortClass::Validation, weight);
        self.last_abort = Some(AbortInfo::new(AbortClass::Validation, 0, weight));
        if self.pmu.advance(EventKind::TxAbort, 1) {
            self.deliver_sample(
                EventKind::TxAbort,
                ip,
                false,
                false,
                None,
                weight,
                Some(AbortClass::Validation),
            );
        }
    }
}

impl SimCpu {
    /// Withdraw this CPU from the virtual-time scheduler. Called
    /// automatically on drop; call it earlier if a worker keeps its CPU
    /// alive after finishing simulated work.
    pub fn retire(&mut self) {
        if !self.retired {
            self.retired = true;
            self.domain.scheduler.retire(self.tid);
        }
    }
}

impl Drop for SimCpu {
    fn drop(&mut self) {
        self.retire();
    }
}

impl std::fmt::Debug for SimCpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCpu")
            .field("tid", &self.tid)
            .field("clock", &self.clock)
            .field("in_tx", &self.in_tx())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        // Every field distinct and non-zero, so a field the merge forgot
        // or summed into a neighbour shows.
        let one = CpuStats {
            tx_begins: 1,
            commits: 2,
            aborts_conflict: 3,
            aborts_capacity: 4,
            aborts_sync: 5,
            aborts_explicit: 6,
            aborts_interrupt: 7,
            stm_commits: 8,
            aborts_validation: 9,
            wasted_cycles: 10,
            parks_in_tx: 11,
            parks: 12,
        };
        let mut sum = one;
        sum.merge(&one);
        let doubled = CpuStats {
            tx_begins: 2,
            commits: 4,
            aborts_conflict: 6,
            aborts_capacity: 8,
            aborts_sync: 10,
            aborts_explicit: 12,
            aborts_interrupt: 14,
            stm_commits: 16,
            aborts_validation: 18,
            wasted_cycles: 20,
            parks_in_tx: 22,
            parks: 24,
        };
        assert_eq!(sum, doubled);
    }
}
