//! The per-thread simulated CPU.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use obs::Counter;
use txsim_mem::{Addr, LineId};
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

/// Speculative state of an open transaction.
struct TxState {
    /// Lines in the transactional read set.
    read_lines: HashSet<u64>,
    /// Lines in the transactional write set.
    write_lines: HashSet<u64>,
    /// Buffered speculative stores (addr → value).
    wbuf: HashMap<Addr, u64>,
    /// Write lines per cache set, for associativity-overflow capacity aborts.
    set_ways: HashMap<u32, u32>,
    /// Clock at `xbegin` (abort weight = now − this).
    begin_clock: u64,
    /// Shadow-stack depth at `xbegin`; rollback truncates to it.
    begin_depth: usize,
    /// The `xbegin` IP — where control lands after an abort.
    begin_ip: Ip,
}

/// Software-speculation state (the STM fallback's read/write tracking).
///
/// Unlike [`TxState`] this claims nothing in the conflict directory and has
/// no capacity limits: reads go through as plain loads (recording the line),
/// writes are buffered and invisible until the STM's commit protocol
/// publishes them. Interrupts do not abort software speculation.
struct SwTx {
    /// Lines read (raw [`LineId`] values), for commit-time validation.
    read_lines: HashSet<u64>,
    /// Lines written, for commit-time lock acquisition.
    write_lines: HashSet<u64>,
    /// Buffered speculative stores (addr → value).
    wbuf: HashMap<Addr, u64>,
    /// Clock at `stm_begin` (abort weight = now − this).
    begin_clock: u64,
    /// Shadow-stack depth at `stm_begin`; an STM restart truncates to it.
    begin_depth: usize,
    /// The `stm_begin` IP — abort samples are attributed here, like HTM's
    /// `xbegin` IP.
    begin_ip: Ip,
}

/// The speculative footprint handed to the STM's commit protocol by
/// [`SimCpu::stm_take`]: everything TL2 needs to lock, validate and publish,
/// plus the attribution info for a failure.
pub struct StmTaken {
    /// Lines read (raw `LineId` values), sorted.
    pub read_lines: Vec<u64>,
    /// Lines written (raw `LineId` values), sorted.
    pub write_lines: Vec<u64>,
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
    tx: Option<TxState>,
    sw: Option<SwTx>,
    last_abort: Option<AbortInfo>,
    stats: CpuStats,
}

impl SimCpu {
    pub(crate) fn new(domain: Arc<HtmDomain>, tid: usize, sampling: SamplingConfig) -> Self {
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
            tx: None,
            sw: None,
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
        self.tx.is_some()
    }

    /// Whether a *software* transaction (STM fallback speculation) is open.
    #[inline]
    pub fn stm_active(&self) -> bool {
        self.sw.is_some()
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
        if self.tx.is_some() && self.domain.directory.doomed(self.tid) != 0 {
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
            if self.tx.is_some() {
                self.stats.parks_in_tx += 1;
            }
            self.allowed_until = self.domain.scheduler.sync(self.tid, self.clock);
            if self.tx.is_some() && self.domain.directory.doomed(self.tid) != 0 {
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
        let was_in_tx = self.tx.is_some();
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
            ..
        } = self;
        if let Some(sink) = sink {
            obs::count(Counter::SamplesTaken);
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
                lbr: pmu.lbr().snapshot(),
            };
            sink.on_sample(&sample, stack);
        }
    }

    // ------------------------------------------------------------------
    // Abort machinery
    // ------------------------------------------------------------------

    /// Architectural abort: discard speculation, release directory state,
    /// roll the stack and IP back to `xbegin`, record the LBR abort branch,
    /// count the PMU abort event (possibly sampling it).
    fn abort_rollback(&mut self, class: AbortClass, code: u8) {
        let tx = self
            .tx
            .take()
            .expect("abort_rollback outside a transaction");
        let weight = self.clock - tx.begin_clock;
        let abort_from = self.cur_ip();

        let read: Vec<LineId> = tx.read_lines.iter().map(|&l| LineId(l)).collect();
        let write: Vec<LineId> = tx.write_lines.iter().map(|&l| LineId(l)).collect();
        self.domain
            .directory
            .release_aborted(self.tid, &read, &write);
        self.domain.directory.tx_finished();

        // Roll back the architectural state: stack depth and IP return to
        // the xbegin point. This is why a profiler's signal handler cannot
        // see in-transaction frames (paper §3.4).
        self.stack.truncate(tx.begin_depth);
        self.cur_line = tx.begin_ip.line;

        self.pmu.record_branch(LbrEntry {
            from: abort_from,
            to: tx.begin_ip,
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
                tx.begin_ip,
                false,
                false,
                None,
                weight,
                Some(class),
            );
        }
        if cycles_overflow {
            self.deliver_sample(EventKind::Cycles, tx.begin_ip, false, false, None, 0, None);
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

    /// Start a hardware transaction. Panics if one is already open
    /// (TSX flattens nests; the runtime above never creates them).
    pub fn xbegin(&mut self, line: u32) -> TxResult<()> {
        assert!(self.tx.is_none(), "nested transactions are not supported");
        assert!(
            self.sw.is_none(),
            "hardware transaction inside software speculation"
        );
        self.cur_line = line;
        self.tick(self.domain.costs.xbegin)?; // charged before speculation begins
        self.domain.directory.tx_started();
        self.tx = Some(TxState {
            read_lines: HashSet::new(),
            write_lines: HashSet::new(),
            wbuf: HashMap::new(),
            set_ways: HashMap::new(),
            begin_clock: self.clock,
            begin_depth: self.stack.len(),
            begin_ip: Ip::new(self.stack.last().map_or(FuncId::UNKNOWN, |f| f.func), line),
        });
        self.stats.tx_begins += 1;
        obs::count(Counter::TxBegins);
        Ok(())
    }

    /// Commit the open transaction. On a conflict discovered at commit time
    /// the transaction aborts like any other conflict.
    pub fn xend(&mut self, line: u32) -> TxResult<()> {
        assert!(self.tx.is_some(), "xend without xbegin");
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
        let mut write_lines: Vec<LineId> = {
            let tx = self.tx.as_ref().unwrap();
            tx.write_lines.iter().map(|&l| LineId(l)).collect()
        };
        if !self
            .domain
            .directory
            .begin_commit(self.tid, &mut write_lines)
        {
            return self.abort_err(AbortClass::Conflict, 0);
        }
        // Publish the write buffer; conflicting accesses self-abort until
        // end_commit because every write line is flagged as committing.
        let tx = self.tx.take().unwrap();
        for (&addr, &val) in &tx.wbuf {
            self.domain.mem.store(addr, val);
        }
        let read_lines: Vec<LineId> = tx.read_lines.iter().map(|&l| LineId(l)).collect();
        self.domain
            .directory
            .end_commit(self.tid, &read_lines, &write_lines);
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
        if self.tx.is_some() {
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
        let value = if self.tx.is_some() {
            self.tx_load(addr)?
        } else if self.sw.is_some() {
            self.sw_load(addr)
        } else {
            let lid = self.domain.geometry.line_of(addr);
            self.domain.directory.plain_load(lid);
            self.domain.mem.load(addr)
        };
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
        if self.tx.is_some() {
            self.tx_store(addr, value)?;
        } else if self.sw.is_some() {
            self.sw_store(addr, value);
        } else {
            let lid = self.domain.geometry.line_of(addr);
            let d = &self.domain;
            d.directory
                .plain_store(lid, Some(self.tid), false, || d.mem.store(addr, value));
        }
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
        let result = if self.tx.is_some() {
            let v = self.tx_load(addr)?;
            if v == current {
                self.tx_store(addr, new)?;
                Ok(v)
            } else {
                Err(v)
            }
        } else if self.sw.is_some() {
            let v = self.sw_load(addr);
            if v == current {
                self.sw_store(addr, new);
                Ok(v)
            } else {
                Err(v)
            }
        } else {
            let lid = self.domain.geometry.line_of(addr);
            let d = &self.domain;
            let mut result = Err(0);
            d.directory.plain_store(lid, Some(self.tid), true, || {
                result = d.mem.compare_exchange(addr, current, new);
            });
            result
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
            self.tx.is_none() && self.sw.is_none(),
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

    /// Execute a system call: synchronous abort inside a transaction,
    /// otherwise just expensive.
    pub fn syscall(&mut self, line: u32) -> TxResult<()> {
        self.cur_line = line;
        if self.tx.is_some() {
            return self.abort_err(AbortClass::Sync, 0);
        }
        if self.sw.is_some() {
            return self.sw_irrevocable();
        }
        self.tick(self.domain.costs.syscall)
    }

    /// Take a page fault: synchronous abort inside a transaction,
    /// otherwise costs a syscall's worth of cycles (fault handling).
    pub fn page_fault(&mut self, line: u32) -> TxResult<()> {
        self.cur_line = line;
        if self.tx.is_some() {
            return self.abort_err(AbortClass::Sync, 0);
        }
        if self.sw.is_some() {
            return self.sw_irrevocable();
        }
        self.tick(self.domain.costs.syscall)
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
            in_tsx: self.tx.is_some(),
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
            in_tsx: self.tx.is_some(),
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
    // Transactional access internals
    // ------------------------------------------------------------------

    fn tx_load(&mut self, addr: Addr) -> TxResult<u64> {
        if let Some(tx) = self.tx.as_ref() {
            if let Some(&v) = tx.wbuf.get(&addr) {
                return Ok(v);
            }
        }
        let lid = self.domain.geometry.line_of(addr);
        let need_declare = !self.tx.as_ref().unwrap().read_lines.contains(&lid.0);
        if need_declare {
            let over_budget = self.tx.as_ref().unwrap().read_lines.len()
                >= self.domain.geometry.read_set_lines as usize;
            if over_budget {
                return self.abort_err(AbortClass::Capacity, 0);
            }
            match self.domain.directory.tx_read(lid, self.tid) {
                Declare::Ok => {
                    self.tx.as_mut().unwrap().read_lines.insert(lid.0);
                }
                Declare::SelfConflict => {
                    return self.abort_err(AbortClass::Conflict, 0);
                }
            }
        }
        Ok(self.domain.mem.load(addr))
    }

    fn tx_store(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        let lid = self.domain.geometry.line_of(addr);
        let need_declare = !self.tx.as_ref().unwrap().write_lines.contains(&lid.0);
        if need_declare {
            let geometry = self.domain.geometry;
            let set = geometry.set_of(lid).0;
            let over_capacity = {
                let tx = self.tx.as_ref().unwrap();
                tx.set_ways.get(&set).copied().unwrap_or(0) >= geometry.ways
                    || tx.write_lines.len() >= geometry.total_lines() as usize
            };
            if over_capacity {
                return self.abort_err(AbortClass::Capacity, 0);
            }
            match self.domain.directory.tx_write(lid, self.tid) {
                Declare::Ok => {
                    let tx = self.tx.as_mut().unwrap();
                    *tx.set_ways.entry(set).or_insert(0) += 1;
                    tx.write_lines.insert(lid.0);
                }
                Declare::SelfConflict => {
                    return self.abort_err(AbortClass::Conflict, 0);
                }
            }
        }
        self.tx.as_mut().unwrap().wbuf.insert(addr, value);
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
        assert!(
            self.tx.is_none(),
            "software speculation inside a hardware transaction"
        );
        assert!(
            self.sw.is_none(),
            "nested software transactions are not supported"
        );
        self.cur_line = line;
        self.tick(self.domain.costs.xbegin)?;
        self.sw = Some(SwTx {
            read_lines: HashSet::new(),
            write_lines: HashSet::new(),
            wbuf: HashMap::new(),
            begin_clock: self.clock,
            begin_depth: self.stack.len(),
            begin_ip: Ip::new(self.stack.last().map_or(FuncId::UNKNOWN, |f| f.func), line),
        });
        Ok(())
    }

    /// Discard the open software transaction and restore the architectural
    /// state (shadow stack, IP) to `stm_begin` — the STM's setjmp-style
    /// restart. Returns the begin IP and the wasted cycles; accounting is
    /// the caller's job (see [`SimCpu::stm_report_abort`]).
    pub fn stm_cancel(&mut self) -> (Ip, u64) {
        let sw = self.sw.take().expect("stm_cancel without stm_begin");
        self.stack.truncate(sw.begin_depth);
        self.cur_line = sw.begin_ip.line;
        (sw.begin_ip, self.clock - sw.begin_clock)
    }

    /// Close out a completed software speculation: hand its footprint to
    /// the STM commit protocol. After this call the CPU is back in plain
    /// (non-speculative) mode, so the protocol's lock/validate/publish
    /// accesses hit memory directly.
    pub fn stm_take(&mut self, line: u32) -> StmTaken {
        let sw = self.sw.take().expect("stm_take without stm_begin");
        self.cur_line = line;
        let mut read_lines: Vec<u64> = sw.read_lines.into_iter().collect();
        let mut write_lines: Vec<u64> = sw.write_lines.into_iter().collect();
        let mut writes: Vec<(Addr, u64)> = sw.wbuf.into_iter().collect();
        read_lines.sort_unstable();
        write_lines.sort_unstable();
        writes.sort_unstable_by_key(|&(a, _)| a);
        StmTaken {
            read_lines,
            write_lines,
            writes,
            begin_ip: sw.begin_ip,
            begin_clock: sw.begin_clock,
        }
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

    /// An HTM-unfriendly instruction inside software speculation: signal
    /// the STM runtime to escalate to irrevocable (serial) execution. The
    /// speculative state stays open for [`SimCpu::stm_cancel`].
    fn sw_irrevocable(&mut self) -> TxResult<()> {
        let sw = self.sw.as_ref().expect("sw_irrevocable outside sw mode");
        let weight = self.clock - sw.begin_clock;
        self.last_abort = Some(AbortInfo::new(AbortClass::Sync, 0, weight));
        Err(TxAbort)
    }

    fn sw_load(&mut self, addr: Addr) -> u64 {
        if let Some(&v) = self.sw.as_ref().unwrap().wbuf.get(&addr) {
            return v;
        }
        let lid = self.domain.geometry.line_of(addr);
        // The plain-load snoop dooms a speculating HTM writer of the line,
        // exactly like the lock-based fallback's plain reads.
        self.domain.directory.plain_load(lid);
        self.sw.as_mut().unwrap().read_lines.insert(lid.0);
        self.domain.mem.load(addr)
    }

    fn sw_store(&mut self, addr: Addr, value: u64) {
        let lid = self.domain.geometry.line_of(addr);
        let sw = self.sw.as_mut().unwrap();
        sw.write_lines.insert(lid.0);
        sw.wbuf.insert(addr, value);
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
