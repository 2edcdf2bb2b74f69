//! The shared "machine": memory, cache geometry, conflict directory.

use std::sync::Arc;

use txsim_mem::{CacheGeometry, SimMemory, TxHeap};
use txsim_pmu::{FuncRegistry, SamplingConfig};

use crate::cost::CostModel;
use crate::cpu::SimCpu;
use crate::directory::Directory;
use crate::sched::Scheduler;

/// Configuration for an [`HtmDomain`].
#[derive(Debug, Clone)]
pub struct DomainConfig {
    /// Size of the simulated address space in bytes.
    pub memory_bytes: u64,
    /// Cache geometry used for line mapping and capacity aborts.
    pub geometry: CacheGeometry,
    /// Virtual-cycle cost model.
    pub costs: CostModel,
    /// Interleave worker threads in virtual time (see [`Scheduler`]).
    /// Required for faithful contention whenever more than one simulated
    /// thread runs; off by default so single-host-thread tests can drive
    /// several CPUs sequentially without blocking.
    pub cooperative: bool,
    /// Scheduler quantum in virtual cycles (granularity of interleaving).
    pub quantum: u64,
    /// Symbol table to use. `None` (the default) gives the domain a fresh
    /// private registry; passing a shared one lets long-lived drivers
    /// (e.g. `repro serve`) keep function ids stable across many domains,
    /// so profiles from successive rounds merge coherently.
    pub funcs: Option<FuncRegistry>,
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig {
            memory_bytes: 256 << 20, // 256 MiB of simulated memory
            geometry: CacheGeometry::default(),
            costs: CostModel::default(),
            cooperative: false,
            quantum: 150,
            funcs: None,
        }
    }
}

impl DomainConfig {
    /// Builder: set the simulated memory size.
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Builder: set the cache geometry.
    pub fn with_geometry(mut self, geometry: CacheGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Builder: set the cost model.
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Builder: enable cooperative virtual-time scheduling.
    pub fn cooperative(mut self) -> Self {
        self.cooperative = true;
        self
    }

    /// Builder: share an existing function registry with this domain.
    pub fn with_funcs(mut self, funcs: FuncRegistry) -> Self {
        self.funcs = Some(funcs);
        self
    }
}

/// One simulated machine: a flat memory, its cache geometry, the conflict
/// directory, a shared heap, and the function registry ("symbol table").
///
/// Threads participate by obtaining a [`SimCpu`] from [`HtmDomain::spawn_cpu`]
/// and moving it into their worker thread.
pub struct HtmDomain {
    /// The simulated flat memory.
    pub mem: SimMemory,
    /// Cache geometry for line mapping and capacity modelling.
    pub geometry: CacheGeometry,
    /// Virtual-cycle costs.
    pub costs: CostModel,
    /// Scheduler quantum (virtual-time interleaving granularity).
    pub quantum: u64,
    /// Shared allocator over the simulated memory.
    pub heap: TxHeap,
    /// The simulated program's symbol table.
    pub funcs: FuncRegistry,
    pub(crate) directory: Directory,
    pub(crate) scheduler: Scheduler,
}

impl HtmDomain {
    /// Create a machine from a configuration.
    pub fn new(config: DomainConfig) -> Arc<Self> {
        Arc::new(HtmDomain {
            mem: SimMemory::new(config.memory_bytes),
            geometry: config.geometry,
            costs: config.costs,
            quantum: config.quantum,
            heap: TxHeap::new(0, config.memory_bytes),
            funcs: config.funcs.unwrap_or_default(),
            directory: Directory::new(),
            scheduler: Scheduler::new(config.cooperative, config.quantum),
        })
    }

    /// Create a machine with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        HtmDomain::new(DomainConfig::default())
    }

    /// Create a CPU bound to this domain. Each worker thread owns one.
    pub fn spawn_cpu(self: &Arc<Self>, sampling: SamplingConfig) -> SimCpu {
        let tid = self.directory.register_thread();
        self.scheduler.register(tid, 0);
        SimCpu::new(Arc::clone(self), tid, sampling)
    }

    /// Diagnostic: total dooms issued by the conflict directory.
    pub fn dooms(&self) -> u64 {
        self.directory
            .dooms
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Diagnostic: scheduler sync calls so far.
    pub fn scheduler_syncs(&self) -> u64 {
        self.scheduler
            .syncs
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Diagnostic: scheduler sync calls that blocked.
    pub fn scheduler_blocks(&self) -> u64 {
        self.scheduler
            .blocks
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Diagnostic: scheduler blocks that fell through to an OS park.
    pub fn scheduler_parks(&self) -> u64 {
        self.scheduler
            .parks
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of cache lines currently tracked by the conflict directory.
    /// Useful for asserting the directory drains after quiescence.
    pub fn tracked_lines(&self) -> usize {
        self.directory.tracked_lines()
    }
}

impl std::fmt::Debug for HtmDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmDomain")
            .field("mem", &self.mem)
            .field("geometry", &self.geometry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_distinct_tids() {
        let domain = HtmDomain::with_defaults();
        let a = domain.spawn_cpu(SamplingConfig::disabled());
        let b = domain.spawn_cpu(SamplingConfig::disabled());
        assert_ne!(a.tid(), b.tid());
    }

    #[test]
    fn heap_and_memory_share_the_address_space() {
        let domain = HtmDomain::new(DomainConfig::default().with_memory(1 << 20));
        let addr = domain.heap.alloc_words(4);
        domain.mem.store(addr, 17);
        assert_eq!(domain.mem.load(addr), 17);
    }
}
