//! Per-site contention-management counters.
//!
//! Every intervention a [`txstm::cm::ContentionManager`] makes — a yield at
//! begin, a stall instead of backoff, an escalation to the exclusive gate, a
//! priority abort — is booked here against the critical-section site that
//! paid for it. The table is thread-private (the runtime's usual rule: the
//! hot path writes no shared cache line) and drained by profiling harnesses
//! via [`CmTable::take_delta`], exactly like the site histograms.
//!
//! Interventions only happen on the contended slow path (a failed commit or
//! a non-empty karma board) — exactly where the runtime must not allocate —
//! so the table is the same fixed-capacity [`SiteSlots`] the other per-site
//! tables sit on: a site that cannot be seated is counted, not booked.

use txsim_htm::Ip;

use crate::slots::SiteSlots;

/// Per-site slots a [`CmTable`] holds (thread-private; interventions at
/// sites beyond the capacity are counted in [`CmTable::overflowed`]).
pub const CM_SITE_CAPACITY: usize = 64;

crate::counter_fields! {
    /// Contention-management interventions at one site. The counters mirror
    /// the [`txstm::cm`] hook contract: `yields` and `stalls` are waiting the
    /// policy injected, `escalations` are forced serial commits,
    /// `priority_aborts` are aborts attributed to losing karma arbitration.
    pub struct CmStats {
        /// Begin-time deferrals to a higher-karma peer.
        pub yields,
        /// Brief fixed stalls taken (by the top-karma transaction) instead
        /// of exponential backoff.
        pub stalls,
        /// Escalations to the exclusive gate (forced/irrevocable commits)
        /// the policy decided — including the backoff policy's
        /// `max_attempts` escape hatch.
        pub escalations,
        /// Aborts a transaction took because a higher-karma peer had
        /// priority.
        pub priority_aborts,
    }
}

impl CmStats {
    /// Total interventions of any kind.
    pub fn total(&self) -> u64 {
        self.yields + self.stalls + self.escalations + self.priority_aborts
    }

    /// Book one event.
    pub fn note(&mut self, event: CmEvent) {
        match event {
            CmEvent::Yield => self.yields += 1,
            CmEvent::Stall => self.stalls += 1,
            CmEvent::Escalation => self.escalations += 1,
            CmEvent::PriorityAbort => self.priority_aborts += 1,
        }
    }
}

/// One contention-management intervention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmEvent {
    /// Deferred at begin to a higher-karma peer.
    Yield,
    /// Stalled briefly instead of backing off.
    Stall,
    /// Escalated to the exclusive gate.
    Escalation,
    /// Aborted in deference to a higher-karma peer.
    PriorityAbort,
}

impl From<txstm::cm::CmIntervention> for CmEvent {
    fn from(iv: txstm::cm::CmIntervention) -> CmEvent {
        match iv {
            txstm::cm::CmIntervention::Yielded => CmEvent::Yield,
            txstm::cm::CmIntervention::Stalled => CmEvent::Stall,
        }
    }
}

/// Thread-private per-site CM counter table.
#[derive(Debug)]
pub struct CmTable {
    slots: SiteSlots<CmStats>,
}

impl CmTable {
    /// An empty table with [`CM_SITE_CAPACITY`] slots.
    pub fn new() -> CmTable {
        CmTable {
            slots: SiteSlots::new(CM_SITE_CAPACITY),
        }
    }

    /// Book `event` against `site`.
    pub fn note(&mut self, site: Ip, event: CmEvent) {
        if let Some(stats) = self.slots.seat(site, CmStats::default) {
            stats.note(event);
        }
    }

    /// This site's counters, if any intervention was booked there since
    /// the last drain.
    pub fn get(&self, site: Ip) -> Option<&CmStats> {
        self.slots.get(site).filter(|s| !s.is_zero())
    }

    /// Whether no intervention was booked since the last drain.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|(_, s)| s.is_zero())
    }

    /// Interventions at sites the full table could not seat.
    pub fn overflowed(&self) -> u64 {
        self.slots.overflowed()
    }

    /// Drain everything accumulated since the last call (the harness folds
    /// the delta into the run profile).
    pub fn take_delta(&mut self) -> Vec<(Ip, CmStats)> {
        self.slots
            .drain(|site, s| (!s.is_zero()).then(|| (site, std::mem::take(s))))
    }
}

impl Default for CmTable {
    fn default() -> Self {
        CmTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(line: u32) -> Ip {
        Ip::new(txsim_htm::FuncId(7), line)
    }

    #[test]
    fn note_merge_minus_round_trip() {
        let mut t = CmTable::new();
        assert!(t.is_empty());
        t.note(site(1), CmEvent::Yield);
        t.note(site(1), CmEvent::Stall);
        t.note(site(1), CmEvent::Stall);
        t.note(site(2), CmEvent::Escalation);
        t.note(site(2), CmEvent::PriorityAbort);
        let s1 = *t.get(site(1)).unwrap();
        assert_eq!((s1.yields, s1.stalls), (1, 2));
        assert_eq!(s1.total(), 3);

        let mut merged = CmStats::default();
        for (_, s) in t.take_delta() {
            merged.merge(&s);
        }
        assert!(t.is_empty(), "take_delta drains");
        assert_eq!(merged.total(), 5);
        let older = CmStats {
            yields: 1,
            ..CmStats::default()
        };
        assert_eq!(merged.minus(&older).yields, 0);
        assert_eq!(merged.minus(&older).stalls, 2);
        assert!(CmStats::default().is_zero());
    }

    #[test]
    fn overflow_is_counted_and_seated_sites_stay_intact() {
        let mut t = CmTable::new();
        for line in 0..CM_SITE_CAPACITY as u32 + 1 {
            t.note(site(line), CmEvent::Yield);
            t.note(site(line), CmEvent::Stall);
        }
        assert_eq!(t.overflowed(), 2, "both events at the unseated site");
        assert!(t.get(site(CM_SITE_CAPACITY as u32)).is_none());
        let delta = t.take_delta();
        assert_eq!(delta.len(), CM_SITE_CAPACITY);
        for line in 0..CM_SITE_CAPACITY as u32 {
            let (_, s) = delta.iter().find(|(ip, _)| *ip == site(line)).unwrap();
            assert_eq!((s.yields, s.stalls, s.total()), (1, 1, 2));
        }
    }
}
