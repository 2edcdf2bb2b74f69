//! Per-context metrics: raw sample counts and the derived quantities of
//! the paper's time analysis (§4) and abort analysis (§5).

use txsim_pmu::AbortClass;

rtm_runtime::counter_fields! {
    /// Raw sampled metrics accumulated on one calling-context node
    /// (exclusive — attributed at the sample's leaf; inclusive values are
    /// computed by the analyzer by summing subtrees). Declaration order is
    /// the store's metric-record order: new counters go at the end.
    pub struct Metrics {
        /// Cycles samples anywhere (work W, Equation 1).
        pub w,
        /// Cycles samples inside critical sections (T).
        pub t,
        /// … attributed to the transactional path (T_tx).
        pub t_tx,
        /// … attributed to the fallback path (T_fb).
        pub t_fb,
        /// … attributed to lock waiting (T_wait).
        pub t_wait,
        /// … attributed to transaction overhead (T_oh).
        pub t_oh,
        /// `RTM_RETIRED:COMMIT` samples.
        pub commit_samples,
        /// `RTM_RETIRED:ABORTED` samples, application-caused classes only.
        pub abort_samples,
        /// Sampled abort weight (cycles wasted), total.
        pub abort_weight,
        /// Abort samples per class.
        pub aborts_conflict,
        /// Capacity-class abort samples.
        pub aborts_capacity,
        /// Synchronous-class abort samples.
        pub aborts_sync,
        /// Explicit-class abort samples (lock-held elision aborts etc.).
        pub aborts_explicit,
        /// Sampled abort weight per class.
        pub conflict_weight,
        /// Weight of capacity-class aborts.
        pub capacity_weight,
        /// Weight of synchronous-class aborts.
        pub sync_weight,
        /// Sampled memory accesses diagnosed as true sharing (§3.3).
        pub true_sharing,
        /// Sampled memory accesses diagnosed as false sharing (§3.3).
        pub false_sharing,
        /// … of `t_fb`: cycles on the fallback path spent speculating in
        /// *software* (TL2 STM backend). The remainder of `t_fb` ran
        /// serially under the lock.
        pub t_fb_stm,
        /// Validation-class abort samples (STM commit-time read-set
        /// failures).
        pub aborts_validation,
        /// Weight of validation-class aborts.
        pub validation_weight,
    }
}

impl Metrics {
    /// Average weight per sampled abort — the penalty metric w_t of
    /// Equation 3. `None` when no aborts were sampled.
    pub fn avg_abort_weight(&self) -> Option<f64> {
        if self.abort_samples == 0 {
            None
        } else {
            Some(self.abort_weight as f64 / self.abort_samples as f64)
        }
    }

    /// Share of abort weight due to conflicts — r_conflict of Equation 4.
    pub fn r_conflict(&self) -> f64 {
        ratio(self.conflict_weight, self.abort_weight)
    }

    /// Share of abort weight due to capacity overflow (r_capacity).
    pub fn r_capacity(&self) -> f64 {
        ratio(self.capacity_weight, self.abort_weight)
    }

    /// Share of abort weight due to synchronous aborts (r_synchronous).
    pub fn r_sync(&self) -> f64 {
        ratio(self.sync_weight, self.abort_weight)
    }

    /// Share of abort weight due to STM validation failures (r_validation;
    /// zero except under the `stm` fallback backend).
    pub fn r_validation(&self) -> f64 {
        ratio(self.validation_weight, self.abort_weight)
    }

    /// Share of fallback time spent as software transactions — `0` under
    /// the lock backend, approaching `1` when the STM absorbs the whole
    /// slow path.
    pub fn stm_fallback_share(&self) -> f64 {
        ratio(self.t_fb_stm, self.t_fb)
    }

    /// Sampled abort/commit ratio (r_a/c, Figure 8). Events are sampled with
    /// the same period so the sample-count ratio estimates the event ratio.
    pub fn abort_commit_ratio(&self) -> f64 {
        if self.commit_samples == 0 {
            if self.abort_samples == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.abort_samples as f64 / self.commit_samples as f64
        }
    }

    /// The critical-section duration ratio r_cs = T/W (Figure 8).
    pub fn r_cs(&self) -> f64 {
        ratio(self.t, self.w)
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-site fallback-backend activity; declared beside the other per-site
/// families in [`rtm_runtime::site_record`].
pub use rtm_runtime::BackendMix;

/// Which timing component a cycles sample belongs to — the output of the
/// paper's Figure 4 attribution algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeComponent {
    /// Outside any critical section (S in Equation 1).
    Outside,
    /// Transactional path.
    Tx,
    /// Fallback path (serial, under the lock).
    Fallback,
    /// Fallback path, speculating as a *software* transaction (TL2 STM
    /// backend). A sub-flavor of `Fallback`: contributes to `t_fb` too, so
    /// the five-way time breakdown of Equation 2 is unchanged.
    FallbackStm,
    /// Lock waiting.
    LockWaiting,
    /// Transaction overhead.
    Overhead,
}

impl Metrics {
    /// Account one sampled abort of application class `class` carrying
    /// `weight` wasted cycles. Runs once per abort sample.
    pub fn add_abort_sample(&mut self, class: AbortClass, weight: u64) {
        self.abort_samples += 1;
        self.abort_weight += weight;
        let (count, class_weight) = self.class_fields(class);
        *count += 1;
        if let Some(class_weight) = class_weight {
            *class_weight += weight;
        }
    }

    /// Sampled aborts of application class `class` and, for a class that
    /// carries one, their weight.
    pub(crate) fn class_samples(&self, class: AbortClass) -> (u64, Option<u64>) {
        // Read through a copy so the class-to-field map stays one `match`.
        let mut m = *self;
        let (count, weight) = m.class_fields(class);
        (*count, weight.map(|w| *w))
    }

    /// The counters of an application abort class: its count and, unless
    /// it is `Explicit`, its weight. A `match`, not a table of function
    /// pointers: the collector books through it once per abort sample.
    fn class_fields(&mut self, class: AbortClass) -> (&mut u64, Option<&mut u64>) {
        match class {
            AbortClass::Conflict => (&mut self.aborts_conflict, Some(&mut self.conflict_weight)),
            AbortClass::Capacity => (&mut self.aborts_capacity, Some(&mut self.capacity_weight)),
            AbortClass::Sync => (&mut self.aborts_sync, Some(&mut self.sync_weight)),
            AbortClass::Explicit => (&mut self.aborts_explicit, None),
            AbortClass::Validation => (
                &mut self.aborts_validation,
                Some(&mut self.validation_weight),
            ),
            AbortClass::Interrupt => unreachable!("interrupt aborts are discounted, never booked"),
        }
    }

    /// Account one cycles sample for `component`.
    pub fn add_cycles_sample(&mut self, component: TimeComponent) {
        self.w += 1;
        match component {
            TimeComponent::Outside => {}
            TimeComponent::Tx => {
                self.t += 1;
                self.t_tx += 1;
            }
            TimeComponent::Fallback => {
                self.t += 1;
                self.t_fb += 1;
            }
            TimeComponent::FallbackStm => {
                self.t += 1;
                self.t_fb += 1;
                self.t_fb_stm += 1;
            }
            TimeComponent::LockWaiting => {
                self.t += 1;
                self.t_wait += 1;
            }
            TimeComponent::Overhead => {
                self.t += 1;
                self.t_oh += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_sample_components() {
        let mut m = Metrics::default();
        m.add_cycles_sample(TimeComponent::Outside);
        m.add_cycles_sample(TimeComponent::Tx);
        m.add_cycles_sample(TimeComponent::Fallback);
        m.add_cycles_sample(TimeComponent::LockWaiting);
        m.add_cycles_sample(TimeComponent::Overhead);
        assert_eq!(m.w, 5);
        assert_eq!(m.t, 4);
        assert_eq!((m.t_tx, m.t_fb, m.t_wait, m.t_oh), (1, 1, 1, 1));
        // Equation 1 and 2 hold by construction.
        assert_eq!(m.w, m.t + 1);
        assert_eq!(m.t, m.t_tx + m.t_fb + m.t_wait + m.t_oh);
        assert!((m.r_cs() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn stm_fallback_is_a_sub_flavor_of_fallback() {
        let mut m = Metrics::default();
        m.add_cycles_sample(TimeComponent::Fallback);
        m.add_cycles_sample(TimeComponent::FallbackStm);
        assert_eq!(m.t_fb, 2, "STM cycles still count as fallback");
        assert_eq!(m.t_fb_stm, 1);
        // Equation 2's five-way decomposition is unaffected.
        assert_eq!(m.t, m.t_tx + m.t_fb + m.t_wait + m.t_oh);
        assert!((m.stm_fallback_share() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fields_follow_the_store_record_order() {
        assert_eq!(Metrics::ARITY, 21);
        let mut fields = [0u64; Metrics::ARITY];
        for (i, f) in fields.iter_mut().enumerate() {
            *f = i as u64 + 1;
        }
        let m = Metrics::from_fields(fields);
        assert_eq!((m.w, m.t_oh, m.false_sharing), (1, 6, 18));
        assert_eq!((m.t_fb_stm, m.validation_weight), (19, 21));
        assert_eq!(m.to_fields(), fields);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = Metrics {
            w: 1,
            abort_weight: 10,
            aborts_conflict: 1,
            conflict_weight: 10,
            abort_samples: 1,
            ..Metrics::default()
        };
        let b = Metrics {
            w: 2,
            abort_weight: 30,
            aborts_capacity: 1,
            capacity_weight: 30,
            abort_samples: 1,
            ..Metrics::default()
        };
        a.merge(&b);
        assert_eq!(a.w, 3);
        assert_eq!(a.abort_weight, 40);
        assert_eq!(a.avg_abort_weight(), Some(20.0));
        assert!((a.r_conflict() - 0.25).abs() < 1e-9);
        assert!((a.r_capacity() - 0.75).abs() < 1e-9);
        assert_eq!(a.r_sync(), 0.0);
    }

    #[test]
    fn minus_is_the_window_between_snapshots() {
        let mut earlier = Metrics::default();
        earlier.add_cycles_sample(TimeComponent::Tx);
        earlier.abort_samples = 2;
        earlier.abort_weight = 100;
        let mut later = earlier;
        later.add_cycles_sample(TimeComponent::LockWaiting);
        later.add_cycles_sample(TimeComponent::Outside);
        later.abort_samples = 5;
        later.abort_weight = 170;
        let window = later.minus(&earlier);
        assert_eq!(window.w, 2);
        assert_eq!(window.t_wait, 1);
        assert_eq!(window.t_tx, 0);
        assert_eq!(window.abort_samples, 3);
        assert_eq!(window.abort_weight, 70);
        // Differencing against a newer snapshot saturates to zero instead
        // of wrapping.
        assert!(earlier.minus(&later).is_zero());
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let m = Metrics::default();
        assert_eq!(m.avg_abort_weight(), None);
        assert_eq!(m.r_conflict(), 0.0);
        assert_eq!(m.abort_commit_ratio(), 0.0);
        assert_eq!(m.r_cs(), 0.0);
        let m = Metrics {
            abort_samples: 3,
            ..Metrics::default()
        };
        assert!(m.abort_commit_ratio().is_infinite());
    }
}
