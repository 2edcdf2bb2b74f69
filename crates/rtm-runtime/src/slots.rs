//! The one fixed-capacity per-site table behind [`crate::SiteTable`],
//! [`crate::HistTable`] and [`crate::CmTable`].
//!
//! All three are thread-private tables keyed by critical-section site and
//! written from the runtime's abort and completion paths, so they share
//! the constraints that shaped the first of them: only the owning thread
//! touches a table (no shared cache line is written), nothing is allocated
//! after construction (Dice et al. show allocator activity near
//! transactions moves abort behaviour by integer factors — the contended
//! slow path is exactly where the runtime must not call `malloc`), and a
//! site that cannot be seated is *counted*, never silently dropped.

use txsim_htm::Ip;

/// Thread-private, fixed-capacity, open-addressed map from site to `V`.
#[derive(Debug)]
pub struct SiteSlots<V> {
    slots: Box<[Option<(Ip, V)>]>,
    /// Seating attempts refused because every slot was taken.
    overflow: u64,
}

impl<V> SiteSlots<V> {
    /// A live table of `capacity` slots (a power of two, so probing is a
    /// mask rather than a division). The only allocation the table makes.
    pub fn new(capacity: usize) -> SiteSlots<V> {
        assert!(capacity.is_power_of_two(), "probing masks by capacity - 1");
        SiteSlots {
            slots: (0..capacity).map(|_| None).collect(),
            overflow: 0,
        }
    }

    /// The zero-capacity table: holds nothing, allocates nothing, and
    /// answers every lookup or seating with `None` after one branch.
    pub fn detached() -> SiteSlots<V> {
        SiteSlots {
            slots: Box::new([]),
            overflow: 0,
        }
    }

    /// Whether this is the zero-capacity table.
    #[inline]
    pub fn is_detached(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot capacity, fixed for the table's lifetime.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Seating attempts refused because the table was full.
    pub fn overflowed(&self) -> u64 {
        self.overflow
    }

    /// The slot holding `site`, or the free slot it would take. `None`
    /// when every slot holds another site (always, when detached).
    fn probe(&self, site: Ip) -> Option<usize> {
        if self.is_detached() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let hash = (site.func.0 as usize).wrapping_mul(0x9e37_79b9)
            ^ (site.line as usize).wrapping_mul(31);
        for step in 0..self.slots.len() {
            let i = hash.wrapping_add(step) & mask;
            match &self.slots[i] {
                Some((seated, _)) if *seated != site => continue,
                _ => return Some(i),
            }
        }
        None
    }

    /// The value seated for `site`, if any. Never seats.
    pub fn get(&self, site: Ip) -> Option<&V> {
        let (_, v) = self.slots[self.probe(site)?].as_ref()?;
        Some(v)
    }

    /// Mutable access to the value seated for `site`, if any. Never seats.
    pub fn get_mut(&mut self, site: Ip) -> Option<&mut V> {
        let (_, v) = self.slots[self.probe(site)?].as_mut()?;
        Some(v)
    }

    /// The value for `site`, seating it with `fresh()` on first use.
    /// `None` — and one more [`Self::overflowed`] — when the table is full.
    pub fn seat(&mut self, site: Ip, fresh: impl FnOnce() -> V) -> Option<&mut V> {
        let Some(i) = self.probe(site) else {
            // A detached table has no slots to run out of.
            self.overflow += u64::from(!self.is_detached());
            return None;
        };
        let (_, v) = self.slots[i].get_or_insert_with(|| (site, fresh()));
        Some(v)
    }

    /// Every seated site with its value, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Ip, &V)> {
        self.slots.iter().flatten().map(|(site, v)| (*site, v))
    }

    /// Offer every seated value to `take` and collect what it hands back.
    /// Sites stay seated (re-recording needs no re-probing); what "taken"
    /// means — which part of the value is a drainable delta — is the
    /// owner's business.
    pub fn drain<T>(&mut self, mut take: impl FnMut(Ip, &mut V) -> Option<T>) -> Vec<T> {
        self.slots
            .iter_mut()
            .flatten()
            .filter_map(|(site, v)| take(*site, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsim_htm::FuncId;

    fn site(n: u32) -> Ip {
        Ip::new(FuncId(n), 1)
    }

    #[test]
    fn seats_up_to_capacity_then_counts_overflow() {
        let mut t: SiteSlots<u64> = SiteSlots::new(8);
        for n in 0..8 {
            *t.seat(site(n), || 0).expect("room") += u64::from(n);
        }
        assert_eq!(t.overflowed(), 0);
        assert!(t.seat(site(8), || 0).is_none());
        assert!(t.seat(site(9), || 0).is_none());
        assert_eq!(t.overflowed(), 2);
        assert_eq!(t.capacity(), 8, "no growth");
        // Seated sites are intact and still reachable.
        for n in 0..8 {
            assert_eq!(t.get(site(n)), Some(&u64::from(n)));
        }
        assert_eq!(t.get(site(8)), None);
        assert_eq!(t.iter().count(), 8);
    }

    #[test]
    fn lookup_never_seats() {
        let mut t: SiteSlots<u64> = SiteSlots::new(4);
        assert!(t.get_mut(site(1)).is_none());
        assert_eq!(t.iter().count(), 0);
        *t.seat(site(1), || 5).unwrap() += 1;
        assert_eq!(t.get_mut(site(1)), Some(&mut 6));
    }

    #[test]
    fn detached_holds_nothing_and_overflows_nothing() {
        let mut t: SiteSlots<u64> = SiteSlots::detached();
        assert!(t.is_detached());
        assert_eq!(t.capacity(), 0);
        assert!(t.seat(site(1), || 0).is_none());
        assert!(t.get(site(1)).is_none());
        assert_eq!(t.overflowed(), 0);
    }

    #[test]
    fn drain_keeps_sites_seated() {
        let mut t: SiteSlots<u64> = SiteSlots::new(4);
        *t.seat(site(1), || 0).unwrap() = 3;
        t.seat(site(2), || 0).unwrap();
        let taken = t.drain(|site, v| (*v != 0).then(|| (site, std::mem::take(v))));
        assert_eq!(taken, vec![(site(1), 3)]);
        assert_eq!(t.iter().count(), 2);
        assert!(t.drain(|_, v| (*v != 0).then_some(())).is_empty());
    }
}
