//! DDR-style main memory timing: channels, banks, page policy, refresh.
//!
//! Resource-reservation model: each request computes its completion time
//! from the bank's and data bus's next-free times plus the DRAM timing
//! parameters, then reserves those resources.

use crate::config::{DramConfig, PagePolicy};

/// Default refresh interval (tREFI) in CPU cycles at 2 GHz (7.8 µs).
const T_REFI: u64 = 15_600;
/// Refresh cycle time (tRFC) in CPU cycles at 2 GHz (~350 ns, 8 Gb-class).
const T_RFC: u64 = 700;

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// Cycle when a new activate may start.
    ready_at: u64,
    /// Open row, if any (open-page policy).
    open_row: Option<u64>,
}

/// Result of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Cycle at which the data burst completes.
    pub done_at: u64,
    /// Whether a row activation was required.
    pub activated: bool,
    /// Whether it hit an open row buffer.
    pub page_hit: bool,
}

/// One memory channel with its banks and shared data bus.
///
/// The shared resources (ACT issue slots under tRRD, data-bus burst slots)
/// are modeled as rate limiters anchored at the *request* time rather than
/// as strict in-order reservations: a request whose bank is busy far in the
/// future must not head-of-line-block other banks' commands, because real
/// controllers reorder (FR-FCFS).
#[derive(Debug, Clone)]
pub struct DramChannel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_slot_at: u64,
    act_slot_at: u64,
    /// `log2(page_bytes)`: byte address → page.
    page_shift: u32,
    /// `log2(banks)`: page → row.
    bank_shift: u32,
    /// Accesses delayed by a refresh window and not yet published; see
    /// [`publish_refresh_stalls`].
    refresh_stalls: u64,
}

impl DramChannel {
    /// Creates an idle channel.
    ///
    /// # Panics
    ///
    /// If `banks` or `page_bytes` is not a nonzero power of two;
    /// [`DramConfig::validate`] reports this as a typed error.
    pub fn new(cfg: DramConfig) -> DramChannel {
        assert!(
            cfg.banks.is_power_of_two() && cfg.page_bytes.is_power_of_two(),
            "DRAM banks and page size must be nonzero powers of two"
        );
        let banks = vec![Bank::default(); cfg.banks as usize];
        DramChannel {
            page_shift: cfg.page_bytes.trailing_zeros(),
            bank_shift: cfg.banks.trailing_zeros(),
            cfg,
            banks,
            bus_slot_at: 0,
            act_slot_at: 0,
            refresh_stalls: 0,
        }
    }

    /// Claims the next ACT issue slot no earlier than `now` (tRRD pacing).
    fn claim_act_slot(&mut self, now: u64) -> u64 {
        let slot = self.act_slot_at.max(now);
        self.act_slot_at = slot + self.cfg.t_rrd;
        slot
    }

    /// Claims a data-bus burst slot no earlier than `now`.
    fn claim_bus_slot(&mut self, now: u64) -> u64 {
        let slot = self.bus_slot_at.max(now);
        self.bus_slot_at = slot + self.cfg.t_burst;
        slot
    }

    /// Which bank an address maps to within this channel.
    pub fn bank_of(&self, addr: u64) -> usize {
        // Interleave banks on page-sized granularity for row locality.
        ((addr >> self.page_shift) & ((1 << self.bank_shift) - 1)) as usize
    }

    fn row_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift >> self.bank_shift
    }

    /// Pushes `t` past any refresh window it lands in (all banks refresh
    /// together every tREFI for tRFC).
    fn after_refresh(&self, t: u64) -> u64 {
        let phase = t % T_REFI;
        if phase < T_RFC {
            t - phase + T_RFC
        } else {
            t
        }
    }

    /// Issues an access at cycle `now`; returns its completion time and
    /// what it cost. Reserves the bank and bus.
    pub fn access(&mut self, addr: u64, now: u64) -> DramAccess {
        let bank_idx = self.bank_of(addr);
        let row = self.row_of(addr);
        let cfg = self.cfg.clone();
        let bank_ready = self.banks[bank_idx].ready_at;
        let open_row = self.banks[bank_idx].open_row;

        let base = now.max(bank_ready);
        let mut t = self.after_refresh(base);
        if t != base {
            self.refresh_stalls += 1;
        }
        let (activated, page_hit);
        match (cfg.page_policy, open_row) {
            (PagePolicy::Open, Some(open)) if open == row => {
                // Row-buffer hit: column access only.
                activated = false;
                page_hit = true;
            }
            (PagePolicy::Open, Some(_)) => {
                // Conflict: precharge, then activate.
                t += cfg.t_rp;
                t = t.max(self.claim_act_slot(now));
                t += cfg.t_rcd;
                activated = true;
                page_hit = false;
            }
            _ => {
                // Closed page (or first touch): activate.
                t = t.max(self.claim_act_slot(now));
                t += cfg.t_rcd;
                activated = true;
                page_hit = false;
            }
        }
        // Column access + burst on the shared data bus.
        let data_start = (t + cfg.t_cl).max(self.claim_bus_slot(now));
        let done_at = data_start + cfg.t_burst;

        // Bank availability for the *next* activate.
        let bank = &mut self.banks[bank_idx];
        match cfg.page_policy {
            PagePolicy::Closed => {
                if activated {
                    // Full row cycle from this activate.
                    bank.ready_at = (t - cfg.t_rcd) + cfg.t_rc;
                } else {
                    bank.ready_at = done_at;
                }
                bank.open_row = None;
            }
            PagePolicy::Open => {
                bank.ready_at = done_at;
                bank.open_row = Some(row);
            }
        }

        DramAccess {
            done_at,
            activated,
            page_hit,
        }
    }
}

/// Publishes the refresh stalls `channels` counted since the last call to
/// the `sim.mem.refresh_stalls` counter: one atomic add per simulator run
/// instead of one per stalled access.
pub(crate) fn publish_refresh_stalls(channels: &mut [DramChannel]) {
    let n: u64 = channels
        .iter_mut()
        .map(|c| std::mem::take(&mut c.refresh_stalls))
        .sum();
    if n > 0 {
        cactid_obs::counter!("sim.mem.refresh_stalls").add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn cfg(policy: PagePolicy) -> DramConfig {
        let mut d = SystemConfig::baseline_no_l3().dram;
        d.page_policy = policy;
        d
    }

    #[test]
    fn closed_page_latency_is_rcd_cl_burst() {
        let mut ch = DramChannel::new(cfg(PagePolicy::Closed));
        let c = cfg(PagePolicy::Closed);
        let a = ch.access(0x10_0000, 1000);
        assert!(a.activated && !a.page_hit);
        assert_eq!(a.done_at, 1000 + c.t_rcd + c.t_cl + c.t_burst);
    }

    #[test]
    fn same_bank_back_to_back_pays_trc() {
        let mut ch = DramChannel::new(cfg(PagePolicy::Closed));
        let c = cfg(PagePolicy::Closed);
        let first = ch.access(0x10_0000, 1000);
        // Same page → same bank; the bank is busy for tRC from the activate.
        let second = ch.access(0x10_0040, first.done_at);
        assert!(second.done_at >= 1000 + c.t_rc + c.t_cl, "tRC enforced");
    }

    #[test]
    fn different_banks_interleave_at_trrd() {
        let mut ch = DramChannel::new(cfg(PagePolicy::Closed));
        let c = cfg(PagePolicy::Closed);
        let a = ch.access(0, 2000);
        let b = ch.access(c.page_bytes, 2000); // next bank
        assert!(a.activated && b.activated);
        // The second activate waits only tRRD, not tRC.
        assert!(b.done_at < 2000 + c.t_rc);
        assert!(b.done_at >= 2000 + c.t_rrd + c.t_rcd + c.t_cl + c.t_burst);
    }

    #[test]
    fn open_page_hits_skip_activation() {
        let mut ch = DramChannel::new(cfg(PagePolicy::Open));
        let c = cfg(PagePolicy::Open);
        let a = ch.access(0x40, 3000);
        let b = ch.access(0x80, a.done_at); // same row
        assert!(b.page_hit && !b.activated);
        assert_eq!(b.done_at, a.done_at + c.t_cl + c.t_burst);
        // A different row in the same bank pays precharge + activate.
        let far = c.page_bytes * u64::from(c.banks) * 7;
        let conflict = ch.access(far, b.done_at);
        assert!(conflict.activated && !conflict.page_hit);
        assert!(conflict.done_at >= b.done_at + c.t_rp + c.t_rcd + c.t_cl);
    }

    #[test]
    fn requests_during_refresh_wait() {
        let mut ch = DramChannel::new(cfg(PagePolicy::Closed));
        let c = cfg(PagePolicy::Closed);
        // Land exactly inside a refresh window.
        let t = T_REFI * 5 + 10;
        let a = ch.access(0, t);
        assert!(a.done_at >= T_REFI * 5 + T_RFC + c.t_rcd + c.t_cl + c.t_burst);
        assert_eq!(ch.refresh_stalls, 1, "counted locally until published");
        publish_refresh_stalls(std::slice::from_mut(&mut ch));
        assert_eq!(ch.refresh_stalls, 0);
    }
}
