//! Property-based tests for the DES kernel.

use commchar_des::{KeyedCalendar, RunningStats, SimTime};
use proptest::prelude::*;

proptest! {
    /// Popping the keyed calendar yields events in nondecreasing
    /// `(time, key)` order, and the order does not depend on the order the
    /// events were scheduled in — the property sharded simulators rely on.
    #[test]
    fn keyed_calendar_is_an_order_independent_priority_queue(
        events in prop::collection::vec((0u64..1000, 0u32..50), 1..200),
    ) {
        let drain = |order: &mut dyn Iterator<Item = &(u64, u32)>| {
            let mut cal = KeyedCalendar::new();
            for (i, &(t, k)) in order.enumerate() {
                cal.schedule(SimTime::from_ticks(t), (k, i), t);
            }
            std::iter::from_fn(|| cal.pop().map(|(at, (k, _), t)| (at.ticks(), t, k)))
                .collect::<Vec<_>>()
        };
        let forward = drain(&mut events.iter());
        for pair in forward.windows(2) {
            prop_assert!((pair[0].0, pair[0].2) <= (pair[1].0, pair[1].2), "{pair:?}");
        }
        for &(at, t, _) in &forward {
            prop_assert_eq!(at, t);
        }
        let backward = drain(&mut events.iter().rev());
        let strip = |v: &[(u64, u64, u32)]| v.iter().map(|&(at, _, k)| (at, k)).collect::<Vec<_>>();
        prop_assert_eq!(strip(&forward), strip(&backward));
    }

    /// Welford statistics agree with the two-pass formulas.
    #[test]
    fn running_stats_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..500)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }

    /// Merging partitions of a sample equals accumulating the whole sample.
    #[test]
    fn running_stats_merge_is_partition_invariant(
        xs in prop::collection::vec(-1e3f64..1e3, 2..200),
        split in 1usize..100,
    ) {
        let cut = split % xs.len().max(1);
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..cut] { a.record(x); }
        for &x in &xs[cut..] { b.record(x); }
        let mut whole = RunningStats::new();
        for &x in &xs { whole.record(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * whole.mean().abs().max(1.0));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-7 * whole.variance().max(1.0));
    }
}
