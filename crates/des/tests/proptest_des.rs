//! Property tests for the DES kernel: event ordering, FIFO queueing laws,
//! and statistics identities.

use proptest::prelude::*;
use qp_des::{EventQueue, LogHistogram, Sample, ServiceStation, SimTime, Tally, Ticket, TimeWheel};

proptest! {
    #[test]
    fn time_wheel_matches_heap_schedule(
        // 0.1 is the exact protocol engine's quantum at the paper's 1 ms
        // service time; 0.001 is that quantum's floor.
        quantum in prop_oneof![Just(0.001f64), Just(0.1), Just(0.25), Just(1.0), Just(64.0)],
        rounds in proptest::collection::vec(
            (
                // Offsets ahead of the last popped time; 0.0 and repeated
                // values exercise FIFO ties, huge ones the overflow heap.
                proptest::collection::vec(
                    prop_oneof![Just(0.0f64), 0.0f64..40.0, Just(2.5e7f64)],
                    0..8,
                ),
                0usize..6,
            ),
            1..60,
        ),
    ) {
        // Same push/pop interleaving against both queues: every pop must
        // return the identical (time, payload) pair, including tie order.
        let mut wheel = TimeWheel::new(quantum);
        let mut heap = EventQueue::new();
        let mut base = 0.0f64;
        let mut id = 0u32;
        for (offsets, pops) in rounds {
            for off in offsets {
                let t = SimTime::from_ms(base + off);
                wheel.push(t, id);
                heap.push(t, id);
                id += 1;
            }
            prop_assert_eq!(wheel.len(), heap.len());
            for _ in 0..pops {
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if let Some((t, _)) = a {
                    base = t.as_ms();
                }
            }
        }
        // Drain both to the end.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reserved_pushes_match_heap_schedule(
        quantum in prop_oneof![Just(0.1f64), Just(1.0)],
        ops in proptest::collection::vec(
            (
                // 0 push, 1 reserve for a later push, 2 reserve and never
                // use, 3 push a pending reservation, 4 pop.
                0usize..5,
                // Offsets ahead of the current time: few values, so ties
                // are common; 300 and 7e4 start on higher wheel levels,
                // and 2.5e7 lies beyond the level-2 window of both quanta
                // and goes through the overflow heap.
                prop_oneof![
                    Just(0.0f64),
                    Just(0.5),
                    Just(2.5),
                    Just(300.0),
                    Just(7.0e4),
                    Just(2.5e7)
                ],
                0usize..8,
            ),
            1..200,
        ),
    ) {
        // The heap gets each reserved event at its reservation moment,
        // the wheel only a ticket then and the event some time later:
        // every pop must still agree, ties included.
        let mut wheel = TimeWheel::new(quantum);
        let mut heap = EventQueue::new();
        let mut pending: Vec<(SimTime, Ticket, u32)> = Vec::new();
        let mut id = 0u32;
        let pop_both = |wheel: &mut TimeWheel<u32>,
                        heap: &mut EventQueue<u32>,
                        pending: &mut Vec<(SimTime, Ticket, u32)>| {
            // A reserved event must be on the wheel before the heap could
            // pop it; later ones may stay pending.
            if let Some(next) = heap.peek_time() {
                let (due, later): (Vec<_>, Vec<_>) =
                    pending.drain(..).partition(|&(t, _, _)| t <= next);
                *pending = later;
                for (t, ticket, e) in due {
                    wheel.push_reserved(t, ticket, e);
                }
            }
            (wheel.pop(), heap.pop())
        };
        for (kind, offset, pick) in ops {
            let t = SimTime::from_ms(wheel.now().as_ms() + offset);
            match kind {
                0 => {
                    wheel.push(t, id);
                    heap.push(t, id);
                    id += 1;
                }
                1 => {
                    pending.push((t, wheel.reserve(), id));
                    heap.push(t, id);
                    id += 1;
                }
                2 => {
                    wheel.reserve();
                }
                3 if !pending.is_empty() => {
                    let (t, ticket, e) = pending.remove(pick % pending.len());
                    wheel.push_reserved(t, ticket, e);
                }
                3 => {}
                _ => {
                    let (a, b) = pop_both(&mut wheel, &mut heap, &mut pending);
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(wheel.len() + pending.len(), heap.len());
            prop_assert_eq!(wheel.pushes() + pending.len() as u64, heap.pushes());
            prop_assert_eq!(wheel.pops(), heap.pops());
        }
        loop {
            let (a, b) = pop_both(&mut wheel, &mut heap, &mut pending);
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(pending.is_empty());
    }

    #[test]
    fn histogram_quantiles_within_bound_of_nearest_rank(
        shape in 0usize..4,
        us in proptest::collection::vec(0.0f64..1.0, 1..400),
        few in 1usize..=5,
        pct in prop_oneof![Just(50.0f64), Just(95.0), Just(99.0), 0.0f64..=100.0],
    ) {
        let xs: Vec<f64> = match shape {
            // Zeros mixed with positive values.
            0 => us.iter().map(|&u| if u < 0.3 { 0.0 } else { u * 1e3 }).collect(),
            // One value repeated.
            1 => vec![us[0] * 1e4; us.len()],
            // Heavy tail: Pareto draws spanning dozens of powers of two.
            2 => us.iter().map(|&u| 1.0 / ((1.0 - u) * (1.0 - u))).collect(),
            // One to five observations.
            _ => us.iter().take(few).map(|&u| u * 500.0).collect(),
        };
        let mut hist = LogHistogram::new();
        let mut sample = Sample::new();
        for &x in &xs {
            hist.add(x);
            sample.add(x);
        }
        // `Sample` takes a percentile and divides by 100; passing the
        // quotient gives the histogram the same nearest rank.
        let exact = sample.percentile(pct);
        let est = hist.quantile(pct / 100.0);
        prop_assert!(
            (est - exact).abs() <= exact * 2f64.powi(-8),
            "p{} of {} values: {} vs exact {}",
            pct,
            xs.len(),
            est,
            exact
        );
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(est >= lo && est <= hi);
        if shape == 1 || xs.len() == 1 {
            // The clamp to the observed extremes makes these exact.
            prop_assert_eq!(est, exact);
        }
        prop_assert_eq!(hist.count(), xs.len() as u64);
    }

    #[test]
    fn submit_batch_matches_repeated_submit(
        // Steps of an arrival walk: zero repeats an arrival, negative
        // steps unsort the sequence.
        steps in proptest::collection::vec(
            prop_oneof![Just(0.0f64), -5.0f64..5.0, 0.0f64..20.0],
            0..80,
        ),
        sorted in prop_oneof![Just(true), Just(false)],
        service in prop_oneof![Just(0.0f64), 0.0f64..4.0],
        backlog in prop_oneof![Just(0.0f64), 0.0f64..100.0],
        earlier in proptest::collection::vec(0.0f64..50.0, 0..4),
    ) {
        let mut t = 10.0f64;
        let mut arrivals: Vec<f64> = steps
            .iter()
            .map(|&step| {
                t = (t + step).max(0.0);
                t
            })
            .collect();
        if sorted {
            arrivals.sort_by(f64::total_cmp);
        }
        // A carried backlog plus a few earlier submissions give the batch
        // a station that is already mid-run.
        let station = || {
            let mut s = ServiceStation::with_initial_backlog(SimTime::from_ms(backlog));
            for &a in &earlier {
                s.submit(SimTime::from_ms(a), 1.5);
            }
            s
        };
        let mut one_by_one = station();
        let singles: Vec<(usize, u64)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| (i, one_by_one.submit(SimTime::from_ms(a), service).as_ms().to_bits()))
            .collect();
        let mut batched = station();
        let mut departures = Vec::new();
        batched.submit_batch(
            arrivals.iter().map(|&a| SimTime::from_ms(a)),
            service,
            |i, d| departures.push((i, d.as_ms().to_bits())),
        );
        prop_assert_eq!(departures, singles);
        // Debug renders every field, floats in round-trip form.
        prop_assert_eq!(format!("{batched:?}"), format!("{one_by_one:?}"));
    }

    #[test]
    fn events_pop_in_nondecreasing_time(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ms(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn equal_times_preserve_push_order(n in 1usize..100, t in 0.0f64..1e5) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_ms(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<usize> = (0..n).collect();
        prop_assert_eq!(order, expected);
    }

    #[test]
    fn station_conserves_work(
        gaps in proptest::collection::vec(0.0f64..10.0, 1..100),
        services in proptest::collection::vec(0.0f64..5.0, 100),
    ) {
        // Lindley recursion invariants: departures are nondecreasing;
        // depart ≥ arrive + service; total busy time = Σ service.
        let mut s = ServiceStation::new();
        let mut t = 0.0;
        let mut last_depart = SimTime::ZERO;
        let mut total_service = 0.0;
        for (i, &g) in gaps.iter().enumerate() {
            t += g;
            let svc = services[i];
            let depart = s.submit(SimTime::from_ms(t), svc);
            prop_assert!(depart >= last_depart);
            prop_assert!(depart.as_ms() >= t + svc - 1e-12);
            last_depart = depart;
            total_service += svc;
        }
        prop_assert!((s.busy_ms() - total_service).abs() < 1e-9);
        prop_assert_eq!(s.served(), gaps.len() as u64);
        // Utilization over the horizon never exceeds 1.
        let horizon = last_depart.as_ms().max(1e-9);
        prop_assert!(s.utilization(SimTime::from_ms(horizon)) <= 1.0 + 1e-12);
    }

    #[test]
    fn station_is_work_conserving_under_backlog(
        services in proptest::collection::vec(0.1f64..5.0, 1..60),
    ) {
        // All arrivals at t=0: departures are the prefix sums (no idling).
        let mut s = ServiceStation::new();
        let mut expected = 0.0;
        for &svc in &services {
            expected += svc;
            let depart = s.submit(SimTime::ZERO, svc);
            prop_assert!((depart.as_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn tally_matches_naive_mean_and_std(xs in proptest::collection::vec(-1e4f64..1e4, 1..200)) {
        let mut t = Tally::new();
        for &x in &xs {
            t.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((t.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        if xs.len() >= 2 {
            prop_assert!((t.population_std_dev() - var.sqrt()).abs() < 1e-6 * (1.0 + var.sqrt()));
        }
        prop_assert_eq!(t.min().unwrap(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(t.max().unwrap(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn tally_merge_is_order_independent(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..50),
        ys in proptest::collection::vec(-100.0f64..100.0, 1..50),
    ) {
        let fill = |vals: &[f64]| {
            let mut t = Tally::new();
            for &v in vals {
                t.add(v);
            }
            t
        };
        let mut ab = fill(&xs);
        ab.merge(&fill(&ys));
        let mut ba = fill(&ys);
        ba.merge(&fill(&xs));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.population_std_dev() - ba.population_std_dev()).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone_and_within_range(
        xs in proptest::collection::vec(0.0f64..1e5, 1..200),
        ps in proptest::collection::vec(0.0f64..=100.0, 2..6),
    ) {
        let mut s = Sample::new();
        s.extend(xs.iter().copied());
        let mut sorted_ps = ps.clone();
        sorted_ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for &p in &sorted_ps {
            let v = s.percentile(p);
            prop_assert!(v >= last);
            prop_assert!(xs.contains(&v));
            last = v;
        }
    }
}
