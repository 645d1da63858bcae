//! Property-based tests for the DRS scheduler and measurer.

use drs_core::measurer::{Measurer, RawSample, Smoothing};
use drs_core::model::OperatorRates;
use drs_core::scheduler::{
    assign_processors, assign_processors_exhaustive, assign_processors_reference,
    min_processors_for_target, min_processors_for_target_reference, no_queueing_bound,
};
use drs_queueing::jackson::JacksonNetwork;
use proptest::prelude::*;

/// Strategy for small random stable-ish networks: external rate plus 2–4
/// operators with bounded offered loads, so exhaustive search stays cheap.
fn small_network() -> impl Strategy<Value = JacksonNetwork> {
    let op = (0.5f64..30.0, 0.5f64..10.0); // (arrival, offered load)
    (0.5f64..20.0, prop::collection::vec(op, 2..5)).prop_map(|(ext, ops)| {
        let pairs: Vec<(f64, f64)> = ops
            .into_iter()
            .map(|(lambda, load)| (lambda, lambda / load))
            .collect();
        JacksonNetwork::from_rates(ext, &pairs).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_is_optimal(net in small_network(), surplus in 0u32..8) {
        let k_max = net.min_total_servers() as u32 + surplus;
        let greedy = assign_processors(&net, k_max).unwrap();
        let brute = assign_processors_exhaustive(&net, k_max).unwrap();
        prop_assert!(
            greedy.expected_sojourn() <= brute.expected_sojourn() + 1e-9,
            "greedy {} worse than brute {}",
            greedy.expected_sojourn(),
            brute.expected_sojourn()
        );
    }

    #[test]
    fn heap_greedy_equals_reference_greedy_equals_exhaustive(
        net in small_network(),
        surplus in 0u32..8,
    ) {
        // The tentpole equivalence: the O((n+K)·log n) heap path, the
        // O(K·n·k̄) from-scratch path, and brute force all land on the same
        // optimum; heap and reference match allocation-for-allocation.
        let k_max = net.min_total_servers() as u32 + surplus;
        let heap = assign_processors(&net, k_max).unwrap();
        let reference = assign_processors_reference(&net, k_max).unwrap();
        let brute = assign_processors_exhaustive(&net, k_max).unwrap();
        prop_assert_eq!(heap.per_operator(), reference.per_operator());
        prop_assert_eq!(
            heap.expected_sojourn().to_bits(),
            reference.expected_sojourn().to_bits()
        );
        prop_assert!(
            (heap.expected_sojourn() - brute.expected_sojourn()).abs() <= 1e-9,
            "heap {} vs brute {}",
            heap.expected_sojourn(),
            brute.expected_sojourn()
        );
    }

    #[test]
    fn heap_min_target_equals_reference(
        net in small_network(),
        slack in 1.05f64..4.0,
    ) {
        let target = no_queueing_bound(&net) * slack;
        let heap = min_processors_for_target(&net, target, 10_000);
        let reference = min_processors_for_target_reference(&net, target, 10_000);
        match (heap, reference) {
            (Ok(h), Ok(r)) => {
                prop_assert_eq!(h.per_operator(), r.per_operator());
                prop_assert_eq!(h.total(), r.total());
            }
            (Err(_), Err(_)) => {}
            (h, r) => prop_assert!(false, "divergent outcomes: {h:?} vs {r:?}"),
        }
    }

    #[test]
    fn min_target_parity_below_cutover(net in small_network(), slack in 1.5f64..8.0) {
        // Loose targets resolve within a few grants of the min-stable
        // floor — the side of the small-surplus cutover served by the
        // plain reference walk. Restrict to cases that genuinely stay
        // below the cutover and assert exact parity.
        let target = no_queueing_bound(&net) * slack;
        let (Ok(h), Ok(r)) = (
            min_processors_for_target(&net, target, 10_000),
            min_processors_for_target_reference(&net, target, 10_000),
        ) else {
            return Err(TestCaseError::fail("loose target must be feasible"));
        };
        prop_assume!(r.total() - net.min_total_servers() <= 16);
        prop_assert_eq!(h.per_operator(), r.per_operator());
        prop_assert_eq!(h.expected_sojourn().to_bits(), r.expected_sojourn().to_bits());
    }

    #[test]
    fn min_target_parity_above_cutover(net in small_network(), slack in 1.0005f64..1.06) {
        // Tight targets need many grants — the heap side of the cutover
        // (the probe runs its 16 reference steps, then the heap continues
        // the identical path). Only keep cases past the cutover.
        let target = no_queueing_bound(&net) * slack;
        let heap = min_processors_for_target(&net, target, 100_000);
        let reference = min_processors_for_target_reference(&net, target, 100_000);
        match (heap, reference) {
            (Ok(h), Ok(r)) => {
                prop_assume!(r.total() - net.min_total_servers() > 16);
                prop_assert_eq!(h.per_operator(), r.per_operator());
                prop_assert_eq!(h.total(), r.total());
                prop_assert_eq!(h.expected_sojourn().to_bits(), r.expected_sojourn().to_bits());
            }
            (Err(_), Err(_)) => {}
            (h, r) => prop_assert!(false, "divergent outcomes: {h:?} vs {r:?}"),
        }
    }

    #[test]
    fn greedy_uses_exact_budget(net in small_network(), surplus in 0u32..20) {
        let k_max = net.min_total_servers() as u32 + surplus;
        let alloc = assign_processors(&net, k_max).unwrap();
        prop_assert_eq!(alloc.total(), u64::from(k_max));
        prop_assert!(net.is_stable(alloc.per_operator()).unwrap());
    }

    #[test]
    fn more_budget_never_hurts(net in small_network(), surplus in 0u32..10) {
        let base = net.min_total_servers() as u32 + surplus;
        let a = assign_processors(&net, base).unwrap();
        let b = assign_processors(&net, base + 1).unwrap();
        prop_assert!(b.expected_sojourn() <= a.expected_sojourn() + 1e-12);
    }

    #[test]
    fn min_target_solution_is_feasible_and_minimal(
        net in small_network(),
        slack in 1.05f64..4.0,
    ) {
        // Pick a reachable target: slack times the minimum-allocation bound.
        let bound = no_queueing_bound(&net);
        let target = bound * slack;
        let Ok(alloc) = min_processors_for_target(&net, target, 10_000) else {
            // Cap exceeded for razor-thin slack is acceptable.
            return Ok(());
        };
        prop_assert!(alloc.expected_sojourn() <= target);
        // Dropping any processor breaks the target or stability.
        let ks = alloc.per_operator().to_vec();
        for i in 0..ks.len() {
            if ks[i] == 0 { continue; }
            let mut fewer = ks.clone();
            fewer[i] -= 1;
            let t = net.expected_sojourn(&fewer).unwrap();
            prop_assert!(t > target || t.is_infinite());
        }
    }

    #[test]
    fn min_target_monotone_in_target(net in small_network(), s1 in 1.1f64..2.0, extra in 0.1f64..3.0) {
        let bound = no_queueing_bound(&net);
        let tight = min_processors_for_target(&net, bound * s1, 10_000);
        let loose = min_processors_for_target(&net, bound * (s1 + extra), 10_000);
        if let (Ok(t), Ok(l)) = (tight, loose) {
            prop_assert!(l.total() <= t.total());
        }
    }

    #[test]
    fn alpha_smoothing_stays_in_observed_range(
        values in prop::collection::vec(0.1f64..1000.0, 1..40),
        alpha in 0.0f64..0.99,
    ) {
        let mut m = Measurer::new(1, Smoothing::Alpha { alpha }).unwrap();
        for &v in &values {
            m.observe(&RawSample {
                external_rate: v,
                operators: vec![OperatorRates { arrival_rate: v, service_rate: v }],
                mean_sojourn: None,
            });
        }
        let est = m.estimates().unwrap().external_rate;
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "{est} outside [{lo}, {hi}]");
    }

    #[test]
    fn window_smoothing_stays_in_window_range(
        values in prop::collection::vec(0.1f64..1000.0, 1..40),
        size in 1usize..10,
    ) {
        let mut m = Measurer::new(1, Smoothing::Window { size }).unwrap();
        for &v in &values {
            m.observe(&RawSample {
                external_rate: v,
                operators: vec![OperatorRates { arrival_rate: v, service_rate: v }],
                mean_sojourn: None,
            });
        }
        let est = m.estimates().unwrap().external_rate;
        let tail: Vec<f64> = values.iter().rev().take(size).cloned().collect();
        let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = tail.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
    }
}
