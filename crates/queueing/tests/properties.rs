//! Property-based tests for the queueing substrate: structural invariants of
//! the Erlang model, traffic equations and Jackson aggregation over randomly
//! drawn parameters.

use drs_queueing::erlang::{erlang_b, erlang_c, MmKQueue};
use drs_queueing::incremental::{ErlangStepper, NetworkSojourn};
use drs_queueing::jackson::{JacksonError, JacksonNetwork};
use drs_queueing::traffic::TrafficEquations;
use proptest::prelude::*;

fn rate() -> impl Strategy<Value = f64> {
    // Positive, comfortably away from denormals and overflow.
    (0.01f64..5_000.0).prop_map(|x| x)
}

proptest! {
    #[test]
    fn erlang_b_is_a_probability(servers in 0u32..500, a in 0.0f64..2_000.0) {
        let b = erlang_b(servers, a);
        prop_assert!(b.is_finite());
        prop_assert!((0.0..=1.0).contains(&b), "B({servers},{a}) = {b}");
    }

    #[test]
    fn erlang_b_decreases_in_servers(servers in 1u32..200, a in 0.01f64..500.0) {
        prop_assert!(erlang_b(servers + 1, a) <= erlang_b(servers, a) + 1e-15);
    }

    #[test]
    fn erlang_c_dominates_erlang_b(servers in 1u32..200, rho in 0.01f64..0.99) {
        // Delayed customers wait at least as often as they'd be blocked:
        // C(k, a) >= B(k, a) for stable systems. Parameterise by utilisation
        // so the sampled system is always stable.
        let a = rho * f64::from(servers);
        let b = erlang_b(servers, a);
        let c = erlang_c(servers, a);
        prop_assert!(c >= b - 1e-12, "C={c} < B={b}");
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn sojourn_monotone_and_convex(lambda in rate(), mu in rate(), span in 1u32..30) {
        let q = MmKQueue::new(lambda, mu).unwrap();
        let k0 = q.min_stable_servers();
        prop_assume!(k0 < 10_000);
        let k = k0 + span;
        let t0 = q.expected_sojourn(k);
        let t1 = q.expected_sojourn(k + 1);
        let t2 = q.expected_sojourn(k + 2);
        prop_assert!(t0.is_finite() && t0 > 0.0);
        // Monotone decreasing.
        prop_assert!(t1 <= t0 + 1e-12);
        // Convex: marginal improvements shrink.
        prop_assert!((t0 - t1) >= (t1 - t2) - 1e-9, "d1={} d2={}", t0 - t1, t1 - t2);
    }

    #[test]
    fn sojourn_bounded_below_by_service_time(lambda in rate(), mu in rate(), span in 0u32..50) {
        let q = MmKQueue::new(lambda, mu).unwrap();
        let k0 = q.min_stable_servers();
        prop_assume!(k0 < 10_000);
        let t = q.expected_sojourn(k0 + span);
        prop_assert!(t >= 1.0 / mu - 1e-12, "E[T] {t} below service time {}", 1.0 / mu);
    }

    #[test]
    fn paper_form_agrees_with_stable_form(lambda in 0.1f64..100.0, mu in 0.1f64..100.0, span in 0u32..20) {
        let q = MmKQueue::new(lambda, mu).unwrap();
        let k0 = q.min_stable_servers();
        prop_assume!(k0 + span < 150); // factorial form is representable
        let k = k0 + span;
        let a = q.expected_sojourn(k);
        let b = q.expected_sojourn_paper_form(k);
        prop_assert!(((a - b) / a).abs() < 1e-6, "k={k}: {a} vs {b}");
    }

    #[test]
    fn little_law_consistency(lambda in rate(), mu in rate(), span in 0u32..20) {
        let q = MmKQueue::new(lambda, mu).unwrap();
        let k = q.min_stable_servers() + span;
        prop_assume!(k < 10_000);
        let l = q.expected_in_system(k);
        let lq = q.expected_queue_len(k);
        // L = Lq + a (expected busy servers).
        prop_assert!((l - (lq + q.offered_load())).abs() < 1e-6 * l.max(1.0));
    }

    #[test]
    fn acyclic_traffic_solution_is_nonnegative(
        ext in prop::collection::vec(0.0f64..100.0, 2..8),
        gains in prop::collection::vec(0.0f64..3.0, 1..28),
    ) {
        let n = ext.len();
        let mut eqs = TrafficEquations::new(n);
        for (i, &e) in ext.iter().enumerate() {
            eqs.set_external_rate(i, e).unwrap();
        }
        // Only forward edges (i < j): guaranteed acyclic, any gain is stable.
        let mut gi = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if gi < gains.len() {
                    eqs.set_gain(i, j, gains[gi]).unwrap();
                    gi += 1;
                }
            }
        }
        let rates = eqs.solve().unwrap();
        for (i, r) in rates.iter().enumerate() {
            prop_assert!(*r >= 0.0, "negative rate {r} at {i}");
            prop_assert!(r.is_finite());
        }
    }

    #[test]
    fn traffic_fixed_point_residual_is_small(
        ext in prop::collection::vec(0.1f64..50.0, 2..6),
        loop_gain in 0.0f64..0.9,
    ) {
        // Ring topology with uniform gain: stable iff gain < 1.
        let n = ext.len();
        let mut eqs = TrafficEquations::new(n);
        for (i, &e) in ext.iter().enumerate() {
            eqs.set_external_rate(i, e).unwrap();
            eqs.set_gain(i, (i + 1) % n, loop_gain).unwrap();
        }
        let rates = eqs.solve().unwrap();
        // Check λ = ext + G^T λ componentwise.
        for j in 0..n {
            let inflow: f64 = (0..n).map(|i| eqs.gain(i, j) * rates[i]).sum();
            let resid = (rates[j] - (ext[j] + inflow)).abs();
            prop_assert!(resid < 1e-6 * rates[j].max(1.0), "residual {resid} at {j}");
        }
    }

    #[test]
    fn spectral_radius_bounded_by_norm(
        vals in prop::collection::vec(0.0f64..2.0, 9),
    ) {
        let mut eqs = TrafficEquations::new(3);
        for (k, &g) in vals.iter().enumerate() {
            eqs.set_gain(k / 3, k % 3, g).unwrap();
        }
        let norm = vals.chunks(3).map(|row| row.iter().sum::<f64>()).fold(0.0, f64::max);
        let r = eqs.loop_gain();
        prop_assert!(r <= norm + 1e-6, "radius {r} > norm {norm}");
        prop_assert!(r >= 0.0);
    }

    #[test]
    fn incremental_stepping_matches_direct_erlang_across_k_sweep(
        lambda in rate(),
        mu in rate(),
        start_offset in 0u32..20,
        sweep in 1u32..120,
    ) {
        let q = MmKQueue::new(lambda, mu).unwrap();
        let k0 = q.min_stable_servers();
        prop_assume!(k0 < 10_000);
        let start = k0.saturating_sub(start_offset);
        let mut stepper = ErlangStepper::new(q, start);
        for k in start..start + sweep {
            prop_assert_eq!(stepper.servers(), k);
            let direct_b = erlang_b(k, q.offered_load());
            prop_assert!(
                (stepper.erlang_b() - direct_b).abs() <= 1e-9,
                "B({k}): stepped {} vs direct {direct_b}",
                stepper.erlang_b()
            );
            let direct_t = q.expected_sojourn(k);
            let stepped_t = stepper.expected_sojourn();
            if direct_t.is_finite() {
                prop_assert!(
                    (stepped_t - direct_t).abs() <= 1e-9 * direct_t.max(1.0),
                    "E[T]({k}): stepped {stepped_t} vs direct {direct_t}"
                );
                prop_assert!(
                    (stepper.next_expected_sojourn() - q.expected_sojourn(k + 1)).abs()
                        <= 1e-9 * direct_t.max(1.0)
                );
            } else {
                prop_assert!(stepped_t.is_infinite());
            }
            stepper.step();
        }
    }

    #[test]
    fn incremental_network_sojourn_matches_direct_jackson(
        lambda0 in 0.5f64..50.0,
        ops in prop::collection::vec((0.5f64..100.0, 0.2f64..8.0), 2..6),
        increments in prop::collection::vec(0usize..6, 0..80),
    ) {
        // (arrival, offered load) pairs keep min allocations small.
        let pairs: Vec<(f64, f64)> = ops
            .iter()
            .map(|&(lambda, load)| (lambda, lambda / load))
            .collect();
        let net = JacksonNetwork::from_rates(lambda0, &pairs).unwrap();
        let mut state = NetworkSojourn::at_min_stable(&net);
        let mut alloc = net.min_stable_allocation();
        for &pick in &increments {
            let op = pick % net.len();
            state.increment(op);
            alloc[op] += 1;
            let direct = net.expected_sojourn(&alloc).unwrap();
            let cached = state.expected_sojourn();
            prop_assert!(
                (cached - direct).abs() <= 1e-9 * direct.max(1.0),
                "cached {cached} vs direct {direct} at {alloc:?}"
            );
        }
        prop_assert_eq!(state.allocation(), alloc);
    }

    #[test]
    fn increment_then_decrement_round_trips_bit_identically(
        lambda0 in 0.5f64..50.0,
        ops in prop::collection::vec((0.5f64..100.0, 0.2f64..8.0), 2..6),
        walk in prop::collection::vec((0usize..6, 0usize..4), 1..40),
    ) {
        // Random interleaving of ups and downs per operator, never dipping
        // below the starting allocation; after unwinding, every operator's
        // stepped model state must equal a from-scratch forward evaluation
        // bit for bit, and the Kahan-cached network aggregate must agree
        // with direct aggregation to the documented few-ulp tolerance.
        let pairs: Vec<(f64, f64)> = ops
            .iter()
            .map(|&(lambda, load)| (lambda, lambda / load))
            .collect();
        let net = JacksonNetwork::from_rates(lambda0, &pairs).unwrap();
        let floor = net.min_stable_allocation();
        let mut state = NetworkSojourn::reversible(&net, &floor).unwrap();
        let mut alloc = floor.clone();
        let mut trail: Vec<usize> = Vec::new();
        for &(pick, updown) in &walk {
            let op = pick % net.len();
            if updown == 0 && alloc[op] > floor[op] {
                state.decrement(op);
                alloc[op] -= 1;
                let pos = trail.iter().rposition(|&o| o == op).unwrap();
                trail.remove(pos);
            } else {
                state.increment(op);
                alloc[op] += 1;
                trail.push(op);
            }
            prop_assert_eq!(state.allocation(), alloc.clone());
        }
        // Unwind the remaining surplus entirely.
        while let Some(op) = trail.pop() {
            state.decrement(op);
            alloc[op] -= 1;
        }
        prop_assert_eq!(state.allocation(), floor.clone());
        // Per-operator state: bit-identical to from-scratch evaluation
        // (the marginal benefit funnels B, E[T](k) and E[T](k+1) into one
        // number, so bit-equality here pins the whole stepped state).
        for (op, q) in net.operators().iter().enumerate() {
            let fresh = ErlangStepper::new(*q, floor[op]);
            let fresh_weighted = q.arrival_rate() * fresh.marginal_benefit();
            prop_assert_eq!(
                state.weighted_marginal_benefit(op).to_bits(),
                fresh_weighted.to_bits(),
                "operator {} stepped state after unwind",
                op
            );
        }
        // Network aggregate: within the documented incremental tolerance.
        let direct = net.expected_sojourn(&floor).unwrap();
        let cached = state.expected_sojourn();
        prop_assert!(
            (cached - direct).abs() <= 1e-9 * direct.max(1.0),
            "cached {cached} vs direct {direct}"
        );
    }

    #[test]
    fn network_sojourn_improves_with_more_processors(
        lambda0 in 0.5f64..50.0,
        fanout in 0.5f64..20.0,
        mu1 in rate(),
        mu2 in rate(),
    ) {
        let net = JacksonNetwork::from_rates(
            lambda0,
            &[(lambda0, mu1), (lambda0 * fanout, mu2)],
        ).unwrap();
        let min = net.min_stable_allocation();
        prop_assume!(min.iter().all(|&k| k < 5_000));
        let base = net.expected_sojourn(&min).unwrap();
        let more: Vec<u32> = min.iter().map(|&k| k + 1).collect();
        let better = net.expected_sojourn(&more).unwrap();
        prop_assert!(better <= base + 1e-12);
    }

    #[test]
    fn set_rates_is_from_rates_in_place(
        // Roughly one draw in four carries an invalid rate somewhere.
        lambda0 in -2.0f64..50.0,
        ops in prop::collection::vec((-0.5f64..100.0, -0.5f64..8.0), 0..6),
        before in prop::collection::vec((0.5f64..100.0, 0.2f64..8.0), 0..8),
    ) {
        // `from_rates` as it stood before it became a wrapper: λ0 first,
        // then the pairs in order, the first invalid one reported.
        let want: Result<Vec<MmKQueue>, JacksonError> =
            if !lambda0.is_finite() || lambda0 <= 0.0 {
                Err(JacksonError::InvalidExternalRate { rate: lambda0 })
            } else {
                ops.iter()
                    .map(|&(lambda, mu)| MmKQueue::new(lambda, mu).map_err(JacksonError::from))
                    .collect()
            };
        let fresh = JacksonNetwork::from_rates(lambda0, &ops);
        // Refit over a network of another length and other rates.
        let mut reused = JacksonNetwork::from_rates(3.0, &before).unwrap();
        let refit = reused.set_rates(lambda0, ops.iter().copied());
        match want {
            Ok(nodes) => {
                let fresh = fresh.unwrap();
                prop_assert_eq!(refit, Ok(()));
                for net in [&fresh, &reused] {
                    prop_assert_eq!(net.external_rate().to_bits(), lambda0.to_bits());
                    prop_assert_eq!(net.operators(), nodes.as_slice());
                }
                prop_assert_eq!(&fresh, &reused);
            }
            Err(e) => {
                prop_assert_eq!(fresh.unwrap_err(), e.clone());
                prop_assert_eq!(refit, Err(e));
            }
        }
    }
}
