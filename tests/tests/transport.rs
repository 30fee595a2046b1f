//! Transport cross-validation on the calendar-queue substrate.
//!
//! PR 8 rewrote `xheal-sim`'s internals (calendar-wheel scheduling, flat
//! mailbox arena); the in-crate property tests pin the new scheduler
//! bit-identical to the old heap against a `#[cfg(test)]` oracle. This
//! suite closes the loop one level up: four Xheal executors — sequential
//! `Xheal`, `DistXheal` over the synchronous engine, and `DistXheal` over
//! the asynchronous engine at zero and at real latency — replay identical
//! schedules over the new transport and land on bit-identical topologies, and the engines' per-kind send tally conserves messages
//! (sent = delivered + dropped once the protocol quiesces).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use xheal_core::{HealingEngine, Xheal, XhealConfig};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::{components, generators};
use xheal_sim::{AsyncConfig, AsyncNetwork};
use xheal_workload::{run, RandomChurn};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One churn schedule, four executors, one topology. The asynchronous
    /// executor runs twice: at zero latency (the synchronous delivery
    /// schedule) and under seeded latency + jitter (reordered in-flight
    /// traffic) — healing decisions must not depend on delivery timing.
    #[test]
    fn four_executors_agree_on_the_new_transport(
        seed in any::<u64>(),
        n in 20usize..44,
        steps in 15usize..40,
    ) {
        let g0 = generators::connected_erdos_renyi(
            n,
            0.12,
            &mut StdRng::seed_from_u64(seed),
        );
        let cfg = XhealConfig::new(4).with_seed(seed ^ 0xBEEF);
        let mut central = Xheal::new(&g0, cfg.clone());
        let mut adv = RandomChurn::new(0.35, 3, 8, &g0);
        let summary = run(&mut central, &mut adv, steps, seed ^ 0x77);

        let mut executors: Vec<(&str, Box<dyn HealingEngine>)> = vec![
            ("dist-sync", Box::new(DistXheal::new(&g0, cfg.clone()))),
            (
                "dist-async-zero",
                Box::new(DistXheal::with_engine(
                    &g0,
                    cfg.clone(),
                    AsyncNetwork::<Msg>::new(AsyncConfig::zero_latency()),
                )),
            ),
            (
                "dist-async-latency",
                Box::new(DistXheal::with_engine(
                    &g0,
                    cfg.clone(),
                    AsyncNetwork::<Msg>::new(
                        AsyncConfig::uniform(1, 4, seed).with_jitter(2),
                    ),
                )),
            ),
        ];
        for (name, ex) in &mut executors {
            for event in &summary.events {
                ex.apply(event)
                    .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
            }
            prop_assert!(
                central.graph() == ex.graph(),
                "{} diverged from the sequential executor",
                name
            );
            prop_assert!(
                components::is_connected(ex.graph()),
                "{} left the overlay disconnected",
                name
            );
        }
    }
}

#[test]
fn kind_tally_conserves_sends_across_engines() {
    // Every sent protocol message is tallied under exactly one `Msg` kind,
    // and once a repair quiesces each send was either delivered or dropped
    // (a recipient deleted mid-protocol) — the breakdown must sum to the
    // engine's delivered + dropped totals, on both engines.
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let g0 = generators::random_regular(80, 6, &mut rng);
    let cfg = XhealConfig::new(4).with_seed(11);
    let mut sync_net = DistXheal::new(&g0, cfg.clone());
    let mut async_net = DistXheal::with_engine(
        &g0,
        cfg,
        AsyncNetwork::<Msg>::new(AsyncConfig::uniform(1, 3, 5).with_jitter(1)),
    );
    for _ in 0..25 {
        let nodes = sync_net.graph().node_vec();
        let victim = nodes[rand::Rng::random_range(&mut rng, 0..nodes.len())];
        sync_net.delete(victim).unwrap();
        async_net.delete(victim).unwrap();
    }
    for (name, breakdown, counters) in [
        ("sync", sync_net.message_breakdown(), sync_net.counters()),
        ("async", async_net.message_breakdown(), async_net.counters()),
    ] {
        let (labels, counts) = breakdown;
        assert_eq!(labels, Msg::KIND_LABELS, "{name}: classifier labels");
        let sent: u64 = counts.iter().sum();
        assert!(sent > 0, "{name}: protocol ran");
        assert_eq!(
            sent,
            counters.messages + counters.dropped,
            "{name}: per-kind tally does not conserve sends"
        );
        // Probes and grants pair up one-to-one unless a probe's target (or
        // a grant's coordinator) died mid-repair.
        let by_label = |l: &str| counts[labels.iter().position(|&x| x == l).unwrap()];
        assert!(
            by_label("grant") <= by_label("probe"),
            "{name}: grants outnumber probes"
        );
        assert_eq!(
            by_label("splice"),
            by_label("splice_ack"),
            "{name}: unacknowledged splice waves"
        );
    }
    assert_eq!(sync_net.graph(), async_net.graph());
}
