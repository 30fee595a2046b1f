//! Golden decision pin for sequential Xheal.
//!
//! Every other batch suite checks one executor against another, and every
//! executor shares the one planner, so a planner change that alters
//! decisions would still pass them. This test instead pins the *absolute*
//! outcome of a fixed schedule: the topology fingerprint after every round,
//! the final cumulative statistics, and the final live cloud colors.
//!
//! The schedule mixes every event kind over a seeded 300-node 6-regular
//! graph: insertions, single deletions, uniform `DeleteBatch`es (scattered
//! victims, many dead components) and clustered `DeleteBatch`es (a BFS ball,
//! one dead component). The pinned values change only if a healing
//! decision, a random draw, or a color allocation changes.

use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{invariants, HealStats, Xheal, XhealConfig};
use xheal_graph::{generators, traversal, CloudKind, Graph, NodeId};

const ROUNDS: u64 = 12;

/// Topology fingerprint after each round.
const FINGERPRINTS: [u64; ROUNDS as usize] = [
    0xf5af_e973_bb32_d84d,
    0x4fa2_3e7a_667e_bc11,
    0x8634_955d_b510_5693,
    0xa27d_4b1c_4c9d_e7a5,
    0xd683_6db4_f7ba_ee66,
    0xfdad_fa08_d8e0_562c,
    0x85ef_4ca1_ff39_f685,
    0xcc44_e9e8_5833_e5d1,
    0x9b68_d43e_e365_fcf5,
    0x79bf_d2d3_a1e7_476e,
    0xf8bd_d907_2eba_e7c6,
    0x52a3_5587_f402_52c0,
];

/// Final live clouds, ascending: `P` = primary, `S` = secondary.
const CLOUDS: &str = "\
    P6 P7 S8 P32 P33 P35 S36 P55 P59 S60 P92 P95 \
    P99 P100 S102 P105 P108 P109 S110 P189 S190 P274 P275 P277 \
    S278 P297 P299 S301 P368 S369 P385 P388 S389 P445 P452 P455 \
    S456 P466 P467 P470 S471 P495 P496 P497 P498 S499 P501 P502 \
    P503 P504 P505 S506 P509 P511 S512 P554 P558 P559 P562 S563 \
    P573 P574 S576 P587 S590 P597 P631 P632 S633 P634 P635 S636 \
    P682 P683 S684 P804 P805 S806 P823 S824 P877 P878 P879 P880 \
    S881 P884 P885 P886 P887 P888 S889 P966 P967 S968";

fn expected_stats() -> HealStats {
    HealStats {
        deletions: 192,
        insertions: 36,
        edges_added: 2445,
        edges_removed: 1920,
        secondaries_built: 40,
        combines: 77,
        shares: 103,
        black_degree_sum: 769,
    }
}

/// Up to `size` live nodes nearest `center`, ordered by (distance, id).
fn bfs_ball(g: &Graph, center: NodeId, size: usize) -> Vec<NodeId> {
    let mut by_distance: Vec<(u32, NodeId)> = traversal::bfs_distances(g, center)
        .into_iter()
        .map(|(v, d)| (d, v))
        .collect();
    by_distance.sort_unstable();
    by_distance.into_iter().take(size).map(|(_, v)| v).collect()
}

fn pick(g: &Graph, rng: &mut StdRng) -> NodeId {
    let nodes = g.node_vec();
    nodes[rng.random_range(0..nodes.len())]
}

fn render_clouds(clouds: &[(xheal_graph::CloudColor, CloudKind)]) -> String {
    clouds
        .iter()
        .map(|&(c, kind)| {
            let tag = match kind {
                CloudKind::Primary => 'P',
                CloudKind::Secondary => 'S',
            };
            format!("{tag}{}", c.as_u64())
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn sequential_decisions_match_the_golden_record() {
    let g0 = generators::random_regular(300, 6, &mut StdRng::seed_from_u64(0x601D));
    let mut net = Xheal::new(&g0, XhealConfig::new(4).with_seed(17));
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut next_id = 10_000u64;
    let mut fingerprints = Vec::with_capacity(ROUNDS as usize);
    let mut max_uniform_components = 0;
    let mut clustered_victims = 0;

    for _ in 0..ROUNDS {
        for _ in 0..3 {
            let mut nbrs: Vec<NodeId> = (0..rng.random_range(1..=3usize))
                .map(|_| pick(net.graph(), &mut rng))
                .collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            net.heal_insert(NodeId::new(next_id), &nbrs).unwrap();
            next_id += 1;
        }
        for _ in 0..2 {
            let v = pick(net.graph(), &mut rng);
            net.heal_delete(v).unwrap();
        }

        let mut live = net.graph().node_vec();
        let uniform: Vec<NodeId> = (0..8)
            .map(|_| live.swap_remove(rng.random_range(0..live.len())))
            .collect();
        let report = net.heal_delete_batch(&uniform).unwrap();
        max_uniform_components = max_uniform_components.max(report.components);

        let center = pick(net.graph(), &mut rng);
        let ball = bfs_ball(net.graph(), center, 6);
        let report = net.heal_delete_batch(&ball).unwrap();
        assert_eq!(report.components, 1, "a BFS ball is one dead component");
        clustered_victims += report.victims;

        invariants::check_invariants(&net).unwrap();
        fingerprints.push(net.graph().edge_fingerprint());
    }

    // The schedule must actually exercise what it claims to pin.
    assert!(
        max_uniform_components >= 4,
        "uniform batches stay scattered"
    );
    assert!(clustered_victims >= 6 * ROUNDS as usize - 2);

    let clouds = render_clouds(&net.cloud_colors());
    assert_eq!(fingerprints, FINGERPRINTS);
    assert_eq!(*net.stats(), expected_stats());
    assert_eq!(clouds, CLOUDS);
}
