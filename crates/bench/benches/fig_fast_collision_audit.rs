//! E13 — Lemma 3.5: fast transmissions never collide where it matters.
//!
//! In-stretch wave receptions must see zero collisions (with a valid GST);
//! bystander fast collisions are permitted by the refined reading of the
//! lemma (see the gst crate docs) and are reported for transparency.

use bench::*;
use broadcast::multi_message::{broadcast_known, KnownRunOpts};
use broadcast::Params;
use radio_sim::graph::generators;
use radio_sim::{FaultPlan, NodeId};

fn main() {
    header(
        "E13: fast-transmission collision audit (k=8, known topology)",
        &["graph", "in-stretch", "bystander", "slow"],
    );
    let mut rng = radio_sim::rng::stream_rng(5, 0);
    let cases = vec![
        ("grid7x7", generators::grid(7, 7)),
        ("chain6x6", generators::cluster_chain(6, 6)),
        ("gnp64", generators::gnp_connected(64, 0.08, &mut rng)),
        ("udg80", generators::unit_disk(80, 0.2, &mut rng)),
    ];
    for (name, g) in cases {
        let params = Params::scaled(g.node_count());
        let mut in_stretch = 0u64;
        let mut bystander = 0u64;
        let mut slow = 0u64;
        for seed in 0..SEEDS {
            let out = broadcast_known(
                &g,
                NodeId::new(0),
                &payloads(8),
                &params,
                seed,
                KnownRunOpts::new().with_max_rounds(MAX_ROUNDS),
                &FaultPlan::none(),
            );
            in_stretch += out.audit.fast_collisions_in_stretch;
            bystander += out.audit.fast_collisions_bystander;
            slow += out.audit.slow_collisions;
        }
        row(
            name,
            &[name.to_string(), format!("{in_stretch}"), format!("{bystander}"), format!("{slow}")],
        );
        assert_eq!(in_stretch, 0, "Lemma 3.5 violated on {name}");
    }
    println!("(expect: in-stretch always 0; slow collisions are normal Decay contention)");
}
