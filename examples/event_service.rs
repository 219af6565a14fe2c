//! A week in the life of the planning service.
//!
//! The paper's conclusion frames STGQ as a value-added service for social
//! networking sites. This example drives `stgq-service` the way such a
//! deployment would: a community signs up, friendships and calendars
//! change day by day, and planning queries arrive in between — exercising
//! incremental updates, feasible-graph caching and every engine tier.
//!
//! Run with: `cargo run --example event_service`

use stgq::prelude::*;
use stgq::service::{Engine, SharedPlanner};
use stgq_datagen::{community::community_graph, community::CommunityConfig, pick_initiator};

fn main() {
    // One work week at half-hour granularity.
    let grid = TimeGrid::half_hour(5).expect("5 days is a valid grid");
    let horizon = grid.horizon();
    let service = SharedPlanner::with_horizon(horizon);

    // Monday: a 60-person community signs up. We seed memberships and
    // friendships from the community generator so the topology is
    // realistic, then feed them through the service's mutation API.
    let blueprint = community_graph(
        &CommunityConfig {
            n: 60,
            communities: 4,
            ..CommunityConfig::paper_194()
        },
        42,
    );
    let ids: Vec<NodeId> = (0..blueprint.node_count())
        .map(|v| service.add_person(format!("user{v}")))
        .collect();
    for e in blueprint.edges() {
        service
            .connect(ids[e.a.index()], ids[e.b.index()], e.weight)
            .unwrap();
    }
    println!(
        "Monday    signed up {} people, {} friendships",
        blueprint.node_count(),
        blueprint.edge_count()
    );

    // Everyone shares office-hours availability (09:00–17:30 → slots
    // 18..35 of each day), with personal variation on the edges.
    service.update(|planner| {
        for (i, &id) in ids.iter().enumerate() {
            for day in 0..5 {
                let lo = grid.slot(day, 18).unwrap() + (i % 3);
                let hi = grid.slot(day, 34).unwrap() - (i % 2);
                planner
                    .set_availability_range(id, SlotRange::new(lo, hi), true)
                    .unwrap();
            }
        }
    });

    // Tuesday: the busiest member plans a 5-person lunch among direct
    // friends where nobody should face more than 1 stranger, 1 hour long.
    let initiator = ids[pick_initiator(&blueprint, 12).index()];
    let lunch = StgqQuery::new(5, 1, 1, 2).unwrap();
    let report = service.plan_stgq(initiator, &lunch, Engine::Exact).unwrap();
    match &report.solution {
        Some(sol) => println!(
            "Tuesday   lunch plan: {} attendees, total distance {}, slots [{}, {}] ({:?})",
            sol.members.len(),
            sol.total_distance,
            sol.period.lo,
            sol.period.hi,
            report.elapsed
        ),
        None => println!("Tuesday   lunch plan: infeasible"),
    }

    // The same query again: served from the feasible-graph cache.
    let again = service.plan_stgq(initiator, &lunch, Engine::Exact).unwrap();
    println!(
        "Tuesday   repeat query cache hit: {} ({:?})",
        again.feasible_cache_hit, again.elapsed
    );

    // Wednesday: two members become friends; the cache invalidates itself.
    service.connect(ids[1], ids[2], 5).ok();
    let after = service.plan_stgq(initiator, &lunch, Engine::Exact).unwrap();
    println!(
        "Wednesday after a new friendship, cache hit: {} (answer distance {:?})",
        after.feasible_cache_hit,
        after.solution.as_ref().map(|s| s.total_distance)
    );

    // Thursday: a bigger offsite — friends-of-friends allowed (s = 2),
    // p = 8, half-day (8 slots). Compare engine tiers.
    let offsite = StgqQuery::new(8, 2, 2, 8).unwrap();
    for engine in [
        Engine::Exact,
        Engine::Greedy { restarts: 3 },
        Engine::LocalSearch {
            restarts: 3,
            passes: 4,
        },
    ] {
        let r = service.plan_stgq(initiator, &offsite, engine).unwrap();
        println!(
            "Thursday  {:?}: distance {:?} in {:?} (exact: {})",
            engine,
            r.solution.as_ref().map(|s| s.total_distance),
            r.elapsed,
            r.exact
        );
    }

    // Friday: one invitee goes on vacation; their slots disappear and the
    // plan adapts without any graph rebuild.
    if let Some(sol) = service
        .plan_stgq(initiator, &lunch, Engine::Exact)
        .unwrap()
        .solution
    {
        let unlucky = *sol.members.iter().find(|&&v| v != initiator).unwrap();
        service
            .set_availability_range(unlucky, SlotRange::new(0, horizon - 1), false)
            .unwrap();
        let replan = service.plan_stgq(initiator, &lunch, Engine::Exact).unwrap();
        println!(
            "Friday    {} went on vacation; replanned (cache hit: {}) → {:?}",
            unlucky,
            replan.feasible_cache_hit,
            replan
                .solution
                .as_ref()
                .map(|s| (s.total_distance, s.period.lo))
        );
    }

    let m = service.metrics();
    println!(
        "\nWeek summary: {} queries, {} mutations, snapshot rebuilds {}, fg-cache {} hits / {} misses",
        m.queries, m.mutations, m.snapshot_rebuilds, m.feasible_cache_hits, m.feasible_cache_misses
    );
}
