//! Scale guard: the engine's memory is O(p + pairs used), never O(p²).
//!
//! Both tests are out of reach of an engine with dense per-pair tables
//! (≈ 128 B per ordered pair: 34 GB at p = 16384, 137 GB at the 32768-rank
//! limit). CI runs this file in release under `ulimit -v 2097152`, the
//! 2 GiB per-node budget, so any reintroduced `p × p` allocation fails
//! it outright.

use hbar_core::algorithms::Algorithm;
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::engine::Engine;
use hbar_simnet::{NoiseModel, NoiseState, Program, SimConfig, SimWorld};
use hbar_topo::machine::{CoreId, LinkClass, MachineSpec};
use hbar_topo::mapping::RankMapping;

/// The packed-event rank limit.
const MAX_RANKS: usize = 32768;

fn cores(machine: &MachineSpec, p: usize) -> Vec<CoreId> {
    (0..p).map(|c| machine.core(c)).collect()
}

#[test]
fn engine_builds_and_runs_at_the_rank_limit() {
    let machine = MachineSpec::new(MAX_RANKS / 8, 2, 4);
    let mut engine = Engine::new(cores(&machine, MAX_RANKS), machine.ground_truth.clone());
    assert_eq!(engine.p(), MAX_RANKS);
    // The two extreme ranks exchange one signal each way: the largest
    // packed pair keys an engine of this size can form.
    let last = MAX_RANKS - 1;
    let mut programs = vec![Program::new(); MAX_RANKS];
    programs[0] = Program::new().irecv(last).issend(last).wait_all();
    programs[last] = Program::new().irecv(0).issend(0).wait_all();
    let result = engine
        .run(&programs, NoiseState::new(NoiseModel::none(), 0))
        .expect("the exchange completes");
    let gt = &machine.ground_truth;
    let c = gt.link(LinkClass::InterNode);
    // Both receives are pre-posted, so each side's receive completes one
    // full inter-node path after its partner's send started, and the
    // sends are acknowledged one wire delay later.
    let post = gt.call_overhead_ns;
    let arrive = post + gt.call_overhead_ns + c.cpu_send_ns + c.nic_tx_ns + c.wire_ns + c.nic_rx_ns;
    let recv_done = arrive + c.cpu_recv_ns;
    assert_eq!(result.finish[0], recv_done + c.wire_ns);
    assert_eq!(result.finish[last], recv_done + c.wire_ns);
    assert!(result.finish[1..last].iter().all(|&t| t == 0));
}

#[test]
#[should_panic(expected = "engine supports at most 32768 ranks")]
fn engine_rejects_ranks_beyond_the_limit() {
    let machine = MachineSpec::new(MAX_RANKS / 8 + 1, 2, 4);
    let _ = Engine::new(cores(&machine, MAX_RANKS + 1), machine.ground_truth.clone());
}

#[test]
fn tree_barrier_simulates_at_p16384() {
    let p = 16384;
    let members: Vec<usize> = (0..p).collect();
    // Compile, then drop the dense stage matrices before simulating.
    let programs = {
        let sched = Algorithm::Tree.full_schedule(p, &members);
        schedule_programs(&sched, 1)
    };
    let cfg = SimConfig::exact(MachineSpec::new(p / 8, 2, 4), RankMapping::Block);
    let mut world = SimWorld::new(cfg, p);
    let first = world
        .run(&programs)
        .expect("a tree barrier cannot deadlock");
    assert_eq!(first.finish.len(), p);
    assert!(first.finish.iter().all(|&t| t > 0));
    // Every rank waits for the whole arrival phase, so the barrier spans
    // at least log2(p) = 14 inter-node-bound stages.
    assert!(first.makespan() > 14 * 30_000);
    // The reused world repeats the noise-free run exactly.
    let again = world
        .run(&programs)
        .expect("a tree barrier cannot deadlock");
    assert_eq!(first.finish, again.finish);
    assert_eq!(first.events, again.events);
}
