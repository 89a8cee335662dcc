//! Pins the engine's simulated results to golden FNV-1a fingerprints.
//!
//! Every `SimWorld::run` outcome — per-rank finish times, the event
//! count and the recorded marks — is hashed bit for bit, across the
//! paper's three barrier shapes (tree, dissemination, a tuned hybrid),
//! two rank counts, both placements and both noise regimes, plus one
//! traced run and one deadlocking program set. The constants were
//! recorded before the engine's per-pair state was rewritten (dense
//! `p × p` tables → class-indexed costs and a sparse matching pool), so
//! they are the oracle that the rewrite changed no event order, no noise
//! draw and no charge.

use hbar_core::algorithms::Algorithm;
use hbar_core::compose::{tune_hybrid, TunerConfig};
use hbar_core::schedule::BarrierSchedule;
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::trace::TraceEvent;
use hbar_simnet::{NoiseModel, Program, SimConfig, SimResult, SimWorld};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

/// Barrier repetitions per simulated program.
const REPS: usize = 5;

/// FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_str(&mut self, s: &str) {
        self.eat(s.len() as u64);
        for byte in s.bytes() {
            self.eat(u64::from(byte));
        }
    }
}

/// Fingerprint of a run: finish times, event count, then every mark.
fn result_fingerprint(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    for &t in &r.finish {
        h.eat(t);
    }
    h.eat(r.events);
    for marks in &r.marks {
        h.eat(marks.len() as u64);
        for (label, t) in marks {
            h.eat_str(label);
            h.eat(*t);
        }
    }
    h.0
}

/// Brackets each rank's barrier loop with `enter`/`exit` marks, so the
/// fingerprints cover mark recording too.
fn with_marks(programs: Vec<Program>) -> Vec<Program> {
    programs
        .into_iter()
        .map(|p| {
            let mut q = Program::with_capacity(p.instrs.len() + 2);
            q.push_mark("enter");
            q.instrs.extend_from_slice(&p.instrs);
            q.push_mark("exit");
            q
        })
        .collect()
}

fn machine(p: usize) -> MachineSpec {
    MachineSpec::new(p / 8, 2, 4)
}

fn schedules(p: usize, mapping: &RankMapping) -> [(&'static str, BarrierSchedule); 3] {
    let members: Vec<usize> = (0..p).collect();
    let profile = TopologyProfile::from_ground_truth_for(&machine(p), mapping, p);
    let hybrid = tune_hybrid(&profile, &TunerConfig::default()).schedule;
    [
        ("tree", Algorithm::Tree.full_schedule(p, &members)),
        (
            "dissemination",
            Algorithm::Dissemination.full_schedule(p, &members),
        ),
        ("hybrid", hybrid),
    ]
}

/// Runs tree, dissemination and the tuned hybrid, in that order, on one
/// reused world per `(mapping, noise)` and returns each fingerprint
/// labelled `"<mapping>/<noise>/<schedule>"`.
fn barrier_fingerprints(p: usize) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (mname, mapping) in [
        ("block", RankMapping::Block),
        ("round-robin", RankMapping::RoundRobin),
    ] {
        let scheds = schedules(p, &mapping);
        for (nname, noise) in [
            ("none", NoiseModel::none()),
            ("realistic", NoiseModel::realistic(17)),
        ] {
            let cfg = SimConfig {
                machine: machine(p),
                mapping: mapping.clone(),
                noise,
            };
            let mut world = SimWorld::new(cfg, p);
            for (sname, sched) in &scheds {
                let programs = with_marks(schedule_programs(sched, REPS));
                let r = world.run(&programs).expect("barriers never deadlock");
                out.push((format!("{mname}/{nname}/{sname}"), result_fingerprint(&r)));
            }
        }
    }
    out
}

fn check(p: usize, got: &[(String, u64)], golden: &[(&str, u64)]) {
    let mismatches: Vec<String> = got
        .iter()
        .zip(golden)
        .filter(|((gname, gv), (name, v))| gname != name || gv != v)
        .map(|((gname, gv), (name, v))| format!("{name}: golden {v}, got {gname} {gv}"))
        .collect();
    assert_eq!(got.len(), golden.len(), "case count at P = {p}: {got:?}");
    assert!(
        mismatches.is_empty(),
        "engine results at P = {p} diverged from the golden fingerprints:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn barrier_runs_match_golden_p64() {
    check(64, &barrier_fingerprints(64), &GOLDEN_P64);
}

#[test]
fn barrier_runs_match_golden_p1024() {
    check(1024, &barrier_fingerprints(1024), &GOLDEN_P1024);
}

#[test]
fn traced_run_matches_golden() {
    let p = 64;
    let members: Vec<usize> = (0..p).collect();
    let sched = Algorithm::Dissemination.full_schedule(p, &members);
    let cfg = SimConfig {
        machine: machine(p),
        mapping: RankMapping::RoundRobin,
        noise: NoiseModel::realistic(23),
    };
    let mut world = SimWorld::new(cfg, p);
    let (result, trace) = world
        .run_traced(&schedule_programs(&sched, 2))
        .expect("barriers never deadlock");
    let mut h = Fnv::new();
    for e in &trace.events {
        let tag = match e {
            TraceEvent::SendInjected { .. } => 0,
            TraceEvent::Delivered { .. } => 1,
            TraceEvent::RecvCompleted { .. } => 2,
            TraceEvent::SendCompleted { .. } => 3,
        };
        let (src, dst) = e.pair();
        h.eat(tag);
        h.eat(e.time());
        h.eat(src as u64);
        h.eat(dst as u64);
    }
    assert_eq!(
        (result_fingerprint(&result), h.0),
        GOLDEN_TRACED,
        "traced run diverged"
    );
}

/// Payload sends (the bandwidth term) in both directions across every
/// link class, with compute delays and transmission-free calls mixed in.
#[test]
fn payload_ring_matches_golden() {
    let p = 64;
    let programs: Vec<Program> = (0..p)
        .map(|r| {
            let next = (r + 1) % p;
            let prev = (r + p - 1) % p;
            let far = (r + p / 2) % p;
            Program::new()
                .delay((r as u64 % 5) * 1_000)
                .irecv(prev)
                .issend_bytes(next, 64 << (r % 6))
                .irecv(far)
                .issend_bytes(far, 4096)
                .noop_call()
                .wait_all()
                .mark("done")
        })
        .collect();
    let cfg = SimConfig {
        machine: machine(p),
        mapping: RankMapping::Block,
        noise: NoiseModel::realistic(5),
    };
    let mut world = SimWorld::new(cfg, p);
    let first = world.run(&programs).expect("ring completes");
    let second = world.run(&programs).expect("ring completes");
    assert_eq!(
        (result_fingerprint(&first), result_fingerprint(&second)),
        GOLDEN_PAYLOAD,
        "payload ring diverged"
    );
}

/// A tree barrier with one rank's program emptied deadlocks; the stuck
/// set (rank, pc, outstanding) must not move either.
#[test]
fn deadlock_report_matches_golden() {
    let p = 64;
    let members: Vec<usize> = (0..p).collect();
    let sched = Algorithm::Tree.full_schedule(p, &members);
    let mut programs = schedule_programs(&sched, 2);
    programs[9] = Program::new();
    let cfg = SimConfig {
        machine: machine(p),
        mapping: RankMapping::RoundRobin,
        noise: NoiseModel::realistic(3),
    };
    let mut world = SimWorld::new(cfg, p);
    let err = world.run(&programs).expect_err("rank 9 never signals");
    let mut h = Fnv::new();
    for &(r, pc, outstanding) in &err.stuck {
        h.eat(r as u64);
        h.eat(pc as u64);
        h.eat(outstanding as u64);
    }
    assert_eq!(
        (err.stuck.len(), h.0),
        GOLDEN_DEADLOCK,
        "deadlock report diverged"
    );
}

// Golden fingerprints recorded with the dense-table engine. Do not update
// them: a change means the engine no longer reproduces its own results.

const GOLDEN_P64: [(&str, u64); 12] = [
    ("block/none/tree", 12363684345838519794),
    ("block/none/dissemination", 9768963480896989107),
    ("block/none/hybrid", 7628966663983362645),
    ("block/realistic/tree", 12182419218921985382),
    ("block/realistic/dissemination", 17325558886347836671),
    ("block/realistic/hybrid", 11151426819283683057),
    ("round-robin/none/tree", 4224060325094573046),
    ("round-robin/none/dissemination", 10092056049842448499),
    ("round-robin/none/hybrid", 15234154078392726693),
    ("round-robin/realistic/tree", 6200869748291328778),
    ("round-robin/realistic/dissemination", 1154518084635281395),
    ("round-robin/realistic/hybrid", 3193646293472588757),
];

const GOLDEN_P1024: [(&str, u64); 12] = [
    ("block/none/tree", 926420660115932634),
    ("block/none/dissemination", 7956610343366275459),
    ("block/none/hybrid", 10779461571404317770),
    ("block/realistic/tree", 2991625396056367454),
    ("block/realistic/dissemination", 13252693966473559043),
    ("block/realistic/hybrid", 103565376461256618),
    ("round-robin/none/tree", 10947542024543767682),
    ("round-robin/none/dissemination", 13854838021770327939),
    ("round-robin/none/hybrid", 8206473420949952586),
    ("round-robin/realistic/tree", 9371569491558374134),
    ("round-robin/realistic/dissemination", 615435737418963319),
    ("round-robin/realistic/hybrid", 3061659945362742202),
];

const GOLDEN_TRACED: (u64, u64) = (4542865255866613172, 17637797434365208173);
const GOLDEN_PAYLOAD: (u64, u64) = (4483650394904354087, 12133200504628368955);
const GOLDEN_DEADLOCK: (usize, u64) = (63, 12432539947744761711);
