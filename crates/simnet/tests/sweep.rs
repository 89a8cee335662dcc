//! Integration tests of the profiling sweep: clustered-vs-exhaustive
//! error bounds on the paper clusters, wire-format round trips, and the
//! loopback driver↔worker fleet with a mid-sweep crash. (The exact
//! regime's bit parity with the exhaustive sweep is held by the golden
//! fingerprints in `stopping_parity.rs` and by `hbar-bench`'s
//! `profile_parity` test against the frozen exhaustive sweep.)

use hbar_simnet::distrib::{
    serve_worker, shutdown_worker, FleetExecutor, FleetOptions, WorkerFault,
};
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::sweep::{
    DescriptorExecutor, PairSample, PairWorkDescriptor, SweepConfig, SweepReport, WorkKind,
};
use hbar_simnet::wire::JobHeader;
use hbar_simnet::{measure_profile_compressed, LocalExecutor, NoiseModel, SpillConfig};
use hbar_topo::cost::{CostMatrices, CostProvider};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use std::net::TcpListener;
use std::time::Duration;

/// The dense matrices and report of a sweep on `executor`.
fn sweep(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    executor: &mut dyn DescriptorExecutor,
) -> (CostMatrices, SweepReport) {
    let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_sweep_test_unused"));
    let (model, report, _) =
        measure_profile_compressed(machine, mapping, p, noise, cfg, &spill, executor)
            .expect("sweep must complete");
    (model.to_dense(), report)
}

/// [`sweep`] on a [`LocalExecutor`].
fn sweep_locally(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
) -> (CostMatrices, SweepReport) {
    let mut local = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    sweep(machine, mapping, p, noise, cfg, &mut local)
}

/// Worst relative off-diagonal error of `a` against reference `b`.
fn worst_rel_error(a: &CostMatrices, b: &CostMatrices) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..a.p() {
        for j in 0..a.p() {
            if i == j {
                continue;
            }
            let (x, y) = (a.o[(i, j)], b.o[(i, j)]);
            worst = worst.max((x - y).abs() / y);
            let (x, y) = (a.l[(i, j)], b.l[(i, j)]);
            worst = worst.max((x - y).abs() / y);
        }
    }
    worst
}

/// Clustered estimates stay within the recorded error bound of the
/// exhaustive sweep on both paper clusters at P ∈ {16, 32, 64}.
///
/// The bound here (20%) is for the `fast()` test schedule, whose few
/// repetitions leave substantial residual noise in *both* sweeps (the
/// worst observed gap, ~15% on dual_hex at P = 32, is noise floor, not
/// clustering bias — both estimates of the same pair wobble that much);
/// the full schedule is held to ≤ 5% by the `profile-perf` harness
/// (recorded in BENCH_profile.json).
#[test]
fn clustered_error_bounded_on_paper_clusters() {
    for (name, machine) in [
        ("dual_quad", MachineSpec::dual_quad_cluster(8)),
        ("dual_hex", MachineSpec::dual_hex_cluster(6)),
    ] {
        for p in [16usize, 32, 64] {
            let mapping = RankMapping::Block;
            let noise = NoiseModel::realistic(2026);
            let exact = SweepConfig::exact(ProfilingConfig::fast());
            let (exhaustive, _) = sweep_locally(&machine, &mapping, p, noise, &exact);
            let (clustered, report) =
                sweep_locally(&machine, &mapping, p, noise, &SweepConfig::fast());
            let err = worst_rel_error(&clustered, &exhaustive);
            assert!(
                err < 0.2,
                "{name} P={p}: clustered error {err} out of bound"
            );
            // Each class measures ≤ 3 samples (representative + 2
            // probes under fast()) in each of ≤ 3 rounds.
            let classes = report.pair_classes + report.diag_classes;
            assert!(
                report.measurements <= classes * 3 * 3
                    && report.measurements < report.total_pairs + p,
                "{name} P={p}: {} measurements over {classes} classes",
                report.measurements
            );
        }
    }
}

/// JSON round trip of descriptor/response batches (the compact binary
/// round trip is covered by `wire`'s unit tests).
#[test]
fn descriptor_batches_roundtrip_as_json() {
    let batch: Vec<PairWorkDescriptor> = (0..5)
        .map(|k| PairWorkDescriptor {
            id: k,
            kind: if k % 2 == 0 {
                WorkKind::Pair
            } else {
                WorkKind::Diag
            },
            i: k * 7,
            j: k * 7 + 1,
            core_a: k,
            core_b: k + 1,
            sub_seed: 0x5EED ^ u64::from(k),
            rep_scale: 1 << (k % 4),
        })
        .collect();
    let json = serde_json::to_string(&batch).unwrap();
    let back: Vec<PairWorkDescriptor> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, batch);

    let responses = vec![
        PairSample {
            id: 0,
            o: 2.625e-6,
            l: 1.07e-7,
        },
        PairSample {
            id: 1,
            o: 3.5e-6,
            l: 0.0,
        },
    ];
    let json = serde_json::to_string(&responses).unwrap();
    let back: Vec<PairSample> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), responses.len());
    for (a, b) in back.iter().zip(&responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.o.to_bits(), b.o.to_bits());
        assert_eq!(a.l.to_bits(), b.l.to_bits());
    }

    let job = JobHeader {
        machine: MachineSpec::dual_quad_cluster(2),
        noise: NoiseModel::realistic(1),
        profiling: ProfilingConfig::fast(),
    };
    let json = serde_json::to_string(&job).unwrap();
    let back: JobHeader = serde_json::from_str(&json).unwrap();
    assert_eq!(back, job);
}

/// Spawns a worker on an ephemeral loopback port, returning its address
/// and join handle.
fn spawn_worker(fault: WorkerFault) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || serve_worker(listener, fault));
    (addr, handle)
}

/// The loopback fleet test: two workers on 127.0.0.1, one crashing
/// mid-sweep (connection dropped after its first answered batch). The
/// driver must requeue the in-flight batch, reconnect, and produce a
/// merged profile bit-identical to the purely local sweep — with local
/// fallback disabled, so every measurement demonstrably came through the
/// fleet.
#[test]
fn loopback_fleet_survives_mid_sweep_crash_and_matches_local() {
    let machine = MachineSpec::dual_quad_cluster(2);
    let mapping = RankMapping::Block;
    let noise = NoiseModel::realistic(77);
    // Exact classes make the sweep big enough (120 pair + 16 diag
    // descriptors) to spread over many small batches.
    let sweep_cfg = SweepConfig::exact(ProfilingConfig::fast());
    let p = 16;

    let (local_profile, local_report) = sweep_locally(&machine, &mapping, p, noise, &sweep_cfg);

    let (addr_a, handle_a) = spawn_worker(WorkerFault::DropConnectionOnce { after: 1 });
    let (addr_b, handle_b) = spawn_worker(WorkerFault::None);
    let mut fleet = FleetExecutor::for_sweep(
        vec![addr_a.clone(), addr_b.clone()],
        machine.clone(),
        noise,
        sweep_cfg.profiling.clone(),
        FleetOptions {
            batch_size: 8,
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(10),
            local_fallback: false,
        },
    );
    let (fleet_profile, fleet_report) = sweep(&machine, &mapping, p, noise, &sweep_cfg, &mut fleet);

    assert_eq!(
        local_profile.fingerprint(),
        fleet_profile.fingerprint(),
        "fleet-merged profile must be bit-identical to the local sweep"
    );
    assert_eq!(local_report.measurements, fleet_report.measurements);

    shutdown_worker(&addr_a).expect("shutdown worker a");
    shutdown_worker(&addr_b).expect("shutdown worker b");
    handle_a.join().expect("join a").expect("worker a ok");
    handle_b.join().expect("join b").expect("worker b ok");
}

/// Drain handshake: a driver that finishes its queue sends FRAME_DRAIN
/// and gets an acknowledging FRAME_DRAIN back, and the worker stays
/// alive for the next session instead of seeing an abrupt EOF.
#[test]
fn worker_acknowledges_drain_and_keeps_serving() {
    use hbar_simnet::wire::{
        encode_batch, encode_job, read_frame, write_frame, FRAME_BATCH, FRAME_DRAIN, FRAME_JOB,
        FRAME_RESULT,
    };
    use std::net::TcpStream;

    let (addr, handle) = spawn_worker(WorkerFault::None);
    let job = JobHeader {
        machine: MachineSpec::new(1, 1, 2),
        noise: NoiseModel::none(),
        profiling: ProfilingConfig::fast(),
    };

    for session in 0..2 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        write_frame(&mut stream, FRAME_JOB, &encode_job(&job).unwrap()).expect("send job");
        let batch = vec![PairWorkDescriptor {
            id: 0,
            kind: WorkKind::Pair,
            i: 0,
            j: 1,
            core_a: 0,
            core_b: 1,
            sub_seed: 42 + session,
            rep_scale: 1,
        }];
        write_frame(&mut stream, FRAME_BATCH, &encode_batch(&batch)).expect("send batch");
        let (tag, _) = read_frame(&mut stream).expect("read result");
        assert_eq!(tag, FRAME_RESULT, "session {session}: expected a result");
        write_frame(&mut stream, FRAME_DRAIN, &[]).expect("send drain");
        let (tag, payload) = read_frame(&mut stream).expect("read drain ack");
        assert_eq!(tag, FRAME_DRAIN, "session {session}: expected a drain ack");
        assert!(payload.is_empty());
    }

    shutdown_worker(&addr).expect("shutdown worker");
    handle.join().expect("join").expect("worker ok");
}

/// A second fleet scenario: a worker that dies for good. The other
/// worker must drain the whole queue alone.
#[test]
fn loopback_fleet_tolerates_permanent_worker_death() {
    let machine = MachineSpec::new(2, 2, 2);
    let mapping = RankMapping::RoundRobin;
    let noise = NoiseModel::realistic(13);
    let sweep_cfg = SweepConfig::exact(ProfilingConfig::fast());
    let p = 8;

    let (local_profile, _) = sweep_locally(&machine, &mapping, p, noise, &sweep_cfg);

    let (addr_a, handle_a) = spawn_worker(WorkerFault::DieAfter { after: 1 });
    let (addr_b, handle_b) = spawn_worker(WorkerFault::None);
    let mut fleet = FleetExecutor::for_sweep(
        vec![addr_a, addr_b.clone()],
        machine.clone(),
        noise,
        sweep_cfg.profiling.clone(),
        FleetOptions {
            batch_size: 4,
            reconnect_attempts: 2,
            reconnect_backoff: Duration::from_millis(5),
            local_fallback: false,
        },
    );
    let (fleet_profile, _) = sweep(&machine, &mapping, p, noise, &sweep_cfg, &mut fleet);
    assert_eq!(local_profile.fingerprint(), fleet_profile.fingerprint());

    handle_a
        .join()
        .expect("join a")
        .expect("worker a exited by fault");
    shutdown_worker(&addr_b).expect("shutdown worker b");
    handle_b.join().expect("join b").expect("worker b ok");
}
