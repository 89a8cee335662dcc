//! `hbar` — command-line front end to the barrier-synthesis pipeline.
//!
//! ```text
//! hbar profile  --machine 8x2x4 --mapping rr --ranks 64 --out prof.json [--fast] [--seed N] [--exact-machine]
//!               [--clustered] [--probes N] [--workers HOST:PORT,...] [--stop-workers]
//!               [--mem-budget BYTES]
//! hbar profile-worker --listen HOST:PORT
//! hbar serve    --listen HOST:PORT [--shards N] [--cache-cap N] [--cache-bytes N] [--workers N]
//! hbar tune-client --connect HOST:PORT [--count N] [--requests N] [--seed N] [--zipf S]
//!               [--check all|sample|none] [--stats] [--shutdown]
//! hbar tune     --profile prof.json --out sched.json [--extended] [--exact-scoring] [--sparseness F]
//! hbar predict  --profile prof.json --schedule sched.json
//! hbar verify   --schedule sched.json
//! hbar simulate --profile prof.json --schedule sched.json [--reps N] [--seed N]
//! hbar codegen  --schedule sched.json --lang c|rust [--name NAME]
//! hbar heatmap  --profile prof.json [--matrix l|o]
//! hbar search   --profile prof.json --out sched.json [--max-stages N] [--max-expansions N]
//! ```
//!
//! `hbar serve` is the tuning daemon (sharded schedule cache, request
//! coalescing, bounded tuner pool); `hbar tune-client` is its load
//! generator and correctness checker — `--check all` asserts every
//! served schedule bit-identical to a local tune.
//!
//! Machines are `NODESxSOCKETSxCORES` (e.g. `8x2x4`) or the presets
//! `cluster-a` / `cluster-b`; mappings are `rr` (round-robin) or `block`.
//!
//! `hbar profile` runs one profiling sweep in one of two classing
//! regimes. By default every pair is its own class: the exhaustive
//! `|P|(|P|−1)/2` benchmark sweep of §IV-A, limited to P ≤ 361 by the
//! `u16` class grid (larger runs fail before measuring anything).
//! `--clustered` classes pairs by topology features instead: one
//! representative benchmark per class plus `--probes` validation probes.
//! `--workers` shards the measurements of either regime across
//! `hbar profile-worker` TCP processes, falling back to local execution
//! if the fleet dies.
//!
//! The sweep scatters into a class grid, staging tiles under
//! `--mem-budget` bytes (default unbounded) and spilling them to a
//! scratch directory beyond it, so the sweep itself runs in bounded
//! resident memory even at P ≫ 4096. The written profile is the
//! standard dense document, expanded from the class grid on save.

use hbarrier::core::codegen::{c_source, compile_schedule, rust_source};
use hbarrier::core::compose::{tune_hybrid_for, TunerConfig};
use hbarrier::core::cost::{predict_barrier_cost, CostParams};
use hbarrier::core::schedule::BarrierSchedule;
use hbarrier::core::verify;
use hbarrier::prelude::*;
use hbarrier::simnet::barrier::measure_schedule;
use hbarrier::simnet::distrib::{
    serve_worker, shutdown_worker, FleetExecutor, FleetOptions, WorkerFault,
};
use hbarrier::simnet::profiling::ProfilingConfig;
use hbarrier::simnet::{
    measure_profile_compressed, DescriptorExecutor, LocalExecutor, NoiseModel, SpillConfig,
    SweepConfig, SweepError,
};
use hbarrier::topo::heatmap::render_labelled;
use hbarrier::topo::CompressError;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let flags = parse_flags(&args[1..])?;
    match cmd.as_str() {
        "profile" => cmd_profile(&flags),
        "profile-worker" => cmd_profile_worker(&flags),
        "serve" => cmd_serve(&flags),
        "tune-client" => cmd_tune_client(&flags),
        "tune" => cmd_tune(&flags),
        "predict" => cmd_predict(&flags),
        "verify" => cmd_verify(&flags),
        "simulate" => cmd_simulate(&flags),
        "codegen" => cmd_codegen(&flags),
        "heatmap" => cmd_heatmap(&flags),
        "search" => cmd_search(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: hbar <profile|profile-worker|serve|tune-client|tune|predict|verify|simulate|codegen|heatmap|search> [--flag value]...\n\
     run `hbar help` or see the crate docs for flags"
        .to_string()
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{a}`"));
        };
        // Boolean flags take no value; value flags consume the next arg.
        let boolean = matches!(
            name,
            "fast"
                | "extended"
                | "exact-scoring"
                | "exact-machine"
                | "clustered"
                | "stop-workers"
                | "stats"
                | "shutdown"
        );
        if boolean {
            flags.insert(name.to_string(), "true".to_string());
        } else {
            let v = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), v.clone());
        }
    }
    Ok(flags)
}

fn req<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn parse_machine(spec: &str) -> Result<MachineSpec, String> {
    match spec {
        "cluster-a" => Ok(MachineSpec::dual_quad_cluster(8)),
        "cluster-b" => Ok(MachineSpec::dual_hex_cluster(10)),
        other => {
            let parts: Vec<usize> = other
                .split('x')
                .map(|v| v.parse().map_err(|_| format!("bad machine spec `{other}`")))
                .collect::<Result<_, _>>()?;
            if parts.len() != 3 || parts.contains(&0) {
                return Err(format!("machine spec must be NxSxC, got `{other}`"));
            }
            Ok(MachineSpec::new(parts[0], parts[1], parts[2]))
        }
    }
}

fn parse_mapping(spec: &str) -> Result<RankMapping, String> {
    match spec {
        "rr" | "round-robin" => Ok(RankMapping::RoundRobin),
        "block" => Ok(RankMapping::Block),
        other => Err(format!("mapping must be rr|block, got `{other}`")),
    }
}

fn load_profile(flags: &Flags) -> Result<TopologyProfile, String> {
    let path = req(flags, "profile")?;
    TopologyProfile::load(Path::new(path)).map_err(|e| format!("cannot load profile {path}: {e}"))
}

fn load_schedule(flags: &Flags) -> Result<BarrierSchedule, String> {
    let path = req(flags, "schedule")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse schedule {path}: {e}"))
}

fn cmd_profile(flags: &Flags) -> Result<(), String> {
    let machine = parse_machine(req(flags, "machine")?)?;
    let mapping = parse_mapping(flags.get("mapping").map(String::as_str).unwrap_or("rr"))?;
    let p: usize = match flags.get("ranks") {
        Some(v) => v.parse().map_err(|_| "bad --ranks".to_string())?,
        None => machine.total_cores(),
    };
    let out = req(flags, "out")?;
    let mut summary = format!("{} pairwise estimates", p * (p - 1) / 2);
    let profile = if flags.contains_key("exact-machine") {
        // Closed-form noise-free profile (no benchmarking).
        TopologyProfile::from_ground_truth_for(&machine, &mapping, p)
    } else {
        let seed: u64 = flags
            .get("seed")
            .map(|v| v.parse().map_err(|_| "bad --seed".to_string()))
            .transpose()?
            .unwrap_or(1);
        let cfg = if flags.contains_key("fast") {
            ProfilingConfig::fast()
        } else {
            ProfilingConfig::default()
        };
        let noise = NoiseModel::realistic(seed);
        let mut sweep_cfg = if flags.contains_key("clustered") {
            SweepConfig {
                profiling: cfg,
                ..SweepConfig::default()
            }
        } else {
            SweepConfig::exact(cfg)
        };
        if let Some(v) = flags.get("probes") {
            sweep_cfg.probes_per_class = v.parse().map_err(|_| "bad --probes".to_string())?;
        }
        let dir = std::env::temp_dir().join(format!("hbar-profile-spill-{}", std::process::id()));
        let spill = match flags.get("mem-budget") {
            Some(v) => {
                let bytes: usize = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| "bad --mem-budget".to_string())?;
                SpillConfig::budgeted(dir, bytes)
            }
            None => SpillConfig::in_memory(dir),
        };
        let workers: Vec<String> = flags
            .get("workers")
            .map(|list| {
                list.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default();
        if flags.contains_key("workers") && workers.is_empty() {
            return Err("--workers needs at least one HOST:PORT".to_string());
        }
        let mut executor: Box<dyn DescriptorExecutor> = if workers.is_empty() {
            Box::new(LocalExecutor::new(
                machine.clone(),
                noise,
                sweep_cfg.profiling.clone(),
            ))
        } else {
            Box::new(FleetExecutor::for_sweep(
                workers.clone(),
                machine.clone(),
                noise,
                sweep_cfg.profiling.clone(),
                FleetOptions::default(),
            ))
        };
        let result = measure_profile_compressed(
            &machine,
            &mapping,
            p,
            noise,
            &sweep_cfg,
            &spill,
            executor.as_mut(),
        );
        if flags.contains_key("stop-workers") {
            for a in &workers {
                if let Err(e) = shutdown_worker(a.as_str()) {
                    eprintln!("warning: cannot stop worker {a}: {e}");
                }
            }
        }
        let (model, report, spilled) = result.map_err(|e| {
            let hint = match e {
                SweepError::Compress(CompressError::ClassOverflow { .. }) => {
                    " (exhaustive profiling holds at most 361 ranks; --clustered scales further)"
                }
                _ => "",
            };
            format!("profiling sweep failed: {e}{hint}")
        })?;
        summary = format!(
            "{} classes, {} measurements, {:.0}x fewer than exhaustive, \
             {} of {} scatter tiles spilled",
            model.classes(),
            report.measurements,
            report.reduction_factor(p),
            spilled.spilled_tiles,
            spilled.tiles
        );
        TopologyProfile {
            machine: machine.clone(),
            mapping,
            p,
            cost: model.to_dense(),
        }
    };
    profile
        .save(Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "profiled {} ranks on {} ({summary}) -> {out}",
        p, machine.name
    );
    Ok(())
}

fn cmd_profile_worker(flags: &Flags) -> Result<(), String> {
    let listen = req(flags, "listen")?;
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    println!("profile worker listening on {local}");
    serve_worker(listener, WorkerFault::None).map_err(|e| format!("worker failed: {e}"))
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use hbarrier::serve::{serve, ServeConfig};
    let listen = req(flags, "listen")?;
    let mut cfg = ServeConfig::default();
    let parse_num = |flags: &Flags, name: &str, into: &mut usize| -> Result<(), String> {
        if let Some(v) = flags.get(name) {
            *into = v
                .parse()
                .ok()
                .filter(|&n: &usize| n > 0)
                .ok_or_else(|| format!("bad --{name}"))?;
        }
        Ok(())
    };
    parse_num(flags, "shards", &mut cfg.cache.shards)?;
    parse_num(flags, "cache-cap", &mut cfg.cache.capacity)?;
    parse_num(flags, "cache-bytes", &mut cfg.cache.bytes_budget)?;
    parse_num(flags, "workers", &mut cfg.workers)?;
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    println!(
        "serve listening on {local} ({} shards, {} entries / {} bytes cache, {} workers)",
        cfg.cache.shards, cfg.cache.capacity, cfg.cache.bytes_budget, cfg.workers
    );
    // Scripted callers (CI smoke, tests) parse the bound address from a
    // pipe, so it must not sit in a block buffer.
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    serve(&listener, &cfg).map_err(|e| format!("serve failed: {e}"))
}

fn cmd_tune_client(flags: &Flags) -> Result<(), String> {
    use hbarrier::core::compose::tune_hybrid_costs;
    use hbarrier::serve::workload::{synthetic_topologies, SplitMix64, ZipfSampler};
    use hbarrier::serve::{shutdown_server, TuneClient, TuneRequest};

    let addr = req(flags, "connect")?;
    let count: usize = flags
        .get("count")
        .map(|v| v.parse().map_err(|_| "bad --count".to_string()))
        .transpose()?
        .unwrap_or(64);
    let requests: usize = flags
        .get("requests")
        .map(|v| v.parse().map_err(|_| "bad --requests".to_string()))
        .transpose()?
        .unwrap_or(count * 4);
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| "bad --seed".to_string()))
        .transpose()?
        .unwrap_or(1);
    let zipf_s: f64 = flags
        .get("zipf")
        .map(|v| v.parse().map_err(|_| "bad --zipf".to_string()))
        .transpose()?
        .unwrap_or(1.0);
    let check = flags.get("check").map(String::as_str).unwrap_or("sample");
    let check_every = match check {
        "all" => 1,
        "sample" => 16,
        "none" => 0,
        other => return Err(format!("--check must be all|sample|none, got `{other}`")),
    };

    let topologies = synthetic_topologies(count, seed);
    let zipf = ZipfSampler::new(count, zipf_s);
    let mut rng = SplitMix64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    let mut client =
        TuneClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut local_cache: HashMap<usize, String> = HashMap::new();
    let (mut hits, mut checked) = (0u64, 0u64);
    let started = std::time::Instant::now();
    for n in 0..requests {
        let k = zipf.sample(&mut rng);
        let req = TuneRequest::new(n as u64, topologies[k].clone());
        let resp = client
            .request(&req)
            .map_err(|e| format!("request {n} failed: {e}"))?;
        if resp.cache_hit {
            hits += 1;
        }
        if check_every > 0 && n % check_every == 0 {
            let expected = local_cache.entry(k).or_insert_with(|| {
                let members: Vec<usize> = (0..topologies[k].p()).collect();
                let tuned = tune_hybrid_costs(&topologies[k], &members, &req.tuner_config());
                serde_json::to_string(&tuned.schedule).expect("schedule serializes")
            });
            if resp.schedule_json != *expected {
                return Err(format!(
                    "PARITY FAILURE: request {n} (topology {k}) served a schedule \
                     that differs from the local tune"
                ));
            }
            checked += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "{requests} requests over {count} topologies (zipf {zipf_s}): \
         {hits} hits ({:.1}% hit rate), {checked} parity-checked, \
         {:.0} req/s sync",
        100.0 * hits as f64 / requests.max(1) as f64,
        requests as f64 / elapsed.max(1e-9),
    );
    if flags.contains_key("stats") {
        let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
        println!(
            "server: {} requests, {} hits / {} misses ({} coalesced), {} tunes, \
             {} errors, cache {} entries / {} bytes / {} evictions",
            stats.requests,
            stats.hits,
            stats.misses,
            stats.coalesced,
            stats.tunes,
            stats.errors,
            stats.cache_entries,
            stats.cache_bytes,
            stats.cache_evictions
        );
    }
    client.drain().map_err(|e| format!("drain failed: {e}"))?;
    if flags.contains_key("shutdown") {
        shutdown_server(addr).map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server shut down");
    }
    Ok(())
}

fn cmd_tune(flags: &Flags) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let out = req(flags, "out")?;
    let mut cfg = if flags.contains_key("extended") {
        TunerConfig::extended()
    } else {
        TunerConfig::default()
    };
    if flags.contains_key("exact-scoring") {
        cfg.score_exact = true;
    }
    if let Some(s) = flags.get("sparseness") {
        cfg.sparseness = s.parse().map_err(|_| "bad --sparseness".to_string())?;
    }
    let members: Vec<usize> = (0..profile.p).collect();
    let tuned = tune_hybrid_for(&profile, &members, &cfg);
    let json = serde_json::to_string_pretty(&tuned.schedule).expect("schedule serializes");
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "tuned hybrid for {} ranks: {} stages, {} signals, root {:?}, predicted {:.1} us -> {out}",
        profile.p,
        tuned.schedule.len(),
        tuned.schedule.total_signals(),
        tuned.root_algorithm(),
        tuned.predicted_cost * 1e6
    );
    for c in &tuned.choices {
        println!(
            "  depth {}: {} over {} participants (score {:.1} us)",
            c.depth,
            c.algorithm,
            c.participants.len(),
            c.score * 1e6
        );
    }
    Ok(())
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let schedule = load_schedule(flags)?;
    if schedule.n() != profile.p {
        return Err(format!(
            "schedule covers {} ranks but profile has {}",
            schedule.n(),
            profile.p
        ));
    }
    let pred = predict_barrier_cost(&schedule, &profile.cost, &CostParams::default(), None);
    println!("predicted barrier cost: {:.3} us", pred.barrier_cost * 1e6);
    println!(
        "per-stage frontier (us): {:?}",
        pred.stage_frontier
            .iter()
            .map(|v| (v * 1e7).round() / 10.0)
            .collect::<Vec<_>>()
    );
    Ok(())
}

fn cmd_verify(flags: &Flags) -> Result<(), String> {
    let schedule = load_schedule(flags)?;
    if verify::is_barrier(&schedule) {
        println!(
            "valid barrier: {} ranks, {} stages, {} signals",
            schedule.n(),
            schedule.len(),
            schedule.total_signals()
        );
        Ok(())
    } else {
        let missing = verify::missing_knowledge(&schedule);
        Err(format!(
            "NOT a barrier: {} rank pairs never learn of each other (first few: {:?})",
            missing.len(),
            &missing[..missing.len().min(5)]
        ))
    }
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let schedule = load_schedule(flags)?;
    let reps: usize = flags
        .get("reps")
        .map(|v| v.parse().map_err(|_| "bad --reps".to_string()))
        .transpose()?
        .unwrap_or(25);
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| "bad --seed".to_string()))
        .transpose()?
        .unwrap_or(1);
    let cfg = SimConfig {
        machine: profile.machine.clone(),
        mapping: profile.mapping.clone(),
        noise: NoiseModel::realistic(seed),
    };
    let mut world = SimWorld::new(cfg, profile.p);
    let t = measure_schedule(&mut world, &schedule, reps);
    println!(
        "measured barrier cost: {:.3} us (mean of {reps} executions)",
        t * 1e6
    );
    Ok(())
}

fn cmd_codegen(flags: &Flags) -> Result<(), String> {
    let schedule = load_schedule(flags)?;
    let name = flags
        .get("name")
        .map(String::as_str)
        .unwrap_or("generated_barrier");
    let programs = compile_schedule(&schedule).map_err(|e| format!("cannot compile: {e}"))?;
    let lang = flags.get("lang").map(String::as_str).unwrap_or("c");
    let src = match lang {
        "c" => c_source(name, &programs),
        "rust" => rust_source(name, &programs),
        other => return Err(format!("lang must be c|rust, got `{other}`")),
    }
    .map_err(|e| format!("cannot emit {lang}: {e}"))?;
    print!("{src}");
    Ok(())
}

fn cmd_search(flags: &Flags) -> Result<(), String> {
    use hbarrier::core::compose::{search_optimal_barrier, SearchConfig};
    let profile = load_profile(flags)?;
    let out = req(flags, "out")?;
    if profile.p > 6 {
        eprintln!(
            "warning: exhaustive search over {} ranks is exponential; expect long runtimes or truncation",
            profile.p
        );
    }
    let mut cfg = SearchConfig::default();
    if let Some(v) = flags.get("max-stages") {
        cfg.max_stages = v.parse().map_err(|_| "bad --max-stages".to_string())?;
    }
    if let Some(v) = flags.get("max-expansions") {
        cfg.max_expansions = v.parse().map_err(|_| "bad --max-expansions".to_string())?;
    }
    // Seed with the greedy hybrid so the search can only improve on it.
    let members: Vec<usize> = (0..profile.p).collect();
    let greedy = tune_hybrid_for(&profile, &members, &TunerConfig::default());
    let result = search_optimal_barrier(&profile.cost, &cfg, Some(&greedy.schedule));
    let json = serde_json::to_string_pretty(&result.schedule).expect("schedule serializes");
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "search {} after {} states: best {:.2} us ({} stages) vs greedy {:.2} us -> {out}",
        if result.complete {
            "complete"
        } else {
            "TRUNCATED"
        },
        result.expansions,
        result.cost * 1e6,
        result.schedule.len(),
        greedy.predicted_cost * 1e6
    );
    Ok(())
}

fn cmd_heatmap(flags: &Flags) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let which = flags.get("matrix").map(String::as_str).unwrap_or("l");
    let (matrix, label) = match which {
        "l" => (&profile.cost.l, "L matrix (per-message latency)"),
        "o" => (&profile.cost.o, "O matrix (startup cost)"),
        other => return Err(format!("matrix must be l|o, got `{other}`")),
    };
    println!("{}", render_labelled(matrix, label));
    Ok(())
}
