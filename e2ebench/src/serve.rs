//! The serve-zipf workload: an in-process `hbar serve` on loopback and
//! one closed-loop client.
//!
//! Callers of a tuning service are job launchers that each wait for
//! their reply, so the load is a closed loop: one connection keeps
//! [`IN_FLIGHT`] requests outstanding and sends the next one only when an
//! answer arrives. (An open-loop generator that spins between sends
//! measures the scheduler of a small host, not the server.)

use crate::trace::Recorder;
use crate::{median, nearest_rank, Mode, Outcome};
use hbarrier::core::algorithms::Algorithm;
use hbarrier::core::compose::tune_hybrid_costs;
use hbarrier::core::schedule::BarrierSchedule;
use hbarrier::serve::cache::CacheConfig;
use hbarrier::serve::client::{TuneClient, TuneReply};
use hbarrier::serve::proto::{ServeStats, TuneRequest, TuneResponse};
use hbarrier::serve::server::{ServeConfig, ServerHandle};
use hbarrier::serve::workload::{synthetic_topologies, SplitMix64, ZipfSampler};
use hbarrier::simnet::barrier::schedule_programs;
use hbarrier::simnet::{ns_to_sec, NoiseModel, SimConfig, SimWorld};
use hbarrier::topo::cost::CostMatrices;
use hbarrier::topo::machine::MachineSpec;
use hbarrier::topo::mapping::RankMapping;
use std::time::{Duration, Instant};

const TOPOLOGIES: usize = 1024;
const SHARDS: usize = 16;
/// Below the key count, so the cache evicts and misses re-tune.
const CAPACITY: usize = 768;
const IN_FLIGHT: usize = 8;
const ZIPF_S: f64 = 1.0;
const SETUP_REPS: usize = 3;
/// Traced and untraced slices alternate at this period.
const SLICE: Duration = Duration::from_millis(500);
const SIM_REPS: usize = 10;
/// Topology `k` of `synthetic_topologies` is the ground-truth profile of
/// `MachineSpec::new(SHAPES[k % 3])` under block placement, jittered.
/// The served barriers are simulated on those machines.
const SHAPES: [(usize, usize, usize); 3] = [(1, 2, 4), (2, 2, 3), (2, 2, 4)];

/// A served answer, as the checks compare it.
#[derive(Clone, PartialEq)]
struct Answer {
    schedule_json: String,
    predicted_bits: u64,
}

impl Answer {
    fn of(resp: &TuneResponse) -> Answer {
        Answer {
            schedule_json: resp.schedule_json.clone(),
            predicted_bits: resp.predicted_cost.to_bits(),
        }
    }
}

/// Requests kept per reservoir; p99 then has over a thousand samples
/// beyond it.
const RESERVOIR: usize = 1 << 17;

/// One completed request of the timed window.
#[derive(Clone, Copy)]
struct Done {
    latency_ns: u32,
    topology: u16,
    hit: bool,
}

/// A uniform sample of fixed size over all completed requests (Vitter's
/// algorithm R). A window completes about a million requests; keeping a
/// fixed-size sample makes `peak_rss_mb` measure the server and not how
/// many requests this client recorded.
struct Reservoir {
    seen: u64,
    hits: u64,
    rng: SplitMix64,
    samples: Vec<Done>,
}

impl Reservoir {
    fn new(seed: u64) -> Reservoir {
        Reservoir {
            seen: 0,
            hits: 0,
            rng: SplitMix64(seed),
            samples: Vec::with_capacity(RESERVOIR),
        }
    }

    fn push(&mut self, d: Done) {
        self.seen += 1;
        self.hits += u64::from(d.hit);
        if self.samples.len() < RESERVOIR {
            self.samples.push(d);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.samples.get_mut(j as usize) {
                *slot = d;
            }
        }
    }

    fn latencies(&self, hit: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|d| hit.is_none_or(|h| d.hit == h))
            .map(|d| f64::from(d.latency_ns) * 1e-9)
            .collect()
    }
}

struct Session {
    server: ServerHandle,
    client: TuneClient,
    prewarm: ServeStats,
}

/// Spawns a server and sends every topology once. Returns the session
/// and the answers in topology order.
fn set_up(topologies: &[CostMatrices], workers: usize) -> std::io::Result<(Session, Vec<Answer>)> {
    let cfg = ServeConfig {
        cache: CacheConfig {
            shards: SHARDS,
            capacity: CAPACITY,
            ..CacheConfig::default()
        },
        workers,
    };
    let server = ServerHandle::spawn("127.0.0.1:0", &cfg)?;
    let mut client = TuneClient::connect(server.addr())?;
    let mut answers = Vec::with_capacity(topologies.len());
    for (id, cost) in (1..).zip(topologies) {
        let resp = client.request(&TuneRequest::new(id, cost.clone()))?;
        answers.push(Answer::of(&resp));
    }
    let prewarm = client.stats()?;
    Ok((
        Session {
            server,
            client,
            prewarm,
        },
        answers,
    ))
}

fn close(session: Session) -> std::io::Result<()> {
    session.client.drain()?;
    session.server.shutdown()
}

/// What the closed loop measured.
struct Window {
    /// Untraced and traced requests.
    done: [Reservoir; 2],
    /// Wall time spent in untraced and traced slices.
    slice_s: [f64; 2],
    /// Sum of the traced requests' latencies.
    traced_busy_s: f64,
    /// Untraced ÷ traced requests per adjacent pair of full slices.
    pair_ratios: Vec<f64>,
    /// Answers received, and those that were errors, unexpected or
    /// different from the topology's first answer.
    attempted: u64,
    failed: u64,
}

/// Runs the closed loop for `window`; in traced slices each request is
/// also recorded as a span.
fn closed_loop(
    client: &mut TuneClient,
    topologies: &[CostMatrices],
    answers: &[Answer],
    seed: u64,
    window: Duration,
    mode: Mode,
    rec: &mut Recorder,
) -> std::io::Result<Window> {
    let zipf = ZipfSampler::new(topologies.len(), ZIPF_S);
    let mut next_id = 0u64;
    let mut rng = SplitMix64(seed ^ 0x7a69_7066_6c6f_6f70);
    let mut done = [Reservoir::new(seed ^ 1), Reservoir::new(seed ^ 2)];
    // (id, sent, topology, slice of the send)
    let mut slots: Vec<(u64, Instant, u16, usize)> = Vec::with_capacity(IN_FLIGHT);
    let started = Instant::now();
    let slice_of =
        |t: Instant| (t.saturating_duration_since(started).as_nanos() / SLICE.as_nanos()) as usize;
    let traced_in = |slice: usize| match mode {
        Mode::Plain => false,
        Mode::Traced => true,
        Mode::Alternate => slice % 2 == 1,
    };
    // Requests completed, by the slice they were sent in.
    let mut per_slice: Vec<u64> = Vec::new();
    let mut send = |client: &mut TuneClient, slots: &mut Vec<_>| -> std::io::Result<()> {
        let k = zipf.sample(&mut rng);
        next_id += 1;
        let sent = Instant::now();
        client.send(&TuneRequest::new(next_id, topologies[k].clone()))?;
        slots.push((next_id, sent, k as u16, slice_of(sent)));
        Ok(())
    };
    for _ in 0..IN_FLIGHT {
        send(client, &mut slots)?;
    }
    rec.set_on(mode != Mode::Plain);
    let mut last = started;
    let mut traced_busy_s = 0.0;
    let (mut attempted, mut failed) = (0, 0);
    while !slots.is_empty() {
        let reply = client.recv()?;
        let now = Instant::now();
        last = now;
        attempted += 1;
        let id = match &reply {
            TuneReply::Ok(resp) => resp.id,
            TuneReply::Err { id, .. } => *id,
        };
        let Some(pos) = slots.iter().position(|s| s.0 == id) else {
            failed += 1;
            continue;
        };
        let (id, sent, k, slice) = slots.swap_remove(pos);
        let traced = traced_in(slice);
        match reply {
            TuneReply::Ok(resp) => {
                if per_slice.len() <= slice {
                    per_slice.resize(slice + 1, 0);
                }
                per_slice[slice] += 1;
                if Answer::of(&resp) != answers[k as usize] {
                    failed += 1;
                }
                if traced {
                    rec.set_trace(id);
                    rec.record("request", sent, now);
                    traced_busy_s += now.duration_since(sent).as_secs_f64();
                }
                done[usize::from(traced)].push(Done {
                    latency_ns: u32::try_from(now.duration_since(sent).as_nanos())
                        .unwrap_or(u32::MAX),
                    topology: k,
                    hit: resp.cache_hit,
                });
            }
            TuneReply::Err { .. } => failed += 1,
        }
        if now.duration_since(started) < window {
            send(client, &mut slots)?;
        }
    }
    rec.set_on(false);
    let total = last.duration_since(started);
    let mut per_mode = [0.0f64; 2];
    let mut t = Duration::ZERO;
    while t < total {
        let len = SLICE.min(total - t);
        per_mode[usize::from(traced_in(slice_of(started + t)))] += len.as_secs_f64();
        t += SLICE;
    }
    // Adjacent slices see the same host speed, so per-pair ratios keep
    // drift over the window out of the overhead. The last slice is cut
    // short by the end of the window and pairs with nothing.
    let full = per_slice.len().saturating_sub(1);
    let pair_ratios = match mode {
        Mode::Alternate => (0..full / 2)
            .map(|i| per_slice[2 * i] as f64 / per_slice[2 * i + 1].max(1) as f64)
            .collect(),
        _ => Vec::new(),
    };
    Ok(Window {
        done,
        slice_s: per_mode,
        traced_busy_s,
        pair_ratios,
        attempted,
        failed,
    })
}

fn check(out: &mut Outcome, ok: bool) {
    out.attempted += 1;
    out.failed += u64::from(!ok);
}

/// Simulated seconds per execution of `schedule` on `machine`.
fn simulate(machine: &MachineSpec, seed: u64, schedule: &BarrierSchedule) -> Option<f64> {
    let cfg = SimConfig {
        machine: machine.clone(),
        mapping: RankMapping::Block,
        noise: NoiseModel::realistic(seed),
    };
    let mut world = SimWorld::new(cfg, schedule.n());
    let result = world.run(&schedule_programs(schedule, SIM_REPS)).ok()?;
    Some(ns_to_sec(result.makespan()) / SIM_REPS as f64)
}

/// Median seconds per pass of `f` over `n` items, from five passes.
fn per_item(n: usize, mut f: impl FnMut()) -> f64 {
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[2]
}

pub fn run(
    seed: u64,
    window: Duration,
    mode: Mode,
    workers: usize,
    rec: &mut Recorder,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Session, Vec<CostMatrices>, Vec<Answer>)> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let topologies = synthetic_topologies(TOPOLOGIES, seed);
        let (session, answers) = set_up(&topologies, workers)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, _, first)) = kept.take() {
            // Every fresh server gives the same answers.
            check(&mut out, answers == first);
            close(old)?;
        }
        kept = Some((session, topologies, answers));
    }
    let (mut session, topologies, answers) = kept.expect("at least one set-up");

    let Window {
        done,
        slice_s,
        traced_busy_s,
        pair_ratios,
        attempted,
        failed,
    } = closed_loop(
        &mut session.client,
        &topologies,
        &answers,
        seed,
        window,
        mode,
        rec,
    )?;
    out.attempted += attempted;
    out.failed += failed;
    let stats = session.client.stats()?;
    let prewarm = session.prewarm.clone();
    close(session)?;

    // Server counters: every request is a hit or a miss, every miss
    // either tunes or joins a running tune, and nothing failed. A key is
    // tuned again only after it was evicted.
    check(&mut out, stats.hits + stats.misses == stats.requests);
    check(&mut out, stats.tunes + stats.coalesced == stats.misses);
    check(
        &mut out,
        stats.tunes <= TOPOLOGIES as u64 + stats.cache_evictions,
    );
    check(&mut out, stats.errors == 0);

    // Every response matched its topology's first answer; now check
    // those answers against local tunes, and simulate the served
    // barriers against the rank-order tree on the machines the
    // topologies were derived from.
    let machines: Vec<MachineSpec> = SHAPES
        .iter()
        .map(|&(n, s, c)| MachineSpec::new(n, s, c))
        .collect();
    let mut tune_s = vec![0.0; topologies.len()];
    let (mut w_sum, mut sim_sum, mut tree_sum, mut err_sum) = (0.0, 0.0, 0.0, 0.0);
    for (k, (cost, answer)) in topologies.iter().zip(&answers).enumerate() {
        let members: Vec<usize> = (0..cost.p()).collect();
        let cfg = TuneRequest::new(0, cost.clone()).tuner_config();
        let t = Instant::now();
        let local = tune_hybrid_costs(cost, &members, &cfg);
        tune_s[k] = t.elapsed().as_secs_f64();
        let json = serde_json::to_string(&local.schedule).expect("schedule serializes");
        check(
            &mut out,
            answer.schedule_json == json && answer.predicted_bits == local.predicted_cost.to_bits(),
        );
        let machine = &machines[k % machines.len()];
        let tree = Algorithm::Tree.full_schedule(cost.p(), &members);
        let sim_seed = seed ^ k as u64;
        let sims = if machine.total_cores() == cost.p() {
            simulate(machine, sim_seed, &local.schedule).zip(simulate(machine, sim_seed, &tree))
        } else {
            None
        };
        check(&mut out, sims.is_some());
        if let Some((sim, tree)) = sims {
            // Weighted by the Zipf popularity of the topology: the mean
            // over requests, independent of how many the window held.
            let w = 1.0 / ((k + 1) as f64).powf(ZIPF_S);
            w_sum += w;
            sim_sum += w * sim;
            tree_sum += w * tree;
            err_sum += w * (sim - f64::from_bits(answer.predicted_bits)).abs();
        }
    }

    let [plain, traced] = &done;
    let m = &mut out.metrics;
    if plain.seen > 0 {
        let all = plain.latencies(None);
        m.insert("serve_rps".into(), plain.seen as f64 / slice_s[0]);
        m.insert("serve_p50_us".into(), median(&all) * 1e6);
        m.insert("serve_p99_us".into(), nearest_rank(&all, 0.99) * 1e6);
        m.insert("pipeline_s".into(), median(&plain.latencies(Some(false))));
    }
    if w_sum > 0.0 {
        m.insert("barrier_us".into(), sim_sum / w_sum * 1e6);
        m.insert("speedup_vs_tree".into(), tree_sum / sim_sum);
        m.insert("prediction_err".into(), err_sum / sim_sum);
    }
    m.insert("setup_s".into(), median(&setup_s));

    if traced.seen == 0 {
        return Ok(out);
    }
    // What each traced miss paid for its tune, timed standalone.
    let missed: Vec<f64> = traced
        .samples
        .iter()
        .filter(|d| !d.hit)
        .map(|d| tune_s[usize::from(d.topology)])
        .collect();
    let hit_p50 = median(&traced.latencies(Some(true)));
    let miss_p50 = median(&traced.latencies(Some(false)));
    let tune_busy = median(&missed);

    // Standalone wire codec cost of one request and its response.
    let requests: Vec<TuneRequest> = topologies
        .iter()
        .map(|c| TuneRequest::new(1, c.clone()))
        .collect();
    let responses: Vec<TuneResponse> = answers
        .iter()
        .map(|a| TuneResponse {
            id: 1,
            cache_hit: true,
            predicted_cost: f64::from_bits(a.predicted_bits),
            schedule_json: a.schedule_json.clone(),
            code_c: String::new(),
        })
        .collect();
    let mut req_bytes = vec![Vec::new(); requests.len()];
    let mut resp_bytes = vec![Vec::new(); responses.len()];
    let encode = per_item(requests.len(), || {
        for ((req, resp), (rb, sb)) in requests
            .iter()
            .zip(&responses)
            .zip(req_bytes.iter_mut().zip(resp_bytes.iter_mut()))
        {
            req.encode_into(rb);
            resp.encode_into(sb);
        }
    });
    let mut decoded_ok = true;
    let decode = per_item(requests.len(), || {
        for (rb, sb) in req_bytes.iter().zip(&resp_bytes) {
            decoded_ok &= TuneRequest::decode(rb).is_ok() && TuneResponse::decode(sb).is_ok();
        }
    });
    check(&mut out, decoded_ok);

    let m = &mut out.metrics;
    m.insert("proto.encode_us".into(), encode * 1e6);
    m.insert("proto.decode_us".into(), decode * 1e6);
    m.insert(
        "cache.hit_rate".into(),
        traced.hits as f64 / traced.seen as f64,
    );
    m.insert(
        "cache.evictions".into(),
        (stats.cache_evictions - prewarm.cache_evictions) as f64,
    );
    m.insert("cache.bytes".into(), stats.cache_bytes as f64);
    m.insert(
        "cache.prewarm_evictions".into(),
        prewarm.cache_evictions as f64,
    );
    m.insert("tune.busy_us".into(), tune_busy * 1e6);
    m.insert("tune.count".into(), (stats.tunes - prewarm.tunes) as f64);
    m.insert(
        "tune.coalesced".into(),
        (stats.coalesced - prewarm.coalesced) as f64,
    );
    m.insert("tune.prewarm_count".into(), prewarm.tunes as f64);
    m.insert("latency.hit_p50_us".into(), hit_p50 * 1e6);
    m.insert("latency.miss_p50_us".into(), miss_p50 * 1e6);
    m.insert(
        "queue.wait_us".into(),
        (miss_p50 - hit_p50 - tune_busy) * 1e6,
    );
    // The share of the client's in-flight slots the request spans cover.
    m.insert(
        "trace.coverage".into(),
        traced_busy_s / (slice_s[1] * IN_FLIGHT as f64),
    );
    if !pair_ratios.is_empty() {
        m.insert("trace.overhead".into(), median(&pair_ratios) - 1.0);
    }
    Ok(out)
}
