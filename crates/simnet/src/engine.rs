//! The discrete-event engine.
//!
//! ## Microscopic model
//!
//! A message from rank `i` to rank `j` of link class `c` passes through
//! serial resources in order, each charging a (possibly noise-perturbed)
//! occupancy from the machine's [`GroundTruth`]:
//!
//! 1. **Sender CPU** — `call_overhead + cpu_send(c)`; consecutive calls by
//!    the same process serialize here.
//! 2. **Node NIC TX** (inter-node only) — `nic_tx`; all traffic leaving a
//!    node serializes here, which is what makes many ranks per node
//!    sharing one gigabit NIC expensive (and what the measured `L`
//!    captures for inter-node pairs).
//! 3. **Wire** — `wire + bytes · ns_per_byte`, unlimited parallelism.
//! 4. **Node NIC RX** (inter-node only) — `nic_rx`.
//! 5. **Receiver CPU** — `cpu_recv(c)`, charged when the message matches a
//!    posted receive (at the later of availability and posting).
//!
//! A synchronous send's request completes at the *sender* when the
//! receiver has processed the message, plus one wire delay for the
//! acknowledgement — the `MPI_Issend` property the paper's benchmarks
//! lean on ("making local completion an indication that both processes
//! have been involved").
//!
//! Receives match per `(src, dst)` pair in FIFO order. Posting any call
//! costs `call_overhead` on the caller's CPU. `Delay` models computation
//! without occupying the CPU resource (message progress continues, as
//! with an MPI progress thread).
//!
//! ## Per-pair state
//!
//! Nothing in the engine is sized `p × p`. Link charges depend only on a
//! pair's [`LinkClass`], so they live in a three-entry table indexed by
//! class, resolved from the two ranks' placements when a pair is first
//! used. Matching state lives in a sparse pool: a slot arena plus a map
//! from the packed key `dst * p + src` to a slot, where a slot is
//! allocated on a pair's first use and carries the pair's charges next to
//! its FIFO. A barrier touches O(p log p) pairs, so memory is
//! O(p + pairs used) — a few MiB where dense tables needed gigabytes at
//! p = 4096 — and building an engine is O(p).
//!
//! Each `Issend` and `Irecv` resolves its slot once: from the rank's
//! hint when it repeats its last peer in that role (bursts, ping-pongs),
//! else by one map lookup. The arrival event carries the slot index in
//! its payload, so delivery needs none. The keys are dense small
//! integers, so the map uses a multiplicative hasher: one multiply
//! instead of SipHash's rounds, on a path a large barrier takes for
//! nearly every message.
//!
//! ## Reuse lifecycle
//!
//! An `Engine` is built **once** per placement ([`Engine::new`] takes the
//! core list and ground truth) and then runs arbitrarily many program
//! sets: [`run`](Engine::run) borrows a program slice, [`reset`]s the
//! per-run state, and interprets instructions **by value** (`Instr` is
//! `Copy`; mark labels are interned ids). Per-run state — the event queue,
//! per-process interpreter states and per-resource clocks — is cleared
//! between runs without releasing capacity. Slots outlive runs: a
//! completed run drains every pair FIFO (each request completes only by a
//! match), so a reset touches no slot unless the last run deadlocked, and
//! a warm engine that reruns the same pairs neither inserts into the map
//! nor allocates. Results are bit-identical to a
//! freshly constructed engine: event ordering depends only on
//! `(time, seq)` and `seq` restarts at zero each run, so the
//! deterministic noise stream is consumed in the same order.
//!
//! [`reset`]: Engine::reset

use crate::noise::{NoiseModel, NoiseState};
use crate::program::{Instr, LabelId, Program};
use crate::trace::{Trace, TraceEvent};
use crate::Time;
use hbar_topo::machine::{CoreId, GroundTruth, LinkClass};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A serial resource reserved in event-time order.
#[derive(Clone, Copy, Debug, Default)]
struct Resource {
    free_at: Time,
}

impl Resource {
    /// Reserves the resource for `dur` starting no earlier than `at`;
    /// returns the completion time.
    fn acquire(&mut self, at: Time, dur: Time) -> Time {
        let start = self.free_at.max(at);
        self.free_at = start + dur;
        self.free_at
    }
}

/// Event tags, packed into the top bits of an event payload.
const TAG_RESUME: u32 = 0;
const TAG_ARRIVE: u32 = 1;
const TAG_RECV_DONE: u32 = 2;
const TAG_SEND_DONE: u32 = 3;

/// Argument width in a packed event payload: a rank, or for arrivals a
/// pair-slot index (< p², so 30 bits hold any slot of a 32768-rank
/// engine), below a 2-bit tag.
const ARG_BITS: u32 = 30;
const ARG_MASK: u32 = (1 << ARG_BITS) - 1;

/// The largest rank count whose packed pair keys and slot indices fit
/// the argument field.
const MAX_RANKS: usize = 1 << (ARG_BITS / 2);

/// Packs `(tag, arg)` into an event payload word.
#[inline]
fn payload(tag: u32, arg: usize) -> u32 {
    debug_assert!(arg <= ARG_MASK as usize, "event argument {arg} overflows");
    (tag << ARG_BITS) | arg as u32
}

/// A popped queue entry. `key` carries the tie-breaking sequence number
/// in its high half and the packed `(tag, arg)` payload in its low half;
/// in the queue both words live in one `u128` (`time` on top) whose
/// integer order is exactly the engine's `(time, seq)` event order, since
/// sequence numbers are unique.
#[derive(Clone, Copy, Debug)]
struct Event {
    time: Time,
    key: u64,
}

impl Event {
    #[inline]
    fn tag(&self) -> u32 {
        self.key as u32 >> ARG_BITS
    }

    /// The rank (or, for arrivals, the pair slot) the event concerns.
    #[inline]
    fn arg(&self) -> usize {
        (self.key as u32 & ARG_MASK) as usize
    }
}

/// A monotone (radix-heap) priority queue over packed `u128` events.
///
/// Discrete-event simulation never schedules into the past, so every
/// pushed key exceeds the last popped one — the property radix heaps
/// exploit. Keys are binned by the position of their highest bit
/// differing from the last popped key; a push is an XOR, a
/// leading-zeros count and a `Vec` push, and a pop drains the lowest
/// occupied bin (found through a 128-bit occupancy mask), re-binning its
/// entries relative to the new minimum. Each key only ever migrates to
/// strictly lower bins, so the amortized cost per event is a few moves —
/// far below the comparison-sift cost of a binary heap on this workload.
/// Pops still yield the exact global minimum in `(time, seq)` order, so
/// event ordering (and therefore the noise-draw order) is bit-identical
/// to an ordinary heap.
#[derive(Debug)]
struct EventQueue {
    /// `bins[i]` holds keys whose XOR with `last` has highest bit `i`.
    bins: Vec<Vec<u128>>,
    /// Bit `i` set ⇔ `bins[i]` is non-empty.
    occupied: u128,
    /// The minimum key, extracted from its bin and awaiting `pop`.
    front: Option<u128>,
    /// Last popped (or staged) key; all queued keys exceed it.
    last: u128,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            bins: vec![Vec::new(); 128],
            occupied: 0,
            front: None,
            last: 0,
            len: 0,
        }
    }
}

impl EventQueue {
    #[inline]
    fn push(&mut self, key: u128) {
        debug_assert!(key > self.last, "monotonicity violated");
        let bin = 127 - (key ^ self.last).leading_zeros() as usize;
        self.bins[bin].push(key);
        self.occupied |= 1 << bin;
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<u128> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if let Some(v) = self.front.take() {
            return Some(v);
        }
        self.pull();
        self.front.take()
    }

    /// Extracts the minimum of the lowest occupied bin into `front` and
    /// re-bins that bin's remaining keys relative to it. Every re-binned
    /// key lands in a strictly lower bin (it shares the old highest
    /// differing bit with the minimum), which bounds the total moves.
    fn pull(&mut self) {
        let i = self.occupied.trailing_zeros() as usize;
        let mut bin = std::mem::take(&mut self.bins[i]);
        self.occupied &= !(1u128 << i);
        let (at, &min) = bin
            .iter()
            .enumerate()
            .min_by_key(|&(_, &k)| k)
            .expect("occupied bin is non-empty");
        bin.swap_remove(at);
        self.last = min;
        self.front = Some(min);
        for k in bin.drain(..) {
            let nb = 127 - (k ^ min).leading_zeros() as usize;
            self.bins[nb].push(k);
            self.occupied |= 1 << nb;
        }
        self.bins[i] = bin; // keep the drained bin's capacity
    }

    fn clear(&mut self) {
        let mut occ = self.occupied;
        while occ != 0 {
            let i = occ.trailing_zeros() as usize;
            self.bins[i].clear();
            occ &= occ - 1;
        }
        self.occupied = 0;
        self.front = None;
        self.last = 0;
        self.len = 0;
    }
}

/// Link charges of one link class, precomputed so a message resolves
/// its costs from one small struct instead of a `GroundTruth` match.
#[derive(Clone, Copy, Debug)]
struct PairCost {
    inter_node: bool,
    /// `call_overhead + cpu_send` — the sender CPU injection occupancy.
    inject_ns: Time,
    cpu_recv_ns: Time,
    nic_tx_ns: Time,
    nic_rx_ns: Time,
    wire_ns: Time,
    ns_per_byte: f64,
}

impl PairCost {
    fn new(gt: &GroundTruth, class: LinkClass) -> Self {
        let lc = gt.link(class);
        PairCost {
            inter_node: class == LinkClass::InterNode,
            inject_ns: gt.call_overhead_ns + lc.cpu_send_ns,
            cpu_recv_ns: lc.cpu_recv_ns,
            nic_tx_ns: lc.nic_tx_ns,
            nic_rx_ns: lc.nic_rx_ns,
            wire_ns: lc.wire_ns,
            ns_per_byte: lc.ns_per_byte,
        }
    }
}

/// Per-process interpreter state, reused across runs.
#[derive(Clone, Debug, Default)]
struct ProcState {
    pc: usize,
    /// Requests issued and not yet completed.
    outstanding: usize,
    /// Blocked in `WaitAll` (or at end of program awaiting completions).
    waiting: bool,
    done: bool,
    finish: Option<Time>,
    /// Recorded `Mark` timestamps as interned label ids; resolved to
    /// strings only when building the [`EngineResult`].
    marks: Vec<(LabelId, Time)>,
}

impl ProcState {
    fn reset(&mut self) {
        self.pc = 0;
        self.outstanding = 0;
        self.waiting = false;
        self.done = false;
        self.finish = None;
        self.marks.clear();
    }
}

/// Matching state of one `src → dst` pair: the pair's link charges and a
/// head-indexed FIFO of unmatched entries. A pair never holds posted
/// receives and arrived messages at once (either would have matched the
/// other), so one FIFO serves both and `posted` says which it holds. Pops
/// advance a head index instead of shifting, and a drained FIFO rewinds,
/// so its storage stays small and is reused run after run.
#[derive(Clone, Debug)]
struct PairSlot {
    src: u32,
    dst: u32,
    cost: PairCost,
    /// Post times of unmatched receives (`posted`) or availability times
    /// of unmatched messages.
    pending: Vec<Time>,
    head: usize,
    posted: bool,
}

impl PairSlot {
    /// Pops the oldest entry if the FIFO holds entries of kind `posted`.
    #[inline]
    fn pop(&mut self, posted: bool) -> Option<Time> {
        if self.posted != posted {
            return None;
        }
        let v = self.pending.get(self.head).copied()?;
        self.head += 1;
        if self.head == self.pending.len() {
            self.pending.clear();
            self.head = 0;
        }
        Some(v)
    }

    /// Queues an entry of kind `posted`. Callers push only after a
    /// [`pop`](Self::pop) of the other kind found nothing, so the FIFO
    /// never mixes kinds.
    #[inline]
    fn push(&mut self, posted: bool, t: Time) {
        debug_assert!(self.pending.is_empty() || self.posted == posted);
        self.posted = posted;
        self.pending.push(t);
    }
}

/// Which end of a pair looks its slot up (see [`Engine::slot`]).
const SEND: usize = 0;
const RECV: usize = 1;

/// Multiplicative hasher for packed pair keys: the keys are dense small
/// integers, so one multiply by the 64-bit golden ratio (Fibonacci
/// hashing) spreads them, and folding the high half down feeds the mixed
/// bits to both the bucket index (low bits) and the control tag (top bits)
/// of the std map.
#[derive(Clone, Copy, Debug, Default)]
struct PairKeyHasher(u64);

impl Hasher for PairKeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, k: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(k)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Error returned when the simulation cannot complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimDeadlock {
    /// Processes that never finished, with their program counters and
    /// outstanding request counts.
    pub stuck: Vec<(usize, usize, usize)>,
}

impl std::fmt::Display for SimDeadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation deadlock; stuck (proc, pc, outstanding): {:?}",
            self.stuck
        )
    }
}

impl std::error::Error for SimDeadlock {}

/// Outcome of one engine run.
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// Per-process completion time of its entire program.
    pub finish: Vec<Time>,
    /// Per-process recorded `Mark` timestamps.
    pub marks: Vec<Vec<(String, Time)>>,
    /// Total events processed (a proxy for simulation effort).
    pub events: u64,
    /// Per-message event trace, if recording was enabled.
    pub trace: Option<Trace>,
}

/// The reusable event-driven interpreter: arenas sized once for a
/// placement, then [`run`](Engine::run) borrows program slices.
pub struct Engine {
    cores: Vec<CoreId>,
    gt: GroundTruth,
    procs: Vec<ProcState>,
    cpu: Vec<Resource>,
    nic_tx: Vec<Resource>,
    nic_rx: Vec<Resource>,
    queue: EventQueue,
    /// Link charges indexed by `LinkClass as usize`.
    class_cost: [PairCost; 3],
    /// Slot of each pair used so far, keyed `dst * p + src`.
    slot_of: HashMap<u32, u32, BuildHasherDefault<PairKeyHasher>>,
    slots: Vec<PairSlot>,
    /// Per rank and side (`2 * rank + SEND|RECV`): the last peer it used
    /// in that role and the pair's slot. Slots are never freed, so a hint
    /// stays valid across runs.
    hints: Vec<(u32, u32)>,
    /// Whether every pair FIFO is empty: true after a completed run (each
    /// request completes only by a match), false during a run and after
    /// one that deadlocked or panicked.
    drained: bool,
    /// Node of each rank's core (for the shared NIC resources).
    node: Vec<u32>,
    /// Cached `GroundTruth::call_overhead_ns`.
    overhead_ns: Time,
    seq: u32,
    noise: NoiseState,
    events: u64,
    trace: Option<Trace>,
}

impl Engine {
    /// Builds an engine for processes pinned to `cores`, sizing every
    /// per-rank arena for `cores.len()` ranks in O(p) time and memory.
    /// The engine holds no programs; [`run`](Self::run) borrows them per
    /// run.
    ///
    /// # Panics
    /// Panics if the rank count exceeds the packed-event argument field
    /// (32768 ranks — far beyond the paper's scale).
    pub fn new(cores: Vec<CoreId>, gt: GroundTruth) -> Self {
        let p = cores.len();
        assert!(p <= MAX_RANKS, "engine supports at most {MAX_RANKS} ranks");
        let max_node = cores.iter().map(|c| c.node).max().unwrap_or(0);
        Engine {
            procs: vec![ProcState::default(); p],
            cpu: vec![Resource::default(); p],
            nic_tx: vec![Resource::default(); max_node + 1],
            nic_rx: vec![Resource::default(); max_node + 1],
            queue: EventQueue::default(),
            class_cost: LinkClass::ALL.map(|class| PairCost::new(&gt, class)),
            slot_of: HashMap::default(),
            slots: Vec::new(),
            hints: vec![(u32::MAX, 0); 2 * p],
            drained: true,
            node: cores.iter().map(|c| c.node as u32).collect(),
            overhead_ns: gt.call_overhead_ns,
            seq: 0,
            noise: NoiseState::new(NoiseModel::none(), 0),
            events: 0,
            trace: None,
            cores,
            gt,
        }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.procs.len()
    }

    /// The physical placement of each rank.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// The ground truth this engine charges.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.gt
    }

    /// Enables per-message trace recording for the next run only (the
    /// run's result carries the trace out).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// Clears all per-run state — event queue, interpreter states,
    /// resource clocks, and the pair FIFOs unless the last run completed
    /// and so drained them — and validates `programs` against the
    /// placement. Arenas and slots retain their capacity, so a
    /// reset-and-run cycle allocates nothing once warm.
    ///
    /// # Panics
    /// Panics if the program count differs from the rank count, if any
    /// instruction references an out-of-range rank, or if a rank messages
    /// itself.
    pub fn reset(&mut self, programs: &[Program]) {
        let p = self.p();
        assert_eq!(programs.len(), p, "one program per rank required");
        for (r, prog) in programs.iter().enumerate() {
            for ins in &prog.instrs {
                match ins {
                    Instr::Issend { dst, .. } => {
                        assert!(*dst < p, "rank {r} sends to out-of-range {dst}");
                        assert_ne!(*dst, r, "rank {r} sends to itself");
                    }
                    Instr::Irecv { src } => {
                        assert!(*src < p, "rank {r} receives from out-of-range {src}");
                        assert_ne!(*src, r, "rank {r} receives from itself");
                    }
                    _ => {}
                }
            }
        }
        for pr in &mut self.procs {
            pr.reset();
        }
        for r in self
            .cpu
            .iter_mut()
            .chain(&mut self.nic_tx)
            .chain(&mut self.nic_rx)
        {
            r.free_at = 0;
        }
        self.queue.clear();
        if !self.drained {
            for slot in &mut self.slots {
                slot.pending.clear();
                slot.head = 0;
            }
        }
        self.seq = 0;
        self.events = 0;
        if let Some(t) = &mut self.trace {
            t.events.clear();
        }
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.events.push(event);
        }
    }

    #[inline]
    fn schedule(&mut self, time: Time, payload: u32) {
        self.seq = self.seq.checked_add(1).expect("event sequence overflow");
        self.queue
            .push((time as u128) << 64 | (self.seq as u128) << 32 | payload as u128);
    }

    /// The slot of pair `src → dst`, looked up by the rank on side `side`
    /// of it (`SEND`: `src`, `RECV`: `dst`). A rank that repeats its last
    /// peer in that role (a burst, a ping-pong) hits its hint; otherwise
    /// one map lookup finds the slot, allocating one — charged by the
    /// pair's link class — on the pair's first use ever.
    #[inline]
    fn slot(&mut self, dst: usize, src: usize, side: usize) -> usize {
        let (rank, peer) = if side == SEND { (src, dst) } else { (dst, src) };
        let hint = self.hints[2 * rank + side];
        if hint.0 == peer as u32 {
            return hint.1 as usize;
        }
        let s = self.lookup(dst, src);
        self.hints[2 * rank + side] = (peer as u32, s as u32);
        s
    }

    /// The map lookup behind [`slot`](Self::slot), kept out of line so
    /// the hinted hot path stays small.
    #[inline(never)]
    fn lookup(&mut self, dst: usize, src: usize) -> usize {
        let key = (dst * self.procs.len() + src) as u32;
        let Engine {
            slot_of,
            slots,
            cores,
            class_cost,
            ..
        } = self;
        *slot_of.entry(key).or_insert_with(|| {
            slots.push(PairSlot {
                src: src as u32,
                dst: dst as u32,
                cost: class_cost[cores[dst].link_class(&cores[src]) as usize],
                pending: Vec::new(),
                head: 0,
                posted: false,
            });
            (slots.len() - 1) as u32
        }) as usize
    }

    /// Runs one program per rank to completion with the given per-run
    /// noise state, resetting all reused arenas first. Results are
    /// bit-identical to a freshly constructed engine fed the same
    /// programs and noise.
    pub fn run(
        &mut self,
        programs: &[Program],
        noise: NoiseState,
    ) -> Result<EngineResult, SimDeadlock> {
        self.execute(programs, noise)?;
        Ok(EngineResult {
            finish: self
                .procs
                .iter()
                .map(|pr| pr.finish.expect("done implies finish"))
                .collect(),
            marks: self
                .procs
                .iter()
                .enumerate()
                .map(|(r, pr)| {
                    pr.marks
                        .iter()
                        .map(|&(id, t)| (programs[r].label(id).to_string(), t))
                        .collect()
                })
                .collect(),
            events: self.events,
            trace: self.trace.take(),
        })
    }

    /// Rank `r`'s completion time after a successful [`execute`].
    ///
    /// [`execute`]: Self::execute
    pub(crate) fn finish_of(&self, r: usize) -> Time {
        self.procs[r].finish.expect("execute completed this rank")
    }

    /// Rank `r`'s first recorded `Mark` time after a successful
    /// [`execute`](Self::execute).
    pub(crate) fn first_mark_of(&self, r: usize) -> Time {
        self.procs[r].marks.first().expect("rank recorded a mark").1
    }

    /// The simulation loop without result assembly: benchmark drivers that
    /// only need one rank's finish time call this to keep the per-run path
    /// free of even the result-vector allocations.
    pub(crate) fn execute(
        &mut self,
        programs: &[Program],
        noise: NoiseState,
    ) -> Result<(), SimDeadlock> {
        self.reset(programs);
        self.drained = false;
        self.noise = noise;
        let p = self.p();
        for r in 0..p {
            self.schedule(0, payload(TAG_RESUME, r));
        }
        while let Some(v) = self.queue.pop() {
            let ev = Event {
                time: (v >> 64) as Time,
                key: v as u64,
            };
            self.events += 1;
            match ev.tag() {
                TAG_RESUME => self.run_program(programs, ev.arg(), ev.time),
                TAG_ARRIVE => {
                    let slot = &self.slots[ev.arg()];
                    let (src, dst, c) = (slot.src as usize, slot.dst as usize, slot.cost);
                    // NIC RX serialization for inter-node traffic.
                    let available = if c.inter_node {
                        let dur = self.noise.sample(c.nic_rx_ns);
                        self.nic_rx[self.node[dst] as usize].acquire(ev.time, dur)
                    } else {
                        ev.time
                    };
                    self.record(TraceEvent::Delivered {
                        time: available,
                        src,
                        dst,
                    });
                    let slot = &mut self.slots[ev.arg()];
                    match slot.pop(true) {
                        Some(post_time) => {
                            self.complete_match(src, dst, c, available.max(post_time))
                        }
                        None => slot.push(false, available),
                    }
                }
                _ => {
                    let proc = ev.arg();
                    let pr = &mut self.procs[proc];
                    debug_assert!(pr.outstanding > 0, "completion without outstanding request");
                    pr.outstanding -= 1;
                    if pr.waiting && pr.outstanding == 0 {
                        pr.waiting = false;
                        self.run_program(programs, proc, ev.time);
                    }
                }
            }
        }
        let stuck: Vec<(usize, usize, usize)> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, pr)| !pr.done)
            .map(|(r, pr)| (r, pr.pc, pr.outstanding))
            .collect();
        if !stuck.is_empty() {
            return Err(SimDeadlock { stuck });
        }
        debug_assert!(
            self.slots.iter().all(|s| s.pending.is_empty()),
            "a completed run left unmatched entries"
        );
        self.drained = true;
        Ok(())
    }

    /// Matches a message `src → dst`: charges the receiver CPU, completes
    /// the receive, and acknowledges the synchronous sender.
    #[inline]
    fn complete_match(&mut self, src: usize, dst: usize, c: PairCost, at: Time) {
        let dur = self.noise.sample(c.cpu_recv_ns);
        let done = self.cpu[dst].acquire(at, dur);
        self.schedule(done, payload(TAG_RECV_DONE, dst));
        self.record(TraceEvent::RecvCompleted {
            time: done,
            src,
            dst,
        });
        // Acknowledgement back to the synchronous sender: one wire delay.
        let ack = self.noise.sample(c.wire_ns);
        self.schedule(done + ack, payload(TAG_SEND_DONE, src));
        self.record(TraceEvent::SendCompleted {
            time: done + ack,
            src,
            dst,
        });
    }

    /// Interprets `proc`'s program starting at time `now` until it blocks
    /// or finishes. Instructions are read by value (`Instr: Copy`) — the
    /// loop performs no heap allocation.
    fn run_program(&mut self, programs: &[Program], proc: usize, now: Time) {
        let mut now = now;
        let instrs = &programs[proc].instrs;
        loop {
            let pr = &self.procs[proc];
            if pr.done {
                return;
            }
            if pr.pc >= instrs.len() {
                let pr = &mut self.procs[proc];
                if pr.outstanding == 0 {
                    pr.done = true;
                    pr.finish = Some(now);
                } else {
                    // Implicit trailing WaitAll: finish when requests drain.
                    pr.waiting = true;
                }
                return;
            }
            match instrs[pr.pc] {
                Instr::Delay { ns } => {
                    self.procs[proc].pc += 1;
                    self.schedule(now + ns, payload(TAG_RESUME, proc));
                    return;
                }
                Instr::Mark { label } => {
                    self.procs[proc].marks.push((label, now));
                    self.procs[proc].pc += 1;
                }
                Instr::NoOpCall => {
                    let dur = self.noise.sample(self.overhead_ns);
                    now = self.cpu[proc].acquire(now, dur);
                    self.procs[proc].pc += 1;
                }
                Instr::WaitAll => {
                    if self.procs[proc].outstanding == 0 {
                        self.procs[proc].pc += 1;
                    } else {
                        self.procs[proc].waiting = true;
                        self.procs[proc].pc += 1; // resume past the wait
                        return;
                    }
                }
                Instr::Irecv { src } => {
                    let dur = self.noise.sample(self.overhead_ns);
                    now = self.cpu[proc].acquire(now, dur);
                    self.procs[proc].pc += 1;
                    self.procs[proc].outstanding += 1;
                    let s = self.slot(proc, src, RECV);
                    let slot = &mut self.slots[s];
                    match slot.pop(false) {
                        Some(available) => {
                            let c = slot.cost;
                            self.complete_match(src, proc, c, available.max(now));
                        }
                        None => slot.push(true, now),
                    }
                }
                Instr::Issend { dst, bytes } => {
                    let s = self.slot(dst, proc, SEND);
                    let c = self.slots[s].cost;
                    let inject = self.noise.sample(c.inject_ns);
                    now = self.cpu[proc].acquire(now, inject);
                    self.record(TraceEvent::SendInjected {
                        time: now,
                        src: proc,
                        dst,
                    });
                    self.procs[proc].pc += 1;
                    self.procs[proc].outstanding += 1;
                    let after_tx = if c.inter_node {
                        let dur = self.noise.sample(c.nic_tx_ns);
                        self.nic_tx[self.node[proc] as usize].acquire(now, dur)
                    } else {
                        now
                    };
                    let wire_ns = if bytes == 0 {
                        c.wire_ns // skip the f64 bandwidth term for signals
                    } else {
                        c.wire_ns + (bytes as f64 * c.ns_per_byte).round() as Time
                    };
                    let wire = self.noise.sample(wire_ns);
                    self.schedule(after_tx + wire, payload(TAG_ARRIVE, s));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::program::Program;
    use hbar_topo::machine::MachineSpec;

    fn engine_for(machine: &MachineSpec, flat_cores: &[usize]) -> Engine {
        let cores: Vec<CoreId> = flat_cores.iter().map(|&c| machine.core(c)).collect();
        Engine::new(cores, machine.ground_truth.clone())
    }

    fn exact() -> NoiseState {
        NoiseState::new(NoiseModel::none(), 0)
    }

    #[test]
    fn empty_programs_finish_at_zero() {
        let m = MachineSpec::new(1, 1, 2);
        let res = engine_for(&m, &[0, 1])
            .run(&[Program::new(), Program::new()], exact())
            .unwrap();
        assert_eq!(res.finish, vec![0, 0]);
    }

    #[test]
    fn single_signal_same_socket_cost_breakdown() {
        let m = MachineSpec::new(1, 1, 2);
        let gt = &m.ground_truth;
        let p0 = Program::new().issend(1).wait_all();
        let p1 = Program::new().irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let c = gt.link(LinkClass::SameSocket);
        // Receiver done: inject + wire + cpu_recv (recv pre-posted at call_overhead).
        let inject = gt.call_overhead_ns + c.cpu_send_ns;
        let recv_done = inject + c.wire_ns + c.cpu_recv_ns;
        assert_eq!(res.finish[1], recv_done);
        // Sender done: + ack wire.
        assert_eq!(res.finish[0], recv_done + c.wire_ns);
    }

    #[test]
    fn inter_node_message_pays_nic_and_wire() {
        let m = MachineSpec::new(2, 1, 1);
        let gt = m.ground_truth.clone();
        let p0 = Program::new().issend(1).wait_all();
        let p1 = Program::new().irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let c = gt.link(LinkClass::InterNode);
        let recv_done = gt.call_overhead_ns
            + c.cpu_send_ns
            + c.nic_tx_ns
            + c.wire_ns
            + c.nic_rx_ns
            + c.cpu_recv_ns;
        assert_eq!(res.finish[1], recv_done);
        assert_eq!(res.finish[0], recv_done + c.wire_ns);
    }

    #[test]
    fn payload_adds_bandwidth_term() {
        let m = MachineSpec::new(2, 1, 1);
        let gt = m.ground_truth.clone();
        let bytes = 1 << 16;
        let p0 = Program::new().issend_bytes(1, bytes).wait_all();
        let p1 = Program::new().irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let c = gt.link(LinkClass::InterNode);
        let extra = (bytes as f64 * c.ns_per_byte).round() as Time;
        let expect = gt.call_overhead_ns
            + c.cpu_send_ns
            + c.nic_tx_ns
            + c.wire_ns
            + extra
            + c.nic_rx_ns
            + c.cpu_recv_ns;
        assert_eq!(res.finish[1], expect);
    }

    #[test]
    fn message_before_receive_is_queued() {
        // Receiver delays before posting: message waits, match at post time.
        let m = MachineSpec::new(1, 1, 2);
        let gt = m.ground_truth.clone();
        let c = *gt.link(LinkClass::SameSocket);
        let delay = 1_000_000;
        let p0 = Program::new().issend(1).wait_all();
        let p1 = Program::new().delay(delay).irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let post = delay + gt.call_overhead_ns;
        assert_eq!(res.finish[1], post + c.cpu_recv_ns);
        assert_eq!(res.finish[0], post + c.cpu_recv_ns + c.wire_ns);
    }

    #[test]
    fn sync_send_blocks_until_receiver_participates() {
        // The Issend property §III relies on: sender completion implies
        // receiver involvement, so a late receiver delays the sender.
        let m = MachineSpec::new(2, 1, 1);
        let delay = 5_000_000;
        let p0 = Program::new().issend(1).wait_all().mark("sent");
        let p1 = Program::new().delay(delay).irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        assert!(res.finish[0] > delay);
    }

    #[test]
    fn consecutive_sends_serialize_on_sender_cpu() {
        let m = MachineSpec::new(1, 2, 2);
        let gt = m.ground_truth.clone();
        // Rank 0 sends to 1 (same socket) and 2 (cross socket).
        let p0 = Program::new().issend(1).issend(2).wait_all();
        let p1 = Program::new().irecv(0).wait_all();
        let p2 = Program::new().irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1, 2])
            .run(&[p0, p1, p2], exact())
            .unwrap();
        let same = *gt.link(LinkClass::SameSocket);
        let cross = *gt.link(LinkClass::CrossSocket);
        let inj1 = gt.call_overhead_ns + same.cpu_send_ns;
        let inj2 = gt.call_overhead_ns + cross.cpu_send_ns;
        // Second injection starts only after the first finishes.
        let second_arrival = inj1 + inj2 + cross.wire_ns;
        assert_eq!(res.finish[2], second_arrival + cross.cpu_recv_ns);
    }

    #[test]
    fn nic_serializes_concurrent_inter_node_senders() {
        // Two ranks on node 0 send to two ranks on node 1 simultaneously:
        // the shared NIC TX forces one message behind the other.
        let m = MachineSpec::new(2, 1, 2);
        let gt = m.ground_truth.clone();
        let c = *gt.link(LinkClass::InterNode);
        let progs = vec![
            Program::new().issend(2).wait_all(),
            Program::new().issend(3).wait_all(),
            Program::new().irecv(0).wait_all(),
            Program::new().irecv(1).wait_all(),
        ];
        let res = engine_for(&m, &[0, 1, 2, 3]).run(&progs, exact()).unwrap();
        let first = gt.call_overhead_ns
            + c.cpu_send_ns
            + c.nic_tx_ns
            + c.wire_ns
            + c.nic_rx_ns
            + c.cpu_recv_ns;
        let finishes = [res.finish[2], res.finish[3]];
        let early = *finishes.iter().min().unwrap();
        let late = *finishes.iter().max().unwrap();
        assert_eq!(early, first);
        // The later message queued one NIC TX slot (RX slot overlaps it).
        assert_eq!(late, first + c.nic_tx_ns);
    }

    #[test]
    fn fifo_matching_per_pair() {
        // Two sends 0→1 match two receives in order; the pair completes.
        let m = MachineSpec::new(1, 1, 2);
        let p0 = Program::new().issend(1).issend(1).wait_all();
        let p1 = Program::new().irecv(0).irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        assert!(res.finish[0] > 0 && res.finish[1] > 0);
    }

    #[test]
    fn deadlock_is_reported() {
        let m = MachineSpec::new(1, 1, 2);
        // Receive that never gets a message.
        let p0 = Program::new().irecv(1).wait_all();
        let err = engine_for(&m, &[0, 1])
            .run(&[p0, Program::new()], exact())
            .unwrap_err();
        assert_eq!(err.stuck.len(), 1);
        assert_eq!(err.stuck[0].0, 0);
        assert_eq!(err.stuck[0].2, 1, "one outstanding request");
    }

    #[test]
    fn marks_record_virtual_times() {
        let m = MachineSpec::new(1, 1, 2);
        let p0 = Program::new().mark("start").delay(500).mark("end");
        let res = engine_for(&m, &[0, 1])
            .run(&[p0, Program::new()], exact())
            .unwrap();
        assert_eq!(res.marks[0][0], ("start".into(), 0));
        assert_eq!(res.marks[0][1], ("end".into(), 500));
    }

    #[test]
    #[should_panic(expected = "sends to itself")]
    fn self_send_rejected() {
        let m = MachineSpec::new(1, 1, 2);
        let p0 = Program::new().issend(0);
        let _ = engine_for(&m, &[0, 1]).run(&[p0, Program::new()], exact());
    }

    #[test]
    fn determinism_across_runs() {
        let m = MachineSpec::new(2, 1, 2);
        let progs = vec![
            Program::new().issend(2).irecv(3).wait_all(),
            Program::new().issend(3).irecv(2).wait_all(),
            Program::new()
                .issend(3)
                .irecv(0)
                .wait_all()
                .issend(1)
                .wait_all(),
            Program::new()
                .irecv(1)
                .irecv(2)
                .wait_all()
                .issend(0)
                .wait_all(),
        ];
        let r1 = engine_for(&m, &[0, 1, 2, 3]).run(&progs, exact()).unwrap();
        let r2 = engine_for(&m, &[0, 1, 2, 3]).run(&progs, exact()).unwrap();
        assert_eq!(r1.finish, r2.finish);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn reused_engine_matches_fresh_engine() {
        // The reuse contract: reset + run on one engine is bit-identical
        // to constructing a fresh engine per run, including under noise
        // and after a deadlocked run left state behind.
        let m = MachineSpec::new(2, 1, 2);
        let progs = vec![
            Program::new().issend(2).wait_all().irecv(2).wait_all(),
            Program::new().issend(3).wait_all(),
            Program::new()
                .irecv(0)
                .wait_all()
                .issend(0)
                .wait_all()
                .mark("ack"),
            Program::new().irecv(1).wait_all(),
        ];
        let noise = NoiseModel::realistic(41);
        let mut reused = engine_for(&m, &[0, 1, 2, 3]);
        // Poison the reused engine with a deadlocked run first.
        let deadlocked: Vec<Program> = vec![
            Program::new().irecv(1).wait_all(),
            Program::new(),
            Program::new(),
            Program::new(),
        ];
        assert!(reused.run(&deadlocked, NoiseState::new(noise, 0)).is_err());
        for salt in 0..4 {
            let a = reused.run(&progs, NoiseState::new(noise, salt)).unwrap();
            let mut fresh = engine_for(&m, &[0, 1, 2, 3]);
            let b = fresh.run(&progs, NoiseState::new(noise, salt)).unwrap();
            assert_eq!(a.finish, b.finish, "salt {salt}");
            assert_eq!(a.events, b.events, "salt {salt}");
            assert_eq!(a.marks, b.marks, "salt {salt}");
        }
    }

    #[test]
    fn deadlock_leftovers_never_match_in_the_next_run() {
        // A deadlocked run strands a posted receive (then an arrived
        // message) on pair 1 → 0; the next run on the same pair must
        // behave as on a fresh engine, not match the stale entry.
        let m = MachineSpec::new(1, 1, 2);
        let mut eng = engine_for(&m, &[0, 1]);
        let stranded_recv = [Program::new().irecv(1).wait_all(), Program::new()];
        assert!(eng.run(&stranded_recv, exact()).is_err());
        let pair = [
            Program::new().irecv(1).wait_all(),
            Program::new().issend(0).wait_all(),
        ];
        let fresh = engine_for(&m, &[0, 1]).run(&pair, exact()).unwrap();
        assert_eq!(eng.run(&pair, exact()).unwrap().finish, fresh.finish);
        let stranded_msg = [Program::new(), Program::new().issend(0).wait_all()];
        assert!(eng.run(&stranded_msg, exact()).is_err());
        assert!(
            eng.run(&stranded_recv, exact()).is_err(),
            "the receive matched a message from the previous run"
        );
    }

    #[test]
    fn trace_is_per_run_and_cleared_on_reuse() {
        let m = MachineSpec::new(1, 1, 2);
        let progs = vec![
            Program::new().issend(1).wait_all(),
            Program::new().irecv(0).wait_all(),
        ];
        let mut eng = engine_for(&m, &[0, 1]);
        eng.enable_trace();
        let traced = eng.run(&progs, exact()).unwrap();
        let trace = traced.trace.expect("trace enabled");
        assert_eq!(trace.injected_messages(), 1);
        // The next run is untraced and otherwise identical.
        let untraced = eng.run(&progs, exact()).unwrap();
        assert!(untraced.trace.is_none());
        assert_eq!(untraced.finish, traced.finish);
    }
}
