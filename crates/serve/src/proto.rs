//! The tune-service extension of the framed wire protocol.
//!
//! `hbar serve` speaks the same `[tag][len u32 LE][payload]` frame
//! stream as the profiling fleet (`hbar_simnet::wire`), with its own tag
//! range so a serve endpoint and a profile worker can never be confused
//! by a stray frame:
//!
//! * [`FRAME_TUNE_REQ`] — a compact binary [`TuneRequest`]: tuning knobs
//!   plus the raw `O`/`L` cost matrices. Binary because the matrices
//!   dominate the payload (`2·P²` doubles) and the hot path must not
//!   parse JSON.
//! * [`FRAME_TUNE_RESP`] — a [`TuneResponse`]: the tuned schedule as
//!   canonical compact JSON (the same bytes `hbar tune` writes, so
//!   bit-parity against a local tune is a string comparison) and,
//!   on request, the generated C source.
//! * [`FRAME_TUNE_ERR`] — request id plus a human-readable reason.
//! * [`FRAME_STATS_REQ`] / [`FRAME_STATS_RESP`] — JSON server counters
//!   ([`ServeStats`]); small, rare, debuggable with `nc`.
//! * `FRAME_DRAIN` / `FRAME_SHUTDOWN` are shared with the profiling
//!   protocol: drain finishes everything in flight on one connection,
//!   shutdown stops the whole daemon.
//!
//! Responses are keyed by the client-chosen request `id`, so a client
//! may pipeline arbitrarily many requests per connection; the server
//! answers cache hits in arrival order and misses in completion order.

use hbar_core::cost::cost_fingerprint;
use hbar_core::{TunerConfig, COST_FINGERPRINT_VERSION};
use hbar_matrix::DenseMatrix;
use hbar_simnet::wire::MAX_FRAME_LEN;
use hbar_topo::cost::CostMatrices;
use serde::{Deserialize, Serialize};
use std::{fmt, io};

/// Frame tag: binary tune request.
pub const FRAME_TUNE_REQ: u8 = 0x10;
/// Frame tag: tune response (schedule JSON + optional generated code).
pub const FRAME_TUNE_RESP: u8 = 0x11;
/// Frame tag: tune failure (request id + reason).
pub const FRAME_TUNE_ERR: u8 = 0x12;
/// Frame tag: server-counter request (empty payload).
pub const FRAME_STATS_REQ: u8 = 0x13;
/// Frame tag: server counters as JSON.
pub const FRAME_STATS_RESP: u8 = 0x14;

/// Request flag: tune with the extended algorithm set
/// (`TunerConfig::extended`).
pub const REQ_EXTENDED: u8 = 1 << 0;
/// Request flag: score candidates with the exact (slower) cost model.
pub const REQ_SCORE_EXACT: u8 = 1 << 1;
/// Request flag: include generated C source in the response. Excluded
/// from the cache key — code is emitted at tune time and stored with the
/// schedule, so hit/miss behaviour cannot depend on it.
pub const REQ_WANT_CODE: u8 = 1 << 2;

/// Bytes of the fixed request header:
/// `id:u64 | p:u32 | sparseness:f64 | max_depth:u32 | flags:u8`.
pub const REQ_HEADER_LEN: usize = 25;

/// Largest accepted rank count: the largest `p` whose dense request,
/// `REQ_HEADER_LEN + 16·p²` bytes, fits one frame of
/// [`MAX_FRAME_LEN`] bytes (2047 at 64 MiB). A larger request could never
/// be framed.
pub const MAX_RANKS: usize = max_ranks_in_frame(MAX_FRAME_LEN);

/// The largest `p` with `REQ_HEADER_LEN + 16·p² ≤ frame_len`.
const fn max_ranks_in_frame(frame_len: usize) -> usize {
    let mut p = 0;
    while REQ_HEADER_LEN + 16 * (p + 1) * (p + 1) <= frame_len {
        p += 1;
    }
    p
}

/// A request declared a rank count outside `1..=MAX_RANKS`; the payload
/// of the `InvalidData` error [`TuneRequest::decode`] returns for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCountError {
    /// The declared rank count.
    pub p: usize,
}

impl fmt::Display for RankCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank count {} outside 1..={MAX_RANKS}", self.p)
    }
}

impl std::error::Error for RankCountError {}

/// One tuning request: the knobs that shape the tuner plus the measured
/// cost matrices to tune against.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// SSS clustering sparseness (`TunerConfig::sparseness`).
    pub sparseness: f64,
    /// Cluster-tree depth cap (`TunerConfig::max_depth`).
    pub max_depth: u32,
    /// `REQ_*` bit set.
    pub flags: u8,
    /// The `O`/`L` matrices the schedule is tuned for.
    pub cost: CostMatrices,
}

impl TuneRequest {
    /// A request with the default tuner knobs for `cost`.
    pub fn new(id: u64, cost: CostMatrices) -> TuneRequest {
        let d = TunerConfig::default();
        TuneRequest {
            id,
            sparseness: d.sparseness,
            max_depth: d.max_depth as u32,
            flags: 0,
            cost,
        }
    }

    /// Encodes the request into `out` (cleared first): the fixed header
    /// followed by the raw `O` then `L` entries, row-major little-endian
    /// `f64` bits.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let p = self.cost.p();
        out.clear();
        out.reserve(REQ_HEADER_LEN + 2 * p * p * 8);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&(p as u32).to_le_bytes());
        out.extend_from_slice(&self.sparseness.to_le_bytes());
        out.extend_from_slice(&self.max_depth.to_le_bytes());
        out.push(self.flags);
        for v in self.cost.o.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in self.cost.l.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decodes a request payload. Total: every malformed shape (short
    /// header, zero or oversized `p`, length mismatch, non-finite knobs
    /// or matrix entries) is an `InvalidData` error, never a panic.
    pub fn decode(payload: &[u8]) -> io::Result<TuneRequest> {
        let fail = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if payload.len() < REQ_HEADER_LEN {
            return Err(fail(format!(
                "tune request of {} bytes is shorter than the {REQ_HEADER_LEN}-byte header",
                payload.len()
            )));
        }
        let id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let p = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
        let sparseness = f64::from_le_bytes(payload[12..20].try_into().expect("8 bytes"));
        let max_depth = u32::from_le_bytes(payload[20..24].try_into().expect("4 bytes"));
        let flags = payload[24];
        if p == 0 || p > MAX_RANKS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                RankCountError { p },
            ));
        }
        let expected = REQ_HEADER_LEN + 2 * p * p * 8;
        if payload.len() != expected {
            return Err(fail(format!(
                "tune request for p={p} must be {expected} bytes, got {}",
                payload.len()
            )));
        }
        if !sparseness.is_finite() || sparseness <= 0.0 {
            return Err(fail(format!("sparseness {sparseness} must be finite > 0")));
        }
        if max_depth == 0 {
            return Err(fail("max_depth must be at least 1".to_string()));
        }
        let read_matrix = |offset: usize| -> io::Result<DenseMatrix<f64>> {
            let mut data = Vec::with_capacity(p * p);
            for k in 0..p * p {
                let at = offset + 8 * k;
                let v = f64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
                if !v.is_finite() {
                    return Err(fail(format!("non-finite cost entry at flat index {k}")));
                }
                data.push(v);
            }
            Ok(DenseMatrix::from_vec(p, data))
        };
        let o = read_matrix(REQ_HEADER_LEN)?;
        let l = read_matrix(REQ_HEADER_LEN + p * p * 8)?;
        Ok(TuneRequest {
            id,
            sparseness,
            max_depth,
            flags,
            cost: CostMatrices { o, l },
        })
    }

    /// The sharded-cache key of this request: the versioned cost
    /// fingerprint plus a fingerprint of every knob that affects the
    /// tuned schedule. [`REQ_WANT_CODE`] is deliberately excluded —
    /// whether the client wants source does not change what is tuned.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey {
            cost_fp: cost_fingerprint(&self.cost),
            cfg_fp: self.cfg_fingerprint(),
        }
    }

    /// FNV-1a over the schedule-affecting knobs, seeded with
    /// [`COST_FINGERPRINT_VERSION`] so a fingerprint-scheme bump also
    /// invalidates configuration keys.
    fn cfg_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(&COST_FINGERPRINT_VERSION.to_le_bytes());
        mix(&self.sparseness.to_bits().to_le_bytes());
        mix(&self.max_depth.to_le_bytes());
        mix(&[self.flags & !REQ_WANT_CODE]);
        h
    }

    /// The [`TunerConfig`] this request asks for.
    pub fn tuner_config(&self) -> TunerConfig {
        let mut cfg = if self.flags & REQ_EXTENDED != 0 {
            TunerConfig::extended()
        } else {
            TunerConfig::default()
        };
        cfg.sparseness = self.sparseness;
        cfg.max_depth = self.max_depth as usize;
        cfg.score_exact = self.flags & REQ_SCORE_EXACT != 0;
        cfg
    }
}

/// The cache key of the schedule cache: cost fingerprint × tuner-knob
/// fingerprint. Two requests with equal keys receive bit-identical
/// schedules (the tuner is deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`cost_fingerprint`] of the request matrices.
    pub cost_fp: u64,
    /// Fingerprint of the schedule-affecting tuner knobs.
    pub cfg_fp: u64,
}

impl CacheKey {
    /// One mixed word for shard selection (Fibonacci multiplicative
    /// hashing spreads the already-hashed key across shards evenly).
    pub fn shard_hash(&self) -> u64 {
        (self.cost_fp ^ self.cfg_fp.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// One tune answer. `schedule_json` is the canonical compact JSON of the
/// tuned [`BarrierSchedule`](hbar_core::BarrierSchedule); `code_c` is
/// empty unless the request set [`REQ_WANT_CODE`].
#[derive(Clone, Debug, PartialEq)]
pub struct TuneResponse {
    /// The request id this answers.
    pub id: u64,
    /// Whether the schedule came from the cache (true) or a fresh tune.
    pub cache_hit: bool,
    /// Predicted critical-path cost of the schedule (seconds).
    pub predicted_cost: f64,
    /// Canonical compact JSON of the tuned schedule.
    pub schedule_json: String,
    /// Generated C source, or empty when not requested.
    pub code_c: String,
}

impl TuneResponse {
    /// Encodes the response into `out` (cleared first):
    /// `id:u64 | hit:u8 | predicted:f64 | slen:u32 | schedule | clen:u32 | code`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(25 + self.schedule_json.len() + self.code_c.len());
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(u8::from(self.cache_hit));
        out.extend_from_slice(&self.predicted_cost.to_le_bytes());
        out.extend_from_slice(&(self.schedule_json.len() as u32).to_le_bytes());
        out.extend_from_slice(self.schedule_json.as_bytes());
        out.extend_from_slice(&(self.code_c.len() as u32).to_le_bytes());
        out.extend_from_slice(self.code_c.as_bytes());
    }

    /// Decodes a response payload (total, like [`TuneRequest::decode`]).
    pub fn decode(payload: &[u8]) -> io::Result<TuneResponse> {
        let fail = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if payload.len() < 21 {
            return Err(fail("tune response shorter than its fixed header"));
        }
        let id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let cache_hit = payload[8] != 0;
        let predicted_cost = f64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
        let slen = u32::from_le_bytes(payload[17..21].try_into().expect("4 bytes")) as usize;
        let code_at = 21 + slen;
        if payload.len() < code_at + 4 {
            return Err(fail("tune response truncated inside the schedule"));
        }
        let schedule_json = std::str::from_utf8(&payload[21..code_at])
            .map_err(|_| fail("schedule JSON is not UTF-8"))?
            .to_string();
        let clen =
            u32::from_le_bytes(payload[code_at..code_at + 4].try_into().expect("4 bytes")) as usize;
        if payload.len() != code_at + 4 + clen {
            return Err(fail("tune response length disagrees with its code field"));
        }
        let code_c = std::str::from_utf8(&payload[code_at + 4..])
            .map_err(|_| fail("generated code is not UTF-8"))?
            .to_string();
        Ok(TuneResponse {
            id,
            cache_hit,
            predicted_cost,
            schedule_json,
            code_c,
        })
    }
}

/// Encodes a [`FRAME_TUNE_ERR`] payload: `id:u64 | reason (UTF-8)`.
pub fn encode_tune_error(id: u64, reason: &str, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(reason.as_bytes());
}

/// Decodes a [`FRAME_TUNE_ERR`] payload into `(id, reason)`.
pub fn decode_tune_error(payload: &[u8]) -> io::Result<(u64, String)> {
    if payload.len() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "tune error shorter than its id",
        ));
    }
    let id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let reason = String::from_utf8_lossy(&payload[8..]).into_owned();
    Ok((id, reason))
}

/// Server counters, returned by [`FRAME_STATS_REQ`] as JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Tune requests received (well-formed or not).
    pub requests: u64,
    /// Requests answered straight from the cache.
    pub hits: u64,
    /// Requests that missed the cache.
    pub misses: u64,
    /// Misses that joined an already-running tune instead of starting
    /// their own (subset of `misses`).
    pub coalesced: u64,
    /// Tunes actually executed by the worker pool. The coalescing
    /// invariant: `tunes` ≤ distinct keys requested, always.
    pub tunes: u64,
    /// Requests answered with [`FRAME_TUNE_ERR`].
    pub errors: u64,
    /// Entries currently cached, summed over shards.
    pub cache_entries: u64,
    /// Approximate bytes currently cached, summed over shards.
    pub cache_bytes: u64,
    /// Entries evicted since startup, summed over shards.
    pub cache_evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;
    use hbar_topo::profile::TopologyProfile;

    fn sample_cost(p: usize) -> CostMatrices {
        let machine = MachineSpec::new(1, 2, 4);
        TopologyProfile::from_ground_truth_for(&machine, &RankMapping::Block, p).cost
    }

    #[test]
    fn request_roundtrip_preserves_bits() {
        let req = TuneRequest {
            id: 0xDEAD_BEEF_CAFE,
            sparseness: 1.25,
            max_depth: 6,
            flags: REQ_EXTENDED | REQ_WANT_CODE,
            cost: sample_cost(8),
        };
        let mut buf = Vec::new();
        req.encode_into(&mut buf);
        let back = TuneRequest::decode(&buf).unwrap();
        assert_eq!(back.id, req.id);
        assert_eq!(back.flags, req.flags);
        assert_eq!(back.max_depth, req.max_depth);
        assert_eq!(back.sparseness.to_bits(), req.sparseness.to_bits());
        for (a, b) in back
            .cost
            .o
            .as_slice()
            .iter()
            .zip(req.cost.o.as_slice())
            .chain(back.cost.l.as_slice().iter().zip(req.cost.l.as_slice()))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.cache_key(), req.cache_key());
    }

    #[test]
    fn decode_rejects_malformed_requests() {
        let req = TuneRequest::new(1, sample_cost(4));
        let mut buf = Vec::new();
        req.encode_into(&mut buf);
        assert!(TuneRequest::decode(&buf[..REQ_HEADER_LEN - 1]).is_err());
        assert!(TuneRequest::decode(&buf[..buf.len() - 1]).is_err());
        let mut zero_p = buf.clone();
        zero_p[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(TuneRequest::decode(&zero_p).is_err());
        let mut nan_entry = buf.clone();
        nan_entry[REQ_HEADER_LEN..REQ_HEADER_LEN + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(TuneRequest::decode(&nan_entry).is_err());
        let mut bad_sparseness = buf;
        bad_sparseness[12..20].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert!(TuneRequest::decode(&bad_sparseness).is_err());
    }

    /// A request header declaring `p` ranks, with no matrices.
    fn header_for(p: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        TuneRequest::new(1, sample_cost(2)).encode_into(&mut buf);
        buf.truncate(REQ_HEADER_LEN);
        buf[8..12].copy_from_slice(&p.to_le_bytes());
        buf
    }

    fn rank_count_error(err: &io::Error) -> Option<RankCountError> {
        err.get_ref()?.downcast_ref::<RankCountError>().copied()
    }

    #[test]
    fn rank_limit_is_the_largest_request_one_frame_holds() {
        assert_eq!(MAX_RANKS, 2047);
        let request_len = |p: usize| REQ_HEADER_LEN + 16 * p * p;
        assert!(request_len(MAX_RANKS) <= MAX_FRAME_LEN);
        assert!(request_len(MAX_RANKS + 1) > MAX_FRAME_LEN);
        // At the limit, decode accepts the rank count and checks the
        // payload length against the size arithmetic.
        let err = TuneRequest::decode(&header_for(2047)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(rank_count_error(&err), None);
        let expected = request_len(2047).to_string();
        assert!(err.to_string().contains(&expected), "{err}");
        // One past it is the rank-count error, before any length check.
        let err = TuneRequest::decode(&header_for(2048)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(rank_count_error(&err), Some(RankCountError { p: 2048 }));
        assert_eq!(err.to_string(), "rank count 2048 outside 1..=2047");
        let err = TuneRequest::decode(&header_for(0)).unwrap_err();
        assert_eq!(rank_count_error(&err), Some(RankCountError { p: 0 }));
    }

    #[test]
    fn cache_key_ignores_want_code_but_not_tuning_flags() {
        let base = TuneRequest::new(7, sample_cost(4));
        let mut want_code = base.clone();
        want_code.flags |= REQ_WANT_CODE;
        assert_eq!(base.cache_key(), want_code.cache_key());
        let mut extended = base.clone();
        extended.flags |= REQ_EXTENDED;
        assert_ne!(base.cache_key(), extended.cache_key());
        let mut deeper = base.clone();
        deeper.max_depth += 1;
        assert_ne!(base.cache_key(), deeper.cache_key());
        let mut sparser = base.clone();
        sparser.sparseness *= 2.0;
        assert_ne!(base.cache_key(), sparser.cache_key());
    }

    #[test]
    fn response_and_error_roundtrip() {
        let resp = TuneResponse {
            id: 42,
            cache_hit: true,
            predicted_cost: 3.25e-6,
            schedule_json: "{\"n\":4,\"stages\":[]}".to_string(),
            code_c: "/* generated */\n".to_string(),
        };
        let mut buf = Vec::new();
        resp.encode_into(&mut buf);
        let back = TuneResponse::decode(&buf).unwrap();
        assert_eq!(back.predicted_cost.to_bits(), resp.predicted_cost.to_bits());
        assert_eq!(back, resp);
        assert!(TuneResponse::decode(&buf[..20]).is_err());
        assert!(TuneResponse::decode(&buf[..buf.len() - 1]).is_err());

        let mut err_buf = Vec::new();
        encode_tune_error(9, "no such tune", &mut err_buf);
        assert_eq!(
            decode_tune_error(&err_buf).unwrap(),
            (9, "no such tune".to_string())
        );
        assert!(decode_tune_error(&err_buf[..7]).is_err());
    }
}
