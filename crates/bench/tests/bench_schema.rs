//! Schema gate over every checked-in `BENCH_*.json`.
//!
//! Each perf document in the repository root must parse as JSON, carry a
//! well-formed [`RunManifest`] at the current [`SCHEMA_VERSION`], and
//! present its result rows with interval estimates — `speedup` flanked
//! by `speedup_ci_lo`/`speedup_ci_hi` and full [`Estimate`] objects —
//! not bare scalars. CI runs this suite so a manifest-less or malformed
//! document cannot land.

use hbar_bench::stats::{Estimate, RunManifest, SCHEMA_VERSION};
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};

/// The repository root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

/// Every `BENCH_*.json` checked in at the repository root.
fn bench_documents() -> Vec<(PathBuf, Value)> {
    let mut docs = Vec::new();
    for entry in std::fs::read_dir(repo_root()).expect("read repo root") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
        let value: Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: malformed JSON: {e}"));
        docs.push((path, value));
    }
    docs
}

/// The value at `key`, or a panic naming the document.
fn field<'a>(doc: &'a Value, key: &str, name: &str) -> &'a Value {
    doc.get(key)
        .unwrap_or_else(|| panic!("{name}: missing `{key}`"))
}

/// Asserts one result row carries interval estimates, not bare scalars.
fn check_row(row: &Value, context: &str) {
    for key in ["speedup", "speedup_ci_lo", "speedup_ci_hi"] {
        match field(row, key, context) {
            Value::Float(x) => assert!(x.is_finite(), "{context}: `{key}` not finite"),
            other => panic!("{context}: `{key}` is not a float: {other:?}"),
        }
    }
    let lo = f64::from_value(field(row, "speedup_ci_lo", context)).expect("checked above");
    let hi = f64::from_value(field(row, "speedup_ci_hi", context)).expect("checked above");
    let point = f64::from_value(field(row, "speedup", context)).expect("checked above");
    assert!(
        lo <= point && point <= hi,
        "{context}: speedup {point} outside its own CI [{lo}, {hi}]"
    );
    // The before/after key pair differs per harness (profile uses
    // exhaustive/clustered, scale uses dense/compressed); accept any
    // spelling but require one.
    let pair = [
        ("before", "after"),
        ("exhaustive", "clustered"),
        ("dense", "compressed"),
    ]
    .into_iter()
    .find(|(b, a)| row.get(b).is_some() && row.get(a).is_some())
    .unwrap_or_else(|| panic!("{context}: no before/after estimate objects"));
    for key in [pair.0, pair.1] {
        let est = Estimate::from_value(field(row, key, context))
            .unwrap_or_else(|e| panic!("{context}: `{key}` is not an Estimate: {e}"));
        assert!(est.n >= 1, "{context}: `{key}` has no samples");
        assert!(
            est.ci_lo <= est.median && est.median <= est.ci_hi,
            "{context}: `{key}` median outside its CI"
        );
        assert!(
            (0.0..1.0).contains(&(1.0 - est.confidence)),
            "{context}: `{key}` confidence {} out of range",
            est.confidence
        );
    }
}

#[test]
fn every_checked_in_bench_document_is_well_formed() {
    let docs = bench_documents();
    assert!(
        docs.len() >= 6,
        "expected the six perf documents at the repo root, found {}",
        docs.len()
    );
    for (path, doc) in &docs {
        let name = path.file_name().unwrap().to_string_lossy();
        let manifest = RunManifest::from_value(field(doc, "manifest", &name))
            .unwrap_or_else(|e| panic!("{name}: bad manifest: {e}"));
        assert_eq!(
            manifest.schema_version, SCHEMA_VERSION,
            "{name}: stale schema version — regenerate the document"
        );
        assert!(!manifest.git_rev.is_empty(), "{name}: empty git_rev");
        assert!(!manifest.schedule.is_empty(), "{name}: empty schedule");
        assert!(!manifest.topology.is_empty(), "{name}: empty topology");
        assert!(
            manifest.estimator.max_reps >= manifest.estimator.min_reps,
            "{name}: estimator budget inverted"
        );
        let bench_key = field(doc, "benchmark", &name);
        assert_eq!(
            bench_key,
            &Value::Str(manifest.benchmark.clone()),
            "{name}: document/manifest benchmark mismatch"
        );
    }
}

/// The serve document is additionally held to the service-level
/// objectives the tune service was built around: a four-digit distinct
/// topology fleet, a warm-path p99 in the tens of microseconds,
/// five-digit sustained throughput, a ≥ 90% Zipf hit rate, and full parity
/// coverage of the cold pass. Regenerating the document with a
/// regressed server fails this gate, not just the eyeball test.
#[test]
fn serve_document_meets_the_service_objectives() {
    let name = "BENCH_serve.json";
    let (_, doc) = bench_documents()
        .into_iter()
        .find(|(path, _)| path.file_name().is_some_and(|n| n == name))
        .unwrap_or_else(|| panic!("{name} missing from the repo root"));
    let serve = field(&doc, "serve", name);
    let float = |v: &Value, ctx: &str| {
        f64::from_value(v).unwrap_or_else(|e| panic!("{name}: {ctx}: not a number: {e}"))
    };

    let topologies = float(field(serve, "topologies", name), "topologies");
    assert!(
        topologies >= 1000.0,
        "{name}: fleet of {topologies} distinct topologies is below the 1000 floor"
    );
    let hit_rate = float(field(serve, "hit_rate", name), "hit_rate");
    assert!(
        hit_rate >= 0.9,
        "{name}: Zipf hit rate {hit_rate} below the 0.9 objective"
    );

    let latency = field(serve, "latency", name);
    let p99 = float(field(latency, "warm_p99_s", name), "warm_p99_s");
    let p99_hi = float(field(latency, "warm_p99_ci_hi", name), "warm_p99_ci_hi");
    assert!(
        p99 <= 100e-6 && p99_hi <= 150e-6,
        "{name}: warm-path p99 {p99}s (CI hi {p99_hi}s) misses the 100us objective"
    );

    let throughput = field(serve, "throughput", name);
    let rps = float(field(throughput, "rps", name), "rps");
    assert!(
        rps >= 50_000.0,
        "{name}: sustained {rps} req/s below the 50k objective"
    );

    let parity = field(serve, "parity", name);
    let checked = float(field(parity, "checked", name), "parity.checked");
    let cold = float(field(parity, "cold_tunes", name), "parity.cold_tunes");
    assert!(
        checked >= 1000.0 && (checked - cold).abs() < f64::EPSILON,
        "{name}: the checked-in document must parity-check every cold tune \
         (checked {checked} of {cold})"
    );

    let stats = field(serve, "stats", name);
    let errors = float(field(stats, "errors", name), "stats.errors");
    let evictions = float(
        field(stats, "cache_evictions", name),
        "stats.cache_evictions",
    );
    assert!(errors == 0.0, "{name}: the run recorded server errors");
    assert!(
        evictions > 0.0,
        "{name}: the run never evicted — the cache cap is not binding and the \
         hit rate is untested against churn"
    );
}

/// The scale document is held to the |P|² memory-wall objectives it was
/// built to witness: every parity row's bit-equality flags true, every
/// cold-tune speedup self-consistent with its own medians, and a
/// headline run that stayed under its memory budget while actually
/// exercising the out-of-core spill path. A regenerated document from a
/// regressed build fails this gate, not just the eyeball test.
#[test]
fn scale_document_meets_the_memory_wall_objectives() {
    let name = "BENCH_scale.json";
    let (_, doc) = bench_documents()
        .into_iter()
        .find(|(path, _)| path.file_name().is_some_and(|n| n == name))
        .unwrap_or_else(|| panic!("{name} missing from the repo root"));
    let float = |v: &Value, ctx: &str| {
        f64::from_value(v).unwrap_or_else(|e| panic!("{name}: {ctx}: not a number: {e}"))
    };
    let flag = |row: &Value, key: &str, ctx: &str| match field(row, key, ctx) {
        Value::Bool(b) => *b,
        other => panic!("{ctx}: `{key}` is not a bool: {other:?}"),
    };

    // Parity: every row must attest bit-equality against the dense path.
    let Value::Array(parity) = field(&doc, "parity", name) else {
        panic!("{name}: `parity` is not an array");
    };
    assert!(!parity.is_empty(), "{name}: empty parity table");
    for (i, row) in parity.iter().enumerate() {
        let ctx = format!("{name}:parity[{i}]");
        for key in ["dense_roundtrip_equal", "fingerprint_equal", "tune_equal"] {
            assert!(flag(row, key, &ctx), "{ctx}: `{key}` is false");
        }
        assert!(
            float(field(row, "classes", &ctx), "classes") >= 1.0,
            "{ctx}: no pair classes"
        );
    }

    // Cold-tune rows: the quoted speedup must be the ratio of the two
    // quoted medians, and the compressed model strictly smaller.
    let Value::Array(cold) = field(&doc, "cold_tune", name) else {
        panic!("{name}: `cold_tune` is not an array");
    };
    assert!(!cold.is_empty(), "{name}: empty cold_tune table");
    for (i, row) in cold.iter().enumerate() {
        let ctx = format!("{name}:cold_tune[{i}]");
        let dense_s = float(field(row, "dense_s", &ctx), "dense_s");
        let compressed_s = float(field(row, "compressed_s", &ctx), "compressed_s");
        let speedup = float(field(row, "speedup", &ctx), "speedup");
        assert!(
            (speedup - dense_s / compressed_s).abs() <= 1e-9 * speedup.abs(),
            "{ctx}: speedup {speedup} is not dense_s/compressed_s = {}",
            dense_s / compressed_s
        );
        let dense_b = float(field(row, "dense_model_bytes", &ctx), "dense_model_bytes");
        let compr_b = float(
            field(row, "compressed_model_bytes", &ctx),
            "compressed_model_bytes",
        );
        assert!(
            compr_b < dense_b,
            "{ctx}: compressed model ({compr_b} B) not smaller than dense ({dense_b} B)"
        );
    }

    // Headline: the budget held, the spill path ran, and the model beat
    // the dense equivalent by construction.
    let headline = field(&doc, "headline", name);
    assert!(
        flag(headline, "budget_respected", name),
        "{name}: headline run exceeded its memory budget"
    );
    let budget = float(field(&doc, "mem_budget_bytes", name), "mem_budget_bytes");
    let peak = float(
        field(headline, "peak_rss_bytes", name),
        "headline.peak_rss_bytes",
    );
    assert!(
        peak <= budget,
        "{name}: headline peak RSS {peak} B over the {budget} B budget"
    );
    assert!(
        flag(headline, "spill_forced", name),
        "{name}: the staging budget never forced a spill — the out-of-core \
         path is untested at scale"
    );
    let spill = field(headline, "spill", name);
    let spilled = float(field(spill, "spilled_tiles", name), "spill.spilled_tiles");
    let tiles = float(field(spill, "tiles", name), "spill.tiles");
    assert!(
        spilled >= 1.0 && spilled <= tiles,
        "{name}: {spilled} of {tiles} tiles spilled is not a witness of the \
         out-of-core path"
    );
    let compr_b = float(
        field(headline, "compressed_model_bytes", name),
        "headline.compressed_model_bytes",
    );
    let dense_b = float(
        field(headline, "dense_equivalent_bytes", name),
        "headline.dense_equivalent_bytes",
    );
    assert!(
        compr_b < dense_b && compr_b <= budget,
        "{name}: headline model {compr_b} B does not beat dense {dense_b} B \
         within the {budget} B budget"
    );
}

/// The simnet document carries the large-P engine row: world
/// construction and reused-world throughput at P ≥ 1024, each an
/// interval estimate under its own manifest. Construction must cost less
/// than one barrier run — an engine that builds `p × p` tables fails
/// this (at P = 4096 construction took seconds against a run's ~0.1 s).
#[test]
fn simnet_document_carries_the_large_p_engine_row() {
    let name = "BENCH_simnet.json";
    let (_, doc) = bench_documents()
        .into_iter()
        .find(|(path, _)| path.file_name().is_some_and(|n| n == name))
        .unwrap_or_else(|| panic!("{name} missing from the repo root"));
    let row = field(&doc, "engine", name);
    let ctx = format!("{name}:engine");
    let float = |key: &str| {
        f64::from_value(field(row, key, &ctx))
            .unwrap_or_else(|e| panic!("{ctx}: `{key}` not a number: {e}"))
    };
    let manifest = RunManifest::from_value(field(row, "manifest", &ctx))
        .unwrap_or_else(|e| panic!("{ctx}: bad manifest: {e}"));
    assert_eq!(
        manifest.schema_version, SCHEMA_VERSION,
        "{ctx}: stale schema"
    );
    assert!(float("ranks") >= 1024.0, "{ctx}: not a large-P row");
    let estimate = |key: &str| {
        let est = Estimate::from_value(field(row, key, &ctx))
            .unwrap_or_else(|e| panic!("{ctx}: `{key}` is not an Estimate: {e}"));
        assert!(
            est.n >= 1 && est.ci_lo <= est.median && est.median <= est.ci_hi,
            "{ctx}: `{key}` malformed estimate"
        );
        est
    };
    let construct = estimate("construct");
    let run = estimate("run");
    assert!(
        construct.median < run.median,
        "{ctx}: construction {}s is not below one run's {}s",
        construct.median,
        run.median
    );
    let eps = float("events_per_sec");
    let (lo, hi) = (float("events_per_sec_ci_lo"), float("events_per_sec_ci_hi"));
    assert!(
        float("events") > 0.0 && lo <= eps && eps <= hi,
        "{ctx}: events/s {eps} outside its CI [{lo}, {hi}]"
    );
}

#[test]
fn every_result_row_carries_interval_estimates() {
    for (path, doc) in bench_documents() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        // Every array of timing rows in the document is held to the row
        // schema; documents keep their rows under different keys
        // (results, closure, clustering, cold_tune). Arrays of
        // non-timing rows (the scale document's parity table) carry no
        // `speedup` and are gated by their own document test instead.
        let mut row_arrays = 0;
        for (key, value) in doc
            .as_object()
            .unwrap_or_else(|| panic!("{name}: not an object"))
        {
            let Value::Array(rows) = value else { continue };
            if rows
                .iter()
                .all(|r| r.get("ranks").is_some() && r.get("speedup").is_some())
                && !rows.is_empty()
            {
                row_arrays += 1;
                for (i, row) in rows.iter().enumerate() {
                    check_row(row, &format!("{name}:{key}[{i}]"));
                }
            }
        }
        assert!(row_arrays >= 1, "{name}: no result rows found");
    }
}
