//! Regression gate over the bench harness JSON emissions
//! (`BENCH_matmul.json`, `BENCH_serve.json`).
//!
//! Three layers of checks, so CI fails when a change costs the hot path
//! real speed:
//!
//! 1. **Machine-independent invariants** (always on): within a single
//!    run, the blocked `dense_into` kernel must still beat the naive
//!    kernel at batch sizes ≥ 256, a ReLU-sparse lhs must not take
//!    longer than a dense one, and the scratch-buffer forward pass
//!    must not lose to the allocating one at the 8192-row batch; on the
//!    serving plane, the binary `application/x-uadb-rows` request must
//!    beat the equivalent JSON request at the 8192-row batch. These
//!    hold on any hardware, so they gate even when the baseline was
//!    produced on a different machine. Invariants whose cases are
//!    absent from the candidate file are skipped, so one binary gates
//!    both bench suites.
//! 2. **Baseline comparison** (`--baseline <path>`): every case present
//!    in both files must satisfy `candidate.min_ns <= baseline.min_ns *
//!    tolerance`. The tolerance (`--tolerance`, default 3.0) absorbs
//!    cross-machine and smoke-mode noise while still catching
//!    order-of-magnitude regressions (a lock or allocation sneaking into
//!    the hot path).
//!
//! 3. **Reference comparison** (`--reference <path>`): a small set of
//!    pinned cases (currently the binary-scoring 8192-row batches) must
//!    stay within 5% of the checked-in reference emission — the gate
//!    that the drift-sketch instrumentation on the scoring hot path is
//!    actually free. Unlike `--baseline`, a missing file or case is a
//!    SKIP, not a failure, so the gate degrades gracefully on machines
//!    without the reference.
//!
//! Usage: `bench_gate --candidate BENCH_matmul.json
//!         [--baseline baseline.json] [--tolerance 3.0]
//!         [--reference BENCH_serve.json]`

use std::collections::BTreeMap;
use std::process::exit;

/// Extracts `name -> min_ns` from a bench's own JSON emission, or says
/// why it cannot: the file is unreadable or holds no results.
///
/// The benches write one result object per line (`benches/common`), so
/// a line-oriented scan is exact for this format (this is not a general
/// JSON parser and does not need to be).
fn scan_results(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let out: BTreeMap<String, f64> = text
        .lines()
        .filter_map(|line| {
            Some((field_str(line, "\"name\": \"")?.to_string(), field_num(line, "\"min_ns\": ")?))
        })
        .collect();
    if out.is_empty() {
        return Err(format!("no results parsed from {path}"));
    }
    Ok(out)
}

/// [`scan_results`] for a file the gate needs: failure exits with 2.
fn parse_results(path: &str) -> BTreeMap<String, f64> {
    scan_results(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        exit(2);
    })
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end =
        rest.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(fast case, slow case, allowed fast/slow ratio)` — `fast` must take
/// at most `ratio` of `slow`'s time within the same run.
const INVARIANTS: &[(&str, &str, f64)] = &[
    ("dense_into_256x16x128", "naive_256x16x128", 1.0),
    ("dense_into_256x128x128", "naive_256x128x128", 1.0),
    ("dense_into_1024x64x64", "naive_1024x64x64", 1.0),
    // A ReLU-sparse lhs does half the dense case's work, so it must not
    // take longer: zeros are skipped, not branched over.
    ("relu_into_256x128x128", "dense_into_256x128x128", 1.0),
    ("scratch_8192x32", "alloc_8192x32", 1.1),
    // Serving plane (BENCH_serve.json): at the 8192-row batch the binary
    // wire format must beat JSON — parsing decimal float text must never
    // be the fast path again.
    ("binary_rows8192", "json_rows8192", 1.0),
    // Training plane (BENCH_train.json): the zero-allocation scratch
    // engine must never lose to the reconstructed legacy loop at the
    // paper's batch 256, nor at a fold member's batch 31, where the
    // backward products run on the GEMM strips and the legacy loop's
    // are scalar. A whole fit at 2 workers must cost at most noise over
    // 1 worker even on a single-core box (with two cores the fold
    // members and probe train side by side, well under 1.0).
    ("scratch_b256", "legacy_b256", 1.05),
    ("scratch_b31", "legacy_b31", 1.0),
    ("fit_w2", "fit_w1", 1.15),
];

/// `(case, allowed candidate/reference ratio)` — pinned cases gated
/// against the checked-in reference emission (`--reference`). The
/// binary-scoring path carries the drift-sketch instrumentation, so a
/// sketch record that allocates or locks shows up here first.
const REFERENCE_INVARIANTS: &[(&str, f64)] = &[("binary_rows8192", 1.05)];

fn main() {
    let mut candidate_path = String::from("BENCH_matmul.json");
    let mut baseline_path: Option<String> = None;
    let mut reference_path: Option<String> = None;
    let mut tolerance = 3.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_gate: {what} expects a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--candidate" => candidate_path = take("--candidate"),
            "--baseline" => baseline_path = Some(take("--baseline")),
            "--reference" => reference_path = Some(take("--reference")),
            "--tolerance" => {
                tolerance = take("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("bench_gate: --tolerance expects a number");
                    exit(2);
                })
            }
            other => {
                eprintln!("bench_gate: unknown argument {other}");
                exit(2);
            }
        }
    }

    let candidate = parse_results(&candidate_path);
    let mut failures = 0usize;

    println!("bench_gate: {} cases in {candidate_path}", candidate.len());
    for &(fast, slow, ratio) in INVARIANTS {
        let (Some(&f), Some(&s)) = (candidate.get(fast), candidate.get(slow)) else {
            println!("  SKIP invariant {fast} vs {slow}: case missing");
            continue;
        };
        let ok = f <= s * ratio;
        println!(
            "  {} {fast} ({f:.0} ns) <= {ratio} x {slow} ({s:.0} ns)",
            if ok { "ok  " } else { "FAIL" }
        );
        if !ok {
            failures += 1;
        }
    }

    if let Some(path) = baseline_path {
        let baseline = parse_results(&path);
        println!("bench_gate: comparing against {path} (tolerance {tolerance}x)");
        for (name, &b) in &baseline {
            let Some(&c) = candidate.get(name) else {
                println!("  FAIL {name}: present in baseline, missing from candidate");
                failures += 1;
                continue;
            };
            let ok = c <= b * tolerance;
            println!(
                "  {} {name}: {c:.0} ns vs baseline {b:.0} ns ({:.2}x)",
                if ok { "ok  " } else { "FAIL" },
                c / b.max(1.0)
            );
            if !ok {
                failures += 1;
            }
        }
    }

    if let Some(path) = reference_path {
        match scan_results(&path) {
            // The reference gate is advisory on machines that never
            // produced the emission.
            Err(_) => println!("bench_gate: SKIP reference gate ({path} missing or empty)"),
            Ok(reference) => {
                println!("bench_gate: reference gate against {path}");
                for &(name, ratio) in REFERENCE_INVARIANTS {
                    let (Some(&c), Some(&r)) = (candidate.get(name), reference.get(name)) else {
                        println!("  SKIP reference {name}: case missing");
                        continue;
                    };
                    let ok = c <= r * ratio;
                    println!(
                        "  {} {name}: {c:.0} ns <= {ratio} x reference {r:.0} ns ({:.2}x)",
                        if ok { "ok  " } else { "FAIL" },
                        c / r.max(1.0)
                    );
                    if !ok {
                        failures += 1;
                    }
                }
            }
        }
    }

    if failures > 0 {
        eprintln!("bench_gate: {failures} check(s) failed");
        exit(1);
    }
    println!("bench_gate: all checks passed");
}
