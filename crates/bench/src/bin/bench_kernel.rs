//! Learner-kernel microbenchmark: emits `BENCH_kernel.json`.
//!
//! Times the three hot learner operations — `observe` (the full stage
//! update: decay, rank-1 column update, Q-row, probability rule),
//! `select_action` (inverse-CDF sample), and `max_regret` (the proxy
//! scan; for the slab also the `O(m)` read of its maintained row maxima,
//! `max_regret_kept_ns`) — for the **scalar** per-peer layout
//! (`rths_core::RthsState`, one heap `Matrix` per learner, all `m²`
//! entries read) against the **slab** layout (`rths_core::LearnerSlab`,
//! column-major arena + `rths_math::kernels`, played columns only), at
//! m ∈ {16, 64, 256} actions. Both paths compute bit-identical results
//! (pinned by the slab oracle tests), so the ratio is layout,
//! vectorization and played-mask sparsity.
//!
//! Run with: `cargo run --release -p rths_bench --bin bench_kernel`
//!
//! * `RTHS_BENCH_QUICK=1` shrinks the iteration counts (CI smoke).
//! * Output lands in `results/BENCH_kernel.json` (see `RTHS_RESULTS_DIR`).
//!
//! A checksum accumulated from both paths is printed so the work cannot
//! be optimized away; wall-clock per-op nanoseconds are the metric.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rths_bench::results_dir;
use rths_core::{LearnerSlab, RthsConfig, RthsState};

/// Learners per arena — enough that the slab's locality matters and the
/// scalar path's pointer-chasing shows, small enough for quick mode.
const SLOTS: usize = 256;

struct Timing {
    observe_ns: f64,
    select_ns: f64,
    max_regret_ns: f64,
    /// The slab's estimate once it maintains its row maxima (`None` for
    /// the scalar layout, which has only the scan).
    max_regret_kept_ns: Option<f64>,
    checksum: f64,
}

fn config(m: usize) -> RthsConfig {
    RthsConfig::builder(m).mu(4.0 * 400.0).build().expect("valid benchmark config")
}

/// Drives `SLOTS` scalar learners for `stages` select/observe rounds and
/// a final `max_regret` sweep, timing each op class separately.
fn run_scalar(m: usize, stages: usize) -> Timing {
    let cfg = config(m);
    let mut learners: Vec<RthsState> = (0..SLOTS).map(|_| RthsState::new(&cfg)).collect();
    let mut rngs: Vec<StdRng> =
        (0..SLOTS).map(|i| StdRng::seed_from_u64(1000 + i as u64)).collect();
    let mut row = Vec::new();
    let mut checksum = 0.0f64;
    let mut observe_ns = 0.0;
    let mut select_ns = 0.0;
    for _ in 0..stages {
        let t0 = Instant::now();
        let mut choices = [0usize; SLOTS];
        for (i, l) in learners.iter_mut().enumerate() {
            choices[i] = l.select_action(&mut rngs[i]);
        }
        select_ns += t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        for (i, l) in learners.iter_mut().enumerate() {
            l.observe(&cfg, 100.0 + (choices[i] % 7) as f64, &mut row);
        }
        observe_ns += t1.elapsed().as_nanos() as f64;
    }
    let t2 = Instant::now();
    for l in &learners {
        checksum += l.max_regret(&cfg);
    }
    let max_regret_ns = t2.elapsed().as_nanos() as f64 / SLOTS as f64;
    checksum += learners.iter().map(|l| l.probabilities()[0]).sum::<f64>();
    let ops = (stages * SLOTS) as f64;
    Timing {
        observe_ns: observe_ns / ops,
        select_ns: select_ns / ops,
        max_regret_ns,
        max_regret_kept_ns: None,
        checksum,
    }
}

/// Same trajectory on one shared slab (identical seeds → identical float
/// work; the checksums must agree bitwise with the scalar run).
fn run_slab(m: usize, stages: usize) -> Timing {
    let cfg = config(m);
    let mut slab = LearnerSlab::with_capacity(m, SLOTS);
    for _ in 0..SLOTS {
        slab.alloc(m);
    }
    let mut rngs: Vec<StdRng> =
        (0..SLOTS).map(|i| StdRng::seed_from_u64(1000 + i as u64)).collect();
    let mut row = Vec::new();
    let mut checksum = 0.0f64;
    let mut observe_ns = 0.0;
    let mut select_ns = 0.0;
    let keep = 1.0 - cfg.epsilon();
    for _ in 0..stages {
        let t0 = Instant::now();
        let mut choices = [0usize; SLOTS];
        let mut cols = slab.split();
        for (i, choice) in choices.iter_mut().enumerate() {
            *choice = cols.select_action(i, &mut rngs[i]);
        }
        select_ns += t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        // The store's batched form: one lazy-decay pass, then predecayed
        // per-slot updates (bit-identical to inline decay).
        cols.decay(keep);
        for (i, &choice) in choices.iter().enumerate() {
            cols.observe_predecayed(i, &cfg, 100.0 + (choice % 7) as f64, &mut row);
        }
        observe_ns += t1.elapsed().as_nanos() as f64;
    }
    let t2 = Instant::now();
    let mut diag = Vec::new();
    let mut cols = slab.split();
    for i in 0..SLOTS {
        checksum += cols.max_regret(i, &cfg, &mut diag);
    }
    let max_regret_ns = t2.elapsed().as_nanos() as f64 / SLOTS as f64;
    // The same sweep from the maintained row maxima (built here, outside
    // the timing): the diagonal gather plus m loads per slot.
    slab.track_estimates();
    let t3 = Instant::now();
    let mut kept = 0.0f64;
    let mut cols = slab.split();
    for i in 0..SLOTS {
        kept += cols.max_regret(i, &cfg, &mut diag);
    }
    let max_regret_kept_ns = t3.elapsed().as_nanos() as f64 / SLOTS as f64;
    assert_eq!(
        kept.to_bits(),
        checksum.to_bits(),
        "maintained and scanned estimates diverged at m={m}"
    );
    checksum += (0..SLOTS).map(|i| slab.probabilities(i)[0]).sum::<f64>();
    let ops = (stages * SLOTS) as f64;
    Timing {
        observe_ns: observe_ns / ops,
        select_ns: select_ns / ops,
        max_regret_ns,
        max_regret_kept_ns: Some(max_regret_kept_ns),
        checksum,
    }
}

fn main() {
    let quick = std::env::var("RTHS_BENCH_QUICK").is_ok_and(|v| v != "0");
    let stages = if quick { 60 } else { 400 };
    let arities = [16usize, 64, 256];
    println!(
        "BENCH_kernel — scalar vs slab learner kernels ({SLOTS} learners, {stages} stages{})",
        if quick { ", quick mode" } else { "" }
    );
    println!(
        "\n{:>5} {:>8} | {:>12} {:>12} {:>14} | {:>9}",
        "m", "layout", "observe(ns)", "select(ns)", "max_regret(ns)", "speedup"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"learner_kernel_grid\",");
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"slots\": {SLOTS},");
    let _ = writeln!(json, "  \"stages\": {stages},");
    let _ = writeln!(json, "  \"arities\": [");

    for (ai, &m) in arities.iter().enumerate() {
        let scalar = run_scalar(m, stages);
        let slab = run_slab(m, stages);
        assert_eq!(
            scalar.checksum.to_bits(),
            slab.checksum.to_bits(),
            "scalar and slab paths diverged at m={m}"
        );
        let speedup = scalar.observe_ns / slab.observe_ns.max(1e-9);
        println!(
            "{m:>5} {:>8} | {:>12.0} {:>12.0} {:>14.0} |",
            "scalar", scalar.observe_ns, scalar.select_ns, scalar.max_regret_ns
        );
        println!(
            "{:>5} {:>8} | {:>12.0} {:>12.0} {:>14.0} | {speedup:>8.2}x",
            "", "slab", slab.observe_ns, slab.select_ns, slab.max_regret_ns
        );
        if let Some(kept) = slab.max_regret_kept_ns {
            println!("{:>5} {:>8} | {:>12} {:>12} {kept:>14.0} |", "", "+ rows", "", "");
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"m\": {m},");
        let _ = writeln!(json, "      \"observe_speedup\": {speedup:.3},");
        let _ = writeln!(json, "      \"runs\": [");
        for (ri, (layout, t)) in [("scalar", &scalar), ("slab", &slab)].iter().enumerate() {
            let kept = t
                .max_regret_kept_ns
                .map_or(String::new(), |ns| format!(", \"max_regret_kept_ns\": {ns:.1}"));
            let _ = writeln!(
                json,
                "        {{\"layout\": \"{layout}\", \"observe_ns\": {:.1}, \
                 \"select_ns\": {:.1}, \"max_regret_ns\": {:.1}{kept}}}{}",
                t.observe_ns,
                t.select_ns,
                t.max_regret_ns,
                if ri == 0 { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(json, "    }}{}", if ai + 1 < arities.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = results_dir().join("BENCH_kernel.json");
    let mut file = std::fs::File::create(&path).expect("can create BENCH_kernel.json");
    file.write_all(json.as_bytes()).expect("can write BENCH_kernel.json");
    println!("\nscalar/slab checksums identical per arity; json: {}", path.display());
}
