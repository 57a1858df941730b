//! Whole-stack benchmark of the HIOS reproduction.
//!
//! `stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process: set-up (timed, several times),
//! timed repetitions of the identical input on fresh state, output
//! checks and shape guards, and — with `--trace 1` — one more traced
//! repetition with an outside-in replay of the layers beneath it.
//! Every metric is printed by name with its unit; the last line of
//! standard output is the machine-readable result.  See `README.md`.

mod gen;
mod harness;
mod layers;
mod replay;
mod serving;
mod span;
mod workloads;

use harness::{RepTimes, fastest, median, peak_rss_mib, timed_reps};
use layers::{END_TO_END, Layers, PER_LAYER};
use serving::SimStats;
use span::Recorder;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Workload, fleet_failover, plan_churn, sched_offline, serve_chaos, serve_steady};

const WORKLOADS: [&str; 5] = [
    "serve_steady",
    "serve_chaos",
    "fleet_failover",
    "plan_churn",
    "sched_offline",
];

/// Set-up runs at least [`MIN_SETUPS`] times and then until
/// [`SETUP_BUDGET_S`] is spent or [`MAX_SETUPS`] are done; `setup_s` is
/// the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: stackbench [--workload] <{}> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("stackbench: {what} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--workload" => args.workload = value("--workload"),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value("--trace") == "1",
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            name if !name.starts_with('-') && args.workload.is_empty() => {
                args.workload = name.to_owned()
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds.is_nan() || args.seconds <= 0.0
    {
        usage();
    }
    args
}

/// Where traces and scratch files go: `bench/out` under the checkout
/// (the runner exports it), never outside.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var_os("HIOS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench/out"));
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

fn drive<W: Workload>(args: &Args) -> bool {
    let mut failures: Vec<String> = Vec::new();

    // Set-up, several times over: its median is `setup_s`, so work a
    // later change moves out of the timed part still shows.
    let mut setup_times = Vec::new();
    let setup_started = Instant::now();
    let (input, mut layers) = loop {
        let mut layers = Layers::new();
        let t0 = Instant::now();
        let input = W::setup(args.seed, args.smoke, &mut layers);
        setup_times.push(t0.elapsed().as_secs_f64());
        let enough = if args.smoke { 1 } else { MIN_SETUPS };
        if setup_times.len() >= enough
            && (setup_started.elapsed().as_secs_f64() > SETUP_BUDGET_S
                || setup_times.len() >= MAX_SETUPS)
        {
            break (input, layers);
        }
    };
    let work = W::work(&input);

    // Timed repetitions, untraced: at least two (their digests must
    // agree) and until the budget is spent.  A traced run spends half
    // its budget here and may stop at one — it needs only the untraced
    // pace for the overhead ratio, and its traced repetition is the
    // second digest.  A smoke run does exactly one.
    let (budget, min_reps) = match (args.smoke, args.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (args.seconds / 2.0, 1),
        (false, false) => (args.seconds, 2),
    };
    let mut first_digest = None;
    let mut stats: Option<SimStats> = None;
    let mut failed_ops = 0usize;
    let mut rss_mib = 0.0;
    let times: RepTimes = timed_reps(
        budget,
        min_reps,
        |rep| W::run(&input, rep),
        |rep, out| {
            let digest = W::digest(&out);
            match first_digest {
                None => {
                    // Peak memory of set-up plus one full repetition,
                    // read before the checks allocate anything.
                    rss_mib = peak_rss_mib();
                    first_digest = Some(digest);
                    failed_ops = W::verify(&input, &out, args.smoke, &mut failures);
                    stats = Some(W::sim_stats(&input, &out));
                }
                Some(first) if first != digest => failures.push(format!(
                    "repetition {rep} digest {digest:016x} differs from the first {first:016x}"
                )),
                Some(_) => {}
            }
        },
    );
    let stats = stats.expect("at least one repetition ran");
    let best = fastest(&times.wall_s);
    let best_idx = times
        .wall_s
        .iter()
        .position(|&t| t == best)
        .expect("fastest repetition exists");

    let mut e2e: Vec<(&str, f64)> = vec![
        ("setup_s", median(&setup_times)),
        ("req_per_s", work as f64 / best),
        ("peak_rss_mib", rss_mib),
        ("ok_frac", stats.ok_frac),
        ("gold_ok_frac", stats.gold_ok_frac),
        ("sim_p50_ms", stats.p50_ms),
        ("sim_p99_ms", stats.p99_ms),
        ("sim_goodput_rps", stats.goodput_rps),
        ("sim_speedup_vs_seq", stats.speedup_vs_seq),
    ];
    if stats.ok_frac < 0.90 {
        failures.push(format!(
            "ok_frac {:.4} < 0.90: the workload is timing refusals, not service",
            stats.ok_frac
        ));
    }
    for (name, value) in &mut e2e {
        if !(value.is_finite() && *value > 0.0) {
            failures.push(format!(
                "end-to-end metric {name} = {value} must be finite and > 0"
            ));
            *value = 0.0;
        }
    }

    layers.set("harness.threads", harness::rayon_threads() as f64);
    layers.set("harness.rep_spread", (median(&times.wall_s) - best) / best);
    layers.set(
        "harness.cpu_us_per_req",
        1e6 * times.cpu_s[best_idx] / work as f64,
    );

    if args.trace {
        let mut rec = Recorder::new(W::NAME);
        let traced = W::trace(&input, &mut rec);
        if Some(W::digest(&traced.out)) != first_digest {
            failures.push("the traced repetition's digest differs from the untraced ones".into());
        }
        layers.merge(&traced.layers);
        layers.set("harness.trace_overhead_ratio", traced.wall_s / best);
        let path = out_dir().join(format!("{}.trace.json", W::NAME));
        std::fs::write(&path, rec.chrome_json()).expect("write the Chrome trace");
        println!("# chrome trace: {}", path.display());
    }

    // Human-readable table, then the machine-readable last line.
    println!(
        "# workload {} seed {} reps {} (fastest {:.4} s, median {:.4} s) work {} samples {} threads {} nproc {}",
        W::NAME,
        args.seed,
        times.wall_s.len(),
        best,
        median(&times.wall_s),
        work,
        stats.samples,
        harness::rayon_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (name, unit) in END_TO_END {
        let value = e2e.iter().find(|(n, _)| *n == name).expect("registered").1;
        println!("{name:<40} {value:>18.6} {unit}");
    }
    for (name, unit) in PER_LAYER {
        // Untraced, most layers were not measured: show only what was.
        if args.trace || layers.get(name) != 0.0 {
            println!("{name:<40} {:>18.6} {unit}", layers.get(name));
        }
    }
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric_json(name, layers.get(name), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let value = e2e.iter().find(|(n, _)| n == name).expect("registered").1;
                metric_json(name, value, unit)
            })
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {work}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed_ops.max(usize::from(!correct)),
        metrics.join(", ")
    );
    correct
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = parse_args();
    let correct = match args.workload.as_str() {
        "serve_steady" => drive::<serve_steady::ServeSteady>(&args),
        "serve_chaos" => drive::<serve_chaos::ServeChaos>(&args),
        "fleet_failover" => drive::<fleet_failover::FleetFailover>(&args),
        "plan_churn" => drive::<plan_churn::PlanChurn>(&args),
        "sched_offline" => drive::<sched_offline::SchedOffline>(&args),
        _ => unreachable!("validated by parse_args"),
    };
    if !correct {
        std::process::exit(1);
    }
}
