//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Prints one JSON line: `correct`, `attempted`, `failed`, the metrics of
//! the mode (end-to-end untraced, per-layer traced) and a `record` with
//! the run's settings. Exits 1 when an output check fails, 2 on a usage
//! error. `perfbench/run.py` builds this program and wraps it; see
//! `perfbench/README.md` for the workloads.

mod calib;
mod forget;
mod gen;
mod layers;
mod netrounds;
mod report;
mod stats;
mod table1;
mod trace;

use fuiov_lab::Json;
use report::Outcome;
use trace::Trace;

/// The workloads. `BENCHMARK.json` lists the last three; `table1-trial`
/// is run by hand, because its trial time swings too far between runs on
/// a shared host to hold a bound (see `perfbench/README.md`).
const WORKLOADS: [&str; 4] = ["table1-trial", "forget-hot", "forget-spill", "net-rounds"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
        trace_out,
    })
}

/// Settings of this process that change what is measured.
fn settings(args: &Args) -> Vec<(String, Json)> {
    let caps = fuiov_tensor::simd::caps();
    let budget = fuiov_storage::TierConfig::from_env().budget_bytes;
    vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("traced".into(), Json::Bool(args.traced)),
        (
            "fuiov_threads".into(),
            Json::Num(fuiov_tensor::pool::threads() as f64),
        ),
        (
            "simd_enabled".into(),
            Json::Bool(fuiov_tensor::simd::enabled()),
        ),
        ("avx2".into(), Json::Bool(caps.avx2)),
        ("fma".into(), Json::Bool(caps.fma)),
        ("obs_enabled".into(), Json::Bool(fuiov_obs::enabled())),
        (
            "history_budget_env".into(),
            budget.map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "net-rounds" {
        // Read by `HistoryStore::new` inside every `Server`; set before
        // any thread exists.
        std::env::set_var(
            "FUIOV_HISTORY_BUDGET",
            netrounds::HISTORY_BUDGET.to_string(),
        );
    }
    let record = settings(&args);
    let (seed, secs) = (args.seed, args.seconds);
    let mut trace = Trace::default();
    let mut out: Outcome = match (args.workload.as_str(), args.traced) {
        ("table1-trial", false) => table1::run(seed, secs),
        ("table1-trial", true) => table1::run_traced(seed, &mut trace),
        ("forget-hot", false) => forget::run(seed, secs, false),
        ("forget-hot", true) => forget::run_traced(seed, secs, false, &mut trace),
        ("forget-spill", false) => forget::run(seed, secs, true),
        ("forget-spill", true) => forget::run_traced(seed, secs, true, &mut trace),
        ("net-rounds", false) => netrounds::run(seed, secs),
        ("net-rounds", true) => netrounds::run_traced(seed, secs, &mut trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    if args.traced {
        for (k, v) in layers::nn_probe(seed, 25) {
            out.metric(&k, v);
        }
        match layers::net_codec_probe(seed, 50) {
            Ok(m) => m.into_iter().for_each(|(k, v)| out.metric(&k, v)),
            Err(e) => out.check(&e, false),
        }
        for (layer, ns) in trace.layer_self_times() {
            out.metric(&format!("{layer}.self_ms"), ns as f64 / 1e6);
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, trace.to_json().render()) {
                eprintln!("perfbench: writing {path}: {e}");
            }
        }
    } else {
        out.metric(
            "ok_share",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    println!("{}", out.to_json(args.traced, record).render());
    if !out.correct() {
        std::process::exit(1);
    }
}
