//! End-to-end and per-layer benchmark of privtopk.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`
//!
//! Generates the workload's inputs from the seed, runs the end-to-end
//! pass (the program's own recorder stays disabled), checks every outcome
//! with the oracle and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 1` the metrics are the per-layer ones from the traced pass,
//! whose spans are written to `<dir>/spans-<workload>-<seed>.jsonl`. The
//! line before it breaks attempts down by operation type and records the
//! host's steal share during the measured phase.

mod gen;
mod layers;
mod oracle;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{median, per_query};
use trace::Tracer;
use workloads::{Inputs, Kind, Pass, Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        out: out.ok_or("--out is required")?,
    })
}

/// A scratch directory for the run's stores, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> Result<Scratch, String> {
        let dir = out.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn end_to_end(pass: &Pass) -> Vec<layers::Metric> {
    // Rates, CPU and latency quantiles pool the less disturbed windows.
    let windows = stats::least_disturbed(&pass.windows, |w| w.steal);
    let seconds: f64 = windows.iter().map(|w| w.seconds).sum();
    let done: u64 = windows.iter().map(|w| w.queries).sum();
    let cpu_ms: f64 = windows.iter().map(|w| w.cpu_ms).sum();
    let latencies: Vec<f64> = windows
        .iter()
        .flat_map(|w| pass.latencies_ms[w.latencies.clone()].iter().copied())
        .collect();
    let queries = pass.queries;
    vec![
        ("queries_per_s", done as f64 / seconds, "1/s"),
        ("latency_p50_ms", median(&latencies).unwrap_or(0.0), "ms"),
        (
            "latency_p90_ms",
            stats::quantile(&latencies, 0.9).unwrap_or(0.0),
            "ms",
        ),
        ("cpu_ms_per_query", per_query(cpu_ms, done), "ms"),
        (
            "bytes_per_query",
            per_query(pass.bytes as f64, queries),
            "B",
        ),
        (
            "frames_per_query",
            per_query(pass.frames as f64, queries),
            "1",
        ),
        ("setup_s", median(&pass.setup_s).unwrap_or(0.0), "s"),
        ("rss_peak_mb", pass.rss_peak_mb, "MiB"),
    ]
}

fn json_metrics(metrics: &[layers::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let scratch = Scratch::new(&args.out)?;
    let inputs = Inputs::generate(w, args.seed, &scratch.0)?;
    let mut tracer = Tracer::new(args.trace);
    let pass = workloads::run(w, &inputs, args.seconds, &mut tracer)?;
    let metrics = if args.trace {
        layers::run(w, &inputs, &pass, &mut tracer)?;
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", w.name, args.seed));
        std::fs::write(&path, tracer.jsonl()).map_err(|e| format!("write spans: {e}"))?;
        eprintln!("spans written to {}", path.display());
        layers::metrics(w, &inputs, &pass, &tracer)
    } else {
        end_to_end(&pass)
    };

    let query_kind = if w.kind == Kind::Batch {
        "batched queries"
    } else {
        "queries"
    };
    let mut ops = format!(
        "\"{query_kind}\": {{\"attempted\": {}, \"failed\": {}}}",
        pass.queries,
        pass.failed - pass.checks_failed
    );
    if pass.checks > 0 {
        ops += &format!(
            ", \"node-check queries\": {{\"attempted\": {}, \"failed\": {}}}",
            pass.checks, pass.checks_failed
        );
    }
    if w.kind == Kind::Store {
        ops += &format!(
            ", \"writes\": {{\"attempted\": {}, \"failed\": {}}}",
            pass.writes.attempted, pass.writes.failed
        );
    }
    let kept = stats::least_disturbed(&pass.windows, |w| w.steal);
    let kept_steals: Vec<f64> = kept.iter().map(|w| w.steal).collect();
    let kept_steal = median(&kept_steals).unwrap_or(0.0);
    let steady = stats::steady(&kept_steals);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"ops\": {{{ops}}}, \"durable\": {}, \"pool_left_out\": {}, \"steal_share\": {}, \"kept_steal_share\": {kept_steal}, \"steady\": {}, \"windows_kept\": \"{}/{}\", \"latency_samples\": {}, \"latency_p99_ms\": {}, \"setup_samples_s\": {:?}}}",
        w.name,
        args.seed,
        pass.durable.map_or("null".to_string(), |d| d.to_string()),
        pass.left_out,
        pass.steal_share,
        steady,
        kept.len(),
        pass.windows.len(),
        pass.latencies_ms.len(),
        stats::quantile(&pass.latencies_ms, 0.99).unwrap_or(0.0),
        pass.setup_s
    );
    let windows: Vec<String> = pass
        .windows
        .iter()
        .map(|w| {
            format!(
                "{:.0} q/s @ steal {:.3}",
                w.queries as f64 / w.seconds,
                w.steal
            )
        })
        .collect();
    eprintln!("windows: {}", windows.join(", "));
    let attempted = pass.queries + pass.checks + pass.writes.attempted;
    let failed = pass.failed + pass.writes.failed;
    if !pass.pool_sound {
        eprintln!(
            "oracle: the engine misses the true top-k on {} of {} pool entries",
            pass.left_out,
            gen::SEED_POOL
        );
    }
    if !steady {
        eprintln!(
            "host: steal share {kept_steal:.3} in the kept windows; this run is disturbed and not fit for comparison"
        );
    }
    // Failed queries are counted in `failed`; `correct` says whether the
    // answers that came back, the side checks and the stores hold up.
    let correct = pass.wrong == 0
        && pass.pool_sound
        && pass.checks_failed == 0
        && pass.writes.failed == 0
        && pass.durable != Some(false);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
