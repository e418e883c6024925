//! End-to-end benchmark of the HECATE stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path stackbench/Cargo.toml -- \
//!     --workload compile|exec|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process on one core, driven by a single
//! closed-loop thread that attempts whole rounds of the same operations
//! until `--seconds` have passed. With `--trace 0` the last line of
//! standard output is a JSON object holding the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a separate traced run.
//! Per-class medians and check failures go to standard error. See
//! `README.md` for the metrics, the workloads and reference figures.

mod compile;
mod exec;
mod layers;
mod programs;
mod serve;
mod stats;

use layers::Layers;
use stats::{latency, median, tail, Classes};
use std::time::{Duration, Instant};

/// How many times each run sets its workload up; `setup_s` is the median.
const SETUPS: usize = 3;

/// What one round of a workload records.
#[derive(Default)]
pub struct Measure {
    /// Successful operation times (ms) by class.
    pub samples: Classes,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output-check failures (an operation that ran but returned a wrong
    /// result).
    pub errors: Vec<String>,
    /// Time spent in output checks, excluded from the measured wall time.
    pub check_time: Duration,
}

impl Measure {
    /// Records one successful operation of `class` taking `elapsed`.
    pub fn record(&mut self, class: &str, elapsed: Duration) {
        self.attempted += 1;
        self.samples
            .entry(class.to_string())
            .or_default()
            .push(elapsed.as_secs_f64() * 1e3);
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("operation failed: {what}");
    }

    /// Runs an output check off the measured clock.
    pub fn check(&mut self, f: impl FnOnce() -> Result<(), String>) {
        let t = Instant::now();
        if let Err(e) = f() {
            eprintln!("check failed: {e}");
            self.errors.push(e);
        }
        self.check_time += t.elapsed();
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Whether the workload's own compiles happen in set-up (so a traced
    /// run traces set-up to see them).
    const COMPILES_IN_SETUP: bool;

    /// Generates inputs and prepares everything the first measured
    /// operation needs.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs one whole round of operations. `layers` is set on traced
    /// rounds, for the per-layer data only the workload itself can see.
    fn round(&mut self, m: &mut Measure, layers: Option<&mut Layers>);

    /// The classes whose tail `tail_ms` reports (all by default).
    fn tail_classes(&self, samples: &Classes) -> Classes {
        samples.clone()
    }

    /// End-of-run checks over the whole run.
    fn finish(&mut self, _m: &mut Measure) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scheme: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scheme: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--scheme" => args.scheme = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(scheme) = &args.scheme {
        // Reference figures only (README): the exec workload under
        // another scheme. Not a benchmark workload.
        exec::set_scheme(scheme).unwrap_or_else(|e| {
            eprintln!("stackbench: {e}");
            std::process::exit(2);
        });
    }
    let seconds = Duration::from_secs_f64(args.seconds);
    let result = match (args.workload.as_str(), args.trace) {
        ("compile", false) => run::<compile::CompileWorkload>(args.seed, seconds),
        ("exec", false) => run::<exec::ExecWorkload>(args.seed, seconds),
        ("serve", false) => run::<serve::ServeWorkload>(args.seed, seconds),
        ("compile", true) => run_traced::<compile::CompileWorkload>(args.seed, seconds),
        ("exec", true) => run_traced::<exec::ExecWorkload>(args.seed, seconds),
        ("serve", true) => run_traced::<serve::ServeWorkload>(args.seed, seconds),
        (other, _) => Err(format!("unknown workload '{other}' (compile, exec, serve)")),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("stackbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Sets the workload up [`SETUPS`] times (keeping the last) and returns
/// it with the median set-up time in seconds.
fn setup<W: Workload>(seed: u64) -> Result<(W, f64), String> {
    let mut times = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        // Drop the previous instance first, so peak memory reflects one.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((workload.expect("at least one set-up"), median(&times)))
}

/// The untraced run: end-to-end metrics.
fn run<W: Workload>(seed: u64, seconds: Duration) -> Result<String, String> {
    let (mut w, setup_s) = setup::<W>(seed)?;
    let mut m = Measure::default();
    let start = Instant::now();
    while start.elapsed() < seconds {
        w.round(&mut m, None);
    }
    let wall = start.elapsed() - m.check_time;
    w.finish(&mut m);
    print_classes(&m.samples);
    let completed = m.attempted - m.failed;
    if completed == 0 {
        return Err("no operation completed".into());
    }
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("latency_ms", latency(&m.samples), "ms"),
        ("tail_ms", tail(&w.tail_classes(&m.samples)), "ms"),
        ("rate_per_s", completed as f64 / wall.as_secs_f64(), "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok(result_json(&m, &metrics))
}

/// The traced run: per-layer metrics. Rounds alternate between tracing
/// off and on, so the per-class medians of the two halves give the
/// tracing overhead; layers the workload's own rounds do not reach are
/// measured by short traced probes of the workloads that reach them.
fn run_traced<W: Workload>(seed: u64, seconds: Duration) -> Result<String, String> {
    use hecate_telemetry::trace;
    let mut layers = Layers::default();
    trace::set_enabled(W::COMPILES_IN_SETUP);
    let setup = W::setup(seed);
    trace::set_enabled(false);
    layers.absorb(trace::drain());
    let mut w = setup?;
    let (mut plain, mut traced) = (Measure::default(), Measure::default());
    let start = Instant::now();
    let mut round = 0usize;
    // At least one round of each kind.
    while round < 2 || start.elapsed() < seconds {
        if round % 2 == 1 {
            trace::set_enabled(true);
            w.round(&mut traced, Some(&mut layers));
            trace::set_enabled(false);
            layers.absorb(trace::drain());
        } else {
            w.round(&mut plain, None);
        }
        round += 1;
    }
    w.finish(&mut plain);
    drop(w);
    let overhead = layers::trace_overhead_pct(&plain.samples, &traced.samples);
    if !layers.has_backend() {
        probe::<exec::ExecWorkload>(seed, &mut layers, 1)?;
    }
    if !layers.has_runtime() {
        probe::<serve::ServeWorkload>(seed, &mut layers, 3)?;
    }
    let mut metrics = layers.metrics();
    metrics.extend(layers::micro(seed));
    metrics.push(("telemetry.trace_overhead_pct".into(), overhead, "%"));
    for (name, value, unit) in &metrics {
        eprintln!("{name:34} {value:>14.4} {unit}");
    }
    let mut all = plain;
    all.attempted += traced.attempted;
    all.failed += traced.failed;
    all.errors.append(&mut traced.errors);
    let metrics: Vec<(&str, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .collect();
    Ok(result_json(&all, &metrics))
}

/// Runs `rounds` traced rounds of another workload, feeding only the
/// layer groups `layers` still lacks.
fn probe<P: Workload>(seed: u64, layers: &mut Layers, rounds: usize) -> Result<(), String> {
    use hecate_telemetry::trace;
    let mut p = P::setup(seed)?;
    let mut probe_layers = Layers::default();
    let mut m = Measure::default();
    for _ in 0..rounds {
        trace::set_enabled(true);
        p.round(&mut m, Some(&mut probe_layers));
        trace::set_enabled(false);
        probe_layers.absorb(trace::drain());
    }
    p.finish(&mut m);
    if m.failed > 0 || !m.errors.is_empty() {
        return Err("a probe round failed or produced wrong outputs".into());
    }
    layers.fill_missing_from(probe_layers);
    Ok(())
}

fn print_classes(samples: &Classes) {
    eprintln!("{:32} {:>5} {:>12}", "class", "n", "median_ms");
    for (class, v) in samples {
        eprintln!("{class:32} {:>5} {:>12.3}", v.len(), median(v));
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(m: &Measure, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A non-finite value is not JSON; report it as a failed check.
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.errors.is_empty() && finite,
        m.attempted,
        m.failed,
        body.join(", ")
    )
}

/// Peak resident set of this process, in MB (from `getrusage`).
fn peak_rss_mb() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of Linux's `struct rusage` (two
    // `struct timeval`s of two longs each, then fourteen longs), the
    // pointer is to a live, writable value of that size, and `getrusage`
    // writes only inside it. `RUSAGE_SELF` is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // Linux reports kilobytes.
    usage.maxrss as f64 / 1024.0
}
