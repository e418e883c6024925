//! Per-layer metrics of the traced run.
//!
//! Three sources feed them: the spans the program already emits
//! (`compile`, `pass:*`, `smse-iter`, `queue-wait`, `session-engine`),
//! timings the benchmark takes around public calls while a traced round
//! runs (key generation, encryption, decryption, served latencies,
//! runtime statistics), and micro-timings of `hecate-math` and
//! `hecate-ckks` calls at the exec ring degree ([`micro`]).

use crate::stats::{geomean, median, mix, Classes};
use hecate_telemetry::{AttrValue, Event, EventKind};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Compiler passes, from `compile` / `pass:*` / `smse-iter` spans.
#[derive(Default)]
struct CoreLayer {
    compiles: usize,
    explores: usize,
    smse_iters: usize,
    plans: f64,
    ln_est_us: f64,
    pass_ns: BTreeMap<&'static str, u64>,
}

/// Encrypted execution, timed by the exec workload around public calls.
#[derive(Default)]
pub struct BackendLayer {
    /// `ExecEngine::new` times (ms).
    pub keygen_ms: Vec<f64>,
    /// `ExecEngine::encrypt_inputs` times (ms).
    pub encrypt_ms: Vec<f64>,
    /// `ExecEngine::decrypt_output` times, summed per execution (ms).
    pub decrypt_ms: Vec<f64>,
    /// `EncryptedRun::total_us` per execution (ms).
    pub homomorphic_ms: Vec<f64>,
    /// `EncryptedRun::op_us` summed by op kind over all executions (ms).
    pub op_ms: BTreeMap<&'static str, f64>,
    /// Largest `EncryptedRun::peak_bytes`.
    pub peak_ct_bytes: usize,
    /// Smallest `EncryptedRun::min_margin_bits`.
    pub min_margin_bits: f64,
    /// Largest RMS error against the source program's interpreter run.
    pub worst_rms: f64,
}

/// The serving runtime, from served latencies, `StatsSnapshot` deltas of
/// traced rounds, and `queue-wait` / `session-engine` spans.
#[derive(Default)]
pub struct RuntimeLayer {
    /// Traced rounds.
    pub rounds: usize,
    /// Warm request latencies, submit to response (ms).
    pub warm_ms: Vec<f64>,
    /// Cold request latencies (ms).
    pub cold_ms: Vec<f64>,
    /// Plan-cache hits.
    pub hits: u64,
    /// Plan-cache lookups (hits + misses).
    pub lookups: u64,
    /// Compiles.
    pub compiles: u64,
    /// Packed batch executions.
    pub batches: u64,
    /// Sum of batch occupancies.
    pub occupancy_sum: u64,
    /// Worker busy time during the traced rounds (µs).
    pub busy_us: f64,
    /// Wall time of the traced rounds times workers (µs).
    pub capacity_us: f64,
    queue_wait_ms: Vec<f64>,
    engine_build_ms: Vec<f64>,
}

/// Everything a traced run measures per layer.
#[derive(Default)]
pub struct Layers {
    open: HashMap<u64, Vec<(&'static str, u64)>>,
    core: CoreLayer,
    /// `hecate-backend` data (filled by the exec workload).
    pub backend: BackendLayer,
    /// `hecate-runtime` data (filled by the serve workload).
    pub runtime: RuntimeLayer,
}

fn attr_f64(attrs: &[(&'static str, AttrValue)], key: &str) -> Option<f64> {
    attrs.iter().rev().find(|(k, _)| *k == key)?.1.as_f64()
}

impl Layers {
    /// Folds drained trace events in. Spans still open at a drain stay
    /// on their thread's stack until their end arrives in a later drain.
    pub fn absorb(&mut self, events: Vec<Event>) {
        for ev in events {
            let dur_ns = match ev.kind {
                EventKind::Begin => {
                    self.open
                        .entry(ev.tid)
                        .or_default()
                        .push((ev.name, ev.ts_ns));
                    continue;
                }
                EventKind::End => {
                    let stack = self.open.entry(ev.tid).or_default();
                    match stack.iter().rposition(|(name, _)| *name == ev.name) {
                        Some(at) => {
                            let (_, begin) = stack[at];
                            stack.truncate(at);
                            ev.ts_ns.saturating_sub(begin)
                        }
                        None => continue,
                    }
                }
                EventKind::Complete { dur_ns } => dur_ns,
                EventKind::Mark => continue,
            };
            let ms = dur_ns as f64 / 1e6;
            let core = &mut self.core;
            match ev.name {
                "compile" => {
                    core.compiles += 1;
                    core.plans += attr_f64(&ev.attrs, "plans_explored").unwrap_or(0.0);
                    core.ln_est_us += attr_f64(&ev.attrs, "est_us").unwrap_or(0.0).ln();
                }
                "smse-iter" => core.smse_iters += 1,
                name if name.starts_with("pass:") => {
                    if name == "pass:explore" {
                        core.explores += 1;
                    }
                    *core.pass_ns.entry(name).or_default() += dur_ns;
                }
                "queue-wait" => self.runtime.queue_wait_ms.push(ms),
                "session-engine" => {
                    let built = ev
                        .attrs
                        .iter()
                        .any(|(k, v)| *k == "built" && *v == true.into());
                    if built {
                        self.runtime.engine_build_ms.push(ms);
                    }
                }
                _ => {}
            }
        }
    }

    /// Whether exec rounds filled the backend layer.
    pub fn has_backend(&self) -> bool {
        !self.backend.homomorphic_ms.is_empty()
    }

    /// Whether serve rounds filled the runtime layer.
    pub fn has_runtime(&self) -> bool {
        self.runtime.rounds > 0
    }

    /// Takes the backend and runtime layers from `probe` where this run
    /// has none; the compiler layer always stays this run's own.
    pub fn fill_missing_from(&mut self, probe: Layers) {
        if !self.has_backend() {
            self.backend = probe.backend;
        }
        if !self.has_runtime() {
            self.runtime = probe.runtime;
        }
    }

    /// Every per-layer metric except the micro-timings and the tracing
    /// overhead: `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let c = &self.core;
        let per_compile = |pass: &[&str]| {
            let ns: u64 = pass.iter().filter_map(|p| c.pass_ns.get(p)).sum();
            ns as f64 / 1e6 / c.compiles as f64
        };
        let explore_s = c.pass_ns.get("pass:explore").copied().unwrap_or(0) as f64 / 1e9;
        let b = &self.backend;
        let execs = b.homomorphic_ms.len() as f64;
        let r = &self.runtime;
        let rounds = r.rounds as f64;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mut out: Vec<(String, f64, &'static str)> = vec![
            (
                "ir.canonicalize_ms".into(),
                per_compile(&["pass:canonicalize"]),
                "ms",
            ),
            (
                "core.smu_analyze_ms".into(),
                per_compile(&["pass:smu-analyze"]),
                "ms",
            ),
            (
                "core.explore_ms".into(),
                per_compile(&["pass:explore"]),
                "ms",
            ),
            (
                "core.verify_ms".into(),
                per_compile(&["pass:verify-input", "pass:final-verify"]),
                "ms",
            ),
            (
                "core.plans_explored".into(),
                c.plans / c.compiles as f64,
                "count",
            ),
            (
                "core.smse_epochs".into(),
                c.smse_iters as f64 / c.explores as f64,
                "count",
            ),
            ("core.plans_per_s".into(), c.plans / explore_s, "1/s"),
            (
                "core.est_latency_us".into(),
                (c.ln_est_us / c.compiles as f64).exp(),
                "us",
            ),
            ("backend.keygen_ms".into(), mean(&b.keygen_ms), "ms"),
            ("backend.encrypt_ms".into(), mean(&b.encrypt_ms), "ms"),
            ("backend.decrypt_ms".into(), mean(&b.decrypt_ms), "ms"),
            (
                "backend.homomorphic_ms".into(),
                mean(&b.homomorphic_ms),
                "ms",
            ),
        ];
        for kind in OP_KINDS {
            let total = b.op_ms.get(kind).copied().unwrap_or(0.0);
            out.push((format!("backend.op_ms.{kind}"), total / execs, "ms"));
        }
        out.extend([
            (
                "backend.peak_ct_mb".into(),
                b.peak_ct_bytes as f64 / 1e6,
                "MB",
            ),
            ("backend.min_margin_bits".into(), b.min_margin_bits, "bits"),
            ("backend.rms_error_log2".into(), b.worst_rms.log2(), "log2"),
            ("runtime.warm_ms".into(), median(&r.warm_ms), "ms"),
            ("runtime.cold_ms".into(), median(&r.cold_ms), "ms"),
            ("runtime.queue_wait_ms".into(), mean(&r.queue_wait_ms), "ms"),
            (
                "runtime.engine_build_ms".into(),
                mean(&r.engine_build_ms),
                "ms",
            ),
            (
                "runtime.cache_hit_ratio".into(),
                r.hits as f64 / r.lookups as f64,
                "ratio",
            ),
            ("runtime.cache_hits".into(), r.hits as f64 / rounds, "count"),
            (
                "runtime.cache_lookups".into(),
                r.lookups as f64 / rounds,
                "count",
            ),
            (
                "runtime.batch_occupancy_mean".into(),
                r.occupancy_sum as f64 / r.batches as f64,
                "count",
            ),
            ("runtime.batches".into(), r.batches as f64 / rounds, "count"),
            (
                "runtime.compiles".into(),
                r.compiles as f64 / rounds,
                "count",
            ),
            (
                "runtime.utilization".into(),
                r.busy_us / r.capacity_us,
                "ratio",
            ),
        ]);
        out
    }
}

/// The op kinds `backend.op_ms.*` reports, and the IR mnemonics each
/// covers (`upscale` is a plaintext multiply).
pub const OP_KINDS: [&str; 6] = ["mul", "rotate", "rescale", "modswitch", "downscale", "add"];

/// The `backend.op_ms` kind of an IR op mnemonic, if it is reported.
pub fn op_kind(mnemonic: &str) -> Option<&'static str> {
    Some(match mnemonic {
        "mul" | "upscale" => "mul",
        "rotate" => "rotate",
        "rescale" => "rescale",
        "modswitch" => "modswitch",
        "downscale" => "downscale",
        "add" | "sub" | "negate" => "add",
        _ => return None,
    })
}

/// Tracing overhead in percent: the geometric mean over classes of the
/// traced median over the untraced median, minus one.
pub fn trace_overhead_pct(plain: &Classes, traced: &Classes) -> f64 {
    let ratios: Vec<f64> = traced
        .iter()
        .filter_map(|(class, t)| Some(median(t) / median(plain.get(class)?)))
        .collect();
    (geomean(&ratios) - 1.0) * 100.0
}

/// Micro-timings of public `hecate-math` and `hecate-ckks` calls at the
/// exec ring degree: medians over repeated calls.
pub fn micro(seed: u64) -> Vec<(String, f64, &'static str)> {
    use hecate_ckks::{CkksEncoder, CkksParams, Encryptor, EvalKeys, Evaluator, KeyGenerator};
    use hecate_math::modular::mul_mod;
    use hecate_math::ntt::NttTable;
    use hecate_math::prime::generate_ntt_primes;
    use hecate_math::rng::Xoshiro256;

    const N: usize = 4096;
    const REPS: usize = 31;
    let time_us = |f: &mut dyn FnMut()| {
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&times)
    };
    let mut out = Vec::new();

    let q = generate_ntt_primes(60, N, 1, &[])[0];
    let table = NttTable::new(q, N);
    let mut rng = Xoshiro256::seed_from_u64(mix(seed, 0x6d69));
    let mut a: Vec<u64> = (0..N).map(|_| rng.next_below(q)).collect();
    let b: Vec<u64> = (0..N).map(|_| rng.next_below(q)).collect();
    // Forward then backward restores the data, so every call sees the
    // same kind of input.
    let mut fwd = Vec::new();
    let mut inv = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        table.forward(black_box(&mut a));
        fwd.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        table.backward(black_box(&mut a));
        inv.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push(("math.ntt_fwd_us".into(), median(&fwd), "us"));
    out.push(("math.ntt_inv_us".into(), median(&inv), "us"));
    let per_call_ns = time_us(&mut || {
        let mut acc = 0u64;
        for (&x, &y) in a.iter().zip(&b) {
            acc = acc.wrapping_add(mul_mod(black_box(x), y, q));
        }
        black_box(acc);
    }) * 1e3
        / N as f64;
    out.push(("math.mul_mod_ns".into(), per_call_ns, "ns"));

    // Six 60-bit primes, as the exec plans use: level 0 is the top (all
    // primes), level 4 the lowest at which a rescale is still legal.
    let params = CkksParams::new(N, 60, 60, 5, false).expect("valid parameters");
    let encoder = CkksEncoder::new(&params);
    let mut kg = KeyGenerator::new(&params, mix(seed, 0x6b67));
    let pk = kg.public_key();
    let keys = EvalKeys::generate(&mut kg, &[6, 2], &[(1, 6), (1, 2)]);
    let eval = Evaluator::new(&params, keys);
    let mut enc = Encryptor::new(&params, pk, mix(seed, 0x656e));
    let data: Vec<f64> = (0..params.slots())
        .map(|i| ((i % 17) as f64) / 17.0)
        .collect();
    for (label, level) in [("top", 0usize), ("low", 4)] {
        let pt = encoder.encode(&data, 30.0, level).expect("encodable");
        let ct = enc.encrypt(&pt);
        let prod = eval.mul(&ct, &ct).expect("relin key present");
        let mul = time_us(&mut || {
            black_box(eval.mul(&ct, &ct).expect("relin key present"));
        });
        let rot = time_us(&mut || {
            black_box(eval.rotate(&ct, 1).expect("rotation key present"));
        });
        let rescale = time_us(&mut || {
            black_box(eval.rescale(&prod).expect("rescalable"));
        });
        let encode = time_us(&mut || {
            black_box(encoder.encode(&data, 30.0, level).expect("encodable"));
        });
        out.push((format!("ckks.mul_relin_us.{label}"), mul, "us"));
        out.push((format!("ckks.rotate_us.{label}"), rot, "us"));
        out.push((format!("ckks.rescale_us.{label}"), rescale, "us"));
        out.push((format!("ckks.encode_us.{label}"), encode, "us"));
    }
    out
}
