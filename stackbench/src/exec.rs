//! The `exec` workload: solo encrypted execution of precompiled HECATE
//! plans, the paper's headline metric (Fig. 7).
//!
//! Round-robin over four programs with different op mixes at one ring
//! degree: HCD and LR E3 (rotation-heavy), PR E3 (multiply-depth-heavy)
//! and MLP (plaintext-multiply-heavy). Kernels are serial and no runtime
//! is involved; compiling and key generation happen in set-up only.

use crate::layers::{op_kind, Layers};
use crate::programs::{build, Program, Values};
use crate::stats::mix;
use crate::{Measure, Workload};
use hecate_backend::exec::{execute_sequential, BackendOptions, ExecEngine};
use hecate_compiler::{compile, CompileOptions, Scheme};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const PROGRAMS: [&str; 4] = ["HCD", "LR E3", "PR E3", "MLP"];
/// Ring degree of every exec plan.
pub const DEGREE: usize = 4096;
/// Waterline of every exec plan: the lowest of the paper's sweep at which
/// all four programs keep their RMS error well inside 2^-8 at this degree.
const WATERLINE: f64 = 24.0;

static SCHEME: OnceLock<Scheme> = OnceLock::new();

/// Selects the scheme the exec plans are compiled with (HECATE unless
/// set); used to record the EVA reference figures of the README.
pub fn set_scheme(name: &str) -> Result<(), String> {
    let scheme = Scheme::ALL
        .into_iter()
        .find(|s| s.to_string().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown scheme {name}"))?;
    SCHEME
        .set(scheme)
        .map_err(|_| "scheme already set".to_string())
}

struct Entry {
    label: String,
    program: Program,
    expected: Values,
    engine: ExecEngine,
}

pub struct ExecWorkload {
    entries: Vec<Entry>,
    keygen_ms: Vec<f64>,
}

impl Workload for ExecWorkload {
    const COMPILES_IN_SETUP: bool = true;

    fn setup(seed: u64) -> Result<Self, String> {
        let scheme = *SCHEME.get_or_init(|| Scheme::Hecate);
        let mut opts = CompileOptions::with_waterline(WATERLINE);
        opts.degree = Some(DEGREE);
        let mut entries = Vec::new();
        let mut keygen_ms = Vec::new();
        for (name, salt) in PROGRAMS.iter().zip(0u64..) {
            let program = build(name, false, seed, salt);
            let plan = compile(&program.func, scheme, &opts)
                .map_err(|e| format!("{name} {scheme}: {e}"))?;
            let backend = BackendOptions {
                degree_override: Some(DEGREE),
                seed: mix(seed, 0x6b65_7973 + salt),
                kernel_jobs: 1,
                ..BackendOptions::default()
            };
            let t = Instant::now();
            let engine = ExecEngine::new(Arc::new(plan), &backend)
                .map_err(|e| format!("{name} key generation: {e:?}"))?;
            keygen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            entries.push(Entry {
                label: format!("{name} {scheme} w{WATERLINE}"),
                expected: program.interpret(),
                program,
                engine,
            });
        }
        Ok(ExecWorkload { entries, keygen_ms })
    }

    fn round(&mut self, m: &mut Measure, mut layers: Option<&mut Layers>) {
        if let Some(layers) = layers.as_deref_mut() {
            if layers.backend.keygen_ms.is_empty() {
                layers.backend.keygen_ms = self.keygen_ms.clone();
            }
        }
        for e in &self.entries {
            // One operation: input encryption, the homomorphic program and
            // output decryption.
            let t = Instant::now();
            let result = execute_sequential(&e.engine, &e.program.inputs);
            let elapsed = t.elapsed();
            let run = match result {
                Ok(run) => run,
                Err(err) => {
                    m.fail(format!("{}: {err:?}", e.label));
                    continue;
                }
            };
            m.record(&e.label, elapsed);
            let mut rms = 0.0;
            m.check(|| {
                rms = e.program.check_outputs(&run.outputs, &e.expected)?;
                Ok(())
            });
            let Some(layers) = layers.as_deref_mut() else {
                continue;
            };
            let b = &mut layers.backend;
            b.homomorphic_ms.push(run.total_us / 1e3);
            for (op, us) in e.engine.prog().func.ops().iter().zip(&run.op_us) {
                if let Some(kind) = op_kind(op.mnemonic()) {
                    *b.op_ms.entry(kind).or_default() += us / 1e3;
                }
            }
            b.peak_ct_bytes = b.peak_ct_bytes.max(run.peak_bytes);
            if b.homomorphic_ms.len() == 1 || run.min_margin_bits < b.min_margin_bits {
                b.min_margin_bits = run.min_margin_bits;
            }
            b.worst_rms = b.worst_rms.max(rms);
            // Encryption and decryption timed on their own, outside the
            // operation: every input, then one decryption of an input
            // ciphertext per program output.
            let t = Instant::now();
            let Ok(values) = e.engine.encrypt_inputs(&e.program.inputs) else {
                continue;
            };
            b.encrypt_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(input) = values.iter().flatten().next() {
                let t = Instant::now();
                for _ in 0..e.expected.len() {
                    std::hint::black_box(e.engine.decrypt_output(input));
                }
                b.decrypt_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
}
