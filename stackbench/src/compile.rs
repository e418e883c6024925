//! The `compile` workload: the paper's own cost, SMU analysis and the
//! SMSE hill-climb with its estimator calls, and no encryption at all.
//!
//! One round compiles each of the eight paper programs (Small shapes)
//! under both exploring schemes at four waterlines, plus the paper-shape
//! MLP (3966 ops) under both schemes at one waterline, so a program with
//! thousands of ops is in the set.

use crate::layers::Layers;
use crate::programs::{build, Program, Values};
use crate::{Measure, Workload};
use hecate_compiler::{compile, CompileOptions, Scheme};
use hecate_ir::hash::function_hash;
use hecate_ir::interp::interpret;
use std::time::Instant;

const PROGRAMS: [&str; 8] = [
    "SF", "HCD", "MLP", "LeNet", "LR E2", "LR E3", "PR E2", "PR E3",
];
const WATERLINES: [f64; 4] = [20.0, 25.0, 30.0, 35.0];
const PAPER_PROGRAM: &str = "MLP";
const PAPER_WATERLINE: f64 = 30.0;

/// One operation class: a program compiled under one scheme at one
/// waterline.
struct Class {
    label: String,
    program: usize,
    scheme: Scheme,
    opts: CompileOptions,
    /// The estimate the hill-climb must not exceed: EVA's for SMSE and
    /// PARS's for HECATE (the climb starts there and accepts only
    /// improvements).
    baseline_us: f64,
    /// Hash of a plan whose interpretation already matched the source.
    checked: Option<u64>,
}

pub struct CompileWorkload {
    programs: Vec<(Program, Values)>,
    classes: Vec<Class>,
}

impl Workload for CompileWorkload {
    const COMPILES_IN_SETUP: bool = false;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut programs: Vec<Program> = PROGRAMS
            .iter()
            .zip(0u64..)
            .map(|(name, salt)| build(name, false, seed, salt))
            .collect();
        programs.push(build(PAPER_PROGRAM, true, seed, 100));
        let mut classes = Vec::new();
        for (i, program) in programs.iter().enumerate() {
            let waterlines: &[f64] = if i < PROGRAMS.len() {
                &WATERLINES
            } else {
                &[PAPER_WATERLINE]
            };
            for &w in waterlines {
                let opts = CompileOptions::with_waterline(w);
                for (scheme, base) in [(Scheme::Smse, Scheme::Eva), (Scheme::Hecate, Scheme::Pars)]
                {
                    let baseline = compile(&program.func, base, &opts)
                        .map_err(|e| format!("{} {base} w{w}: {e}", program.name))?;
                    classes.push(Class {
                        label: format!("{} {scheme} w{w}", program.name),
                        program: i,
                        scheme,
                        opts: opts.clone(),
                        baseline_us: baseline.stats.estimated_latency_us,
                        checked: None,
                    });
                }
            }
        }
        let programs = programs
            .into_iter()
            .map(|p| {
                let expected = p.interpret();
                (p, expected)
            })
            .collect();
        Ok(CompileWorkload { programs, classes })
    }

    fn round(&mut self, m: &mut Measure, _layers: Option<&mut Layers>) {
        for class in &mut self.classes {
            let (program, expected) = &self.programs[class.program];
            let t = Instant::now();
            let result = compile(&program.func, class.scheme, &class.opts);
            let elapsed = t.elapsed();
            let plan = match result {
                Ok(plan) => plan,
                Err(e) => {
                    m.fail(format!("{}: {e}", class.label));
                    continue;
                }
            };
            m.record(&class.label, elapsed);
            m.check(|| {
                let est = plan.stats.estimated_latency_us;
                if est > class.baseline_us {
                    return Err(format!(
                        "{}: estimate {est} above its starting point {}",
                        class.label, class.baseline_us
                    ));
                }
                // Scale operations are value identities (paper §IV-A):
                // the compiled plan must compute what the source does.
                // An identical plan was already checked.
                let hash = function_hash(&plan.func);
                if class.checked == Some(hash) {
                    return Ok(());
                }
                let got = interpret(&plan.func, &program.inputs)
                    .map_err(|e| format!("{}: {e:?}", class.label))?;
                for (name, want) in expected {
                    let same = got.get(name).is_some_and(|g| {
                        g.iter()
                            .zip(want)
                            .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0))
                    });
                    if !same {
                        return Err(format!(
                            "{}: output {name} differs from the source program's",
                            class.label
                        ));
                    }
                }
                class.checked = Some(hash);
                Ok(())
            });
        }
    }
}
