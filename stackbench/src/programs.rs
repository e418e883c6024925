//! The benchmark's input programs, generated from the workload seed
//! through the `hecate-apps` builders' seeded configurations, and the
//! output checks that do not trust the compiler under test.

use crate::stats::mix;
use hecate_apps::{harris, lenet, mlp, regression, sobel};
use hecate_ir::interp::{interpret, rms_error};
use hecate_ir::Function;
use std::collections::HashMap;

/// Largest accepted RMS error of a decrypted output (the paper's bound).
pub const ERROR_BOUND: f64 = 1.0 / 256.0;

/// Input bindings or outputs, by name.
pub type Values = HashMap<String, Vec<f64>>;

/// One generated program with its inputs.
#[derive(Clone)]
pub struct Program {
    /// The paper's benchmark name ("HCD", "LR E3", ...), with a "paper "
    /// prefix for the published shapes.
    pub name: String,
    /// The source program, before scale management.
    pub func: Function,
    /// The generated inputs.
    pub inputs: Values,
    /// Plain-Rust reference computation, where `hecate-apps` has one.
    reference: Option<Reference>,
}

#[derive(Clone)]
enum Reference {
    Mlp(mlp::MlpConfig),
    Lenet(lenet::LenetConfig),
    Linear { epochs: usize, lr: f64 },
}

/// Builds benchmark `name` ("SF", "HCD", "MLP", "LeNet", "LR E2",
/// "LR E3", "PR E2", "PR E3") with the Small shapes, or the paper's shapes
/// when `paper` is set, seeding weights and inputs from `seed` and `salt`.
pub fn build(name: &str, paper: bool, seed: u64, salt: u64) -> Program {
    let s = mix(seed, salt);
    let img = if paper { 64 } else { 16 };
    let reg = |epochs| {
        if paper {
            regression::RegressionConfig::paper(epochs, s)
        } else {
            regression::RegressionConfig::small(epochs, s)
        }
    };
    let ((func, inputs), reference) = match name {
        "SF" => (
            sobel::build(&sobel::SobelConfig {
                h: img,
                w: img,
                seed: s,
            }),
            None,
        ),
        "HCD" => (
            harris::build(&harris::HarrisConfig {
                h: img,
                w: img,
                seed: s,
            }),
            None,
        ),
        "MLP" => {
            let cfg = if paper {
                mlp::MlpConfig::paper(s)
            } else {
                mlp::MlpConfig::small(s)
            };
            (mlp::build(&cfg), Some(Reference::Mlp(cfg)))
        }
        "LeNet" => {
            let cfg = if paper {
                lenet::LenetConfig::paper(s)
            } else {
                lenet::LenetConfig::small(s)
            };
            (lenet::build(&cfg), Some(Reference::Lenet(cfg)))
        }
        "LR E2" | "LR E3" => {
            let cfg = reg(if name == "LR E2" { 2 } else { 3 });
            let reference = Reference::Linear {
                epochs: cfg.epochs,
                lr: cfg.lr,
            };
            (regression::build_linear(&cfg), Some(reference))
        }
        "PR E2" | "PR E3" => (
            regression::build_poly(&reg(if name == "PR E2" { 2 } else { 3 })),
            None,
        ),
        other => panic!("unknown benchmark program {other}"),
    };
    Program {
        name: if paper {
            format!("paper {name}")
        } else {
            name.to_string()
        },
        func,
        inputs,
        reference,
    }
}

impl Program {
    /// The interpreter's outputs for the *source* program: the reference
    /// every compiled plan and every decrypted output is checked against.
    pub fn interpret(&self) -> Values {
        interpret(&self.func, &self.inputs).expect("generated inputs bind every program input")
    }

    /// Checks decrypted `outputs` against the interpreter's `expected`
    /// outputs of the source program and, where one exists, against the
    /// plain-Rust reference. Returns the worst RMS error seen.
    ///
    /// # Errors
    /// Describes the first output outside [`ERROR_BOUND`].
    pub fn check_outputs(&self, outputs: &Values, expected: &Values) -> Result<f64, String> {
        let mut worst = 0.0f64;
        for (name, want) in expected {
            let got = outputs
                .get(name)
                .ok_or_else(|| format!("{}: output {name} missing", self.name))?;
            let n = want.len().min(got.len());
            let rms = rms_error(&got[..n], &want[..n]);
            if rms.is_nan() || rms > ERROR_BOUND {
                return Err(format!(
                    "{}: output {name} has RMS error {rms:e} against the interpreter",
                    self.name
                ));
            }
            worst = worst.max(rms);
        }
        for (name, want) in self.reference_outputs() {
            let got = outputs
                .get(&name)
                .ok_or_else(|| format!("{}: output {name} missing", self.name))?;
            let rms = rms_error(&got[..want.len()], &want);
            if rms.is_nan() || rms > ERROR_BOUND {
                return Err(format!(
                    "{}: output {name} has RMS error {rms:e} against the hecate-apps reference",
                    self.name
                ));
            }
            worst = worst.max(rms);
        }
        Ok(worst)
    }

    /// The plain-Rust reference outputs, compared over their own length.
    fn reference_outputs(&self) -> Vec<(String, Vec<f64>)> {
        match &self.reference {
            None => Vec::new(),
            Some(Reference::Mlp(cfg)) => {
                vec![("logits".into(), mlp::reference(cfg, &self.inputs["x"]))]
            }
            Some(Reference::Lenet(cfg)) => {
                vec![(
                    "logits".into(),
                    lenet::reference(cfg, &self.inputs["image"]),
                )]
            }
            Some(Reference::Linear { epochs, lr }) => {
                let (xs, ys) = (&self.inputs["x"], &self.inputs["y"]);
                let (w, c) = regression::reference_linear(xs, ys, *epochs, *lr);
                // The trained parameters are replicated in every slot.
                vec![
                    ("w".into(), vec![w; xs.len()]),
                    ("c".into(), vec![c; xs.len()]),
                ]
            }
        }
    }
}
