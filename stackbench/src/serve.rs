//! The `serve` workload: `hecate-runtime` on a one-core budget (one
//! worker, serial kernels), driven by one thread that submits a round of
//! requests and waits for all of them.
//!
//! A round is four tenants × {SF, HCD} warm requests, which hit the plan
//! cache and coalesce into packed batches of four, and one cold request:
//! a fresh session and a plan never seen before in the run (HCD at a new
//! waterline), which compiles, builds keys and churns the bounded plan
//! cache. With two workers the coalescer splits same-plan bursts into
//! partial batches, which is why the runtime gets one.

use crate::exec::DEGREE;
use crate::layers::Layers;
use crate::programs::{build, Program, Values};
use crate::stats::{mix, Classes};
use crate::{Measure, Workload};
use hecate_backend::exec::BackendOptions;
use hecate_compiler::{CompileOptions, Scheme};
use hecate_ir::hash::function_hash;
use hecate_runtime::{
    CoreBudget, Request, Response, Runtime, RuntimeConfig, RuntimeError, SessionId, StatsSnapshot,
};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const WARM: [&str; 2] = ["SF", "HCD"];
const COLD: &str = "HCD";
const WATERLINE: f64 = 24.0;
/// Room for the two warm plans and two cold ones: every cold compile
/// after the second evicts the oldest cold plan.
const PLAN_CACHE_CAPACITY: usize = 4;

struct Tenant {
    session: SessionId,
    program: Program,
    expected: Values,
}

pub struct ServeWorkload {
    rt: Runtime,
    warm: Vec<(String, Vec<Tenant>)>,
    cold: Program,
    cold_expected: Values,
    /// Cold plans requested so far (each a distinct plan key).
    colds: usize,
    /// Requests submitted so far.
    submitted: u64,
    /// Plan-cache lookups implied by the responses: one per solo run and
    /// one per packed batch (1/occupancy per member).
    lookups: f64,
}

type Reply = Receiver<Result<Response, RuntimeError>>;

impl ServeWorkload {
    fn request(&self, session: SessionId, program: &Program, waterline: f64) -> Request {
        let mut options = CompileOptions::with_waterline(waterline);
        options.degree = Some(DEGREE);
        Request {
            session,
            func: program.func.clone(),
            scheme: Scheme::Hecate,
            options,
            inputs: program.inputs.clone(),
            deadline: None,
            max_retries: 0,
        }
    }

    /// Submits one request, timestamped at submission.
    fn submit(&mut self, req: Request) -> (Instant, Result<Reply, RuntimeError>) {
        self.submitted += 1;
        let t = Instant::now();
        (t, self.rt.submit(req))
    }
}

impl Workload for ServeWorkload {
    const COMPILES_IN_SETUP: bool = false;

    fn setup(seed: u64) -> Result<Self, String> {
        let rt = Runtime::new(RuntimeConfig {
            core_budget: CoreBudget::Cores(1),
            max_batch: TENANTS,
            // Long enough for a round's burst to be queued before the
            // worker closes a batch; a lone cold request waits it out.
            batch_window: Duration::from_millis(20),
            plan_cache_capacity: PLAN_CACHE_CAPACITY,
            backend: BackendOptions {
                degree_override: Some(DEGREE),
                seed: mix(seed, 0x7274),
                ..BackendOptions::default()
            },
            ..RuntimeConfig::default()
        });
        let mut warm = Vec::new();
        for (p, name) in WARM.iter().enumerate() {
            let mut tenants = Vec::new();
            for t in 0..TENANTS {
                let program = build(name, false, seed, 10 * (p as u64 + 1) + t as u64);
                tenants.push(Tenant {
                    session: rt.open_session(),
                    expected: program.interpret(),
                    program,
                });
            }
            // Tenants share one plan only if their programs are identical.
            let first = function_hash(&tenants[0].program.func);
            if tenants
                .iter()
                .any(|t| function_hash(&t.program.func) != first)
            {
                return Err(format!(
                    "{name}: tenant programs differ, so they cannot share a plan"
                ));
            }
            warm.push((format!("warm {name}"), tenants));
        }
        let cold = build(COLD, false, seed, 50);
        let mut w = ServeWorkload {
            rt,
            warm,
            cold_expected: cold.interpret(),
            cold,
            colds: 0,
            submitted: 0,
            lookups: 0.0,
        };
        // Warm-up: compile the warm plans and build their batch engines.
        let mut warmup = Measure::default();
        w.round(&mut warmup, None);
        if warmup.failed > 0 || !warmup.errors.is_empty() {
            return Err("the warm-up round failed".into());
        }
        Ok(w)
    }

    fn round(&mut self, m: &mut Measure, layers: Option<&mut Layers>) {
        let before = layers.as_ref().map(|_| (self.rt.stats(), Instant::now()));
        let mut pending = Vec::new();
        for i in 0..self.warm.len() {
            for t in 0..TENANTS {
                let tenant = &self.warm[i].1[t];
                let req = self.request(tenant.session, &tenant.program, WATERLINE);
                pending.push((i, t, self.submit(req)));
            }
        }
        // A plan never seen before in this run: a waterline nudged by a
        // fraction of a bit, so the plan's cost stays that of HCD at 24.
        self.colds += 1;
        let cold_session = self.rt.open_session();
        let waterline = WATERLINE + self.colds as f64 / 1024.0;
        let req = self.request(cold_session, &self.cold, waterline);
        let cold = self.submit(req);

        let mut warm_ms = Vec::new();
        let mut cold_ms = Vec::new();
        let replies = pending
            .into_iter()
            .map(|(i, t, reply)| (Some((i, t)), reply))
            .chain([(None, cold)]);
        for (who, (submitted, reply)) in replies {
            let (label, program, expected) = match who {
                Some((i, t)) => {
                    let tenant = &self.warm[i].1[t];
                    (&self.warm[i].0, &tenant.program, &tenant.expected)
                }
                None => (&format!("cold {COLD}"), &self.cold, &self.cold_expected),
            };
            let response = reply.and_then(|rx| rx.recv().unwrap_or(Err(RuntimeError::Shutdown)));
            let elapsed = submitted.elapsed();
            let resp = match response {
                Ok(resp) => resp,
                Err(e) => {
                    m.fail(format!("{label}: {e:?}"));
                    continue;
                }
            };
            m.record(label, elapsed);
            self.lookups += 1.0 / resp.batch_occupancy.max(1) as f64;
            let ms = elapsed.as_secs_f64() * 1e3;
            if who.is_some() {
                warm_ms.push(ms);
            } else {
                cold_ms.push(ms);
            }
            m.check(|| {
                program
                    .check_outputs(&resp.run.outputs, expected)
                    .map(|_| ())
            });
        }
        self.rt.close_session(cold_session);

        let (Some(layers), Some((s0, t0))) = (layers, before) else {
            return;
        };
        let s1 = self.rt.stats();
        let r = &mut layers.runtime;
        r.rounds += 1;
        r.warm_ms.extend(warm_ms);
        r.cold_ms.extend(cold_ms);
        r.hits += s1.cache_hits - s0.cache_hits;
        r.lookups += (s1.cache_hits + s1.cache_misses) - (s0.cache_hits + s0.cache_misses);
        r.compiles += s1.compiles - s0.compiles;
        r.batches += s1.batches_executed - s0.batches_executed;
        r.occupancy_sum += occupancy_sum(&s1) - occupancy_sum(&s0);
        r.busy_us += (s1.busy_us - s0.busy_us) as f64;
        r.capacity_us += t0.elapsed().as_secs_f64() * 1e6 * s1.workers as f64;
    }

    fn tail_classes(&self, samples: &Classes) -> Classes {
        // One cold request per round is too few for a tail.
        samples
            .iter()
            .filter(|(class, _)| class.starts_with("warm"))
            .map(|(c, v)| (c.clone(), v.clone()))
            .collect()
    }

    fn finish(&mut self, m: &mut Measure) {
        let s = self.rt.stats();
        let submitted = self.submitted;
        let distinct_plans = (WARM.len() + self.colds) as u64;
        let lookups = self.lookups.round() as u64;
        m.check(|| {
            let mut problems = Vec::new();
            if s.completed != submitted || s.failed != 0 {
                problems.push(format!(
                    "{} completed and {} failed of {submitted} submitted",
                    s.completed, s.failed
                ));
            }
            if s.compiles != distinct_plans || s.cache_misses != distinct_plans {
                problems.push(format!(
                    "{} compiles and {} misses for {distinct_plans} distinct plans",
                    s.compiles, s.cache_misses
                ));
            }
            if s.cache_hits + s.cache_misses != lookups {
                problems.push(format!(
                    "{} hits for {lookups} lookups and {} misses",
                    s.cache_hits, s.cache_misses
                ));
            }
            let evictions = distinct_plans.saturating_sub(PLAN_CACHE_CAPACITY as u64);
            if s.cache_evictions != evictions {
                problems.push(format!(
                    "{} evictions, expected {evictions}",
                    s.cache_evictions
                ));
            }
            if problems.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "runtime stats do not balance: {}",
                    problems.join("; ")
                ))
            }
        });
    }
}

/// Sum of batch occupancies: packed occupancies are powers of two, so
/// histogram bucket `k` holds batches of exactly `2^k`.
fn occupancy_sum(s: &StatsSnapshot) -> u64 {
    s.batch_occupancy_buckets
        .iter()
        .enumerate()
        .map(|(k, &n)| n << k)
        .sum()
}
