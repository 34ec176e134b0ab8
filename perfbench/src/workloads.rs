//! The benchmark's workloads, each a list of [`Batch`]es.
//!
//! A batch is one generated netlist per benchmark name (the netlist seed
//! is the batch spec's `seed`) plus the job list that attacks it; the
//! grid runs every batch through one `EvalSession::run_jobs` call. A run
//! spans several batches and several camouflaged instances per batch, so
//! the figures average over many inputs drawn from the workload seed
//! instead of resting on one netlist's luck.

use gshe_attacks::{AttackKind, CoiMode};
use gshe_camo::CamoScheme;
use gshe_campaign::job::hash_mix;
use gshe_campaign::{CampaignSpec, JobKind, JobSpec, NoiseShape};
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["s38584-keyrec", "stochastic-defense", "coi-stream"];

/// Per-job wall-clock budget; every cell of every workload finishes far
/// below it, so a `TimedOut` status is a failure, never a verdict.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Worker threads of every session.
pub const THREADS: usize = 2;

/// Clock periods (s) of the stochastic-defense workload's device
/// Monte Carlo jobs: the Sec. V-B error-rate knob.
pub const DEVICE_CLOCKS_S: [f64; 5] = [1.0e-9, 1.5e-9, 2.0e-9, 3.0e-9, 6.0e-9];
/// Spin current of the device jobs, A (the nominal 20 µA drive).
pub const DEVICE_DRIVE_A: f64 = 20e-6;
/// Samples per device job.
pub const DEVICE_SAMPLES: usize = 256;
/// Monte Carlo seed of the device jobs. Fixed, not drawn from the
/// workload seed: the error rate is a device property, so its value is
/// pinned in `perfbench/reference.json` and checked bit for bit.
pub const DEVICE_SEED: u64 = 0x6A7E_0DD5;

/// One `run_jobs` call: the spec's shared knobs and its job list.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Shared knobs; `seed` is the netlist generator seed.
    pub spec: CampaignSpec,
    /// Jobs, repeat trials last so they can find the first trial's oracle
    /// blocks in the session cache.
    pub jobs: Vec<JobSpec>,
}

/// The shape of a workload: a base spec repeated over `batches` netlist
/// seeds and `instances` camouflage seeds per netlist.
struct Shape {
    spec: CampaignSpec,
    batches: u64,
    instances: u64,
    /// The physical operating points — `DeviceErrorRate` jobs and the
    /// clock-period cells, whose rates come from the device Monte Carlo —
    /// ride in the first batch only: the Monte Carlo is seed-independent,
    /// so repeating it per netlist would add fixed work but no new inputs.
    physical: bool,
}

fn shape(name: &str) -> Option<Shape> {
    let base = CampaignSpec {
        name: name.to_string(),
        schemes: vec![CamoScheme::GsheAll16],
        timeout: JOB_TIMEOUT,
        threads: THREADS,
        ..CampaignSpec::default()
    };
    let shape = match name {
        // Key recovery on exact chips: time in gshe-sat and key
        // verification; repeat trials replay their queries, so the
        // campaign cache both fills and hits.
        "s38584-keyrec" => Shape {
            spec: CampaignSpec {
                benchmarks: vec!["s38584".into()],
                scale: 160,
                levels: vec![0.05],
                attacks: AttackKind::ALL.to_vec(),
                trials: 2,
                ..base
            },
            batches: 20,
            instances: 6,
            physical: false,
        },
        // The Sec. V-B/V-C study: device Monte Carlo, short uneven cells on
        // uncached noisy and rotating oracle stacks, pool scheduling.
        "stochastic-defense" => Shape {
            spec: CampaignSpec {
                benchmarks: vec!["c7552".into()],
                scale: 40,
                levels: vec![0.2],
                attacks: vec![AttackKind::Sat, AttackKind::AppSat],
                error_rates: vec![0.0, 0.01, 0.05, 0.1],
                clock_periods_ns: vec![1.0, 6.0],
                profiles: vec![NoiseShape::Uniform, NoiseShape::OutputCone],
                rotation_periods: vec![0, 4, 64],
                trials: 1,
                ..base
            },
            batches: 35,
            instances: 1,
            physical: true,
        },
        // Cone-of-influence attacks streamed through a memo budget: COI
        // projection, the cone-keyed cache, per-benchmark admission and
        // eviction.
        "coi-stream" => Shape {
            spec: CampaignSpec {
                benchmarks: vec!["c7552".into(), "ex1010".into()],
                scale: 30,
                levels: vec![0.02],
                attacks: vec![AttackKind::Sat],
                coi_mode: CoiMode::On,
                trials: 2,
                memo_budget_mb: 0.01,
                ..base
            },
            batches: 42,
            instances: 8,
            physical: false,
        },
        _ => return None,
    };
    Some(shape)
}

/// Builds workload `name`'s batches from the workload seed. Expansion runs
/// the campaign's own grid expansion, clock-rate table included, so this
/// is part of the benchmark's set-up.
///
/// # Errors
///
/// Returns a message for an unknown workload or a spec that does not
/// expand.
pub fn build(name: &str, seed: u64) -> Result<Vec<Batch>, String> {
    let shape = shape(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (expected one of: {})",
            NAMES.join(", ")
        )
    })?;
    let mut batches = Vec::new();
    for b in 0..shape.batches {
        let netlist_seed = hash_mix(seed ^ hash_mix(0xBA7C_0000 + b));
        let physical = shape.physical && b == 0;
        let spec = CampaignSpec {
            seed: netlist_seed,
            clock_periods_ns: if physical {
                shape.spec.clock_periods_ns.clone()
            } else {
                Vec::new()
            },
            ..shape.spec.clone()
        };
        let mut jobs: Vec<JobSpec> = Vec::new();
        if physical {
            jobs.extend(DEVICE_CLOCKS_S.iter().map(|&t_clk| JobSpec {
                kind: JobKind::DeviceErrorRate {
                    i_s: DEVICE_DRIVE_A,
                    t_clk,
                    samples: DEVICE_SAMPLES,
                    seed: DEVICE_SEED,
                },
                timeout: JOB_TIMEOUT,
            }));
        }
        // Each instance is the spec expanded under its own seed: a fresh
        // gate selection and transform over the batch's netlist.
        let mut attack_jobs: Vec<JobSpec> = Vec::new();
        for i in 0..shape.instances {
            let instance = CampaignSpec {
                seed: hash_mix(netlist_seed ^ hash_mix(0x1257_0000 + i)),
                ..spec.clone()
            };
            attack_jobs.extend(instance.expand()?);
        }
        attack_jobs.sort_by_key(|job| match job.kind {
            JobKind::Attack { trial, .. } => trial,
            _ => 0,
        });
        jobs.extend(attack_jobs);
        batches.push(Batch { spec, jobs });
    }
    Ok(batches)
}
