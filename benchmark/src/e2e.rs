//! The end-to-end run: tracing off, closed loop, one client — the next
//! sweep starts when the previous `Campaign::run` returns. Everything is
//! timed from here, outside the engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dice_core::{hash, CampaignReport, Sha256};
use serde_json::{json, Value};

use crate::metrics::{Measured, RunKind, RunRecord, END_TO_END};
use crate::sweep::{
    check_sweep, detection_effort, normalized_json, SetupSample, SweepFacts, SweepSource,
    DETERMINISM_SWEEPS,
};
use crate::workloads::{Seeds, Workload, PARALLELISM};
use crate::{calib, host, procfs, stats};

/// Blocks the timed sweeps are split into. Rates are the median over
/// blocks, and host speed is calibrated per block.
const RATE_BLOCKS: usize = 10;

/// Share of a sweep's wall spent on calibration samples before the next.
const CALIBRATION_SHARE: f64 = 0.08;

/// Calibration after deploying a long-lived system, in seconds: its
/// set-up time is scaled by these samples alone.
const DEPLOYMENT_CALIBRATION_S: f64 = 0.01;

/// A sweep is *disturbed* when the hypervisor gave more than this share of
/// its core-time (wall × cores) to another guest. On the reference host
/// 242 of 251 nemesis campaigns that took over 1.7× the median had steal
/// ticks; nothing the engine does explains those, so they say nothing
/// about the engine.
const DISTURBED_STEAL_SHARE: f64 = 0.02;

/// Fewest undisturbed sweeps the timing statistics may rest on; with fewer
/// (a host that steals all the time, or no steal counter) every sweep is
/// used, disturbed or not.
const MIN_UNDISTURBED: usize = 10;

/// Keep the first few failure lines; a broken run would otherwise log one
/// per sweep.
pub fn note(failures: &mut Vec<String>, msg: String) {
    if failures.len() < 8 {
        failures.push(msg);
    }
}

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunLength {
    /// Until the timed sweeps add up to this many seconds (the driver's
    /// mode; the sweep count then varies with host speed).
    Seconds(f64),
    /// Exactly this many sweeps (fixed work: every count and the digest
    /// repeat exactly for one seed).
    Sweeps(usize),
}

impl RunLength {
    /// Whether another sweep is due after `done` sweeps and `timed_s`
    /// seconds of timed wall.
    pub fn wants_more(self, done: usize, timed_s: f64) -> bool {
        match self {
            RunLength::Seconds(s) => timed_s < s,
            RunLength::Sweeps(n) => done < n,
        }
    }

    /// Header form.
    pub fn to_json(self) -> Value {
        match self {
            RunLength::Seconds(s) => json!({"seconds": s}),
            RunLength::Sweeps(n) => json!({"sweeps": n}),
        }
    }
}

/// Run `campaign.run(live)` and turn a panic into an `Err`, so a crashing
/// sweep counts as one failed operation instead of ending the run.
pub fn run_guarded(
    campaign: &dice_core::Campaign,
    live: &mut dice_netsim::Simulator,
) -> Result<CampaignReport, String> {
    match catch_unwind(AssertUnwindSafe(|| campaign.run(live))) {
        Ok(result) => result,
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string payload>".into())
        )),
    }
}

/// What was timed around one `Campaign::run` call.
#[derive(Debug, Clone)]
struct Timed {
    wall_s: f64,
    /// `None` where `/proc` is unreadable.
    cpu_s: Option<f64>,
    /// CPU the hypervisor stole from the machine meanwhile, all cores.
    steal_s: Option<f64>,
    /// Rounds the sweep completed; 0 when it failed.
    rounds: usize,
    /// Calibration-kernel samples taken right before the sweep.
    calibration: Vec<f64>,
}

impl Timed {
    fn disturbed(&self, cores: usize) -> bool {
        self.steal_s
            .is_some_and(|s| s > DISTURBED_STEAL_SHARE * self.wall_s * cores as f64)
    }
}

/// The timing metrics of a run.
#[derive(Debug, Clone, Copy)]
struct Timing {
    rounds_per_s: Option<f64>,
    sweep_ms_p50: Option<f64>,
    sweep_ms_tail: Option<stats::Tail>,
    cpu_ms_per_round: Option<f64>,
}

/// Timing metrics over `blocks` of sweeps, each block's times multiplied
/// by its host-speed factor (all 1.0 = raw).
fn summarise(blocks: &[(&[Timed], f64)]) -> Timing {
    let block_median = |rate: &dyn Fn(&[Timed], f64) -> Option<f64>| {
        let rates: Option<Vec<f64>> = blocks.iter().map(|(b, speed)| rate(b, *speed)).collect();
        stats::median(&rates?)
    };
    let wall_ms: Vec<f64> = blocks
        .iter()
        .flat_map(|(b, speed)| b.iter().map(move |t| t.wall_s * speed * 1e3))
        .collect();
    Timing {
        rounds_per_s: block_median(&|block, speed| {
            let wall: f64 = block.iter().map(|t| t.wall_s).sum();
            let rounds: usize = block.iter().map(|t| t.rounds).sum();
            (wall > 0.0).then(|| rounds as f64 / (wall * speed))
        }),
        sweep_ms_p50: stats::median(&wall_ms),
        sweep_ms_tail: stats::tail(&wall_ms),
        cpu_ms_per_round: block_median(&|block, speed| {
            let cpu: f64 = block.iter().map(|t| t.cpu_s).sum::<Option<f64>>()?;
            let rounds: usize = block.iter().map(|t| t.rounds).sum();
            (rounds > 0).then(|| cpu * speed * 1e3 / rounds as f64)
        }),
    }
}

/// Set-up times of the run's deployments, raw and scaled to the reference
/// host's speed.
#[derive(Debug, Default)]
struct SetupLog {
    raw_s: Vec<f64>,
    scaled_s: Vec<f64>,
}

impl SetupLog {
    fn record(&mut self, deployed: Option<SetupSample>, calibration: &[f64]) {
        if let Some(sample) = deployed {
            let speed = calib::speed(calibration).unwrap_or(1.0);
            self.raw_s.push(sample.total_s());
            self.scaled_s.push(sample.total_s() * speed);
        }
    }
}

/// The calibration samples that precede a sweep: a fixed share of the
/// previous sweep's wall, and a floor after deploying a long-lived system.
fn calibrate(workload: Workload, deployed: bool, previous_wall_s: f64) -> Vec<f64> {
    let floor = if deployed && !workload.fresh_system_per_sweep() {
        DEPLOYMENT_CALIBRATION_S
    } else {
        0.0
    };
    calib::sample_for((CALIBRATION_SHARE * previous_wall_s).max(floor))
}

/// Normalized reports of the first [`DETERMINISM_SWEEPS`] sweeps at
/// parallelism 1 — what the timed run's first sweeps must reproduce byte
/// for byte.
fn sequential_reference(
    workload: Workload,
    seeds: Seeds,
    setups: &mut SetupLog,
) -> Result<Vec<String>, String> {
    let mut source = SweepSource::new(workload, seeds, 1);
    let mut reference = Vec::with_capacity(DETERMINISM_SWEEPS);
    for i in 0..DETERMINISM_SWEEPS {
        let sweep = source.sweep(i)?;
        setups.record(
            sweep.deployed,
            &calibrate(workload, sweep.deployed.is_some(), 0.0),
        );
        let report = run_guarded(&sweep.campaign, sweep.live)
            .map_err(|e| format!("sequential reference sweep {i}: {e}"))?;
        reference.push(normalized_json(&report));
    }
    Ok(reference)
}

/// Measure `workload` end to end.
pub fn run(workload: Workload, seed: u64, length: RunLength) -> Result<RunRecord, String> {
    host::require_cores()?;
    let seeds = Seeds(seed);
    let mut setups = SetupLog::default();

    // Untimed: the sequential twin of the first sweeps. On the long-lived
    // workloads this also deploys the system a first time, which is one
    // more set-up sample; on `nemesis_detect` it warms the process.
    let reference = sequential_reference(workload, seeds, &mut setups)?;
    if !workload.fresh_system_per_sweep() {
        // One more deployment, kept only for its timing: the median of
        // three set-ups shrugs off one slow one.
        let deployed = SweepSource::new(workload, seeds, PARALLELISM)
            .sweep(0)?
            .deployed;
        setups.record(deployed, &calibrate(workload, true, 0.0));
    }

    let mut source = SweepSource::new(workload, seeds, PARALLELISM);
    let mut timed: Vec<Timed> = Vec::new();
    let mut timed_s = 0.0f64;
    let mut previous_wall_s = 0.0f64;
    let mut live_sim_ns = 0u64;
    let mut completed = 0usize;
    let mut coverage_sum = 0usize;
    let mut frames_dropped = 0u64;
    let mut defects_found = 0usize;
    let mut efforts: Vec<f64> = Vec::new();
    let mut digest = Sha256::new();
    let mut failed = 0usize;
    let mut failures: Vec<String> = Vec::new();

    let mut done = 0usize;
    while length.wants_more(done, timed_s) {
        let i = done;
        done += 1;
        let sweep = source.sweep(i)?;
        let calibration = calibrate(workload, sweep.deployed.is_some(), previous_wall_s);
        setups.record(sweep.deployed, &calibration);
        let live = sweep.live;
        let nodes = live.topology().len();
        let sim_before = live.now();
        let steal_before = procfs::steal_seconds();
        let cpu_before = procfs::cpu_seconds();
        let t = Instant::now();
        let outcome = run_guarded(&sweep.campaign, live);
        let wall = t.elapsed().as_secs_f64();
        let cpu_after = procfs::cpu_seconds();
        let steal_after = procfs::steal_seconds();

        timed_s += wall;
        previous_wall_s = wall;
        timed.push(Timed {
            wall_s: wall,
            cpu_s: cpu_before.zip(cpu_after).map(|(a, b)| b - a),
            steal_s: steal_before.zip(steal_after).map(|(a, b)| b - a),
            rounds: outcome.as_ref().map_or(0, |r| r.rounds.len()),
            calibration,
        });
        live_sim_ns += (live.now() - sim_before).as_nanos();

        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                failed += 1;
                note(&mut failures, format!("sweep {i}: {e}"));
                continue;
            }
        };
        completed += 1;
        coverage_sum += report.coverage_union;
        frames_dropped += report.perf.frames_dropped;
        for needle in workload.seeded_defects() {
            if let Some(effort) = detection_effort(&report.rounds, needle) {
                defects_found += 1;
                efforts.push(effort as f64);
            }
        }
        let normalized = normalized_json(&report);
        digest.update(normalized.as_bytes());

        let mut problems = check_sweep(workload, nodes, SweepFacts::of(&report));
        if reference.get(i).is_some_and(|r| *r != normalized) {
            problems.push(format!(
                "normalized report differs between pair_workers 1 and {PARALLELISM}"
            ));
        }
        if !problems.is_empty() {
            failed += 1;
            note(&mut failures, format!("sweep {i}: {}", problems.join("; ")));
        }
    }

    // Run-level stimulus check: lossy links must actually lose frames.
    let seeded = workload.seeded_defects().len();
    if seeded > 0 && frames_dropped == 0 {
        failures.push("5% link loss dropped no frame over the whole run".into());
    }

    let attempted = done;
    let rounds: usize = timed.iter().map(|t| t.rounds).sum();
    // Timing statistics rest on the sweeps the host left alone …
    let cores = host::cores();
    let steal_s: Option<f64> = timed.iter().map(|t| t.steal_s).sum();
    let (undisturbed, disturbed): (Vec<Timed>, Vec<Timed>) =
        timed.iter().cloned().partition(|t| !t.disturbed(cores));
    let steal_filter = undisturbed.len() >= MIN_UNDISTURBED;
    let measured = if steal_filter { undisturbed } else { timed };
    // … in consecutive blocks, each scaled by the host speed calibrated
    // alongside it.
    let scaled: Vec<(&[Timed], f64)> = stats::blocks(&measured, RATE_BLOCKS)
        .map(|block| {
            let samples: Vec<f64> = block
                .iter()
                .flat_map(|t| t.calibration.iter().copied())
                .collect();
            (block, calib::speed(&samples).unwrap_or(1.0))
        })
        .collect();
    let raw: Vec<(&[Timed], f64)> = scaled.iter().map(|(block, _)| (*block, 1.0)).collect();
    let (timing, raw_timing) = (summarise(&scaled), summarise(&raw));
    let speeds: Vec<f64> = scaled.iter().map(|(_, speed)| *speed).collect();

    let per = |total: f64, n: usize| (n > 0).then(|| total / n as f64);
    let value = |name: &str| -> Option<f64> {
        match name {
            "setup_s" => stats::median(&setups.scaled_s),
            "rounds_per_s" => timing.rounds_per_s,
            "sweep_ms_p50" => timing.sweep_ms_p50,
            "sweep_ms_tail" => timing.sweep_ms_tail.map(|t| t.value),
            "cpu_ms_per_round" => timing.cpu_ms_per_round,
            "peak_rss_mb" => procfs::peak_rss_mb(),
            "live_sim_ms_per_sweep" => per(live_sim_ns as f64 / 1e6, attempted),
            "coverage_union_mean" => per(coverage_sum as f64, completed),
            "detect_share" => {
                (seeded > 0).then(|| defects_found as f64 / (seeded * attempted.max(1)) as f64)
            }
            "detect_inputs_p50" => stats::median(&efforts),
            "failed_share" => per(failed as f64, attempted),
            other => unreachable!("metric {other} has no end-to-end definition"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|d| Measured {
            name: d.name,
            unit: d.unit,
            value: value(d.name),
        })
        .collect();

    Ok(RunRecord {
        kind: RunKind::EndToEnd,
        workload,
        seed,
        header: host::header(length.to_json()),
        metrics,
        attempted,
        failed,
        failures,
        normalized_sha256: hash::hex(&digest.finalize()),
        details: json!({
            "sweeps": attempted,
            "rounds": rounds,
            "timed_s": timed_s,
            "deployments": setups.raw_s.len(),
            "tail_percentile": timing.sweep_ms_tail.map(|t| t.percentile),
            "tail_samples": timing.sweep_ms_tail.map(|t| t.samples),
            "rate_blocks": scaled.len(),
            "sweeps_disturbed": disturbed.len(),
            "steal_filter": steal_filter,
            "host_steal_share": steal_s.map(|s| s / (timed_s * cores as f64)),
            "host_speed": stats::median(&speeds),
            "raw": json!({
                "setup_s": stats::median(&setups.raw_s),
                "rounds_per_s": raw_timing.rounds_per_s,
                "sweep_ms_p50": raw_timing.sweep_ms_p50,
                "sweep_ms_tail": raw_timing.sweep_ms_tail.map(|t| t.value),
                "cpu_ms_per_round": raw_timing.cpu_ms_per_round
            }),
            "frames_dropped": frames_dropped,
            "defects_found": defects_found,
            "defects_seeded": seeded * attempted
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(wall_s: f64, rounds: usize) -> Timed {
        Timed {
            wall_s,
            cpu_s: Some(wall_s * 1.5),
            steal_s: Some(0.0),
            rounds,
            calibration: vec![calib::REFERENCE_S],
        }
    }

    #[test]
    fn rates_are_block_medians_and_scale_with_host_speed() {
        // Two quiet blocks at 10 rounds/s and one hit by a burst.
        let quiet = [timed(0.5, 5), timed(0.5, 5)];
        let burst = [timed(2.0, 5), timed(2.0, 5)];
        let blocks = [(&quiet[..], 1.0), (&burst[..], 1.0), (&quiet[..], 1.0)];
        let t = summarise(&blocks);
        assert_eq!(t.rounds_per_s, Some(10.0), "the burst block is outvoted");
        assert_eq!(t.sweep_ms_p50, Some(500.0));
        assert_eq!(t.cpu_ms_per_round, Some(150.0));
        assert_eq!(t.sweep_ms_tail, None, "six samples support no tail");

        // The same sweeps on a host calibrated at twice the reference
        // speed are worth twice the time on the reference host.
        let fast: Vec<(&[Timed], f64)> = blocks.iter().map(|(b, _)| (*b, 2.0)).collect();
        let t = summarise(&fast);
        assert_eq!(t.rounds_per_s, Some(5.0));
        assert_eq!(t.sweep_ms_p50, Some(1000.0));
        assert_eq!(t.cpu_ms_per_round, Some(300.0));
    }

    #[test]
    fn a_failed_sweep_costs_time_and_earns_no_rounds() {
        let block = [timed(0.5, 5), timed(0.5, 0)];
        let t = summarise(&[(&block[..], 1.0)]);
        assert_eq!(t.rounds_per_s, Some(5.0));
        let unreadable = [Timed {
            cpu_s: None,
            ..timed(0.5, 5)
        }];
        assert_eq!(summarise(&[(&unreadable[..], 1.0)]).cpu_ms_per_round, None);
    }

    #[test]
    fn disturbance_is_stolen_share_of_core_time() {
        let mut t = timed(0.1, 3);
        assert!(!t.disturbed(2));
        t.steal_s = Some(0.003); // 1.5 % of 0.1 s × 2 cores
        assert!(!t.disturbed(2));
        t.steal_s = Some(0.01); // one tick: 5 %
        assert!(t.disturbed(2));
        t.steal_s = None; // no counter, no filter
        assert!(!t.disturbed(2));
    }

    #[test]
    fn run_length_modes() {
        assert!(RunLength::Seconds(2.0).wants_more(1000, 1.9));
        assert!(!RunLength::Seconds(2.0).wants_more(0, 2.0));
        assert!(RunLength::Sweeps(3).wants_more(2, 99.0));
        assert!(!RunLength::Sweeps(3).wants_more(3, 0.0));
    }
}
