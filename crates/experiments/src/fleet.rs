//! The fleet engine: work-stealing device simulation at population
//! scale, with checkpoint/resume.
//!
//! A *fleet campaign* simulates `N` devices — each a sampled
//! (app-mix, usage-pattern, panel, seed) tuple — and folds every run
//! into a streaming [`CampaignStats`]. Three properties make it scale
//! to millions of devices on bounded memory:
//!
//! * **Lazy device generation.** A device is a pure function of
//!   `(campaign_seed, device_index)` via hierarchical
//!   [`derive_seed`] streams ([`DeviceSpec::sample`]), so the
//!   scheduler never materializes a `Vec` of specs: workers claim
//!   fixed-size index batches from a shared atomic cursor
//!   ([`ParallelRunner::run_batches`]) and synthesize each device on
//!   the fly. Any single device out of a million-device run is
//!   replayable in isolation ([`replay_device`], `ccdem fleet
//!   --replay-device K`).
//! * **Order-independent aggregation.** Each worker folds its results
//!   into a private [`CampaignStats`] (reusing one
//!   [`RunScratch`] across all its runs); partials merge exactly —
//!   sketch buckets are `u64` counts and sums are `u128`, so the final
//!   statistics are **byte-identical** for every worker count and
//!   steal order. Peak resident state is O(workers × sketch buckets),
//!   never O(devices).
//! * **Checkpoint/resume.** Every `checkpoint_every` batches the
//!   scheduler serializes `{campaign_seed, next_index, merged partial
//!   stats}` ([`FleetCheckpoint`]) through the in-repo JSON writer.
//!   Because wave boundaries are batch-aligned and merging is exact, a
//!   run killed at a checkpoint and resumed from it
//!   ([`resume`]) finishes with final sketches byte-identical to an
//!   uninterrupted run.
//!
//! Device scenarios run silent (no per-run telemetry — a million
//! devices would flood any sink); the fleet itself emits `fleet.start`
//! / `fleet.checkpoint` / `fleet.resume` / `fleet.end` events plus a
//! `campaign.progress` line per merged wave on the caller's [`Obs`].

use std::fmt;
use std::io::Write;
use std::path::Path;

use ccdem_core::governor::Policy;
use ccdem_obs::json::{self, Json};
use ccdem_obs::{Obs, QuantileSketch};
use ccdem_panel::device::DeviceProfile;
use ccdem_simkit::parallel::{derive_seed, ParallelRunner};
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_workloads::catalog;
use ccdem_workloads::input::MonkeyConfig;
use ccdem_workloads::phased::AppSpec;

use crate::campaign::{CampaignStats, RUN_METRICS};
use crate::scenario::{RunResult, RunScratch, Scenario, Workload};

/// Default devices per scheduler batch: large enough that cursor
/// contention is invisible, small enough to rebalance uneven runs.
pub const DEFAULT_BATCH: u64 = 1024;

/// The `"checkpoint"` marker every serialized [`FleetCheckpoint`]
/// carries. It names the format version: v1 (0.10.0) wrote the `u64`
/// members as JSON numbers, v2 writes them as decimal strings.
pub const CHECKPOINT_MARKER: &str = "ccdem-fleet-checkpoint-v2";

// Per-device sub-streams of the hierarchical seeding scheme. The
// device seed is `derive_seed(campaign_seed, index)`; each dimension
// draws from its own child stream so adding a dimension never shifts
// the others.
const STREAM_APP: u64 = 0;
const STREAM_USAGE: u64 = 1;
const STREAM_PANEL: u64 = 2;
const STREAM_POLICY: u64 = 3;
const STREAM_RUN: u64 = 4;

/// How densely a sampled device's user interacts with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsagePattern {
    /// The paper's standard Monkey density (~12 s between bursts).
    Standard,
    /// Sparse interaction (~40 s between bursts).
    Sparse,
    /// No touches at all — an idle, screen-on device.
    Idle,
}

impl UsagePattern {
    /// The Monkey configuration this pattern drives.
    pub fn monkey(self) -> MonkeyConfig {
        match self {
            UsagePattern::Standard => MonkeyConfig::standard(),
            UsagePattern::Sparse => MonkeyConfig::sparse(),
            UsagePattern::Idle => MonkeyConfig::none(),
        }
    }
}

impl fmt::Display for UsagePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UsagePattern::Standard => "standard",
            UsagePattern::Sparse => "sparse",
            UsagePattern::Idle => "idle",
        })
    }
}

/// One sampled device of a fleet: everything needed to run it, derived
/// purely from `(campaign_seed, device_index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// The device's index in the campaign.
    pub index: u64,
    /// The application on screen (drawn from the 30-app catalog).
    pub app: AppSpec,
    /// Interaction density.
    pub usage: UsagePattern,
    /// The panel/device profile.
    pub device: DeviceProfile,
    /// The governed policy under test.
    pub policy: Policy,
    /// The scenario seed (workload + Monkey script randomness).
    pub seed: u64,
}

impl DeviceSpec {
    /// Samples device `index` of the campaign rooted at
    /// `campaign_seed`. Pure: the same pair always yields the same
    /// spec, regardless of which devices were sampled before — this is
    /// the replay contract behind `ccdem fleet --replay-device`.
    pub fn sample(campaign_seed: u64, index: u64) -> DeviceSpec {
        DeviceSpec::sample_from(&catalog::all_apps(), campaign_seed, index)
    }

    /// [`sample`](Self::sample) against a caller-held catalog, so a
    /// worker looping over thousands of devices builds the 30-spec
    /// catalog once instead of once per device.
    ///
    /// # Panics
    ///
    /// Panics if `catalog` is empty.
    #[expect(
        clippy::indexing_slicing,
        reason = "app_index is `% catalog.len()`, in range for the asserted non-empty catalog"
    )]
    pub fn sample_from(catalog: &[AppSpec], campaign_seed: u64, index: u64) -> DeviceSpec {
        assert!(
            !catalog.is_empty(),
            "device sampling needs a non-empty catalog"
        );
        let device_seed = derive_seed(campaign_seed, index);
        let app_index = (derive_seed(device_seed, STREAM_APP) % catalog.len() as u64) as usize;
        let app = &catalog[app_index];
        let usage = match derive_seed(device_seed, STREAM_USAGE) % 6 {
            0..=2 => UsagePattern::Standard,
            3..=4 => UsagePattern::Sparse,
            _ => UsagePattern::Idle,
        };
        let device = match derive_seed(device_seed, STREAM_PANEL) % 6 {
            0..=3 => DeviceProfile::galaxy_s3(),
            4 => DeviceProfile::ltpo_120(),
            _ => DeviceProfile::tablet_90(),
        };
        let policy = if derive_seed(device_seed, STREAM_POLICY).is_multiple_of(2) {
            Policy::SectionOnly
        } else {
            Policy::SectionWithBoost
        };
        DeviceSpec {
            index,
            app: app.clone(),
            usage,
            device,
            policy,
            seed: derive_seed(device_seed, STREAM_RUN),
        }
    }

    /// The runnable scenario for this device: its sampled panel at
    /// quarter resolution (fleet throughput mode — temporal behaviour
    /// is unchanged, per-frame pixel work drops 16×), its usage
    /// pattern, and its derived seed.
    pub fn scenario(&self, duration: SimDuration) -> Scenario {
        let mut s = Scenario::new(Workload::App(self.app.clone()), self.policy)
            .with_duration(duration)
            .with_seed(self.seed)
            .with_monkey(self.usage.monkey());
        s.device = self.device.clone();
        s.at_quarter_resolution()
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {}: {} / {} usage / {} / {} (seed {})",
            self.index,
            self.app.name,
            self.usage,
            self.device.name(),
            self.policy,
            self.seed
        )
    }
}

/// Configuration for a fleet campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Devices to simulate.
    pub devices: u64,
    /// Campaign root seed; every device derives from it.
    pub seed: u64,
    /// Per-device run length.
    pub duration: SimDuration,
    /// Worker threads; `0` = all available cores, `1` = the exact
    /// serial path. Final statistics are byte-identical either way.
    pub jobs: usize,
    /// Devices per scheduler batch (work-stealing granularity).
    pub batch: u64,
    /// Batches per checkpoint wave: after every `checkpoint_every`
    /// batches the scheduler merges worker partials and (when
    /// `checkpoint_path` is set) serializes a [`FleetCheckpoint`].
    /// `0` disables checkpointing — the whole campaign is one wave.
    pub checkpoint_every: u64,
    /// Where to write checkpoints (atomically, via temp-file rename).
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Stop cleanly after writing this many checkpoints — a
    /// deterministic stand-in for "killed mid-campaign" used by the
    /// resume end-to-end tests (`--stop-after`).
    pub stop_after_checkpoints: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 1024,
            seed: 9,
            duration: SimDuration::from_secs(2),
            jobs: 0,
            batch: DEFAULT_BATCH,
            checkpoint_every: 0,
            checkpoint_path: None,
            stop_after_checkpoints: None,
        }
    }
}

/// A serialized point of progress: everything needed to continue the
/// campaign to byte-identical final statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// The campaign root seed.
    pub campaign_seed: u64,
    /// Total devices of the campaign.
    pub devices: u64,
    /// Scheduler batch size (wave boundaries are batch-aligned).
    pub batch: u64,
    /// Per-device run length, in microseconds.
    pub duration_us: u64,
    /// The first device index not yet simulated.
    pub next_index: u64,
    /// Exact merged statistics over devices `0..next_index`.
    pub stats: CampaignStats,
}

impl FleetCheckpoint {
    /// Serializes the checkpoint document. The `u64` members are
    /// decimal strings: a JSON number is an `f64`, which would round a
    /// seed above 2^53 and resume a different campaign.
    pub fn to_json(&self) -> Json {
        let exact = |v: u64| Json::Str(v.to_string());
        Json::Obj(vec![
            ("checkpoint".into(), Json::Str(CHECKPOINT_MARKER.into())),
            ("campaign_seed".into(), exact(self.campaign_seed)),
            ("devices".into(), exact(self.devices)),
            ("batch".into(), exact(self.batch)),
            ("duration_us".into(), exact(self.duration_us)),
            ("next_index".into(), exact(self.next_index)),
            ("stats".into(), self.stats.to_json()),
        ])
    }

    /// Parses a checkpoint document.
    ///
    /// # Errors
    ///
    /// Describes the first malformed member.
    pub fn from_json(doc: &Json) -> Result<FleetCheckpoint, String> {
        match doc.get("checkpoint").and_then(Json::as_str) {
            Some(CHECKPOINT_MARKER) => {}
            Some(other) => {
                return Err(format!(
                    "checkpoint format {other:?} is not this version's {CHECKPOINT_MARKER:?}"
                ))
            }
            None => {
                return Err(format!(
                    "missing \"checkpoint\" marker (want {CHECKPOINT_MARKER:?})"
                ))
            }
        }
        // Only the exact decimal spelling `to_json` writes is accepted,
        // so every member round-trips bit for bit.
        let num = |key: &str| -> Result<u64, String> {
            let text = doc
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("checkpoint missing {key:?} (a decimal u64 string)"))?;
            text.parse::<u64>()
                .ok()
                .filter(|v| v.to_string() == text)
                .ok_or_else(|| format!("checkpoint member {key:?} is not an exact u64: {text:?}"))
        };
        let stats = doc.get("stats").ok_or("checkpoint missing \"stats\"")?;
        let stats =
            CampaignStats::from_json(stats).map_err(|e| format!("checkpoint \"stats\": {e}"))?;
        let checkpoint = FleetCheckpoint {
            campaign_seed: num("campaign_seed")?,
            devices: num("devices")?,
            batch: num("batch")?,
            duration_us: num("duration_us")?,
            next_index: num("next_index")?,
            stats,
        };
        if checkpoint.next_index > checkpoint.devices {
            return Err("checkpoint cursor is beyond the campaign".into());
        }
        if checkpoint.duration_us == 0 {
            // A zero-length run has no rates to report.
            return Err("checkpoint \"duration_us\" must be positive".into());
        }
        // `observe_run` folds each of devices `0..next_index` once and
        // records every metric once per run, so any other count was
        // edited or torn.
        let runs = checkpoint.stats.runs();
        if runs != checkpoint.next_index {
            return Err(format!(
                "checkpoint \"stats\" hold {runs} runs but the cursor is at device {}",
                checkpoint.next_index
            ));
        }
        for metric in RUN_METRICS {
            let count = checkpoint
                .stats
                .sketch(metric)
                .map_or(0, QuantileSketch::count);
            if count != runs {
                return Err(format!(
                    "checkpoint \"stats\" hold {count} {metric:?} samples over {runs} runs"
                ));
            }
        }
        Ok(checkpoint)
    }

    /// Parses a checkpoint from its textual document.
    ///
    /// # Errors
    ///
    /// JSON syntax errors, plus everything [`from_json`](Self::from_json)
    /// rejects.
    pub fn parse(document: &str) -> Result<FleetCheckpoint, String> {
        FleetCheckpoint::from_json(&json::parse(document)?)
    }

    /// The campaign configuration this checkpoint resumes (scheduler
    /// knobs — jobs, checkpoint cadence and path — come from the
    /// caller; the campaign identity comes from the checkpoint).
    pub fn config(&self) -> FleetConfig {
        FleetConfig {
            devices: self.devices,
            seed: self.campaign_seed,
            duration: SimDuration::from_micros(self.duration_us),
            batch: self.batch,
            ..FleetConfig::default()
        }
    }

    /// Checks that `config` describes the same campaign this
    /// checkpoint was taken from.
    ///
    /// # Errors
    ///
    /// Names the first mismatching member.
    pub fn matches(&self, config: &FleetConfig) -> Result<(), String> {
        let pairs = [
            ("seed", self.campaign_seed, config.seed),
            ("devices", self.devices, config.devices),
            ("batch", self.batch, config.batch.max(1)),
            ("duration_us", self.duration_us, config.duration.as_micros()),
        ];
        for (name, ours, theirs) in pairs {
            if ours != theirs {
                return Err(format!(
                    "checkpoint {name} is {ours} but the configuration says {theirs} — \
                     resuming would not reproduce the uninterrupted campaign"
                ));
            }
        }
        Ok(())
    }
}

/// Writes `checkpoint` to `path` atomically and durably: the document
/// goes to a temp file that is synced to disk before it is renamed over
/// `path`, and on Unix the parent directory is synced after the rename.
/// A kill mid-write can never leave a torn checkpoint behind, and once
/// this returns `Ok` the new checkpoint survives a power loss.
///
/// # Errors
///
/// Describes the failed filesystem operation.
pub fn write_checkpoint(path: &Path, checkpoint: &FleetCheckpoint) -> Result<(), String> {
    let mut document = String::new();
    json::write_json(&mut document, &checkpoint.to_json());
    document.push('\n');
    let tmp = path.with_extension("tmp");
    fn io(what: &'static str, at: &Path) -> impl FnOnce(std::io::Error) -> String {
        let at = at.display().to_string();
        move |e| format!("{what} {at}: {e}")
    }
    let mut file = std::fs::File::create(&tmp).map_err(io("create", &tmp))?;
    file.write_all(document.as_bytes())
        .map_err(io("write", &tmp))?;
    file.sync_all().map_err(io("sync", &tmp))?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
    #[cfg(unix)]
    {
        // The rename lives in the directory entry: sync the directory so
        // the new name is on disk too.
        let dir = match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(io("sync directory", dir))?;
    }
    Ok(())
}

/// Reads and parses a checkpoint written by [`write_checkpoint`].
///
/// # Errors
///
/// I/O failures plus everything [`FleetCheckpoint::parse`] rejects.
pub fn read_checkpoint(path: &Path) -> Result<FleetCheckpoint, String> {
    let document =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    FleetCheckpoint::parse(&document)
}

/// What a fleet invocation accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Merged statistics over every device simulated so far (including
    /// the checkpoint a resumed run started from).
    pub stats: CampaignStats,
    /// Total devices of the campaign.
    pub devices: u64,
    /// The first device index not yet simulated (`== devices` when the
    /// campaign completed).
    pub next_index: u64,
    /// Devices simulated by *this* invocation.
    pub devices_run: u64,
    /// Checkpoint waves executed.
    pub waves: u64,
    /// Worker partials merged — bounded by `waves × jobs`, which is
    /// the whole point: peak resident state is O(workers × buckets).
    pub partials_merged: u64,
    /// Checkpoints written by this invocation.
    pub checkpoints_written: u64,
}

impl FleetOutcome {
    /// Whether every device of the campaign has been simulated.
    pub fn completed(&self) -> bool {
        self.next_index == self.devices
    }
}

/// Per-worker state: one catalog, one scratch, one private aggregate.
struct FleetWorker {
    catalog: Vec<AppSpec>,
    scratch: RunScratch,
    stats: CampaignStats,
}

impl FleetWorker {
    fn new() -> FleetWorker {
        FleetWorker {
            catalog: catalog::all_apps(),
            scratch: RunScratch::new(),
            stats: CampaignStats::new(),
        }
    }
}

/// Runs a fleet campaign from scratch.
///
/// # Errors
///
/// Checkpoint write failures (the simulation itself is infallible).
pub fn run(config: &FleetConfig, obs: &Obs) -> Result<FleetOutcome, String> {
    run_observed(config, obs, |_, _| {})
}

/// [`run`] plus a per-device tap: `observe(index, &result)` fires on
/// the worker thread that simulated the device, in a
/// scheduling-dependent order. The tap is for diagnostics and tests
/// (e.g. pinning the `--replay-device` contract); the returned
/// statistics are identical with or without it.
///
/// # Errors
///
/// Checkpoint write failures (the simulation itself is infallible).
pub fn run_observed(
    config: &FleetConfig,
    obs: &Obs,
    observe: impl Fn(u64, &RunResult) + Sync,
) -> Result<FleetOutcome, String> {
    obs.emit("fleet.start", SimTime::ZERO, |event| {
        event
            .field("devices", config.devices)
            .field("jobs", ParallelRunner::new(config.jobs).jobs() as u64)
            .field("batch", config.batch.max(1));
    });
    run_from(config, 0, CampaignStats::new(), obs, &observe)
}

/// Resumes a campaign from `checkpoint`, continuing to final
/// statistics byte-identical to an uninterrupted [`run`].
///
/// # Errors
///
/// A checkpoint that does not match `config` (see
/// [`FleetCheckpoint::matches`]), or checkpoint write failures.
pub fn resume(
    config: &FleetConfig,
    checkpoint: FleetCheckpoint,
    obs: &Obs,
) -> Result<FleetOutcome, String> {
    checkpoint.matches(config)?;
    obs.emit("fleet.resume", SimTime::ZERO, |event| {
        event
            .field("devices", config.devices)
            .field("next_index", checkpoint.next_index)
            .field("runs", checkpoint.stats.runs());
    });
    run_from(
        config,
        checkpoint.next_index,
        checkpoint.stats,
        obs,
        &|_, _| {},
    )
}

/// The scheduler core: waves of `checkpoint_every` batches, each wave a
/// work-stealing [`ParallelRunner::run_batches`] pass whose per-worker
/// partials merge into the running aggregate at the wave barrier.
fn run_from(
    config: &FleetConfig,
    start_index: u64,
    mut stats: CampaignStats,
    obs: &Obs,
    observe: &(impl Fn(u64, &RunResult) + Sync),
) -> Result<FleetOutcome, String> {
    let runner = ParallelRunner::new(config.jobs);
    let batch = config.batch.max(1);
    // A wave is the unit of checkpointing; without checkpoints the
    // whole remaining range is one wave.
    let wave_devices = if config.checkpoint_every == 0 {
        u64::MAX
    } else {
        config.checkpoint_every.saturating_mul(batch)
    };

    let mut next = start_index;
    let mut outcome = FleetOutcome {
        stats: CampaignStats::new(),
        devices: config.devices,
        next_index: next,
        devices_run: 0,
        waves: 0,
        partials_merged: 0,
        checkpoints_written: 0,
    };
    while next < config.devices {
        let wave_end = config.devices.min(next.saturating_add(wave_devices));
        let partials =
            runner.run_batches(next..wave_end, batch, FleetWorker::new, |worker, index| {
                let spec = DeviceSpec::sample_from(&worker.catalog, config.seed, index);
                let result = spec
                    .scenario(config.duration)
                    .run_with_scratch(&mut worker.scratch);
                worker.stats.observe_run(&result);
                observe(index, &result);
            });
        for worker in &partials {
            stats.merge(&worker.stats);
            outcome.partials_merged += 1;
        }
        outcome.waves += 1;
        outcome.devices_run += wave_end - next;
        next = wave_end;
        outcome.next_index = next;
        stats.emit_progress(obs, config.devices as usize);

        if next < config.devices {
            if let Some(path) = &config.checkpoint_path {
                let checkpoint = FleetCheckpoint {
                    campaign_seed: config.seed,
                    devices: config.devices,
                    batch,
                    duration_us: config.duration.as_micros(),
                    next_index: next,
                    stats: stats.clone(),
                };
                write_checkpoint(path, &checkpoint)?;
                outcome.checkpoints_written += 1;
                obs.emit("fleet.checkpoint", SimTime::ZERO, |event| {
                    event.field("next_index", next).field("runs", stats.runs());
                });
                if config
                    .stop_after_checkpoints
                    .is_some_and(|n| outcome.checkpoints_written >= n)
                {
                    break;
                }
            }
        }
    }

    if next == config.devices {
        stats.emit_end(obs);
    }
    obs.emit("fleet.end", SimTime::ZERO, |event| {
        event
            .field("devices_run", outcome.devices_run)
            .field("next_index", next)
            .field("runs", stats.runs())
            .field("completed", next == config.devices);
    });
    outcome.stats = stats;
    Ok(outcome)
}

/// Replays one device of the campaign described by `config` in
/// isolation. The returned [`RunResult`] is field-for-field identical
/// to what the fleet scheduler produced (or would produce) for that
/// index — devices are pure functions of `(campaign_seed, index)` and
/// scratch-recycled runs are byte-identical to fresh ones.
pub fn replay_device(config: &FleetConfig, index: u64) -> RunResult {
    DeviceSpec::sample(config.seed, index)
        .scenario(config.duration)
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(devices: u64, batch: u64) -> FleetConfig {
        FleetConfig {
            devices,
            seed: 77,
            duration: SimDuration::from_millis(500),
            jobs: 2,
            batch,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn sampling_is_pure_and_covers_every_dimension() {
        let a = DeviceSpec::sample(5, 123);
        let b = DeviceSpec::sample(5, 123);
        assert_eq!(a, b, "sampling must be pure");
        assert_ne!(DeviceSpec::sample(5, 124), a, "indices must differ");
        assert_ne!(DeviceSpec::sample(6, 123), a, "campaign seeds must matter");

        // Across a few hundred devices, every usage pattern, panel and
        // policy shows up.
        let specs: Vec<DeviceSpec> = (0..300).map(|i| DeviceSpec::sample(5, i)).collect();
        for usage in [
            UsagePattern::Standard,
            UsagePattern::Sparse,
            UsagePattern::Idle,
        ] {
            assert!(
                specs.iter().any(|s| s.usage == usage),
                "{usage} never drawn"
            );
        }
        for panel in ["galaxy s3", "ltpo", "tablet"] {
            assert!(
                specs
                    .iter()
                    .any(|s| s.device.name().to_lowercase().contains(panel)),
                "panel {panel} never drawn"
            );
        }
        for policy in [Policy::SectionOnly, Policy::SectionWithBoost] {
            assert!(
                specs.iter().any(|s| s.policy == policy),
                "{policy} never drawn"
            );
        }
        let apps: std::collections::BTreeSet<&str> =
            specs.iter().map(|s| s.app.name.as_str()).collect();
        assert!(
            apps.len() > 20,
            "only {} distinct apps in 300 draws",
            apps.len()
        );
    }

    /// A 100-device campaign's checkpoint before its first device.
    fn unstarted() -> FleetCheckpoint {
        FleetCheckpoint {
            campaign_seed: 42,
            devices: 100,
            batch: 10,
            duration_us: 1_000_000,
            next_index: 0,
            stats: CampaignStats::new(),
        }
    }

    /// A 4-device campaign's checkpoint after its first `runs` devices,
    /// with their real statistics.
    fn stopped_after(runs: u64) -> FleetCheckpoint {
        let config = tiny(runs, 2);
        let outcome = run(&config, &Obs::disabled()).expect("no path set, no I/O");
        FleetCheckpoint {
            campaign_seed: config.seed,
            devices: 4,
            batch: 2,
            duration_us: config.duration.as_micros(),
            next_index: runs,
            stats: outcome.stats,
        }
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let checkpoint = stopped_after(3);
        let document = checkpoint.to_json().to_string();
        let back = FleetCheckpoint::parse(&document).expect("own document parses");
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn checkpoint_rejects_stats_that_disagree_with_the_cursor() {
        let document = stopped_after(2).to_json().to_string();
        // The cursor moved back a device: device 1 would fold twice.
        let behind = document.replace("\"next_index\":\"2\"", "\"next_index\":\"1\"");
        assert_ne!(behind, document);
        let err = FleetCheckpoint::parse(&behind).expect_err("a cursor behind the stats");
        assert!(err.contains("2 runs") && err.contains("device 1"), "{err}");

        // A well-formed one-sample sketch over two runs.
        let mut one = QuantileSketch::new();
        one.record(900_000);
        let sketch = one.to_json().to_string();
        let key = "\"avg_power_mw\":{";
        let at = document.find(key).expect("the metric's sketch") + key.len() - 1;
        let end = at + document[at..].find('}').expect("the sketch closes") + 1;
        let short = format!("{}{sketch}{}", &document[..at], &document[end..]);
        let err = FleetCheckpoint::parse(&short).expect_err("a sketch one sample short");
        assert!(
            err.contains("1 \"avg_power_mw\" samples over 2 runs"),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_u64_members_round_trip_exactly_above_two_pow_53() {
        // The cursor equals the stats' run count, which stays below
        // 2^53; every other member may use all of u64.
        for seed in [(1u64 << 53) + 1, u64::MAX - 1] {
            let checkpoint = FleetCheckpoint {
                campaign_seed: seed,
                devices: seed,
                batch: 7,
                duration_us: seed - 3,
                next_index: 0,
                stats: CampaignStats::new(),
            };
            let document = checkpoint.to_json().to_string();
            assert!(document.contains(&format!("\"{seed}\"")), "{document}");
            let back = FleetCheckpoint::parse(&document).expect("own document parses");
            assert_eq!(back, checkpoint, "seed {seed}");
        }
    }

    #[test]
    fn checkpoint_rejects_inexact_u64_members() {
        let checkpoint = unstarted();
        let document = checkpoint.to_json().to_string();
        for bad in [
            "9007199254740993", // an f64 number: may be rounded
            "\"+42\"",          // not the canonical spelling
            "\"042\"",
            "\"4.2e1\"",
            "\"-42\"",
            "\"18446744073709551616\"", // u64::MAX + 1
            "\"\"",
        ] {
            let tampered = document.replace(
                "\"campaign_seed\":\"42\"",
                &format!("\"campaign_seed\":{bad}"),
            );
            assert_ne!(tampered, document);
            let err = FleetCheckpoint::parse(&tampered).expect_err(bad);
            assert!(
                err.contains("campaign_seed"),
                "wrong member named for {bad}: {err}"
            );
        }
    }

    #[test]
    fn checkpoint_rejects_the_numeric_v1_format_by_its_marker() {
        // What 0.10.0 wrote: the v1 marker and plain JSON numbers.
        let mut stats = String::new();
        json::write_json(&mut stats, &CampaignStats::new().to_json());
        let v1 = format!(
            "{{\"checkpoint\":\"ccdem-fleet-checkpoint-v1\",\"campaign_seed\":42,\
             \"devices\":100,\"batch\":10,\"duration_us\":1000000,\"next_index\":50,\
             \"stats\":{stats}}}"
        );
        let err = FleetCheckpoint::parse(&v1).expect_err("a v1 checkpoint");
        assert!(
            err.contains("ccdem-fleet-checkpoint-v1") && err.contains(CHECKPOINT_MARKER),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_rejects_mismatched_configs() {
        let checkpoint = unstarted();
        let mut config = checkpoint.config();
        checkpoint.matches(&config).expect("own config matches");
        config.seed = 43;
        let err = checkpoint.matches(&config).unwrap_err();
        assert!(err.contains("seed"), "wrong member named: {err}");

        assert!(FleetCheckpoint::parse("{}").is_err());
        assert!(FleetCheckpoint::parse("{not json").is_err());
        let document = checkpoint.to_json().to_string();
        let torn = document.replace("\"next_index\":\"0\"", "\"next_index\":\"101\"");
        assert!(
            FleetCheckpoint::parse(&torn)
                .unwrap_err()
                .contains("beyond"),
            "cursor past the campaign accepted"
        );
    }

    #[test]
    fn checkpoint_rejects_a_zero_duration() {
        let checkpoint = unstarted();
        let document = checkpoint.to_json().to_string();
        let zero = document.replace("\"duration_us\":\"1000000\"", "\"duration_us\":\"0\"");
        assert_ne!(zero, document);
        let err = FleetCheckpoint::parse(&zero).expect_err("a zero-length campaign");
        assert!(
            err.contains("duration_us") && err.contains("positive"),
            "{err}"
        );
    }

    #[test]
    fn fleet_statistics_match_per_device_replay_fold() {
        // The scheduler's merged statistics equal folding every
        // device's replayed result serially — the scheduler adds
        // nothing and loses nothing.
        let config = tiny(12, 4);
        let outcome = run(&config, &Obs::disabled()).expect("no checkpointing, no I/O");
        assert!(outcome.completed());
        assert_eq!(outcome.devices_run, 12);
        assert_eq!(outcome.stats.runs(), 12);

        let mut serial = CampaignStats::new();
        for index in 0..12 {
            serial.observe_run(&replay_device(&config, index));
        }
        assert_eq!(outcome.stats, serial);
    }

    #[test]
    fn partials_stay_bounded_by_workers_times_waves() {
        let mut config = tiny(24, 4);
        config.checkpoint_every = 2; // 3 waves of 8 devices
        let outcome = run(&config, &Obs::disabled()).expect("no path set, no I/O");
        assert_eq!(outcome.waves, 3);
        assert!(
            outcome.partials_merged <= outcome.waves * 2,
            "{} partials from {} waves × 2 jobs",
            outcome.partials_merged,
            outcome.waves
        );
        // No checkpoint path: nothing written, nothing stopped.
        assert_eq!(outcome.checkpoints_written, 0);
        assert!(outcome.completed());
    }
}
