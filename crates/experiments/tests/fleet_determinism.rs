//! The fleet scheduler's contracts, end to end: worker count and steal
//! order never leak into the final statistics, checkpoint/resume
//! reproduces an uninterrupted campaign byte for byte, any device is
//! replayable in isolation, the hierarchical seed streams are pure and
//! collision-free at scale, and the aggregate's memory footprint is
//! O(workers × buckets) — never O(devices).

use std::sync::Mutex;

use ccdem_experiments::campaign::CampaignStats;
use ccdem_experiments::fleet::{self, DeviceSpec, FleetCheckpoint, FleetConfig};
use ccdem_obs::json;
use ccdem_obs::Obs;
use ccdem_simkit::parallel::derive_seed;
use ccdem_simkit::time::SimDuration;
use proptest::prelude::*;

fn config(devices: u64, jobs: usize, batch: u64) -> FleetConfig {
    FleetConfig {
        devices,
        seed: 20_140_601,
        duration: SimDuration::from_millis(1500),
        jobs,
        batch,
        ..FleetConfig::default()
    }
}

/// The final serialized statistics document, as `ccdem fleet --out`
/// writes it.
fn final_document(stats: &CampaignStats) -> String {
    let mut out = String::new();
    json::write_json(&mut out, &stats.to_json());
    out
}

#[test]
fn worker_count_and_steal_order_do_not_leak_into_final_statistics() {
    // Small batches force many steals; 1 vs 4 workers partition the
    // index space completely differently.
    let serial = fleet::run(&config(24, 1, 4), &Obs::disabled()).expect("no checkpoint I/O");
    let parallel = fleet::run(&config(24, 4, 4), &Obs::disabled()).expect("no checkpoint I/O");
    assert!(serial.completed() && parallel.completed());
    assert_eq!(serial.stats, parallel.stats);
    // Byte-identical, not just equal: the serialized sketches are what
    // downstream tooling diffs.
    assert_eq!(
        final_document(&serial.stats),
        final_document(&parallel.stats)
    );

    // Odd worker counts and a different batch grain: still identical.
    let odd = fleet::run(&config(24, 3, 5), &Obs::disabled()).expect("no checkpoint I/O");
    assert_eq!(final_document(&odd.stats), final_document(&serial.stats));
}

#[test]
fn interrupted_and_resumed_campaign_is_byte_identical_to_uninterrupted() {
    let dir = std::env::temp_dir().join("ccdem-fleet-determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("resume.ckpt.json");
    let _ = std::fs::remove_file(&path);

    let uninterrupted = fleet::run(&config(20, 2, 2), &Obs::disabled()).expect("no checkpoint I/O");

    // Checkpoint every 2 batches (4 devices), die after the second
    // checkpoint — 8 of 20 devices done.
    let mut interrupted_config = config(20, 2, 2);
    interrupted_config.checkpoint_path = Some(path.clone());
    interrupted_config.checkpoint_every = 2;
    interrupted_config.stop_after_checkpoints = Some(2);
    let partial = fleet::run(&interrupted_config, &Obs::disabled()).expect("checkpoint writes");
    assert!(!partial.completed(), "stop-after must interrupt the run");
    assert_eq!(partial.checkpoints_written, 2);
    assert_eq!(partial.next_index, 8);

    // The file round-trips to exactly the in-memory cursor + stats.
    let checkpoint = fleet::read_checkpoint(&path).expect("checkpoint readable");
    assert_eq!(checkpoint.next_index, partial.next_index);
    assert_eq!(checkpoint.stats, partial.stats);

    // Resume under a different worker count; the remainder of the
    // campaign continues to byte-identical final sketches.
    let mut resume_config = config(20, 3, 2);
    resume_config.checkpoint_path = Some(path.clone());
    resume_config.checkpoint_every = 2;
    let resumed = fleet::resume(&resume_config, checkpoint, &Obs::disabled()).expect("resume runs");
    assert!(resumed.completed());
    assert_eq!(
        resumed.devices_run, 12,
        "resume must only run the remainder"
    );
    assert_eq!(
        final_document(&resumed.stats),
        final_document(&uninterrupted.stats),
        "resumed statistics diverged from the uninterrupted run"
    );

    // A checkpoint from a different campaign is rejected, not silently
    // blended into the wrong statistics.
    let foreign = FleetCheckpoint {
        campaign_seed: 1,
        ..fleet::read_checkpoint(&path).unwrap_or(FleetCheckpoint {
            campaign_seed: 1,
            devices: 20,
            batch: 2,
            duration_us: 1_500_000,
            next_index: 8,
            stats: CampaignStats::new(),
        })
    };
    assert!(fleet::resume(&resume_config, foreign, &Obs::disabled()).is_err());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_device_reproduces_the_fleet_run_field_for_field() {
    let config = config(10, 3, 2);
    let observed = Mutex::new(Vec::new());
    let outcome = fleet::run_observed(&config, &Obs::disabled(), |index, result| {
        observed
            .lock()
            .expect("no panics hold this lock")
            .push((index, result.clone()));
    })
    .expect("no checkpoint I/O");
    assert!(outcome.completed());

    let mut runs = observed.into_inner().expect("workers joined");
    runs.sort_by_key(|(index, _)| *index);
    assert_eq!(
        runs.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        (0..10).collect::<Vec<_>>(),
        "every device observed exactly once"
    );
    for (index, fleet_result) in &runs {
        let replayed = fleet::replay_device(&config, *index);
        // Field-for-field: RunResult is PartialEq over every field,
        // including full traces and per-second series.
        assert_eq!(
            &replayed, fleet_result,
            "device {index} replay diverged from the fleet run"
        );
    }
}

#[test]
fn aggregate_memory_is_constant_in_device_count() {
    // O(workers × buckets), not O(devices): quadrupling the fleet may
    // add late-arriving outlier buckets but must not scale the
    // footprint with N — and the scheduler must never hold more than
    // jobs × waves partials.
    let small = fleet::run(&config(8, 2, 2), &Obs::disabled()).expect("no checkpoint I/O");
    let large = fleet::run(&config(32, 2, 2), &Obs::disabled()).expect("no checkpoint I/O");
    assert!(small.stats.bucket_footprint() > 0);
    // Log-bucketed sketches: footprint is bounded by the value range,
    // not the sample count. 4x the devices must stay within a small
    // constant of the 8-device footprint.
    assert!(
        large.stats.bucket_footprint() <= small.stats.bucket_footprint() * 2,
        "footprint grew from {} to {} buckets with device count",
        small.stats.bucket_footprint(),
        large.stats.bucket_footprint()
    );
    assert!(large.partials_merged <= large.waves * 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Device sampling is a pure function of `(campaign_seed, index)`:
    /// no hidden state, no dependence on which devices were sampled
    /// before — the replay contract.
    #[test]
    fn device_sampling_is_pure(seed in any::<u64>(), index in 0u64..1_000_000_000) {
        let direct = DeviceSpec::sample(seed, index);
        // Interleave unrelated samples; the draw must not change.
        let _ = DeviceSpec::sample(seed ^ 0xDEAD_BEEF, index.wrapping_add(1));
        let again = DeviceSpec::sample(seed, index);
        prop_assert_eq!(&direct, &again);
        // The scenario seed is one more pure derivation deep.
        prop_assert_eq!(
            direct.seed,
            derive_seed(derive_seed(seed, index), 4),
            "run-seed stream moved; replaying committed campaigns would break"
        );
    }

    /// Per-device seed streams stay collision-free across a 64k-device
    /// index window: SplitMix64 is a bijection, so equal campaign seeds
    /// and distinct indices must never alias.
    #[test]
    fn device_seeds_spread_without_collisions(seed in any::<u64>(), base in 0u64..1_000_000) {
        let mut seeds: Vec<u64> = (base..base + 65_536)
            .map(|index| derive_seed(seed, index))
            .collect();
        seeds.sort_unstable();
        let before = seeds.len();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), before, "device seed collision in a 64k window");
    }

    /// `CampaignStats` JSON round-trips exactly: parse(write(stats))
    /// reproduces equal statistics and a byte-identical re-serialization
    /// — the property the checkpoint format rests on.
    #[test]
    fn campaign_stats_round_trip_is_exact(
        powers in proptest::collection::vec(1.0f64..4000.0, 0..40),
        dropped in proptest::collection::vec(0.0f64..2000.0, 0..40),
    ) {
        let mut stats = CampaignStats::new();
        for &p in &powers {
            stats.observe("avg_power_mw", p);
        }
        for &d in &dropped {
            stats.observe("dropped_fps", d);
        }
        let document = final_document(&stats);
        let parsed = json::parse(&document).expect("own document parses");
        let back = CampaignStats::from_json(&parsed).expect("own document deserializes");
        prop_assert_eq!(&back, &stats);
        prop_assert_eq!(final_document(&back), document);
    }
}
