//! A parallel sweep must reproduce a serial sweep exactly.
//!
//! The worker pool's determinism contract (seeds are a pure function of
//! `(root_seed, app_index)`, results collected in input order) means the
//! worker count can never leak into simulation results. These tests pin
//! that down end to end on the real 30-app sweep.

use ccdem_experiments::ablation::{self, AblationConfig};
use ccdem_experiments::generalize::{self, GeneralizeConfig};
use ccdem_experiments::sweep::{self, SweepConfig};
use ccdem_simkit::time::SimDuration;

fn config(jobs: usize) -> SweepConfig {
    SweepConfig {
        duration: SimDuration::from_secs(8),
        seed: 1234,
        quarter_resolution: true,
        jobs,
    }
}

#[test]
fn four_workers_reproduce_the_serial_sweep_exactly() {
    let serial = sweep::run(&config(1));
    let parallel = sweep::run(&config(4));

    assert_eq!(serial.apps.len(), parallel.apps.len());
    for (s, p) in serial.apps.iter().zip(&parallel.apps) {
        assert_eq!(s.app, p.app, "app order must match input order");
        // Field-for-field equality of every run, all three policies.
        assert_eq!(s.baseline, p.baseline, "{}: baseline differs", s.app);
        assert_eq!(s.section, p.section, "{}: section differs", s.app);
        assert_eq!(s.boost, p.boost, "{}: boost differs", s.app);
        // And the headline numbers specifically, for a readable failure.
        assert_eq!(s.baseline.avg_power_mw, p.baseline.avg_power_mw);
        assert_eq!(s.section.quality_pct(), p.section.quality_pct());
        assert_eq!(s.boost.panel_refreshes, p.boost.panel_refreshes);
    }

    // Byte-identical reports: the rendered views, which serialize every
    // number that reaches the paper's figures, must match to the byte.
    assert_eq!(serial.fig9(), parallel.fig9());
    assert_eq!(serial.fig10(), parallel.fig10());
    assert_eq!(serial.fig11(), parallel.fig11());
    assert_eq!(serial.table1_text(), parallel.table1_text());
    // ...and so must the full debug serialization of the result set.
    assert_eq!(format!("{:?}", serial.apps), format!("{:?}", parallel.apps));
}

#[test]
fn worker_count_does_not_leak_into_results() {
    // Odd worker counts chunk the queue differently; results must not.
    let two = sweep::run(&config(2));
    let three = sweep::run(&config(3));
    assert_eq!(format!("{:?}", two.apps), format!("{:?}", three.apps));
}

#[test]
fn timing_report_covers_every_run() {
    let (sweep, timing) = sweep::run_timed(&config(0));
    assert_eq!(timing.runs.len(), sweep.apps.len() * 3);
    assert!(timing.total_wall > std::time::Duration::ZERO);
    assert!(timing.jobs >= 1);
    // Timing is measurement about the harness; it must not perturb the
    // simulated results.
    let again = sweep::run(&config(1));
    assert_eq!(format!("{:?}", sweep.apps), format!("{:?}", again.apps));
}

#[test]
fn ablations_do_not_depend_on_worker_count() {
    let ablate = |jobs| {
        let config = AblationConfig {
            duration: SimDuration::from_secs(3),
            seed: 4321,
            jobs,
        };
        ablation::run_all(&config)
    };
    let serial = ablate(1);
    // 5 windows + 5 budgets + 6 holds + 3 rules + 5 alphas + 4 dwells
    // + 5 PSR discounts.
    let points: usize = serial.iter().map(|a| a.points.len()).sum();
    assert_eq!(points, 33);
    assert_eq!(format!("{serial:?}"), format!("{:?}", ablate(3)));
}

#[test]
fn generalization_does_not_depend_on_worker_count() {
    let generalize = |jobs| {
        generalize::run(&GeneralizeConfig {
            duration: SimDuration::from_secs(3),
            seed: 4321,
            jobs,
        })
    };
    let serial = generalize(1);
    assert_eq!(serial.runs.len(), 9);
    assert_eq!(format!("{serial:?}"), format!("{:?}", generalize(3)));
}
