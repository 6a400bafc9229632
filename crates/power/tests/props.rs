//! Property-based tests for the power model and meter.

use ccdem_power::battery::Battery;
use ccdem_power::meter::PowerMeter;
use ccdem_power::model::{DisplayActivity, PowerCoefficients};
use ccdem_power::units::Milliwatts;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_activity() -> impl Strategy<Value = DisplayActivity> {
    (
        0.0f64..240.0,
        0.0f64..240.0,
        any::<bool>(),
        proptest::option::of(0.0f64..1.0),
        proptest::option::of(0.0f64..240.0),
    )
        .prop_map(|(refresh, fps, touch, lum, scan)| DisplayActivity {
            refresh_hz: refresh,
            composed_fps: fps,
            touch_active: touch,
            mean_luminance: lum,
            content_scanout_fps: scan,
        })
}

proptest! {
    /// Power is monotone non-decreasing in both refresh rate and
    /// composed fps, for every model variant.
    #[test]
    fn power_monotone(a in arb_activity(), extra_hz in 0.0f64..60.0, extra_fps in 0.0f64..60.0) {
        for model in [
            PowerCoefficients::galaxy_s3(),
            PowerCoefficients::galaxy_s3().with_oled_content_scaling(),
            PowerCoefficients::galaxy_s3().with_psr_discount(0.7),
        ] {
            let base = model.power(&a);
            let faster = model.power(&DisplayActivity {
                refresh_hz: a.refresh_hz + extra_hz,
                ..a
            });
            prop_assert!(faster >= base, "refresh monotonicity violated");
            let busier = model.power(&DisplayActivity {
                composed_fps: a.composed_fps + extra_fps,
                ..a
            });
            prop_assert!(busier >= base, "composition monotonicity violated");
        }
    }

    /// A PSR discount never *increases* power, and never cuts below the
    /// power of a panel running exactly at the content scanout rate.
    #[test]
    fn psr_bounded(a in arb_activity(), discount in 0.0f64..=1.0) {
        let plain = PowerCoefficients::galaxy_s3();
        let psr = PowerCoefficients::galaxy_s3().with_psr_discount(discount);
        let p_plain = plain.power(&a);
        let p_psr = psr.power(&a);
        prop_assert!(p_psr <= p_plain + Milliwatts::new(1e-9));
        // Lower bound: as if the panel ran at the content rate only.
        let content = a.content_scanout_fps.unwrap_or(a.refresh_hz).clamp(0.0, a.refresh_hz.max(0.0));
        let floor = plain.power(&DisplayActivity {
            refresh_hz: content,
            ..a
        });
        prop_assert!(p_psr >= floor - Milliwatts::new(1e-6));
    }

    /// An input the model does not read cannot change its power: while
    /// `reads_luminance()` / `reads_content_scanouts()` is false, power has
    /// the same bits whether that input is `None` or any value. An input
    /// the model does read can move power.
    #[test]
    fn unread_inputs_never_change_power(
        a in arb_activity(),
        lum in 0.0f64..=1.0,
        scan in 0.0f64..240.0,
        discount in 0.05f64..=1.0,
    ) {
        let plain = PowerCoefficients::galaxy_s3();
        for (model, oled, psr) in [
            (plain, false, false),
            (plain.with_oled_content_scaling(), true, false),
            (plain.with_psr_discount(discount), false, true),
            (plain.with_oled_content_scaling().with_psr_discount(discount), true, true),
        ] {
            prop_assert_eq!((model.reads_luminance(), model.reads_content_scanouts()), (oled, psr));
            let power = |activity: DisplayActivity| model.power(&activity).value().to_bits();
            if oled {
                prop_assert!(
                    power(DisplayActivity { mean_luminance: Some(0.0), ..a })
                        != power(DisplayActivity { mean_luminance: Some(1.0), ..a }),
                    "luminance is read but cannot move power: {:?}", model
                );
            } else {
                for l in [None, Some(lum)] {
                    prop_assert_eq!(power(DisplayActivity { mean_luminance: l, ..a }), power(a));
                }
            }
            if psr {
                let at_60 = DisplayActivity { refresh_hz: 60.0, ..a };
                prop_assert!(
                    power(DisplayActivity { content_scanout_fps: Some(0.0), ..at_60 })
                        != power(DisplayActivity { content_scanout_fps: Some(60.0), ..at_60 }),
                    "content scanouts are read but cannot move power: {:?}", model
                );
            } else {
                for c in [None, Some(scan)] {
                    prop_assert_eq!(power(DisplayActivity { content_scanout_fps: c, ..a }), power(a));
                }
            }
        }
    }

    /// The noiseless meter's energy integral equals the analytic
    /// sample-and-hold integral of its inputs.
    #[test]
    fn meter_energy_exact(
        powers in proptest::collection::vec(0.0f64..3_000.0, 2..50),
    ) {
        let mut meter = PowerMeter::noiseless(SimDuration::from_millis(100));
        let mut rng = SimRng::seed_from_u64(1);
        let mut expected = 0.0;
        for (i, &p) in powers.iter().enumerate() {
            let t = SimTime::from_millis(i as u64 * 100);
            meter.sample(t, Milliwatts::new(p), &mut rng);
            if i + 1 < powers.len() {
                expected += p * 0.1; // held for 100 ms
            }
        }
        prop_assert!((meter.energy().value() - expected).abs() < 1e-6);
    }

    /// Battery life scales inversely with draw; gained life is never
    /// negative.
    #[test]
    fn battery_life_inverse(p1 in 10.0f64..5_000.0, p2 in 10.0f64..5_000.0) {
        let b = Battery::galaxy_s3();
        let l1 = b.life_at(Milliwatts::new(p1)).as_secs_f64();
        let l2 = b.life_at(Milliwatts::new(p2)).as_secs_f64();
        // l1·p1 == l2·p2 == capacity (both equal energy/1).
        prop_assert!((l1 * p1 - l2 * p2).abs() / (l1 * p1) < 1e-6);
        let gained = b.life_gained(Milliwatts::new(p1), Milliwatts::new(p2));
        prop_assert!(gained.as_secs_f64() >= 0.0);
        if p2 < p1 {
            prop_assert!(gained.as_secs_f64() > 0.0);
        }
    }
}
