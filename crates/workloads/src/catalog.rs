//! The 30-application catalog (paper §2.2, Fig. 3).
//!
//! The paper measured 30 commercial applications from the Google Play Top
//! Charts (South Korea) — 15 general applications and 15 games — on a
//! Galaxy S3, recording each app's meaningful and redundant frame rates.
//! This catalog pins a synthetic [`AppSpec`] per application whose idle
//! behaviour reproduces the rates readable from Fig. 3:
//!
//! * most general applications request fewer than 30 fps in total, but
//!   about 40% of them exhibit ~20 fps of redundant updates (Cash Slide,
//!   Daum Maps, CGV, Auction, …);
//! * every game requests at least 30 fps, and over 80% of them submit
//!   more than 20 redundant frames per second (Jelly Splash holds ~60 fps
//!   with mostly unchanged content, Fig. 2).
//!
//! The *active* phase numbers model touch response (Fig. 2 shows frame
//! rates spiking at user input) and are chosen per app family.

use crate::app::AppClass;
use crate::phased::{AppSpec, ChangeKind, PhaseBehavior};

/// Short names for the per-app table below.
fn spec(
    name: &str,
    class: AppClass,
    idle: (f64, f64, ChangeKind),
    active: (f64, f64, ChangeKind),
) -> AppSpec {
    AppSpec::new(
        name,
        class,
        PhaseBehavior::new(idle.0, idle.1, idle.2),
        PhaseBehavior::new(active.0, active.1, active.2),
    )
}

/// The 15 general applications of Fig. 3(a)/(c).
///
/// Tuple meaning: `(request fps, meaningful fps, change kind)` for the
/// idle phase and the touch-active phase respectively.
pub fn general_apps() -> Vec<AppSpec> {
    use AppClass::General as G;
    use ChangeKind::{FullRedraw as F, Scroll as S, Widget as W};
    vec![
        spec("Auction", G, (20.0, 2.0, W), (40.0, 26.0, S)),
        spec("Cash Slide", G, (25.0, 3.0, W), (30.0, 18.0, S)),
        spec("CGV", G, (22.0, 2.0, W), (35.0, 22.0, S)),
        spec("Coupang", G, (10.0, 2.0, W), (35.0, 25.0, S)),
        spec("Daum", G, (8.0, 2.0, W), (30.0, 22.0, S)),
        spec("Daum Maps", G, (24.0, 4.0, F), (40.0, 28.0, F)),
        spec("Facebook", G, (5.0, 1.5, W), (45.0, 30.0, S)),
        spec("KakaoTalk", G, (6.0, 1.0, W), (30.0, 20.0, S)),
        spec("MX Player", G, (30.0, 24.0, F), (30.0, 24.0, F)),
        spec("Naver", G, (10.0, 2.0, W), (35.0, 24.0, S)),
        spec("Naver Webtoon", G, (8.0, 1.5, W), (40.0, 30.0, S)),
        spec("NaverMap", G, (20.0, 4.0, F), (40.0, 28.0, F)),
        spec("PhotoWonder", G, (12.0, 3.0, W), (30.0, 18.0, F)),
        spec("Tiny Flashlight", G, (4.0, 0.5, W), (10.0, 5.0, W)),
        spec("Weather", G, (9.0, 2.0, W), (25.0, 15.0, S)),
    ]
}

/// The 15 games of Fig. 3(b)/(d).
pub fn game_apps() -> Vec<AppSpec> {
    use AppClass::Game as Gm;
    use ChangeKind::FullRedraw as F;
    vec![
        spec("Anisachun", Gm, (60.0, 18.0, F), (60.0, 24.0, F)),
        spec("Asphalt 8", Gm, (60.0, 45.0, F), (60.0, 50.0, F)),
        spec("Canimal Wars", Gm, (60.0, 16.0, F), (60.0, 22.0, F)),
        spec("Castle Heros", Gm, (60.0, 22.0, F), (60.0, 28.0, F)),
        spec("Cookie Run", Gm, (60.0, 30.0, F), (60.0, 36.0, F)),
        spec("Devilshness", Gm, (60.0, 15.0, F), (60.0, 20.0, F)),
        spec("Everypong", Gm, (60.0, 25.0, F), (60.0, 30.0, F)),
        spec("Geometry Dash", Gm, (60.0, 32.0, F), (60.0, 38.0, F)),
        spec("I Love Style", Gm, (50.0, 12.0, F), (50.0, 20.0, F)),
        spec("Jelly Splash", Gm, (60.0, 15.0, F), (60.0, 35.0, F)),
        spec("Modoo Marble", Gm, (60.0, 20.0, F), (60.0, 26.0, F)),
        spec("PokoPang", Gm, (60.0, 30.0, F), (60.0, 36.0, F)),
        spec("Swingrun", Gm, (60.0, 33.0, F), (60.0, 38.0, F)),
        spec("TempleRun", Gm, (60.0, 34.0, F), (60.0, 40.0, F)),
        spec("Watermargin", Gm, (50.0, 10.0, F), (50.0, 16.0, F)),
    ]
}

/// All 30 applications: general apps first, then games.
pub fn all_apps() -> Vec<AppSpec> {
    let mut apps = general_apps();
    apps.extend(game_apps());
    apps
}

/// Looks an application up by its Fig. 3 name (case-insensitive).
pub fn by_name(name: &str) -> Option<AppSpec> {
    all_apps()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

/// Facebook — the paper's running low-frame-rate example (Fig. 2a).
#[expect(
    clippy::expect_used,
    reason = "static Fig. 3 catalog; covered by tests"
)]
pub fn facebook() -> AppSpec {
    by_name("Facebook").expect("Facebook is in the catalog")
}

/// Jelly Splash — the paper's running redundant-60-fps example (Fig. 2b).
#[expect(
    clippy::expect_used,
    reason = "static Fig. 3 catalog; covered by tests"
)]
pub fn jelly_splash() -> AppSpec {
    by_name("Jelly Splash").expect("Jelly Splash is in the catalog")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_simkit::stats::quantile;

    #[test]
    fn thirty_apps_split_evenly() {
        assert_eq!(general_apps().len(), 15);
        assert_eq!(game_apps().len(), 15);
        assert_eq!(all_apps().len(), 30);
    }

    #[test]
    fn names_are_unique() {
        let apps = all_apps();
        for (i, a) in apps.iter().enumerate() {
            for b in &apps[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn classes_are_consistent() {
        assert!(general_apps().iter().all(|a| a.class == AppClass::General));
        assert!(game_apps().iter().all(|a| a.class == AppClass::Game));
    }

    #[test]
    fn all_games_request_at_least_30_fps() {
        // Fig. 3(b): "all the game applications update the display at
        // more than 30 fps".
        for g in game_apps() {
            assert!(
                g.idle.request_fps >= 30.0,
                "{} requests only {} fps",
                g.name,
                g.idle.request_fps
            );
        }
    }

    #[test]
    fn most_general_apps_below_30_fps() {
        // Fig. 3(a): "most of the general applications require less than
        // 30 fps".
        let below = general_apps()
            .iter()
            .filter(|a| a.idle.request_fps < 30.0)
            .count();
        assert!(below >= 13, "only {below} general apps below 30 fps");
    }

    #[test]
    fn eighty_percent_of_games_exceed_20_redundant_fps() {
        // Fig. 3(d): "8[0]% of them have more than 2[0] redundant frames
        // per second".
        let redundant: Vec<f64> = game_apps().iter().map(|a| a.idle.redundant_fps()).collect();
        let p20 = quantile(&redundant, 0.2).unwrap();
        assert!(p20 > 20.0, "20th-percentile redundant fps {p20} ≤ 20");
    }

    #[test]
    fn about_forty_percent_of_general_apps_near_20_redundant_fps() {
        // Fig. 3(d): "about 4[0]% of them exhibit approximately 2[0] fps
        // of the redundant frame rate (e.g., Cash Slide, Daum Maps)".
        let near_20 = general_apps()
            .iter()
            .filter(|a| a.idle.redundant_fps() >= 16.0)
            .count();
        assert!(
            (5..=8).contains(&near_20),
            "{near_20} general apps with ≥16 redundant fps"
        );
        // The two apps the paper names explicitly must be among them.
        for name in ["Cash Slide", "Daum Maps"] {
            let app = by_name(name).unwrap();
            assert!(
                app.idle.redundant_fps() >= 16.0,
                "{name} should be redundant-heavy"
            );
        }
    }

    #[test]
    fn fig2_examples_match_paper_description() {
        let fb = facebook();
        assert!(
            fb.idle.request_fps <= 10.0,
            "Facebook should be quiet when idle"
        );
        assert!(
            fb.active.request_fps >= 40.0,
            "Facebook should spike on touch"
        );
        let js = jelly_splash();
        assert!(js.idle.request_fps >= 55.0, "Jelly Splash holds ~60 fps");
        assert!(
            js.idle.redundant_fps() >= 40.0,
            "Jelly Splash is mostly redundant when idle"
        );
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("facebook").is_some());
        assert!(by_name("JELLY SPLASH").is_some());
        assert!(by_name("No Such App").is_none());
    }

    #[test]
    fn touch_response_never_reduces_content_rate() {
        for a in all_apps() {
            assert!(
                a.active.content_fps >= a.idle.content_fps,
                "{} loses content rate when active",
                a.name
            );
        }
    }
}
