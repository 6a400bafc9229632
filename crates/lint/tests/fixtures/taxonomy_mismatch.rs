//! Taxonomy fixture, lexed by `tests/lints.rs` against a miniature
//! design table that documents `run.start` and `meter.frames` only.

pub fn emits(obs: &Obs, reg: &Registry, sketch: &QuantileSketch, now: SimTime) {
    obs.emit("run.start", now, |_| {}); // documented
    obs.emit("governor.mystery", now, |_| {}); // line 6: undocumented event
    let _e = Event::new("panel.ghost"); // line 7: undocumented event
    reg.add("meter.frames", 1); // documented
    reg.set("meter.phantom_px", 0.0); // line 9: undocumented metric
    obs_event!(obs, now, "input.mystery", |_| {}); // line 10: undocumented event
    reg.merge("meter.frames", &sketch); // documented
    reg.merge("governor.ghost_fps", &sketch); // line 12: undocumented metric
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_emissions_are_ignored() {
        obs.emit("test.only.event", now, |_| {});
    }
}
