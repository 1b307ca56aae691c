//! The quick grid (`data/quick.toml`: an 8-group toy shape with the
//! reference grid's axis structure) against its committed JSONL golden.
//! Floats print in shortest round-trip form, so the golden pins every bit
//! of every row: a solver or model change that moves one value fails here,
//! not only a serial/parallel mismatch.

use frontier_campaign::engine::{self, Mode, RunConfig};
use frontier_campaign::jsonl;
use frontier_campaign::spec::CampaignSpec;

/// Serial and parallel sweeps both render the golden byte for byte, and
/// with per-variant metric snapshots on every row the two documents still
/// agree.
#[test]
fn quick_grid_matches_golden_serial_and_parallel() {
    let spec = CampaignSpec::parse_str(include_str!("data/quick.toml")).unwrap();
    let render = |mode, variant_metrics| {
        let result = engine::run_with(
            &spec,
            &RunConfig {
                mode,
                variant_metrics,
            },
        );
        jsonl::render_campaign(&spec.name, &result)
    };
    for mode in [Mode::Serial, Mode::Parallel] {
        let doc = render(mode, false);
        assert!(
            doc == include_str!("data/quick_grid.jsonl"),
            "{mode:?} JSONL differs from tests/data/quick_grid.jsonl:\n{doc}"
        );
    }
    let serial = render(Mode::Serial, true);
    assert!(serial.contains("\"metrics\": {"), "rows carry snapshots");
    assert!(
        serial == render(Mode::Parallel, true),
        "serial and parallel JSONL with variant metrics differ"
    );
}
