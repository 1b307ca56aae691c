//! An end-to-end hero campaign: a GESTS-style full-machine turbulence run
//! stepping the PSDNS model, checkpointing to Orion at the Young/Daly
//! cadence, and absorbing injected hardware failures — the application,
//! storage and resilience models working together.
//!
//! ```text
//! cargo run --release --example hero_campaign
//! ```

use frontier::apps::fft::{Decomp, PsdnsRun};
use frontier::prelude::*;
use frontier::resilience::checkpoint;
use frontier::resilience::fit::{FitModel, Inventory};
use frontier::resilience::mtti::{analytic_mtti, failure_schedule};

fn main() {
    let machine = FrontierMachine::standard();
    let orion = machine.orion();

    // The science: a 32768^3 DNS campaign of 12,000 time steps.
    let run = PsdnsRun::frontier(Decomp::OneD);
    let step = run.step_time();
    let steps_total = 12_000u64;
    println!(
        "campaign: {}^3 PSDNS, {} steps x {:.2} s/step = {:.1} h of pure compute",
        run.n,
        steps_total,
        step.as_secs_f64(),
        steps_total as f64 * step.as_secs_f64() / 3600.0
    );

    // Checkpoint plan: the DNS state is ~4 fields.
    let state = Bytes::new((4.0 * run.field_bytes()) as u64);
    let write_s = orion
        .checkpoint_ingest_time(state, Bytes::gib(8))
        .as_secs_f64();
    let mtti = analytic_mtti(&Inventory::frontier(), &FitModel::frontier());
    let plan = checkpoint::plan(write_s, mtti.mtti_hours * 3600.0);
    let steps_per_checkpoint = (plan.interval_s / step.as_secs_f64()).max(1.0) as u64;
    println!(
        "checkpoint: {:.1} TB of state -> {:.0} s per write; Daly interval {:.0} min \
         = every {} steps",
        state.as_tb(),
        write_s,
        plan.interval_s / 60.0,
        steps_per_checkpoint
    );

    // Failure schedule for the campaign window.
    let horizon_h = 30.0;
    let failures = failure_schedule(
        &Inventory::frontier(),
        &FitModel::frontier(),
        horizon_h,
        2023,
    );
    println!(
        "failures injected over {horizon_h:.0} h: {}",
        failures.len()
    );

    // Replay: step, checkpoint, absorb failures by rolling back.
    let mut t = 0.0f64;
    let mut committed_steps = 0u64;
    let mut steps_since_ckpt = 0u64;
    let mut fi = 0usize;
    let mut rollbacks = 0u32;
    while committed_steps + steps_since_ckpt < steps_total {
        let next_fail = failures
            .get(fi)
            .map(|(ft, _)| ft.as_secs_f64())
            .unwrap_or(f64::INFINITY);
        if t + step.as_secs_f64() > next_fail {
            // Interrupt: lose uncommitted steps, pay a restart.
            t = next_fail + 600.0; // 10 min reboot + requeue
            steps_since_ckpt = 0;
            rollbacks += 1;
            fi += 1;
            continue;
        }
        t += step.as_secs_f64();
        steps_since_ckpt += 1;
        if steps_since_ckpt >= steps_per_checkpoint {
            t += write_s;
            committed_steps += steps_since_ckpt;
            steps_since_ckpt = 0;
        }
    }
    let science_s = steps_total as f64 * step.as_secs_f64();
    println!(
        "\ncampaign finished in {:.1} h wall ({:.1} h of science): {:.1}% efficiency, \
         {} rollbacks",
        t / 3600.0,
        science_s / 3600.0,
        100.0 * science_s / t,
        rollbacks
    );
    println!("Daly-model prediction was {:.1}%", plan.efficiency * 100.0);

    // And the FOM the paper would report for this campaign:
    println!(
        "\nFOM (N^3/t_step): {:.3e} grid-point updates/s ({:.2}x the Summit baseline)",
        run.fom(),
        run.speedup_vs_summit()
    );
}
