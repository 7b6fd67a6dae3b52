//! Domain scenario: taming a bursty production trace with trajectory
//! filtering (§IV-C of the paper).
//!
//! The PIK-IPLEX-2009-alike workload is calm most of the time but has
//! arrival bursts that overload the machine by an order of magnitude.
//! Randomly sampled training sequences are therefore either "easy"
//! (nothing to learn) or "hard" (destroy what was learned). This example
//! fits the SJF-metric distribution, shows the paper's Fig 7 statistics,
//! and trains with the two-phase filter schedule.
//!
//! ```text
//! cargo run --release --example bursty_trace_filtering
//! ```

use rlsched_repro::core::prelude::*;
use rlsched_repro::workload::NamedWorkload;

fn main() {
    let trace = NamedWorkload::PikIplex.generate(2500, 3);

    // 1. Fit the filter: schedule sampled 128-job sequences with SJF and
    //    look at the metric distribution (Fig 7).
    let filter = TrajectoryFilter::fit(
        &trace,
        128,
        120,
        MetricKind::BoundedSlowdown,
        SimConfig::default(),
        17,
    );
    let (lo, hi) = filter.range();
    println!("SJF bsld over 120 sampled sequences:");
    println!(
        "  median       {:>10.2}   <- 'easy' sequences below this teach nothing",
        filter.median()
    );
    println!(
        "  mean         {:>10.2}   <- dragged up by rare catastrophic sequences",
        filter.mean()
    );
    println!("  range R      ({lo:.2}, {hi:.2})");
    println!("  acceptance   {:>9.0}%", filter.acceptance_rate() * 100.0);

    // 2. Train with the two-phase schedule: phase 1 samples only sequences
    //    whose SJF metric falls inside R; phase 2 opens up.
    let mut cfg = AgentConfig::paper_default();
    cfg.obs.max_obsv = 32;
    cfg.ppo.train_pi_iters = 12;
    cfg.ppo.train_v_iters = 12;
    cfg.ppo.minibatch = Some(512);
    let mut agent = Agent::new(cfg);
    let train_cfg = TrainConfig {
        epochs: 9,
        trajectories_per_epoch: 10,
        seq_len: 128,
        sim: SimConfig::default(),
        filter: FilterMode::two_phase(6, 120),
        seed: 23,
        n_envs: 8,
    };
    println!("\ntraining with two-phase trajectory filtering:");
    let curve = train(&mut agent, &trace, &train_cfg);
    for e in &curve {
        println!(
            "  epoch {:>2} [{}] mean bsld {:>12.2}",
            e.epoch,
            if e.filtered { "filtered" } else { "  open  " },
            e.mean_metric
        );
    }

    // 3. The filtered epochs see controlled variance; the open phase then
    //    exposes the full distribution to an already-converged agent.
    let filtered_max = curve
        .iter()
        .filter(|e| e.filtered)
        .map(|e| e.mean_metric)
        .fold(0.0, f64::max);
    println!(
        "\nmax per-epoch mean bsld during the filtered phase: {filtered_max:.2} \
         (the filter caps sequence difficulty at {hi:.2})"
    );
}
