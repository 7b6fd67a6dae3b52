//! Allocation-regression tests: the zero-allocation fast paths are load
//! bearing (they are the PR-over-PR performance story), so pin them with
//! hard bounds from the same counting allocator the benches report with.
//!
//! Everything runs inside ONE test: the counter is process-global, so
//! concurrent tests would inflate each other's measurements.

use rlsched_bench::alloc::count_allocs;
use rlsched_rl::{
    collect_rollouts_vec, ActorScratch, Env, MaskedCategorical, PolicyModel, PpoConfig, ValueModel,
    VecEnv,
};
use rlsched_serve::{ScorerSlot, ShardEngine};
use rlsched_sim::{MetricKind, QueueView, SimConfig, WaitingJob};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

const SEQ_LEN: usize = 48;

fn agent() -> Agent {
    Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 16,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig {
            train_pi_iters: 3,
            train_v_iters: 3,
            minibatch: Some(256),
            ..PpoConfig::default()
        },
        seed: 5,
    })
}

fn env_for(agent: &Agent, sim: SimConfig) -> SchedulingEnv {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(512, 3));
    SchedulingEnv::new(trace, SEQ_LEN, sim, *agent.encoder(), agent.objective())
}

/// Drive one full episode with a head-of-queue policy (manual
/// single-env driving: clear the append-contract buffers per call).
fn run_episode(env: &mut SchedulingEnv, seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
    obs.clear();
    mask.clear();
    env.reset(seed, obs, mask);
    loop {
        obs.clear();
        mask.clear();
        if env.step(0, obs, mask).done {
            break;
        }
    }
}

/// Warm an env, then count allocations across every non-terminal step of
/// a fresh episode (the terminal step computes the episode metrics and
/// may allocate the outcome table — that is reset-scale work, not
/// stepping).
fn steady_state_step_allocs(
    env: &mut SchedulingEnv,
    obs: &mut Vec<f32>,
    mask: &mut Vec<f32>,
) -> (u64, u64) {
    run_episode(env, 1, obs, mask);
    run_episode(env, 2, obs, mask);
    obs.clear();
    mask.clear();
    env.reset(3, obs, mask);
    let mut steps = 0u64;
    let mut allocs = 0u64;
    loop {
        let mut done = false;
        let step_allocs = count_allocs(|| {
            obs.clear();
            mask.clear();
            done = env.step(0, obs, mask).done
        });
        if done {
            break;
        }
        allocs += step_allocs;
        steps += 1;
    }
    (steps, allocs)
}

#[test]
fn fast_paths_do_not_regress_allocations() {
    let mut agent = agent();
    let (mut obs, mut mask) = (Vec::new(), Vec::new());

    // ---- env stepping: 0 heap allocations per step at steady state ----
    let mut env = env_for(&agent, SimConfig::default());
    let (steps, step_allocs) = steady_state_step_allocs(&mut env, &mut obs, &mut mask);
    assert!(steps >= 40, "episode long enough to be a real measurement");
    assert_eq!(
        step_allocs, 0,
        "env.step must not allocate at steady state ({step_allocs} allocations over {steps} steps)"
    );

    // Same property with EASY backfilling (exercises the reservation /
    // shadow-time path and its reusable release buffer).
    let mut bf_env = env_for(&agent, SimConfig::with_backfill());
    let (_, bf_allocs) = steady_state_step_allocs(&mut bf_env, &mut obs, &mut mask);
    assert_eq!(bf_allocs, 0, "backfilling env.step must not allocate");

    // ---- streaming replay tick: 0 heap allocations at steady state.
    // The one-pass StreamSession exists to make multi-million-job
    // replays cheap, so its hot loop (streaming heuristic selection +
    // step: admission, indexed-calendar ops, backfill, metric folding)
    // must not touch the heap once the slab, calendar, running heap and
    // per-user table have warmed to their high-water marks. The job
    // source is a formula (no per-job state), arrivals are paced just
    // under the cluster's capacity so the queue depth is stationary. ----
    {
        use rlsched_sched::select_streaming;
        use rlsched_sim::StreamSession;
        let source = (0..10_000u32).map(|i| {
            rlsched_swf::Job::new(
                i + 1,
                i as f64 * 5.0,
                10.0 + (i as f64 * 37.0) % 100.0,
                1 + (i % 4),
                20.0 + (i as f64 * 53.0) % 150.0,
            )
            .with_user(i % 8)
        });
        let mut s = StreamSession::new(source, 32, SimConfig::with_backfill())
            .expect("synthetic stream is schedulable");
        // Warm: most of the episode, growing every buffer to its
        // high-water mark.
        while !s.done() && s.started_count() < 9_000 {
            let pos = select_streaming(rlsched_sched::HeuristicKind::Sjf, s.waiting())
                .expect("decision point has waiting jobs");
            s.step(pos).expect("synthetic stream replays cleanly");
        }
        let mut replay_ticks = 0u64;
        let mut replay_allocs = 0u64;
        while !s.done() && replay_ticks < 400 {
            replay_allocs += count_allocs(|| {
                let pos = select_streaming(rlsched_sched::HeuristicKind::Sjf, s.waiting())
                    .expect("decision point has waiting jobs");
                s.step(pos).expect("synthetic stream replays cleanly");
            });
            replay_ticks += 1;
        }
        assert!(
            replay_ticks >= 100,
            "enough replay ticks to be a real measurement ({replay_ticks})"
        );
        assert_eq!(
            replay_allocs, 0,
            "streaming replay tick must not allocate at steady state \
             ({replay_allocs} allocations over {replay_ticks} ticks)"
        );
    }

    // ---- greedy decision fast path: 0 allocations ----
    obs.clear();
    mask.clear();
    env.reset(4, &mut obs, &mut mask);
    let mut scratch = ActorScratch::new();
    let _ = agent.ppo().greedy_with(&obs, &mask, &mut scratch);
    let greedy_allocs = count_allocs(|| agent.ppo().greedy_with(&obs, &mask, &mut scratch));
    assert_eq!(greedy_allocs, 0, "greedy fast path must not allocate");

    // ---- PPO update, fused chunk backend: ZERO allocations at steady
    // state on the inline (1-worker) path. The first call warms the
    // minibatch gather buffers, the per-chunk activation stashes and the
    // Adam moment state; every later update must not touch the heap at
    // all — per-chunk scratches, the stitched diagnostics and the
    // tree-merge all reuse persistent buffers. Worker spawns allocate
    // per fan-out by design, so the pin runs under `with_threads(1)`:
    // the bound isolates the update's own buffer discipline from thread
    // bring-up. Under RLSCHED_FORCE_TAPE the dispatching update runs the
    // tape backend, whose bound is the tape pin below. ----
    let mut envs: Vec<SchedulingEnv> = (0..4).map(|_| env.clone()).collect();
    let seeds: Vec<u64> = (0..4).collect();
    let mut collect = |agent: &Agent| {
        let mut venv: VecEnv<&mut SchedulingEnv> = VecEnv::new(envs.iter_mut().collect());
        collect_rollouts_vec(agent.ppo(), &mut venv, &seeds)
    };
    let (batch, _stats) = collect(&agent);
    assert!(
        agent.ppo().fused_supported(),
        "kernel policy is fused-eligible"
    );
    let _ = rayon::with_threads(1, || agent.ppo_mut().update(&batch)); // warm-up
    let update_allocs = count_allocs(|| {
        rayon::with_threads(1, || {
            agent.ppo_mut().update(&batch);
        });
    });
    let tape_forced =
        std::env::var_os("RLSCHED_FORCE_TAPE").is_some_and(|v| !v.is_empty() && v != "0");
    if !tape_forced {
        assert_eq!(
            update_allocs, 0,
            "Ppo::update must not allocate at steady state on the inline \
             path ({update_allocs} allocations after warm-up)"
        );
    }

    // ---- PPO update, tape backend: bounded by the measured baseline ----
    let _ = agent.ppo_mut().update_tape(&batch); // warm graph pools + optimizer state
    let update_allocs = count_allocs(|| agent.ppo_mut().update_tape(&batch));
    // Measured baseline for this configuration (3+3 iterations,
    // minibatch 256 = 4 chunk graphs per iteration) is ~140 allocations —
    // per-chunk op metadata (`SelectCols` index vectors) and tape-pool
    // misses. The bound leaves headroom for noise; a real regression
    // (e.g. losing the graph buffer pool) is an order of magnitude.
    assert!(
        update_allocs <= 300,
        "Ppo::update allocations regressed: {update_allocs} > 300"
    );

    // ---- rollout collection: with the per-step terms gone, a whole
    // 4-episode round must fit a small per-episode budget. The lockstep
    // VecEnv path replaced the per-env thread fan-out, so the bound
    // tightens from the historical 600 (measured ~561 on the old path)
    // to 400: what remains is per-episode arena growth plus the
    // one-time lockstep scratch, not per-step or per-thread work. ----
    let rollout_allocs = count_allocs(|| collect(&agent));
    assert!(
        rollout_allocs <= 400,
        "collect_rollouts_vec allocations regressed: {rollout_allocs} > 400 \
         (per-step allocations must stay out of the lockstep loop)"
    );

    // ---- lockstep tick: VecEnv::step_all + batched actor/critic scoring
    // + per-row sampling must be allocation-free at steady state. All
    // episodes share one seq_len, so every slot finishes on the same
    // tick; measuring seq_len - 1 ticks from a fresh schedule stays clear
    // of the terminal/metrics work and any auto-reset. ----
    let mut venv = VecEnv::new((0..8).map(|_| env.clone()).collect::<Vec<_>>());
    let vec_seeds: Vec<u64> = (100..108).collect();
    let na = venv.n_actions();
    let mut scratch = ActorScratch::new();
    let (mut vobs, mut vmasks) = (Vec::new(), Vec::new());
    let (mut logps, mut values) = (Vec::new(), Vec::new());
    let mut actions: Vec<usize> = Vec::new();
    let mut outcomes = Vec::new();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(17)
    };
    let tick = |venv: &mut VecEnv<SchedulingEnv>,
                vobs: &mut Vec<f32>,
                vmasks: &mut Vec<f32>,
                scratch: &mut ActorScratch,
                logps: &mut Vec<f32>,
                values: &mut Vec<f64>,
                actions: &mut Vec<usize>,
                outcomes: &mut Vec<rlsched_rl::SlotOutcome>,
                rng: &mut rand::rngs::StdRng| {
        let rows = venv.live_count();
        agent
            .ppo()
            .policy
            .log_probs_fast_batch(vobs, vmasks, rows, &mut scratch.nn, logps);
        agent
            .ppo()
            .value
            .value_fast_batch(vobs, rows, &mut scratch.nn, values);
        actions.clear();
        for r in 0..rows {
            let dist = MaskedCategorical::new(&logps[r * na..(r + 1) * na]);
            actions.push(dist.sample(rng));
        }
        venv.step_all(actions, vobs, vmasks, outcomes);
    };
    // Warm a full round over MORE seeds than slots (grows every buffer
    // to its high-water mark and exercises the auto-reset path, which
    // legitimately allocates reset-scale state), then restart with a
    // seeds == slots schedule so the measured window contains no
    // auto-reset: the measurement pins the steady-state tick only.
    let warm_seeds: Vec<u64> = (200..212).collect();
    venv.reset_all(&warm_seeds, &mut vobs, &mut vmasks);
    while !venv.is_done() {
        tick(
            &mut venv,
            &mut vobs,
            &mut vmasks,
            &mut scratch,
            &mut logps,
            &mut values,
            &mut actions,
            &mut outcomes,
            &mut rng,
        );
    }
    venv.reset_all(&vec_seeds, &mut vobs, &mut vmasks);
    let mut tick_allocs = 0u64;
    let mut ticks = 0u64;
    for _ in 0..SEQ_LEN - 1 {
        tick_allocs += count_allocs(|| {
            tick(
                &mut venv,
                &mut vobs,
                &mut vmasks,
                &mut scratch,
                &mut logps,
                &mut values,
                &mut actions,
                &mut outcomes,
                &mut rng,
            )
        });
        ticks += 1;
    }
    assert!(
        ticks >= 40,
        "enough lockstep ticks to be a real measurement"
    );
    assert_eq!(
        tick_allocs, 0,
        "VecEnv::step_all + batched scoring must not allocate at steady \
         state ({tick_allocs} allocations over {ticks} ticks of 8 envs)"
    );

    // ---- Agent::score_batch convenience path: with the thread-local
    // scratch, the only steady-state heap traffic is the returned Vec
    // itself (exactly one allocation per call). ----
    let jobs: Vec<rlsched_swf::Job> = (0..8)
        .map(|i| rlsched_swf::Job::new(i + 1, i as f64 * 10.0, 60.0 + i as f64, 1 + (i % 3), 600.0))
        .collect();
    let make_view = |lo: usize, hi: usize| QueueView {
        time: 200.0,
        free_procs: 3,
        total_procs: 8,
        waiting: jobs[lo..hi]
            .iter()
            .enumerate()
            .map(|(i, job)| WaitingJob {
                job,
                job_index: lo + i,
                wait: 200.0 - job.submit_time,
                can_run_now: job.procs() <= 3,
            })
            .collect(),
    };
    let views = [make_view(0, 3), make_view(2, 7), make_view(4, 8)];
    let _ = agent.score_batch(&views); // warm the thread-local buffers
    let batch_allocs = count_allocs(|| {
        std::hint::black_box(agent.score_batch(&views));
    });
    assert_eq!(
        batch_allocs, 1,
        "score_batch must only allocate its result Vec at steady state \
         ({batch_allocs} allocations)"
    );

    // ---- serving: a ShardEngine push+flush cycle (coalesce, one
    // batched forward, clamp) is allocation-free at steady state — the
    // same discipline as the infer/fused fast paths, now holding for
    // the serve tier's hot loop (hot-swap generation check included).
    // ----
    let slot = ScorerSlot::new(agent.scorer_snapshot());
    let mut engine = ShardEngine::new(slot, 8);
    let (mut row_obs, mut row_mask) = (Vec::new(), Vec::new());
    obs.clear();
    mask.clear();
    env.reset(5, &mut obs, &mut mask);
    row_obs.extend_from_slice(&obs);
    row_mask.extend_from_slice(&mask);
    for _ in 0..2 {
        for _ in 0..8 {
            engine.push_row(&row_obs, &row_mask, 3);
        }
        let _ = engine.flush(); // warm the stacked matrices + scratch
    }
    let engine_allocs = count_allocs(|| {
        for _ in 0..8 {
            engine.push_row(&row_obs, &row_mask, 3);
        }
        std::hint::black_box(engine.flush().len());
    });
    assert_eq!(
        engine_allocs, 0,
        "ShardEngine push+flush must not allocate at steady state \
         ({engine_allocs} allocations for an 8-row batch)"
    );

    // ---- telemetry recording: the whole point of rlsched-obs is that
    // instrumentation rides the hot paths for free, so every recording
    // primitive — counter inc, gauge set/set_max, striped histogram
    // record, and a *disabled* span guard — is pinned to exactly 0
    // allocations, and an *instrumented* ShardEngine keeps the
    // zero-allocation cycle pinned above. Registration allocates
    // (registry map entry); that happens once, outside the window. ----
    {
        use rlsched_obs::Registry;
        use rlsched_serve::EngineMetrics;
        let reg = Registry::new();
        let counter = reg.counter("alloc_pin_total", &[("k", "v")]);
        let gauge = reg.gauge("alloc_pin_depth", &[]);
        let ohist = reg.histogram("alloc_pin_ns", &[]);
        // Warm: first record on this thread claims its histogram
        // stripe, and the first span performs the process-wide one-time
        // init (the cached RLSCHED_TRACE read; plus, when tracing is
        // enabled, the preallocated trace ring). After that a span is
        // allocation-free on BOTH arms: disabled it never touches the
        // ring, enabled it writes a fixed-size record into preallocated
        // slots — so the 0-alloc pin below holds under RLSCHED_TRACE=1
        // too (CI runs that arm).
        counter.inc();
        gauge.set(1.0);
        ohist.record_value(500);
        {
            rlsched_obs::span!("alloc.warm");
        }
        let record_allocs = count_allocs(|| {
            for i in 0..64u64 {
                counter.inc();
                counter.add(3);
                gauge.set(i as f64);
                gauge.set_max(i as f64 * 2.0);
                ohist.record_value(1 + i * 997);
                rlsched_obs::span!("alloc.pin");
            }
        });
        assert_eq!(
            record_allocs, 0,
            "obs recording primitives must not allocate \
             ({record_allocs} allocations over 64 rounds)"
        );

        // Instrumented engine: same cycle as the pin above, now with
        // registry handles attached — still allocation-free.
        engine.instrument(EngineMetrics {
            rows: reg.counter("alloc_pin_rows_total", &[]),
            batches: reg.counter("alloc_pin_batches_total", &[]),
            batch_rows: reg.histogram("alloc_pin_batch_rows", &[]),
            batch_max: reg.gauge("alloc_pin_batch_max", &[]),
        });
        for _ in 0..8 {
            engine.push_row(&row_obs, &row_mask, 3);
        }
        let _ = engine.flush(); // warm the metric handles
        let inst_allocs = count_allocs(|| {
            for _ in 0..8 {
                engine.push_row(&row_obs, &row_mask, 3);
            }
            std::hint::black_box(engine.flush().len());
        });
        assert_eq!(
            inst_allocs, 0,
            "instrumented ShardEngine push+flush must not allocate at \
             steady state ({inst_allocs} allocations for an 8-row batch)"
        );
    }

    // ---- binary wire codec: a ScoreRaw encode + decode round trip is
    // allocation-free at steady state. The client encodes straight from
    // its borrowed observation slices into a reused wire buffer; the
    // reader decodes into a reused frame buffer and a reused Request
    // whose vectors have warmed to the row size. This is the whole
    // point of the binary format — no intermediate String, no
    // serde_json Value, no per-float parse — so pin it to exactly 0.
    // (Pure codec: no sockets or threads inside the counted window.)
    // ----
    {
        use rlsched_serve::protocol::{encode_score_raw_frame, read_frame_any_into};
        use rlsched_serve::{Request, WireFrame};
        let row_f32: Vec<f32> = obs.clone();
        let mask_f32: Vec<f32> = mask.clone();
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        let mut text_line = String::new();
        let mut decoded = Request::scratch();
        let cycle = |wire: &mut Vec<u8>,
                     payload: &mut Vec<u8>,
                     text_line: &mut String,
                     decoded: &mut Request| {
            encode_score_raw_frame(wire, 7, &row_f32, &mask_f32, 3);
            let mut reader = &wire[..];
            read_frame_any_into(&mut reader, payload, text_line, decoded)
                .expect("well-formed frame")
                .expect("frame present");
        };
        // Warm: grows the wire buffer, the payload buffer and the
        // decoded request's obs/mask vectors to this row shape.
        cycle(&mut wire, &mut payload, &mut text_line, &mut decoded);
        let codec_allocs = count_allocs(|| {
            for _ in 0..16 {
                cycle(&mut wire, &mut payload, &mut text_line, &mut decoded);
            }
        });
        assert_eq!(
            codec_allocs, 0,
            "binary ScoreRaw encode+decode must not allocate at steady \
             state ({codec_allocs} allocations over 16 round trips)"
        );
        match &decoded {
            Request::ScoreRaw {
                obs: got_obs,
                mask: got_mask,
                ..
            } => {
                assert_eq!(got_obs.len(), row_f32.len());
                assert_eq!(got_mask.len(), mask_f32.len());
            }
            other => panic!("wrong variant decoded: {other:?}"),
        }
    }

    // ---- degraded-mode hot path: when a shard is down, every request
    // still crosses the heuristic fallback decision and the per-request
    // health accounting (histogram record). A tier surviving a failure
    // storm must not trade the model's zero-allocation discipline for a
    // malloc-per-request fallback. ----
    use rlsched_sched::{select_parts, HeuristicKind};
    use rlsched_serve::LatencyHistogram;
    let parts: Vec<(f64, f64, u32)> = (0..16)
        .map(|i| {
            (
                i as f64 * 37.0,
                600.0 + (i % 5) as f64 * 120.0,
                1 + (i as u32 % 4),
            )
        })
        .collect();
    let mut hist = LatencyHistogram::new(); // new() allocates; record() must not
    hist.record(std::time::Duration::from_micros(3));
    let fallback_allocs = count_allocs(|| {
        for kind in [
            HeuristicKind::Fcfs,
            HeuristicKind::Sjf,
            HeuristicKind::Wfp3,
            HeuristicKind::Unicep,
        ] {
            std::hint::black_box(select_parts(kind, parts.iter().copied()));
        }
        hist.record(std::time::Duration::from_micros(7));
        std::hint::black_box(hist.quantile_ns(0.99));
    });
    assert_eq!(
        fallback_allocs, 0,
        "fallback scoring + health accounting must not allocate \
         ({fallback_allocs} allocations)"
    );
}
