//! `table1-trial`: whole `table1-digits` lab trials.
//!
//! Untraced, the run times `fuiov_lab::run_trial` end to end, one trial
//! after another, each on its own seed. Traced, it drives the same trial
//! phase by phase through the public facade — training with per-round
//! callbacks and timed clients, backtrack, our recovery, each baseline,
//! the scoring — and must reproduce `run_trial`'s digests and accuracies
//! for that plan bit for bit.

use crate::calib::{scaled, Reference};
use crate::gen;
use crate::layers::{
    attach_calls, client_rounds, core_metrics, drain, fl_metrics, read_pass, replay_spans,
    traced_train, CallLog, TimedClient,
};
use crate::report::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::stats::median;
use crate::trace::{now_ns, Trace};
use fuiov_attacks::reconstruction_error;
use fuiov_baselines::{fedrecover, fedrecovery, retrain, FedRecoverConfig, FedRecoveryConfig};
use fuiov_bench::experiments::ours_config;
use fuiov_bench::Scenario;
use fuiov_core::{backtrack_set, membership_advantage, ClientPoolOracle, NoOracle, Unlearner};
use fuiov_fl::Client;
use fuiov_lab::runner::scenario_of;
use fuiov_lab::{run_trial, TrialPlan, TrialReport};
use fuiov_testkit::digest_params;
use std::collections::BTreeMap;
use std::time::Instant;

/// Lab phases in trial order; each is reported as `lab.<phase>_s` and
/// `lab.<phase>_share`.
pub const PHASES: [&str; 9] = [
    "train",
    "backtrack",
    "ours",
    "fedrecover",
    "fedrecovery",
    "retrain",
    "eval_acc",
    "eval_mia",
    "eval_recon",
];

/// One warm-up trial of the set-up. Returns its wall time and its time
/// scaled to the reference speed, in seconds.
fn setup_once(reference: &mut Reference, plan: &TrialPlan) -> (f64, f64) {
    let (_, ms, speed) = reference.timed(5, || std::hint::black_box(run_trial(plan)));
    (ms / 1e3, scaled(ms, speed) / 1e3)
}

/// Output checks on one `run_trial` report, as `(name, passed)`.
fn check_report(r: &TrialReport) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    for m in [
        "original",
        "unlearned",
        "retraining",
        "fedrecover",
        "fedrecovery",
        "ours",
    ] {
        let acc = r.metrics.get(&format!("acc.{m}")).copied();
        checks.push((
            format!("acc.{m} in [0,1]"),
            acc.is_some_and(|a| (0.0..=1.0).contains(&a)),
        ));
        checks.push((
            format!("digest {m}"),
            r.digests.get(m).is_some_and(|d| d.len() == 16),
        ));
    }
    let replayed = r.metrics.get("replay.rounds").copied();
    let expected = (gen::TABLE1_ROUNDS - Scenario::digits(0).forgotten_join_round) as f64;
    checks.push(("replay.rounds = T - F".into(), replayed == Some(expected)));
    checks.push((
        "mia.ours in [-1,1]".into(),
        r.metrics
            .get("mia.ours")
            .is_some_and(|a| (-1.0..=1.0).contains(a)),
    ));
    // Recovery moves the model off the backtrack point.
    checks.push((
        "ours != unlearned".into(),
        r.digests.get("ours") != r.digests.get("unlearned"),
    ));
    checks
}

/// The untraced run: `seconds` of trials, each set up by a warm-up trial.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::default();
    // Four warm-ups up front, then one before every measured trial, so
    // the set-up samples span the whole run rather than its first moment.
    let mut setups: Vec<(f64, f64)> = (0..4)
        .map(|k| setup_once(&mut reference, &gen::warmup_plan(seed, k)))
        .collect();
    let (mut walls, mut trial_s, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        setups.push(setup_once(&mut reference, &gen::warmup_plan(seed, 4 + k)));
        let plan = gen::table1_plan(seed, k);
        reset_peak_rss();
        let (report, ms, speed) = reference.timed(5, || run_trial(&plan));
        walls.push(ms / 1e3);
        trial_s.push(scaled(ms, speed) / 1e3);
        rss.extend(peak_rss_mb());
        out.attempted += 1;
        for (name, ok) in check_report(&report) {
            out.check(&format!("trial {k}: {name}"), ok);
        }
        k += 1;
    }
    let (setup_wall, setup_scaled): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
    out.metric("setup_s", median(&setup_scaled).expect("≥ 5 set-ups"));
    out.metric("op_ms_p50", median(&trial_s).expect("≥ 1 trial") * 1e3);
    out.metric(
        "ops_per_s",
        trial_s.len() as f64 / trial_s.iter().sum::<f64>(),
    );
    out.peak_rss(&rss);
    out.record_samples("trial_s", &walls);
    out.record_samples("setup_s", &setup_wall);
    let wall_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let wall_ops = walls.len() as f64 / walls.iter().sum::<f64>();
    out.record_wall(&wall_ms, wall_ops, &setup_wall, &reference);
    out
}

/// The traced run: one trial driven phase by phase, `run_trial` on the
/// same plan for the bitwise check and the trace overhead, and the
/// training phase again at one worker thread.
pub fn run_traced(seed: u64, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let plan = gen::table1_plan(seed, 0);
    let sc = scenario_of(&plan);
    let log: CallLog = CallLog::default();
    let threads = fuiov_tensor::pool::threads();

    let trial_start = now_ns();
    let root = trace.begin("lab.trial");
    let (mut trained, rounds) =
        trace.span("lab.train", |t| traced_train(t, &sc, sc.schedule(), &log));
    let forgotten = sc.forgotten_id();
    let history = &trained.history;
    let mut params: BTreeMap<&str, Vec<f32>> = BTreeMap::new();
    params.insert("original", trained.final_params.clone());

    let bt = trace.span("lab.backtrack", |t| {
        t.span("core.backtrack_set", |_| {
            backtrack_set(history, &[forgotten])
        })
    });
    out.attempted += 1;
    match bt {
        Ok(bt) => {
            params.insert("unlearned", bt.params);
        }
        Err(e) => out.fail(&format!("backtrack: {e}")),
    }

    let cfg = ours_config(history, sc.lr);
    let core_start = fuiov_obs::Snapshot::capture();
    let mut init_ms = Vec::new();
    let ours = trace.span("lab.ours", |t| {
        let call = t.begin("core.forget_and_recover");
        let mut marks = vec![now_ns()];
        let r = Unlearner::new(history, cfg).forget_and_recover_with(
            forgotten,
            &mut NoOracle,
            |_, _| marks.push(now_ns()),
        );
        t.end(call);
        init_ms.extend(replay_spans(t, call, &marks));
        r
    });
    out.attempted += 1;
    match ours {
        Ok(o) => {
            let cr = client_rounds(history, &o.clients, o.start_round, o.end_round);
            out.core_counters(&core_start, cr, o.estimator_fallbacks);
            params.insert("ours", o.params);
        }
        Err(e) => out.fail(&format!("ours: {e}")),
    }

    let fr = trace.span("lab.fedrecover", |t| {
        let cfg = FedRecoverConfig::new(sc.lr);
        let refs: Vec<&mut Box<dyn Client>> = trained
            .clients
            .iter_mut()
            .filter(|c| c.id() != forgotten)
            .collect();
        let mut oracle = ClientPoolOracle::new(refs);
        let id = t.begin("baselines.fedrecover");
        let r = fedrecover(
            &trained.history,
            &trained.full_store,
            forgotten,
            &cfg,
            &mut oracle,
        );
        t.end(id);
        attach_calls(t, &drain(&log), &[], Some(id));
        r
    });
    out.attempted += 1;
    match fr {
        Ok(o) => {
            params.insert("fedrecover", o.params);
        }
        Err(e) => out.fail(&format!("fedrecover: {e}")),
    }
    let history = &trained.history;

    let fry = trace.span("lab.fedrecovery", |t| {
        let cfg = FedRecoveryConfig::new(sc.lr).noise_sigma(1e-3);
        t.span("baselines.fedrecovery", |_| {
            fedrecovery(history, &trained.full_store, forgotten, &cfg, sc.seed)
        })
    });
    out.attempted += 1;
    match fry {
        Ok(o) => {
            params.insert("fedrecovery", o.params);
        }
        Err(e) => out.fail(&format!("fedrecovery: {e}")),
    }

    let retrained = trace.span("lab.retrain", |t| {
        let init = trained.spec.build(sc.seed.wrapping_add(1)).params();
        let mut clients = TimedClient::wrap_all(sc.build_clients(), &log);
        let id = t.begin("baselines.retrain");
        let p = retrain(
            init,
            sc.fl_config(),
            &mut clients,
            &trained.schedule,
            forgotten,
        );
        t.end(id);
        attach_calls(t, &drain(&log), &[], Some(id));
        p
    });
    params.insert("retraining", retrained);

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    trace.span("lab.eval_acc", |t| {
        for m in &plan.methods {
            if let Some(p) = params.get(m.name()) {
                let acc = t.span("eval.accuracy", |_| trained.accuracy_of(p));
                metrics.insert(format!("acc.{}", m.name()), f64::from(acc));
            }
        }
        t.span("eval.sign_agreement", |_| {
            std::hint::black_box(fuiov_eval::sign_agreement_curve(&trained.history))
        });
    });
    if let Some(p) = params.get("ours") {
        let mia = trace.span("lab.eval_mia", |t| {
            let member = sc.client_shard(forgotten);
            let mut model = trained.spec.build(0);
            t.span("eval.mia", |_| {
                membership_advantage(&mut model, p, &member, &trained.test)
            })
        });
        metrics.insert("mia.ours".into(), f64::from(mia));
        let recon = trace.span("lab.eval_recon", |t| {
            t.span("attacks.reconstruction_error", |_| {
                reconstruction_error(&trained.history, forgotten, &trained.final_params, p)
            })
        });
        if let Some(r) = recon {
            metrics.insert("recon.ours".into(), f64::from(r));
        }
    }
    trace.end(root);
    let trial_s = (now_ns() - trial_start) as f64 / 1e9;

    // The same plan through the lab runner, untraced.
    let t = Instant::now();
    let report = run_trial(&plan);
    let run_trial_s = t.elapsed().as_secs_f64();
    out.attempted += 1;
    for (name, ok) in check_report(&report) {
        out.check(&format!("run_trial: {name}"), ok);
    }
    let mut digests: BTreeMap<String, String> = params
        .iter()
        .map(|(m, p)| (m.to_string(), format!("{:016x}", digest_params(p))))
        .collect();
    digests.insert(
        "final".into(),
        format!("{:016x}", digest_params(&trained.final_params)),
    );
    out.check(
        "phase drive reproduces run_trial digests bitwise",
        digests == report.digests,
    );
    for (k, v) in &metrics {
        out.check(
            &format!("phase drive reproduces {k}"),
            report.metrics.get(k) == Some(v),
        );
    }

    // Lab phases beside the trial wall.
    let phase_s: Vec<f64> = PHASES
        .iter()
        .map(|p| trace.total(&format!("lab.{p}")) as f64 / 1e9)
        .collect();
    let sum: f64 = phase_s.iter().sum();
    for (p, s) in PHASES.iter().zip(&phase_s) {
        out.metric(&format!("lab.{p}_s"), *s);
        out.metric(&format!("lab.{p}_share"), s / sum);
    }
    out.metric("lab.phase_sum_s", sum);
    out.metric("lab.trial_s", trial_s);
    out.metric("lab.run_trial_s", run_trial_s);
    out.metric(
        "obs.trace_overhead_pct",
        (trial_s / run_trial_s - 1.0) * 100.0,
    );
    out.metric("acc.ours", metrics.get("acc.ours").copied().unwrap_or(0.0));
    out.metric(
        "acc.retraining",
        metrics.get("acc.retraining").copied().unwrap_or(0.0),
    );

    // fl: the training rounds of the trial.
    fl_metrics(&mut out, trace, &rounds, threads);
    let train_2 = trace.total("lab.train") as f64;

    // The single-worker baseline: the training phase again at one thread.
    fuiov_tensor::pool::set_threads(1);
    let mut solo = Trace::default();
    let t1 = Instant::now();
    let (solo_trained, _) = traced_train(&mut solo, &sc, sc.schedule(), &log);
    let train_1 = t1.elapsed().as_nanos() as f64;
    fuiov_tensor::pool::set_threads(0);
    drain(&log);
    out.check(
        "training at one thread is bitwise identical",
        digest_params(&solo_trained.final_params) == digest_params(&trained.final_params),
    );
    out.metric("fl.thread_scaling", train_1 / train_2);
    out.record("fl.train_wall_1thread_s", train_1 / 1e9);
    out.record("fl.train_wall_s", train_2 / 1e9);

    // core: the recovery inside the trial.
    core_metrics(&mut out, trace, &init_ms);

    // storage: a read pass over the replayed window F..T.
    let f = sc.forgotten_join_round;
    let (ms, failed) = read_pass(trace, &trained.history, f, gen::TABLE1_ROUNDS);
    out.metric("storage.round_view_ms_p50", median(&ms).unwrap_or(0.0));
    out.attempted += ms.len() as u64;
    out.failed += failed;
    out.storage_metrics(&trained.history);
    out
}
