//! `forget-hot` and `forget-spill`: a stream of forget requests served
//! one at a time by `Unlearner` against trained digits federations.
//!
//! Set-up trains three federations from sub-seeds of the run's seed, and
//! the stream visits them in turn, so a run's latency averages over three
//! recoveries' data-dependent costs rather than resting on one.
//! `forget-hot` serves with the whole history resident; `forget-spill`
//! serves from a copy of the same history held under a resident budget of
//! two checkpoints, so every replay round streams from delta-coded spill
//! segments. Both must give the same recovered model for the same request
//! (tier invariance).

use crate::calib::{scaled, Reference};
use crate::gen;
use crate::layers::{
    client_rounds, core_metrics, fl_metrics, read_pass, replay_spans, traced_train, train, CallLog,
};
use crate::report::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::stats::{median, tail_percentile};
use crate::trace::{now_ns, Trace};
use fuiov_bench::experiments::ours_config;
use fuiov_bench::Trained;
use fuiov_core::{
    backtrack_set, recover_set, NoOracle, RecoveryConfig, RecoveryOutcome, UnlearnError, Unlearner,
};
use fuiov_storage::{ClientId, HistoryStore, Round};
use fuiov_testkit::digest_params;
use std::collections::BTreeMap;
use std::time::Instant;

/// Federations a run serves requests from.
const FEDERATIONS: u64 = 3;

/// A trained federation, the history its requests are served from, and
/// the recovery configuration calibrated on it.
struct Fed {
    trained: Trained,
    /// `None`: serve from `trained.history` (resident). `Some`: a copy
    /// under the spill budget.
    spilled: Option<HistoryStore>,
    cfg: RecoveryConfig,
}

impl Fed {
    fn new(trained: Trained, spill: bool) -> Fed {
        let spilled = spill.then(|| spill_copy(&trained.history));
        let history = spilled.as_ref().unwrap_or(&trained.history);
        let cfg = ours_config(history, trained.scenario.lr);
        Fed {
            trained,
            spilled,
            cfg,
        }
    }

    fn served(&self) -> &HistoryStore {
        self.spilled.as_ref().unwrap_or(&self.trained.history)
    }

    fn unlearner(&self) -> Unlearner<'_> {
        Unlearner::new(self.served(), self.cfg)
    }
}

/// Resident budget of `forget-spill`: two model checkpoints.
fn spill_budget(history: &HistoryStore) -> usize {
    2 * history.dim().expect("trained history has a dimension") * 4
}

fn spill_copy(history: &HistoryStore) -> HistoryStore {
    let mut h = history.clone();
    h.set_budget(Some(spill_budget(history)));
    h
}

/// Serves one request, untraced.
fn serve(u: &Unlearner<'_>, req: &[ClientId]) -> Result<RecoveryOutcome, UnlearnError> {
    match req {
        [c] => u.forget_and_recover(*c),
        set => u.forget_and_recover_set(set),
    }
}

/// The backtrack point of a request: the earliest join among its vehicles.
fn join_round(history: &HistoryStore, req: &[ClientId]) -> Option<Round> {
    req.iter().filter_map(|&c| history.join_round(c)).min()
}

/// Checks one outcome and returns its digest.
fn check_outcome(
    out: &mut Outcome,
    history: &HistoryStore,
    req: &[ClientId],
    o: &RecoveryOutcome,
) -> u64 {
    let expected = join_round(history, req).map(|f| gen::FORGET_ROUNDS - f);
    out.check(
        &format!("request {req:?}: replays T - F rounds"),
        Some(o.rounds_replayed) == expected,
    );
    out.check(
        &format!("request {req:?}: finite model"),
        o.params.iter().all(|p| p.is_finite()),
    );
    digest_params(&o.params)
}

/// Records `digest` for `req` and checks it against earlier results for
/// the same request (the stream repeats requests).
fn check_repeat(
    out: &mut Outcome,
    seen: &mut BTreeMap<Vec<ClientId>, u64>,
    req: &[ClientId],
    digest: u64,
) {
    let first = *seen.entry(req.to_vec()).or_insert(digest);
    if first != digest {
        out.check(
            &format!("request {req:?}: same digest on every repeat"),
            false,
        );
    }
}

/// `forget-spill` only: every served digest equals the resident
/// history's, and no spill record failed to decode.
fn check_tier_invariance(out: &mut Outcome, fed: &Fed, seen: &BTreeMap<Vec<ClientId>, u64>) {
    let Some(spilled) = &fed.spilled else {
        return;
    };
    let hot = Unlearner::new(&fed.trained.history, fed.cfg);
    for (req, &digest) in seen {
        let ok = serve(&hot, req).is_ok_and(|o| digest_params(&o.params) == digest);
        out.check(
            &format!("request {req:?}: spilled digest equals resident digest"),
            ok,
        );
    }
    // Each decode error is a failed read; the check itself adds none.
    let decode_errors = spilled.tier_stats().decode_errors as u64;
    out.failed += decode_errors;
    out.checks.push((
        "no spill record failed to decode".into(),
        decode_errors == 0,
    ));
}

/// The untraced run: set up three federations, then `seconds` of
/// requests, request `i` going to federation `i mod 3`.
pub fn run(seed: u64, seconds: f64, spill: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut feds, mut reference) = (Vec::new(), Reference::default());
    let (mut setup_wall, mut setup_s) = (Vec::new(), Vec::new());
    for k in 0..FEDERATIONS {
        let (fed, ms, ref_ms) = reference.timed(5, || {
            let sc = gen::forget_scenario(seed, k);
            let trained = train(&sc, gen::forget_schedule(), sc.build_clients(), |_, _| {});
            Fed::new(trained, spill)
        });
        feds.push(fed);
        setup_wall.push(ms / 1e3);
        setup_s.push(scaled(ms, ref_ms) / 1e3);
    }
    out.metric("setup_s", median(&setup_s).expect("3 set-ups"));
    let unlearners: Vec<Unlearner<'_>> = feds.iter().map(Fed::unlearner).collect();
    let requests = gen::forget_requests(seed, 20_000);

    let (mut lat, mut wall_ms, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen = vec![BTreeMap::new(); feds.len()];
    let start = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        if !lat.is_empty() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let f = i % feds.len();
        reset_peak_rss();
        let (r, ms, ref_ms) = reference.timed(1, || serve(&unlearners[f], req));
        wall_ms.push(ms);
        lat.push(scaled(ms, ref_ms));
        rss.extend(peak_rss_mb());
        out.attempted += 1;
        match r {
            Ok(o) => {
                let d = check_outcome(&mut out, feds[f].served(), req, &o);
                check_repeat(&mut out, &mut seen[f], req, d);
            }
            Err(e) => out.fail(&format!("request {req:?}: {e}")),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    out.metric("op_ms_p50", median(&lat).expect("≥ 1 request"));
    // Requests per second of scaled serving time.
    out.metric(
        "ops_per_s",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
    );
    out.peak_rss(&rss);
    out.record("requests", lat.len() as f64);
    out.record_samples("setup_s", &setup_wall);
    out.record_wall(&wall_ms, lat.len() as f64 / wall, &setup_wall, &reference);
    for (fed, seen) in feds.iter().zip(&seen) {
        check_tier_invariance(&mut out, fed, seen);
    }
    out
}

/// The traced run: set-up training traced, then `seconds` (and at least
/// 100) requests, each served untraced and then again traced (backtrack
/// span, replay rounds from the `on_round` callbacks) and scored.
pub fn run_traced(seed: u64, seconds: f64, spill: bool, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let sc = gen::forget_scenario(seed, 0);
    let log = CallLog::default();
    let (trained, rounds) = trace.span("lab.train", |t| {
        traced_train(t, &sc, gen::forget_schedule(), &log)
    });
    fl_metrics(&mut out, trace, &rounds, fuiov_tensor::pool::threads());
    out.metric("lab.train_s", trace.total("lab.train") as f64 / 1e9);
    let fed = Fed::new(trained, spill);
    let history = fed.served();
    let unlearner = fed.unlearner();
    let requests = gen::forget_requests(seed, 20_000);

    let core_start = fuiov_obs::Snapshot::capture();
    let (mut plain, mut traced, mut init) = (Vec::new(), Vec::new(), Vec::new());
    let mut accs: BTreeMap<Vec<ClientId>, f64> = BTreeMap::new();
    let (mut cr, mut fallbacks) = (0, 0);
    let mut seen = BTreeMap::new();
    let start = Instant::now();
    for req in &requests {
        // At least 100 requests, so that `forget.latency_ms_p90` has ten
        // samples beyond it.
        if plain.len() >= 100 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t = Instant::now();
        let a = serve(&unlearner, req);
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 2;

        let bt = trace.span("core.backtrack_set", |_| backtrack_set(history, req));
        if let Err(e) = bt {
            out.fail(&format!("backtrack {req:?}: {e}"));
        }
        let call = trace.begin("core.forget_and_recover");
        let mut marks = vec![now_ns()];
        let on_round = |_: Round, _: &[f32]| marks.push(now_ns());
        let b = match &req[..] {
            [c] => unlearner.forget_and_recover_with(*c, &mut NoOracle, on_round),
            set => recover_set(history, set, &fed.cfg, &mut NoOracle, on_round),
        };
        trace.end(call);
        traced.push(trace.spans()[call].dur() as f64 / 1e6);
        init.extend(replay_spans(trace, call, &marks));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let d = check_outcome(&mut out, history, req, &a);
                check_repeat(&mut out, &mut seen, req, d);
                out.check(
                    &format!("request {req:?}: traced digest equals untraced"),
                    digest_params(&b.params) == d,
                );
                for o in [&a, &b] {
                    cr += client_rounds(history, &o.clients, o.start_round, o.end_round);
                    fallbacks += o.estimator_fallbacks;
                }
                // Repeats are bitwise identical (checked above): score
                // each distinct request once.
                if !accs.contains_key(req) {
                    let acc = trace.span("eval.accuracy", |_| fed.trained.accuracy_of(&b.params));
                    accs.insert(req.clone(), f64::from(acc));
                }
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    out.fail(&format!("request {req:?}: {e}"));
                }
            }
        }
    }
    out.core_counters(&core_start, cr, fallbacks);
    check_tier_invariance(&mut out, &fed, &seen);
    if let Some(p) = tail_percentile(&plain, 0.9) {
        out.metric("forget.latency_ms_p90", p);
    }
    out.record("forget.latency_ms_p50", median(&plain).unwrap_or(0.0));
    out.record("requests", plain.len() as f64);
    let overhead = median(&traced).unwrap_or(0.0) / median(&plain).unwrap_or(1.0) - 1.0;
    out.metric("obs.trace_overhead_pct", overhead * 100.0);
    core_metrics(&mut out, trace, &init);
    if !accs.is_empty() {
        out.metric("acc.ours", accs.values().sum::<f64>() / accs.len() as f64);
    }

    let (ms, failed) = read_pass(trace, history, 0, gen::FORGET_ROUNDS);
    out.metric("storage.round_view_ms_p50", median(&ms).unwrap_or(0.0));
    out.attempted += ms.len() as u64;
    out.failed += failed;
    out.storage_metrics(history);
    out
}
