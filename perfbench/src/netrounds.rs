//! `net-rounds`: federated rounds over loopback TCP.
//!
//! Two vehicle connections, each running a cheap deterministic client at
//! the paper CNN's 52,138 parameters, send 2-bit sign uploads to a
//! `NetServer`; the RSU's history runs under a ~1 MB resident budget, so
//! it spills every round. `nn` and `core` are idle: the work is `net`
//! encode, seal and socket I/O plus the `fl` server's record, quantise,
//! aggregate and spill writes.

use crate::calib::{scaled, Reference};
use crate::gen::{self, NetPlan};
use crate::layers::{attach_calls, drain, fl_metrics, read_pass, Call, CallLog, TimedClient};
use crate::report::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::stats::{median, tail_percentile};
use crate::trace::Trace;
use fuiov_fl::comms::round_bytes;
use fuiov_fl::{Client, FlConfig, Server, Upload};
use fuiov_net::{
    NetAddr, NetConfig, NetRunReport, NetServer, NetVehicle, UploadMode, VehicleConfig,
};
use fuiov_nn::ModelSpec;
use fuiov_storage::{ClientId, GradientDirection, Round};
use fuiov_testkit::digest_params;
use std::time::{Duration, Instant};

/// Resident history budget of the RSU (`FUIOV_HISTORY_BUDGET`), bytes.
pub const HISTORY_BUDGET: usize = 1_000_000;
/// Rounds per wire session.
const ROUNDS: usize = 200;
const VEHICLES: usize = 2;
const LR: f32 = 0.1;
const SIGN_DELTA: f32 = 1e-3;

/// A client whose gradient is a cheap affine map of the parameters, so
/// the vehicles cost almost nothing and the wire path dominates. The
/// per-round bias is drawn uniformly from `[-0.5, 0.5)`: whether the two
/// vehicles' signs agree, and so how much the model moves and how well
/// the spilled deltas compress, is then the same in distribution for
/// every seed.
struct AffineClient {
    id: ClientId,
    salt: u64,
}

impl Client for AffineClient {
    fn id(&self) -> ClientId {
        self.id
    }

    fn weight(&self) -> f32 {
        1.0
    }

    fn gradient(&mut self, params: &[f32], round: Round) -> Vec<f32> {
        let r = gen::derive(self.salt, ((self.id as u64) << 32) | round as u64);
        let bias = (r >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        params.iter().map(|p| p * 1e-2 + bias).collect()
    }
}

fn clients(plan: &NetPlan) -> Vec<AffineClient> {
    (0..VEHICLES)
        .map(|id| AffineClient {
            id,
            salt: plan.client_salt[id],
        })
        .collect()
}

fn init_params(plan: &NetPlan) -> Vec<f32> {
    ModelSpec::mnist().build(plan.init_seed).params()
}

/// The in-process oracle: the same rounds through `Server::run_round_uploads`
/// with each upload quantised as the vehicles quantise it.
fn reference(plan: &NetPlan) -> Vec<f32> {
    let mut fl = Server::new(FlConfig::new(ROUNDS, LR), init_params(plan));
    let mut cs = clients(plan);
    for t in 0..ROUNDS {
        let params = fl.params().to_vec();
        let uploads = cs
            .iter_mut()
            .map(|c| Upload {
                client: c.id(),
                weight: c.weight(),
                grad: GradientDirection::quantize(&c.gradient(&params, t), SIGN_DELTA).to_f32(),
            })
            .collect();
        fl.run_round_uploads(uploads);
    }
    fl.params().to_vec()
}

/// One wire session of [`ROUNDS`] rounds. Returns the server, its run
/// report and the wall time of `serve`.
fn session(plan: &NetPlan, log: &CallLog) -> Result<(Server, NetRunReport, f64), String> {
    let dim = ModelSpec::mnist().param_count();
    let cfg = NetConfig::new(NetAddr::parse("tcp:127.0.0.1:0"), VEHICLES)
        .with_mode(UploadMode::Sign2Bit)
        .with_deadline(Duration::from_secs(30));
    let mut net = NetServer::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = net.local_addr().clone();
    let vehicles: Vec<_> = clients(plan)
        .into_iter()
        .map(|c| {
            let addr = addr.clone();
            let client = TimedClient::wrap_all(vec![Box::new(c)], log).remove(0);
            std::thread::spawn(move || {
                let vcfg = VehicleConfig::new(addr, 7).with_sign_uploads(SIGN_DELTA);
                NetVehicle::new(vcfg, client, dim).run()
            })
        })
        .collect();
    let mut fl = Server::new(FlConfig::new(ROUNDS, LR), init_params(plan));
    let t = Instant::now();
    let served = net.serve(&mut fl, ROUNDS);
    let wall = t.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    for v in vehicles {
        match v.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => errors.push(format!("vehicle: {e}")),
            Err(_) => errors.push("vehicle thread panicked".to_string()),
        }
    }
    let report = served.map_err(|e| format!("serve: {e}"))?;
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok((fl, report, wall))
}

/// Checks a session against the oracle and the comms model; wire faults
/// count as failed rounds.
fn check_session(out: &mut Outcome, fl: &Server, report: &NetRunReport, expected: u64) {
    out.attempted += ROUNDS as u64;
    let faults = report.duplicates + report.stale + report.torn + report.timeouts;
    out.failed += faults;
    let (down, _, up_sign) = round_bytes(fl.params().len(), VEHICLES);
    out.check(
        "final model equals the in-process loop",
        digest_params(fl.params()) == expected,
    );
    out.check(
        "broadcast bytes reconcile with comms::round_bytes",
        report.tx_payload == (ROUNDS * down) as u64,
    );
    out.check(
        "upload bytes reconcile with comms::round_bytes",
        report.rx_payload == (ROUNDS * up_sign) as u64,
    );
    out.check("clean run has no wire faults", faults == 0);
}

/// Round intervals from vehicle 0's gradient calls: round `t` spans the
/// start of its call for `t` to the start of its call for `t + 1`.
fn rounds_of(calls: &[Call]) -> Vec<(u64, u64)> {
    let mut v0: Vec<&Call> = calls.iter().filter(|c| c.client == 0).collect();
    v0.sort_by_key(|c| c.round);
    v0.windows(2).map(|w| (w[0].start, w[1].start)).collect()
}

fn ms(rounds: &[(u64, u64)]) -> Vec<f64> {
    rounds.iter().map(|&(a, b)| (b - a) as f64 / 1e6).collect()
}

/// Runs the in-process oracle three times. Returns its digest and the
/// wall and scaled times of the runs, in seconds.
fn setup(plan: &NetPlan, speed: &mut Reference) -> (u64, Vec<f64>, Vec<f64>) {
    let (mut walls, mut scaled_s) = (Vec::new(), Vec::new());
    let mut digest = 0;
    for _ in 0..3 {
        let (d, ms, ref_ms) = speed.timed(3, || digest_params(&reference(plan)));
        digest = d;
        walls.push(ms / 1e3);
        scaled_s.push(scaled(ms, ref_ms) / 1e3);
    }
    (digest, walls, scaled_s)
}

/// The untraced run: the oracle three times as set-up, then wire
/// sessions for `seconds`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let plan = gen::net_plan(seed);
    let mut speed = Reference::default();
    let (expected, setup_wall, setup_s) = setup(&plan, &mut speed);
    out.metric("setup_s", median(&setup_s).expect("3 set-ups"));
    let log = CallLog::default();
    let (mut round_ms, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_ms, mut scaled_walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        reset_peak_rss();
        let (s, _, ref_ms) = speed.timed(3, || session(&plan, &log));
        rss.extend(peak_rss_mb());
        match s {
            Ok((fl, report, wall)) => {
                check_session(&mut out, &fl, &report, expected);
                walls.push(wall);
                scaled_walls.push(scaled(wall * 1e3, ref_ms) / 1e3);
            }
            Err(e) => {
                out.attempted += ROUNDS as u64;
                out.fail(&e);
                out.check("session completes", false);
                break;
            }
        }
        let session_ms = ms(&rounds_of(&drain(&log)));
        round_ms.extend(session_ms.iter().map(|&m| scaled(m, ref_ms)));
        wall_ms.extend(session_ms);
    }
    out.metric("op_ms_p50", median(&round_ms).unwrap_or(0.0));
    out.metric(
        "ops_per_s",
        (scaled_walls.len() * ROUNDS) as f64 / scaled_walls.iter().sum::<f64>(),
    );
    out.peak_rss(&rss);
    out.record_samples("session_s", &walls);
    out.record_samples("setup_s", &setup_wall);
    let wall_ops = (walls.len() * ROUNDS) as f64 / walls.iter().sum::<f64>();
    out.record_wall(&wall_ms, wall_ops, &setup_wall, &speed);
    out
}

/// The traced run: one untraced session, then sessions whose gradient
/// calls become `fl.local_train` spans under one `net.serve` span each.
pub fn run_traced(seed: u64, seconds: f64, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let plan = gen::net_plan(seed);
    let expected = digest_params(&reference(&plan));
    let log = CallLog::default();
    let mut plain = Vec::new();
    let (mut rounds, mut calls, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let traced = !plain.is_empty();
        let id = trace.begin("net.serve");
        let s = session(&plan, &log);
        trace.end(id);
        let c = drain(&log);
        let (fl, report, wall) = match s {
            Ok(s) => s,
            Err(e) => {
                out.attempted += ROUNDS as u64;
                out.fail(&e);
                out.check("session completes", false);
                break;
            }
        };
        check_session(&mut out, &fl, &report, expected);
        if !traced {
            plain.push(wall);
            continue;
        }
        walls.push(wall);
        attach_calls(trace, &c, &[], Some(id));
        rounds.extend(rounds_of(&c));
        calls.extend(c);
        last = Some((fl, report));
    }
    let Some((fl, report)) = last else {
        return out;
    };
    let round_ms = ms(&rounds);
    out.metric("net.round_ms_p50", median(&round_ms).unwrap_or(0.0));
    if let Some(p) = tail_percentile(&round_ms, 0.99) {
        out.metric("net.round_ms_p99", p);
    }
    // A vehicle's wait: from returning its gradient (then encoding and
    // uploading) until the next round's model reaches its client.
    let mut wait = Vec::new();
    for v in 0..VEHICLES {
        let mut mine: Vec<&Call> = calls.iter().filter(|c| c.client == v).collect();
        mine.sort_by_key(|c| (c.start, c.round));
        wait.extend(
            mine.windows(2)
                .filter(|w| w[1].round == w[0].round + 1)
                .map(|w| (w[1].start - w[0].end) as f64 / 1e6),
        );
    }
    out.metric("net.vehicle_wait_ms", median(&wait).unwrap_or(0.0));
    out.metric(
        "net.payload_bytes_per_round",
        (report.tx_payload + report.rx_payload) as f64 / ROUNDS as f64,
    );
    out.metric(
        "net.overhead_bytes_per_round",
        (report.tx_overhead + report.rx_overhead) as f64 / ROUNDS as f64,
    );
    fl_metrics(&mut out, trace, &rounds, VEHICLES);
    let plain_wall = median(&plain).unwrap_or(0.0);
    out.metric(
        "obs.trace_overhead_pct",
        (median(&walls).unwrap_or(plain_wall) / plain_wall - 1.0) * 100.0,
    );
    let (ms, failed) = read_pass(trace, fl.history(), 0, ROUNDS - 1);
    out.metric("storage.round_view_ms_p50", median(&ms).unwrap_or(0.0));
    out.attempted += ms.len() as u64;
    out.failed += failed;
    out.storage_metrics(fl.history());
    out
}
