//! Instruments shared by the workloads: federation training with a timing
//! `Client` wrapper and per-round spans for the `fl` layer, fixed-input
//! probes for the `nn` layer and the `net` codecs, a `storage` read pass,
//! and the `fl`/`core` metrics derived from the trace. All of them call
//! only public functions.

use crate::report::Outcome;
use crate::stats::{median, tail_percentile};
use crate::trace::{now_ns, Trace};
use fuiov_bench::{Scenario, Trained};
use fuiov_data::{Dataset, DigitStyle};
use fuiov_fl::mobility::ChurnSchedule;
use fuiov_fl::{Client, Server};
use fuiov_net::wire::{decode_message, encode_round_model, encode_sign_upload_into, Message};
use fuiov_nn::layers::{Conv2d, Flatten, Layer, Linear, MaxPool2, Relu};
use fuiov_nn::loss::softmax_cross_entropy;
use fuiov_nn::{ModelSpec, Sequential, Tensor4};
use fuiov_storage::{ClientId, GradientDirection, HistoryStore, Round};
use fuiov_tensor::rng::{rng_for, streams};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// One `Client::gradient` call as the wrapper saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Calling client.
    pub client: ClientId,
    /// The round argument.
    pub round: Round,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
}

/// Shared, thread-safe log of gradient calls.
pub type CallLog = Arc<Mutex<Vec<Call>>>;

/// Takes every call logged so far.
pub fn drain(log: &CallLog) -> Vec<Call> {
    std::mem::take(&mut *log.lock().expect("call log poisoned"))
}

/// Wraps a client and logs the wall time of each `gradient` call — local
/// training, as the `fl` layer drives it. Behaviour is the inner
/// client's, bit for bit.
pub struct TimedClient {
    inner: Box<dyn Client>,
    log: CallLog,
}

impl TimedClient {
    /// Wraps every client of `clients`, all logging into `log`.
    pub fn wrap_all(clients: Vec<Box<dyn Client>>, log: &CallLog) -> Vec<Box<dyn Client>> {
        clients
            .into_iter()
            .map(|inner| {
                Box::new(TimedClient {
                    inner,
                    log: Arc::clone(log),
                }) as Box<dyn Client>
            })
            .collect()
    }
}

impl Client for TimedClient {
    fn id(&self) -> ClientId {
        self.inner.id()
    }

    fn weight(&self) -> f32 {
        self.inner.weight()
    }

    fn responds_in(&self, round: Round) -> bool {
        self.inner.responds_in(round)
    }

    fn gradient(&mut self, params: &[f32], round: Round) -> Vec<f32> {
        let start = now_ns();
        let g = self.inner.gradient(params, round);
        let call = Call {
            client: self.inner.id(),
            round,
            start,
            end: now_ns(),
        };
        self.log.lock().expect("call log poisoned").push(call);
        g
    }
}

/// Adds each call as an `fl.local_train` span under the traced span whose
/// interval holds its start (or under `fallback`).
pub fn attach_calls(trace: &mut Trace, calls: &[Call], parents: &[usize], fallback: Option<usize>) {
    for c in calls {
        let parent = parents
            .iter()
            .copied()
            .find(|&p| {
                let s = &trace.spans()[p];
                s.start <= c.start && c.start <= s.end
            })
            .or(fallback);
        trace.add("fl.local_train", c.start, c.end, parent);
    }
}

/// Per-round `fl` figures from round spans and the gradient calls made in
/// them: `(server_ms, parallel_eff)`, each a mean over rounds. The server
/// share of a round is its wall minus the span of its gradient phase
/// (first call start to last call end); parallel efficiency is busy time
/// over gradient-phase wall × `threads`.
fn round_split(rounds: &[(u64, u64)], calls: &[(u64, u64)], threads: usize) -> (f64, f64) {
    let (mut server, mut eff, mut n) = (0.0, 0.0, 0usize);
    for &(a, b) in rounds {
        let inside: Vec<(u64, u64)> = calls
            .iter()
            .copied()
            .filter(|&(s, e)| s >= a && e <= b)
            .collect();
        let (Some(first), Some(last)) = (
            inside.iter().map(|c| c.0).min(),
            inside.iter().map(|c| c.1).max(),
        ) else {
            continue;
        };
        let phase = (last - first) as f64;
        let busy: u64 = inside.iter().map(|&(s, e)| e - s).sum();
        server += ((b - a) as f64 - phase) / 1e6;
        if phase > 0.0 {
            eff += busy as f64 / (phase * threads as f64);
        }
        n += 1;
    }
    if n == 0 {
        return (0.0, 0.0);
    }
    (server / n as f64, eff / n as f64)
}

fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = now_ns();
        f();
        v.push((now_ns() - t) as f64 / 1e3);
    }
    median(&v).expect("reps > 0")
}

/// The `nn` layer breakdown: median forward and backward time of each
/// layer of the 16×16 `CnnTwoFc` (built from the public constructors at
/// that model's shapes) on one real 50-sample digits batch, the loss, and
/// `Sequential::loss_and_grad` on the same batch. `nn.relu` sums the
/// three activations; `nn.layer_sum_us` is reported beside
/// `nn.loss_and_grad_us`.
pub fn nn_probe(seed: u64, reps: usize) -> BTreeMap<String, f64> {
    let style = DigitStyle {
        size: 16,
        noise_sigma: 0.10,
        max_rotation: 0.15,
        ..DigitStyle::default()
    };
    let data = Dataset::digits(50, &style, seed);
    let (x, labels) = data.full();
    let mut rng = rng_for(seed, streams::INIT);
    let mut stack: Vec<(&str, Box<dyn Layer>)> = vec![
        ("conv1", Box::new(Conv2d::new(&mut rng, 1, 8, 3, 1))),
        ("relu", Box::new(Relu::new())),
        ("pool1", Box::new(MaxPool2::new())),
        ("conv2", Box::new(Conv2d::new(&mut rng, 8, 16, 3, 1))),
        ("relu", Box::new(Relu::new())),
        ("pool2", Box::new(MaxPool2::new())),
        ("flatten", Box::new(Flatten::new())),
        ("fc1", Box::new(Linear::new(&mut rng, 16 * 4 * 4, 64))),
        ("relu", Box::new(Relu::new())),
        ("fc2", Box::new(Linear::new(&mut rng, 64, 10))),
    ];
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut acts: Vec<Tensor4> = vec![x.clone()];
    for (name, layer) in &mut stack {
        let input = acts.last().expect("input").clone();
        let us = time_us(reps, || {
            black_box(layer.forward(black_box(&input)));
        });
        *out.entry(format!("nn.{name}.fwd_us")).or_default() += us;
        acts.push(layer.forward(&input));
    }
    let logits = acts.last().expect("logits").clone();
    out.insert(
        "nn.loss_us".into(),
        time_us(reps, || {
            black_box(softmax_cross_entropy(black_box(&logits), &labels));
        }),
    );
    let (_, mut grad) = softmax_cross_entropy(&logits, &labels);
    for (i, (name, layer)) in stack.iter_mut().enumerate().rev() {
        // Re-run this layer's forward so its caches hold its own input.
        layer.forward(&acts[i]);
        let g = grad.clone();
        let us = time_us(reps, || {
            black_box(layer.backward(black_box(&g)));
        });
        *out.entry(format!("nn.{name}.bwd_us")).or_default() += us;
        grad = layer.backward(&g);
    }
    out.remove("nn.flatten.fwd_us");
    out.remove("nn.flatten.bwd_us");
    let sum = out.values().sum();
    out.insert("nn.layer_sum_us".into(), sum);
    let spec = ModelSpec::CnnTwoFc {
        in_ch: 1,
        h: 16,
        w: 16,
        c1: 8,
        c2: 16,
        hidden: 64,
        classes: 10,
    };
    let mut model: Sequential = spec.build(seed);
    out.insert(
        "nn.loss_and_grad_us".into(),
        time_us(reps, || {
            black_box(model.loss_and_grad(black_box(&x), &labels));
        }),
    );
    out
}

/// The `net` codec breakdown at the paper CNN's 52,138 parameters: median
/// encode and decode time of one `RoundModel` broadcast and one 2-bit
/// `SignUpload`. Fails (returns `Err`) if a frame does not decode to what
/// was encoded.
pub fn net_codec_probe(seed: u64, reps: usize) -> Result<BTreeMap<String, f64>, String> {
    let params = ModelSpec::mnist().build(seed).params();
    let dim = params.len();
    let grad: Vec<f32> = params.iter().map(|p| p * 0.5 - 1e-3).collect();
    let dir = GradientDirection::quantize(&grad, 1e-3);
    let mut out = BTreeMap::new();
    let frame = encode_round_model(3, &params);
    out.insert(
        "net.encode_round_model_us".into(),
        time_us(reps, || {
            black_box(encode_round_model(3, black_box(&params)));
        }),
    );
    out.insert(
        "net.decode_round_model_us".into(),
        time_us(reps, || {
            black_box(decode_message(black_box(&frame), dim).expect("decodes"));
        }),
    );
    let mut buf = Vec::new();
    out.insert(
        "net.encode_sign_upload_us".into(),
        time_us(reps, || {
            encode_sign_upload_into(&mut buf, 3, 1, black_box(&dir));
            black_box(&buf);
        }),
    );
    out.insert(
        "net.decode_sign_upload_us".into(),
        time_us(reps, || {
            black_box(decode_message(black_box(&buf), dim).expect("decodes"));
        }),
    );
    match decode_message(&frame, dim) {
        Ok(Message::RoundModel { params: p, .. }) if p == params => {}
        other => return Err(format!("round-model frame did not round-trip: {other:?}")),
    }
    match decode_message(&buf, dim) {
        Ok(Message::SignUpload { dir: d, .. }) if d == dir => {}
        other => return Err(format!("sign-upload frame did not round-trip: {other:?}")),
    }
    Ok(out)
}

/// A `storage` read pass over rounds `from..=to`: `try_round_view` plus
/// `model` per round, each round one `storage.round_view` span. Returns
/// the per-round times in ms and the number of reads that failed.
pub fn read_pass(
    trace: &mut Trace,
    history: &HistoryStore,
    from: Round,
    to: Round,
) -> (Vec<f64>, u64) {
    let mut ms = Vec::new();
    let mut failed = 0;
    for t in from..=to {
        let id = trace.begin("storage.round_view");
        let view = history.try_round_view(t);
        let model = history.model(t);
        trace.end(id);
        if view.is_err() || model.is_none() {
            failed += 1;
        }
        let _ = black_box((view, model));
        ms.push(trace.spans()[id].dur() as f64 / 1e6);
    }
    (ms, failed)
}

/// The scenario's held-out test set, as `Scenario::train` synthesises it
/// for the digits task. The traced trial re-derives it because the
/// phase-by-phase drive cannot go through `Scenario::train`; the
/// accuracy check against `run_trial` fails if the two ever differ.
fn test_set(sc: &Scenario) -> Dataset {
    let style = DigitStyle {
        size: sc.image_size,
        noise_sigma: 0.10,
        max_rotation: 0.15,
        ..DigitStyle::default()
    };
    Dataset::digits(sc.n_test, &style, sc.seed.wrapping_add(0xD15EA5E))
}

/// Trains `sc`'s federation on `schedule` as `Scenario::train` does,
/// calling `on_round` after every round.
pub fn train(
    sc: &Scenario,
    schedule: ChurnSchedule,
    mut clients: Vec<Box<dyn Client>>,
    on_round: impl FnMut(Round, &[f32]),
) -> Trained {
    let spec = sc.model_spec();
    let init_params = spec.build(sc.seed).params();
    let mut server = Server::new(sc.fl_config(), init_params.clone());
    server.train_with(&mut clients, &schedule, on_round);
    let (final_params, history, full_store) = server.into_parts();
    Trained {
        scenario: sc.clone(),
        spec,
        init_params,
        final_params,
        history,
        full_store,
        clients,
        test: test_set(sc),
        schedule,
    }
}

/// [`train`] with every client timed and one `fl.round` span per round
/// (the spacing between `train_with` callbacks) under an `fl.train_with`
/// span. Returns the trained state and the round intervals.
pub fn traced_train(
    trace: &mut Trace,
    sc: &Scenario,
    schedule: ChurnSchedule,
    log: &CallLog,
) -> (Trained, Vec<(u64, u64)>) {
    let clients = TimedClient::wrap_all(sc.build_clients(), log);
    let call_id = trace.begin("fl.train_with");
    let mut rounds = Vec::new();
    let mut last = now_ns();
    let trained = train(sc, schedule, clients, |_, _| {
        let now = now_ns();
        rounds.push((last, now));
        last = now;
    });
    trace.end(call_id);
    let parents: Vec<usize> = rounds
        .iter()
        .map(|&(a, b)| trace.add("fl.round", a, b, Some(call_id)))
        .collect();
    attach_calls(trace, &drain(log), &parents, Some(call_id));
    (trained, rounds)
}

/// Client-rounds a recovery of `forgotten` replays over `from..to`.
pub fn client_rounds(
    history: &HistoryStore,
    forgotten: &[ClientId],
    from: Round,
    to: Round,
) -> usize {
    (from..to)
        .map(|t| {
            history
                .clients_in_round(t)
                .iter()
                .filter(|c| !forgotten.contains(c))
                .count()
        })
        .sum()
}

fn ns_to_ms(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&n| n as f64 / 1e6).collect()
}

/// `fl.*` metrics from the round intervals of a traced run and every
/// `fl.local_train` span in the trace.
pub fn fl_metrics(out: &mut Outcome, trace: &Trace, rounds: &[(u64, u64)], threads: usize) {
    let ms: Vec<f64> = rounds.iter().map(|&(a, b)| (b - a) as f64 / 1e6).collect();
    out.metric("fl.round_ms_p50", median(&ms).unwrap_or(0.0));
    if let Some(p) = tail_percentile(&ms, 0.9) {
        out.metric("fl.round_ms_p90", p);
    }
    let calls: Vec<(u64, u64)> = trace
        .spans()
        .iter()
        .filter(|s| s.name == "fl.local_train")
        .map(|s| (s.start, s.end))
        .collect();
    out.metric("fl.local_train_calls", calls.len() as f64);
    out.metric(
        "fl.local_train_ms",
        calls.iter().map(|&(a, b)| (b - a) as f64).sum::<f64>() / 1e6,
    );
    let (server_ms, eff) = round_split(rounds, &calls, threads);
    out.metric("fl.server_ms", server_ms);
    out.metric("fl.local_train_parallel_eff", eff);
}

/// Adds one `core.replay_round` span under `call` per replayed round from
/// the marks taken at the call and at each `on_round` callback. Returns
/// the replay's set-up time (call to first callback) in ms.
pub fn replay_spans(trace: &mut Trace, call: usize, marks: &[u64]) -> Option<f64> {
    for w in marks.windows(2).skip(1) {
        trace.add("core.replay_round", w[0], w[1], Some(call));
    }
    marks.get(1).map(|&first| (first - marks[0]) as f64 / 1e6)
}

/// `core.*` timings: replay rounds from the trace, replay set-up times
/// `init_ms`, and backtracks from the `core.backtrack_set` spans.
pub fn core_metrics(out: &mut Outcome, trace: &Trace, init_ms: &[f64]) {
    let ms = ns_to_ms(&trace.durations("core.replay_round"));
    out.metric("core.replay_round_ms_p50", median(&ms).unwrap_or(0.0));
    if let Some(p) = tail_percentile(&ms, 0.9) {
        out.metric("core.replay_round_ms_p90", p);
    }
    if let Some(m) = median(init_ms) {
        out.metric("core.replay_init_ms", m);
    }
    let bt = ns_to_ms(&trace.durations("core.backtrack_set"));
    if let Some(m) = median(&bt) {
        out.metric("core.backtrack_ms", m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_split_separates_server_time_from_the_gradient_phase() {
        let calls = [(10, 50), (10, 30)];
        let (server_ms, eff) = round_split(&[(0, 1_000_040)], &calls, 2);
        assert!((server_ms - (1_000_040.0 - 40.0) / 1e6).abs() < 1e-12);
        assert!((eff - 60.0 / 80.0).abs() < 1e-12);
    }
}
