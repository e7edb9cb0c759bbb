//! The clip observation channel must report exactly what per-row norms
//! report. The replay computes its clip norms with an interleaved
//! multi-row kernel; this pins that `core.clip_pre_norm_micros`,
//! `core.clip_post_norm_micros` and `core.clip_activations` match a
//! reference replay that calls `vector::l2_norm` on each estimate row.
//!
//! One test in its own binary: the obs registry is process-global, so
//! nothing else may record into it between the snapshots.

use fuiov_core::{recover, NoOracle, PairBuffer, RecoveryConfig};
use fuiov_obs::Snapshot;
use fuiov_storage::{ClientId, HistoryStore};
use fuiov_tensor::{pool, vector};

const DIM: usize = 37; // not a multiple of 4: every norm has a lane tail
const ROUNDS: usize = 24;
const CLIENTS: usize = 7;
const FORGOTTEN: ClientId = 1;
const JOIN: usize = 2;
/// Training steps far enough that early rounds flip some gradient signs,
/// which the sign-only pairs need for positive curvature.
const TRAIN_LR: f32 = 0.5;
const LR: f32 = 0.05;

/// Clients pull the model toward distinct targets; the forgotten one
/// joins late so replay has pre-join rounds to seed its pairs from.
fn synthetic_history() -> HistoryStore {
    let mut h = HistoryStore::new(1e-6);
    let mut w = vec![0.0f32; DIM];
    for c in 0..CLIENTS {
        h.record_join(c, if c == FORGOTTEN { JOIN } else { 0 });
        h.set_weight(c, 10.0 + c as f32);
    }
    for t in 0..ROUNDS {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        let mut weights = Vec::new();
        for c in 0..CLIENTS {
            if c == FORGOTTEN && t < JOIN {
                continue;
            }
            let target: Vec<f32> = (0..DIM)
                .map(|j| ((c * 5 + j * 3) % 7) as f32 * 0.4 - 1.2)
                .collect();
            let g: Vec<f32> = w
                .iter()
                .zip(&target)
                .enumerate()
                .map(|(j, (wi, ti))| {
                    let wobble = (1.7 * t as f32 + 0.9 * j as f32 + 2.3 * c as f32).sin();
                    wi - ti + 0.6 * wobble
                })
                .collect();
            h.record_gradient(t, c, &g);
            grads.push(g);
            weights.push(h.weight(c));
        }
        let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
        let agg = vector::weighted_mean(&refs, &weights);
        vector::axpy(-TRAIN_LR, &agg, &mut w);
    }
    h.record_model(ROUNDS, w);
    h
}

/// What the reference replay saw, for the non-vacuity checks.
struct Seen {
    params: Vec<f32>,
    clipped: usize,
    unclipped: usize,
}

/// Algorithm 1 with the per-client L-BFGS path and per-row `l2_norm`
/// clip observation, for a config that never refreshes pairs (so the
/// approximations are the ones seeded from the rounds before `F`).
fn reference_replay(h: &HistoryStore, cfg: &RecoveryConfig) -> Seen {
    let remaining: Vec<ClientId> = (0..CLIENTS).filter(|&c| c != FORGOTTEN).collect();
    let w_f = h.model(JOIN).expect("model at F").to_vec();
    let approxes: Vec<_> = remaining
        .iter()
        .map(|&c| {
            let g_f = h.direction(JOIN, c).expect("direction at F").to_f32();
            let mut buf = PairBuffer::new(cfg.buffer_size);
            for r in JOIN.saturating_sub(cfg.buffer_size)..JOIN {
                let w_r = h.model(r).expect("seed model");
                let g_r = h.direction(r, c).expect("seed direction").to_f32();
                buf.push(vector::sub(&w_r, &w_f), vector::sub(&g_r, &g_f));
            }
            buf.approximation().ok()
        })
        .collect();
    let mut params = w_f;
    let (mut clipped, mut unclipped) = (0, 0);
    for t in JOIN..ROUNDS {
        let w_t = h.model(t).expect("replay model");
        let dw_t = vector::sub(&params, &w_t);
        let mut rows = Vec::new();
        let mut weights = Vec::new();
        for (&c, approx) in remaining.iter().zip(&approxes) {
            let Some(dir) = h.direction(t, c) else {
                continue;
            };
            let mut row = dir.to_f32();
            if let Some(a) = approx {
                vector::axpy(1.0, &a.hvp(&dw_t), &mut row);
            }
            let pre = vector::l2_norm(&row);
            vector::clip_elementwise(&mut row, cfg.clip_threshold);
            let post = vector::l2_norm(&row);
            fuiov_obs::histogram!("core.clip_pre_norm_micros").observe_scaled(pre as f64);
            fuiov_obs::histogram!("core.clip_post_norm_micros").observe_scaled(post as f64);
            if post.to_bits() != pre.to_bits() {
                fuiov_obs::counter!("core.clip_activations").inc();
                clipped += 1;
            } else {
                unclipped += 1;
            }
            rows.push(row);
            weights.push(h.weight(c));
        }
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let agg = vector::weighted_mean(&refs, &weights);
        vector::axpy(-cfg.lr, &agg, &mut params);
    }
    Seen {
        params,
        clipped,
        unclipped,
    }
}

/// The clip channel's slice of a snapshot delta.
fn clip_channel(delta: &Snapshot) -> (u64, Vec<String>) {
    let hist = |name: &str| format!("{:?}", delta.histogram(name));
    (
        delta.counter("core.clip_activations"),
        vec![
            hist("core.clip_pre_norm_micros"),
            hist("core.clip_post_norm_micros"),
        ],
    )
}

#[test]
fn batched_clip_norms_report_what_per_row_norms_report() {
    fuiov_obs::set_enabled(true);
    let h = synthetic_history();
    let cfg = RecoveryConfig::new(LR)
        .clip_threshold(1.0)
        .pair_refresh_interval(ROUNDS + 1);

    let before = Snapshot::capture();
    let reference = reference_replay(&h, &cfg);
    let mid = Snapshot::capture();
    let expected = clip_channel(&mid.delta(&before));
    assert!(
        reference.clipped > 0 && reference.unclipped > 0,
        "the fixture must both clip and pass rows ({} clipped, {} not)",
        reference.clipped,
        reference.unclipped
    );

    // One band (groups of 4 + 2 rows) and uneven bands across workers.
    for threads in [1, 3] {
        pool::set_threads(threads);
        let start = Snapshot::capture();
        let out = recover(&h, FORGOTTEN, &cfg, &mut NoOracle, |_, _| {}).expect("recovers");
        let got = clip_channel(&Snapshot::capture().delta(&start));
        pool::set_threads(0);
        assert_eq!(
            out.params.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            reference
                .params
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "replay and reference disagree on the model at {threads} thread(s)"
        );
        assert_eq!(got, expected, "clip channel at {threads} thread(s)");
    }
}
