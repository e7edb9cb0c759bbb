//! Seeded input generation. Every input a workload feeds the program is
//! derived here from the `--seed` argument, so the same seed always gives
//! the same trial plans, federation, request stream and wire plan.

use fuiov_bench::Scenario;
use fuiov_fl::mobility::{ChurnSchedule, Membership};
use fuiov_lab::matrix::{EvalKind, EvalSpec, Method, Overrides, Task};
use fuiov_lab::TrialPlan;
use fuiov_storage::{ClientId, Round};

/// Rounds of the `table1-trial` plan. The `table1-digits` row runs 100;
/// 8 keeps its per-round shape (10 vehicles, 50-sample shards and
/// batches, the 18,346-parameter 16×16 CNN) while fitting several trials
/// into one run.
pub const TABLE1_ROUNDS: usize = 8;

/// Rounds of the federation the `forget-*` workloads unlearn from.
pub const FORGET_ROUNDS: usize = 100;

/// Samples per vehicle in the `forget-*` federation. Replay cost does not
/// depend on shard size, so small shards keep set-up short.
pub const FORGET_SHARD: usize = 5;

/// Vehicles in the `forget-*` federation (the Table-I fleet).
pub const FLEET: usize = 10;

/// SplitMix64 step: a well-mixed 64-bit value from `(seed, stream)`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `table1-digits` trial the `k`-th trial of a run executes: the
/// row's full Table-I method set and `mia.ours`/`recon.ours` columns at
/// [`TABLE1_ROUNDS`]. Each trial gets its own seed so no two trials in a
/// run share inputs.
pub fn table1_plan(seed: u64, k: u64) -> TrialPlan {
    TrialPlan {
        row_id: "table1-digits".into(),
        variant: "base".into(),
        task: Task::Digits,
        repeat: 0,
        seed: derive(seed, 0x7AB1_0000 + k) % 1_000_000,
        smoke: false,
        methods: Method::table1_set(),
        evals: vec![
            EvalSpec {
                kind: EvalKind::Mia,
                method: Method::Ours,
            },
            EvalSpec {
                kind: EvalKind::Recon,
                method: Method::Ours,
            },
        ],
        overrides: Overrides {
            rounds: Some(TABLE1_ROUNDS),
            ..Overrides::default()
        },
    }
}

/// The warm-up trial of `table1-trial`'s set-up: the `smoke-table1` row
/// (the tiny task with the same method set and eval columns), which runs
/// every phase of the trial pipeline in well under a second.
pub fn warmup_plan(seed: u64, k: u64) -> TrialPlan {
    TrialPlan {
        row_id: "smoke-table1".into(),
        task: Task::Tiny,
        seed: derive(seed, 0x5A0E_0000 + k) % 1_000_000,
        overrides: Overrides::default(),
        ..table1_plan(seed, k)
    }
}

/// The `k`-th digits federation the `forget-*` workloads train in set-up.
pub fn forget_scenario(seed: u64, k: u64) -> Scenario {
    Scenario {
        rounds: FORGET_ROUNDS,
        samples_per_client: FORGET_SHARD,
        n_clients: FLEET,
        ..Scenario::digits(derive(seed, 0xF0E6_0000 + k) % 1_000_000)
    }
}

/// Vehicles of the `forget-*` federation that arrive after round 0, with
/// their join rounds; the rest of the fleet is present from round 0. A
/// forget request backtracks to its vehicles' earliest join `F`, and
/// recovery seeds its L-BFGS pairs from the rounds before `F`, so only
/// late arrivals are forgotten — as the `table1-digits` row forgets a
/// vehicle that joined at round 2.
pub const ARRIVALS: [(ClientId, Round); 5] = [(5, 2), (6, 4), (7, 6), (8, 8), (9, 10)];

/// The membership schedule of the `forget-*` federation.
pub fn forget_schedule() -> ChurnSchedule {
    let mut s = ChurnSchedule::static_membership(FLEET, FORGET_ROUNDS);
    for (v, joined) in ARRIVALS {
        s.set_membership(
            v,
            Membership {
                joined,
                leaves_after: None,
                dropouts: Vec::new(),
            },
        );
    }
    s
}

/// `n` forget requests over the [`ARRIVALS`], in a fixed pattern of two
/// single vehicles then one set of two distinct vehicles (sorted); the
/// seed picks the vehicles. The fixed mix keeps the latency median inside
/// the single-vehicle population on every seed. The stream is served one
/// request at a time.
pub fn forget_requests(seed: u64, n: usize) -> Vec<Vec<ClientId>> {
    let k = ARRIVALS.len() as u64;
    (0..n as u64)
        .map(|i| {
            let r = derive(seed, 0x5EC0_0000 + i);
            let a = (r % k) as usize;
            if i % 3 < 2 {
                vec![ARRIVALS[a].0]
            } else {
                let b = (a + 1 + ((r >> 40) % (k - 1)) as usize) % k as usize;
                vec![ARRIVALS[a.min(b)].0, ARRIVALS[a.max(b)].0]
            }
        })
        .collect()
}

/// Inputs of the `net-rounds` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetPlan {
    /// Seed of the paper CNN's initial parameters.
    pub init_seed: u64,
    /// Per-vehicle bias of the deterministic client.
    pub client_salt: [u64; 2],
}

/// The `net-rounds` plan for `seed`.
pub fn net_plan(seed: u64) -> NetPlan {
    NetPlan {
        init_seed: derive(seed, 0x4E70) % 1_000_000,
        client_salt: [derive(seed, 0x4E71), derive(seed, 0x4E72)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(forget_requests(7, 64), forget_requests(7, 64));
        assert_ne!(forget_requests(7, 64), forget_requests(8, 64));
        assert_eq!(table1_plan(7, 0), table1_plan(7, 0));
        assert_ne!(table1_plan(7, 0).seed, table1_plan(8, 0).seed);
        assert_ne!(table1_plan(7, 0).seed, table1_plan(7, 1).seed);
        assert_eq!(forget_scenario(7, 0).seed, forget_scenario(7, 0).seed);
        assert_ne!(forget_scenario(7, 0).seed, forget_scenario(8, 0).seed);
        assert_ne!(forget_scenario(7, 0).seed, forget_scenario(7, 1).seed);
        assert_eq!(net_plan(7), net_plan(7));
        assert_ne!(net_plan(7), net_plan(8));
    }

    #[test]
    fn requests_are_valid_singles_and_pairs_of_late_arrivals() {
        let reqs = forget_requests(3, 500);
        assert!(reqs.iter().any(|r| r.len() == 1));
        assert!(reqs.iter().any(|r| r.len() == 2));
        let schedule = forget_schedule();
        for r in &reqs {
            assert!(r.iter().all(|&c| schedule.membership(c).joined > 0));
            if let [a, b] = r[..] {
                assert!(a < b, "pairs are distinct and sorted: {r:?}");
            }
        }
    }

    #[test]
    fn plan_keeps_the_table1_row_shape() {
        let p = table1_plan(1, 0);
        assert_eq!(p.methods, Method::table1_set());
        assert_eq!(p.evals.len(), 2);
        let sc = fuiov_lab::runner::scenario_of(&p);
        assert_eq!(
            (sc.n_clients, sc.samples_per_client, sc.batch_size),
            (10, 50, 50)
        );
        assert_eq!(sc.model_spec().param_count(), 18_346);
    }
}
