//! Probes of `rths_sim`: the SoA peer store, the regret ledger, the
//! impairment layer, the scenario parser, and viewer migration.

use std::hint::black_box;
use std::path::Path;

use rand::Rng;
use rths_sim::impairment::LinkShaper;
use rths_sim::regret::{self, RegretLedger};
use rths_sim::store::ShardScratch;
use rths_sim::{
    AllocationPolicy, LearnerSpec, MultiChannelConfig, MultiChannelSystem, PeerStore,
    ScenarioSpec,
};
use rths_stoch::rng::seeded_rng;

use super::{median_of_passes, secs, Readings, PASSES, PROBE_SEED};
use crate::workload::{self, Workload};

pub(super) fn probe(out: &mut Readings) {
    sweep_probe(out);
    compaction_probe(out);
    ledger_probe(out);
    impairment_probe(out);
    spec_probe(out);
    migrate_probe(out);
}

/// A store plus the columns its phases write, driven the way the engines
/// drive it: even split of a fixed capacity per helper.
struct StoreRig {
    store: PeerStore,
    profile: Vec<u32>,
    aux: Vec<u32>,
    delivered: Vec<f64>,
    loads: Vec<usize>,
    join_offsets: Vec<usize>,
    join_rates: Vec<f64>,
    scratch: Vec<ShardScratch>,
}

impl StoreRig {
    fn new(actions: Vec<usize>) -> Self {
        let total: usize = actions.iter().sum();
        let mut join_offsets = vec![0];
        for m in &actions {
            join_offsets.push(join_offsets[join_offsets.len() - 1] + m);
        }
        let mut store = PeerStore::new(PROBE_SEED, LearnerSpec::default(), 8.0, &actions);
        // One shard: the probe prices a peer, `par.dispatch_us_t2` prices
        // the fork/join.
        store.set_shards(Some(1));
        Self {
            store,
            profile: Vec::new(),
            aux: Vec::new(),
            delivered: Vec::new(),
            loads: Vec::new(),
            join_offsets,
            join_rates: vec![0.0; total],
            scratch: Vec::new(),
        }
    }

    /// One choose + observe round; returns the seconds of each phase.
    fn round(&mut self) -> (f64, f64) {
        let n = self.store.len();
        self.profile.resize(n, 0);
        self.aux.resize(n, 0);
        self.delivered.resize(n, 0.0);
        let offsets = &self.join_offsets;
        let loads_len = self.join_rates.len();
        let (choose_s, ()) = secs(|| {
            self.store.choose_phase(
                &mut self.profile,
                &mut self.aux,
                &mut self.loads,
                loads_len,
                &mut self.scratch,
                |_, choice, channel, _, loads| {
                    loads[offsets[channel as usize] + choice as usize] += 1
                },
            );
        });
        for (rate, &load) in self.join_rates.iter_mut().zip(&self.loads) {
            *rate = 800.0 / (load + 1) as f64;
        }
        let (loads, join_rates) = (&self.loads, &self.join_rates);
        let (observe_s, worst) = secs(|| {
            self.store.observe_phase(
                &self.profile,
                &mut self.delivered,
                offsets,
                join_rates,
                &mut self.scratch,
                false,
                |_, choice, channel| {
                    let helper = offsets[channel as usize] + choice as usize;
                    (800.0 / loads[helper].max(1) as f64, true)
                },
            )
        });
        black_box(worst);
        (choose_s, observe_s)
    }
}

/// `sim_multichannel`'s sweep at a quarter of its population: 100,000
/// viewers over 100 channels of 10 helpers each, Zipf(1.2) popularity.
fn sweep_probe(out: &mut Readings) {
    const VIEWERS: usize = 100_000;
    let mut rig = StoreRig::new(vec![10; 100]);
    rig.store.reserve(VIEWERS);
    for (channel, &count) in
        MultiChannelConfig::zipf_population(100, VIEWERS, 1.2).iter().enumerate()
    {
        for _ in 0..count {
            rig.store.spawn(channel, 0);
        }
    }
    for _ in 0..3 {
        rig.round();
    }
    let mut choose = Vec::with_capacity(PASSES);
    let mut observe = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (c, o) = rig.round();
        choose.push(c * 1e9 / VIEWERS as f64);
        observe.push(o * 1e9 / VIEWERS as f64);
    }
    out.insert("sim.store.choose_ns_per_peer".into(), crate::stats::median(&choose));
    out.insert("sim.store.observe_ns_per_peer".into(), crate::stats::median(&observe));
}

/// `sim_churn_impaired`'s compaction: 8,000 peers × 32 helpers, 1 % of
/// them replaced per pass with an order-preserving `remove_slots`.
fn compaction_probe(out: &mut Readings) {
    let w = Workload::SimChurnImpaired;
    let churned = w.population() / 100;
    let mut rig = StoreRig::new(vec![w.helpers()]);
    rig.store.reserve(w.population());
    for _ in 0..w.population() {
        rig.store.spawn(0, 0);
    }
    for _ in 0..8 {
        rig.round();
    }
    let mut rng = seeded_rng(PROBE_SEED);
    let mut epoch = 8;
    out.insert(
        "sim.store.spawn_remove_ns_per_peer".into(),
        median_of_passes(|| {
            // Distinct slots, spread over the store like the engine's
            // draws.
            let n = rig.store.len();
            let mut slots: Vec<u32> = (0..churned)
                .map(|k| (k * (n / churned) + rng.gen_range(0..n / churned)) as u32)
                .collect();
            let (elapsed, ()) = secs(|| {
                rig.store.remove_slots(&mut slots);
                for _ in 0..churned {
                    rig.store.spawn(0, epoch);
                }
            });
            epoch += 1;
            rig.round();
            elapsed * 1e9 / churned as f64
        }),
    );
}

/// The stretch-folded true-regret record, as the net coordinator and the
/// stores call it: 8,000 peers × 32 arms, a tenth of the peers switching
/// arm each epoch.
fn ledger_probe(out: &mut Readings) {
    const EPOCHS: usize = 50;
    let w = Workload::SimChurnImpaired;
    let (n, m) = (w.population(), w.helpers());
    let mut ledger = RegretLedger::new(&[m]);
    for _ in 0..n {
        ledger.add_peer();
    }
    let mut rng = seeded_rng(PROBE_SEED);
    let mut played: Vec<usize> = (0..n).map(|i| i % m).collect();
    let join_rates: Vec<f64> = (0..m).map(|k| 3.0 + k as f64 * 0.01).collect();
    let mut folds = 0u64;
    let mut records = 0u64;
    out.insert(
        "sim.regret.record_ns_per_peer".into(),
        median_of_passes(|| {
            let mut elapsed = 0.0;
            for _ in 0..EPOCHS {
                for arm in played.iter_mut() {
                    if rng.gen_bool(0.1) {
                        *arm = rng.gen_range(0..m);
                    }
                }
                elapsed += secs(|| {
                    ledger.advance_epoch(&[0, m], &join_rates);
                    let (mut cols, ctx) = ledger.split();
                    let mut worst = 0.0f64;
                    for (i, &arm) in played.iter().enumerate() {
                        worst = worst.max(regret::record_counted(
                            &mut cols, &ctx, i, 0, arm, 3.1, &mut folds,
                        ));
                    }
                    black_box(worst);
                })
                .0;
                records += n as u64;
            }
            elapsed * 1e9 / (EPOCHS * n) as f64
        }),
    );
    out.insert("sim.regret.folds_per_peer_epoch".into(), folds as f64 / records as f64);
}

/// The workload's impairment plan, link by link and epoch by epoch — the
/// access pattern its seekable decision streams are built for.
fn impairment_probe(out: &mut Readings) {
    const EPOCHS: u64 = 10;
    let w = Workload::SimChurnImpaired;
    let plan = workload::impairment_plan();
    let peers = w.population() as u64;
    let helpers = w.helpers();
    let calls = (peers * EPOCHS) as f64;
    let mut epoch = 0u64;
    let mut lost = 0u64;
    let mut asked = 0u64;
    out.insert(
        "sim.impairment.is_lost_ns".into(),
        median_of_passes(|| {
            let (elapsed, ()) = secs(|| {
                for e in epoch..epoch + EPOCHS {
                    for peer in 0..peers {
                        lost += u64::from(plan.is_lost(peer, peer as usize % helpers, e));
                    }
                }
            });
            asked += peers * EPOCHS;
            epoch += EPOCHS;
            elapsed * 1e9 / calls
        }),
    );
    out.insert("sim.impairment.loss_frac".into(), lost as f64 / asked as f64);
    let mut shapers = vec![LinkShaper::new(); peers as usize];
    let mut epoch = 0u64;
    out.insert(
        "sim.impairment.shape_ns".into(),
        median_of_passes(|| {
            let (elapsed, granted) = secs(|| {
                let mut granted = 0.0;
                for e in epoch..epoch + EPOCHS {
                    for (peer, shaper) in shapers.iter_mut().enumerate() {
                        granted += shaper.shape(&plan, peer as u64, peer % helpers, e, 640.0);
                    }
                }
                granted
            });
            black_box(granted);
            epoch += EPOCHS;
            elapsed * 1e9 / calls
        }),
    );
}

/// Every `*.toml` of the repository's scenario zoo through the parser.
fn spec_probe(out: &mut Readings) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("scenario zoo {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|path| {
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect();
    assert!(!texts.is_empty(), "no scenarios under {}", dir.display());
    const ROUNDS: usize = 20;
    out.insert(
        "sim.spec.parse_us".into(),
        median_of_passes(|| {
            let (elapsed, ()) = secs(|| {
                for _ in 0..ROUNDS {
                    for text in &texts {
                        black_box(ScenarioSpec::from_toml_str(text).expect("the zoo parses"));
                    }
                }
            });
            elapsed * 1e6 / (ROUNDS * texts.len()) as f64
        }),
    );
}

/// `sim_multichannel`'s popularity shift at a tenth of its population:
/// `set_channel` restarts a learner and migrates a ledger row per viewer.
fn migrate_probe(out: &mut Readings) {
    const MOVED: usize = 400;
    let w = Workload::SimMultichannel;
    let config = MultiChannelConfig::standard(
        100,
        400.0,
        w.helpers(),
        1,
        w.population() / 10,
        1.2,
        AllocationPolicy::WaterFilling,
        PROBE_SEED,
    );
    let mut sys = MultiChannelSystem::new(config);
    sys.run(2);
    let mut target = 0;
    out.insert(
        "sim.multichannel.migrate_us_per_viewer".into(),
        median_of_passes(|| {
            target += 1;
            secs(|| sys.migrate_viewers(0, target, MOVED)).0 * 1e6 / MOVED as f64
        }),
    );
}
