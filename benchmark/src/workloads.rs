//! The five workloads. Each is a [`Workload`]: one round is one set-up plus
//! one fixed unit of work, identical every round and on every commit.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use htmbench::registry::Spec;
use live::{http_get, Aggregator, LiveServer};
use txsampler::{store, Profile};
use txsim_htm::{FuncId, FuncRegistry};

use crate::cases::{run_pass, sim_digest, PassOutcome, SimPlan};
use crate::product;
use crate::run::{Recorder, Workload};

/// Product operations (save, load, report, …) per round on a workload's
/// own profile: enough repeats for a median, cheap next to the simulation.
const PRODUCT_REPS: usize = 12;
/// The same on `profile_io`'s fleet-sized profile, where they are the work.
const FLEET_REPS: usize = 3;
/// Instances merged into `profile_io`'s fleet profile.
const FLEET_INSTANCES: usize = 64;
/// Thread-id stride between fleet instances (as the aggregator uses).
const FLEET_TID_STRIDE: usize = 1024;
/// The live client polls the aggregator every this many scrape cycles.
const AGG_EVERY: u64 = 50;

/// The names `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 5] = [
    "solo_sim",
    "duo_contended",
    "sample_storm",
    "profile_io",
    "live_scrape",
];

/// What every round of a process must reproduce exactly.
#[derive(Debug, Default)]
pub struct Baseline {
    checksums: Option<Vec<u64>>,
    pub digest: Option<u64>,
    /// Whether every round's digest equalled the first round's.
    pub digest_stable: bool,
}

/// State shared by all workloads: the registry programs, one symbol table
/// for the whole process (so profiles of different runs merge), the seed.
pub struct Sim {
    pub plan: SimPlan,
    specs: Vec<Spec>,
    pub funcs: FuncRegistry,
    seed: u64,
    pub baseline: Baseline,
    /// The most recent pass, for the per-layer counts.
    pub last: Option<PassOutcome>,
}

impl Sim {
    pub fn new(plan: SimPlan, seed: u64) -> Sim {
        Sim {
            plan,
            specs: htmbench::all(),
            funcs: FuncRegistry::new(),
            seed,
            baseline: Baseline {
                digest_stable: true,
                ..Baseline::default()
            },
            last: None,
        }
    }

    /// Record one pass: per-case timings and counts, and the correctness
    /// checks. Returns the pass's set-up time — everything a run spent
    /// outside its parallel phase (domain construction, shared-state
    /// build, verify, merge).
    fn record(&mut self, rec: &mut Recorder, pass: &PassOutcome) -> f64 {
        let mut setup = 0.0;
        for (i, case) in pass.cases.iter().enumerate() {
            let program = self.plan.cases[i].program;
            for (what, value) in [
                ("native_wall_s", case.native.wall_s),
                ("prof_wall_s", case.profiled.wall_s),
                ("native_cycles", case.native.cycles as f64),
                ("prof_cycles", case.profiled.cycles as f64),
                ("samples", case.samples as f64),
                ("mem_samples", case.mem_samples as f64),
                ("est_commits", case.est_commits as f64),
                ("truth_commits", case.profiled.truth.htm_commits as f64),
            ] {
                rec.push(&format!("case.{i}.{what}"), value);
            }
            setup += (case.native.elapsed_s - case.native.wall_s)
                + (case.profiled.elapsed_s - case.profiled.wall_s);
            rec.check(
                "checksum.native_vs_profiled",
                case.native.checksum == case.profiled.checksum,
                || {
                    format!(
                        "{program}: native {:#x} != profiled {:#x}",
                        case.native.checksum, case.profiled.checksum
                    )
                },
            );
        }
        let checksums: Vec<u64> = pass.cases.iter().map(|c| c.native.checksum).collect();
        match &self.baseline.checksums {
            None => self.baseline.checksums = Some(checksums),
            Some(first) => rec.check("checksum.across_rounds", *first == checksums, || {
                "a program's checksum changed between rounds of one process".into()
            }),
        }
        let digest = sim_digest(&pass.cases);
        match self.baseline.digest {
            None => self.baseline.digest = Some(digest),
            Some(first) if first != digest => {
                self.baseline.digest_stable = false;
                // One simulated thread has no scheduling freedom: its
                // statistics must repeat exactly. Two threads race inside
                // the scheduler's quantum band, so there it is reported.
                if self.plan.threads == 1 {
                    rec.check("sim_digest.across_rounds", false, || {
                        format!("digest {digest:#x} != first round's {first:#x}")
                    });
                }
            }
            Some(_) => {
                if self.plan.threads == 1 {
                    rec.check("sim_digest.across_rounds", true, String::new);
                }
            }
        }
        setup
    }
}

/// A workload whose simulated part the reports can inspect afterwards.
pub trait SimBacked: Workload {
    fn sim(&self) -> &Sim;
}

/// `solo_sim`, `duo_contended` and `sample_storm`: simulate, then use the
/// resulting profile.
pub struct SimWorkload(pub Sim);

impl SimBacked for SimWorkload {
    fn sim(&self) -> &Sim {
        &self.0
    }
}

impl SimBacked for ProfileIo {
    fn sim(&self) -> &Sim {
        &self.sim
    }
}

impl SimBacked for LiveScrape {
    fn sim(&self) -> &Sim {
        &self.0
    }
}

impl Workload for SimWorkload {
    fn round(&mut self, rec: &mut Recorder, _iter: u32) {
        let sim = &mut self.0;
        let hub = sim.plan.new_hub();
        let pass = run_pass(
            &sim.plan,
            &sim.specs,
            &sim.funcs,
            sim.seed,
            hub.as_ref(),
            rec,
        );
        let setup = sim.record(rec, &pass);
        rec.push("setup_s", setup);
        rec.scope("product", |rec| {
            product::exercise(rec, &pass.product, &pass.half, &sim.funcs, PRODUCT_REPS)
        });
        sim.last = Some(pass);
    }
}

/// `profile_io`: set-up simulates twelve programs once and merges the
/// result into a fleet of 32 instances; the timed phase only saves, loads,
/// renders and diffs that profile — no simulated cycle runs in it.
pub struct ProfileIo {
    pub sim: Sim,
    smoke: bool,
    /// The first round's `.txsp` bytes: the same seed must reproduce them.
    first_text: Option<String>,
}

impl ProfileIo {
    pub fn new(sim: Sim, smoke: bool) -> ProfileIo {
        ProfileIo {
            sim,
            smoke,
            first_text: None,
        }
    }

    /// Merge `instances` copies of `one`, each moved into its own function
    /// id space first — what the fleet aggregator does with the profiles
    /// of distinct instances. Returns the fleet and its first half.
    fn build_fleet(
        &self,
        rec: &mut Recorder,
        one: &Profile,
        instances: usize,
    ) -> (Profile, Profile) {
        let funcs = &self.sim.funcs;
        let mut fleet = Profile::default();
        let mut half = Profile::default();
        for k in 0..instances {
            let mut ids: HashMap<u32, FuncId> = HashMap::new();
            let mut rename = |id: FuncId| {
                if id == FuncId::UNKNOWN {
                    return id;
                }
                *ids.entry(id.0).or_insert_with(|| match funcs.resolve(id) {
                    Some(info) => {
                        funcs.intern(&format!("inst{k}:{}", info.name), &info.file, info.line)
                    }
                    None => id,
                })
            };
            let remapped = rec.timed("profile.remap", || one.remap_funcs(&mut rename));
            rec.timed("profile.absorb", || {
                fleet.absorb_profile(&remapped, k * FLEET_TID_STRIDE)
            });
            if k + 1 == instances / 2 {
                half = fleet.clone();
            }
        }
        (fleet, half)
    }
}

impl Workload for ProfileIo {
    fn round(&mut self, rec: &mut Recorder, _iter: u32) {
        let setup_started = Instant::now();
        let (fleet, half) = rec.scope("corpus", |rec| {
            let sim = &mut self.sim;
            let pass = run_pass(&sim.plan, &sim.specs, &sim.funcs, sim.seed, None, rec);
            sim.record(rec, &pass);
            let fleet = self.build_fleet(rec, &pass.product, FLEET_INSTANCES);
            self.sim.last = Some(pass);
            fleet
        });
        let text = store::save_with_funcs(&fleet, &self.sim.funcs);
        rec.check("corpus.size", self.smoke || text.len() >= 1_000_000, || {
            format!("fleet profile is only {} bytes", text.len())
        });
        match &self.first_text {
            None => self.first_text = Some(text),
            Some(first) => rec.check(
                "corpus.deterministic",
                product::canonical_lines(first) == product::canonical_lines(&text),
                || "the same seed produced a different .txsp".into(),
            ),
        }
        rec.push("setup_s", setup_started.elapsed().as_secs_f64());
        rec.scope("product", |rec| {
            product::exercise(rec, &fleet, &half, &self.sim.funcs, FLEET_REPS)
        });
    }
}

/// `live_scrape`: the `sample_storm` programs publish to a hub that a
/// `LiveServer` serves, while one closed-loop client (one connection at a
/// time) scrapes it and an aggregator follows it.
pub struct LiveScrape(pub Sim);

/// One GET: latency sample, status check, body.
fn scrape(rec: &mut Recorder, key: &'static str, addr: SocketAddr, path: &str) -> Option<String> {
    let result = rec.timed(key, || http_get(addr, path));
    match result {
        Ok((status, body)) => {
            rec.check(key, status.contains("200"), || format!("{path}: {status}"));
            Some(body)
        }
        Err(e) => {
            rec.check(key, false, || format!("{path}: {e}"));
            None
        }
    }
}

/// Scrape cycles until `stop`: `/metrics`, `/delta?since=<last>`,
/// `/flamegraph`, `/healthz`, and every [`AGG_EVERY`]th cycle one
/// aggregator poll plus fleet merge.
fn client_loop(rec: &mut Recorder, addr: SocketAddr, agg: &Aggregator, stop: &AtomicBool) {
    let mut last_epoch = 0u64;
    let mut cycle = 0u64;
    while !stop.load(Ordering::Acquire) {
        scrape(rec, "scrape.metrics", addr, "/metrics");
        if let Some(body) = scrape(
            rec,
            "scrape.delta",
            addr,
            &format!("/delta?since={last_epoch}"),
        ) {
            match store::load_delta(&body) {
                Ok(chunk) => {
                    rec.check("scrape.delta.parse", chunk.to >= last_epoch, || {
                        format!("delta went backwards: {} < {last_epoch}", chunk.to)
                    });
                    rec.push("scrape.delta_bytes", body.len() as f64);
                    last_epoch = chunk.to;
                }
                Err(e) => rec.check("scrape.delta.parse", false, || e.to_string()),
            }
        }
        scrape(rec, "scrape.flamegraph", addr, "/flamegraph");
        scrape(rec, "scrape.healthz", addr, "/healthz");
        cycle += 1;
        if cycle.is_multiple_of(AGG_EVERY) {
            rec.timed("agg.poll", || agg.poll_all());
            rec.timed("agg.fleet_merge", || agg.fleet());
        }
    }
    rec.push("scrape.cycles", cycle as f64);
}

impl Workload for LiveScrape {
    fn round(&mut self, rec: &mut Recorder, iter: u32) {
        let sim = &mut self.0;
        let setup_started = Instant::now();
        let hub = sim.plan.new_hub().expect("live_scrape publishes to a hub");
        let mut server = LiveServer::start(Arc::clone(&hub), sim.funcs.clone(), 0)
            .expect("bind an ephemeral port on 127.0.0.1");
        let addr = server.addr();
        let agg = Aggregator::new(&[addr.to_string()]).expect("aggregator follows the server");
        let server_setup = setup_started.elapsed().as_secs_f64();

        let stop = AtomicBool::new(false);
        let mut driver_rec = rec.for_thread(iter);
        let pass = std::thread::scope(|s| {
            let driver = s.spawn(|| {
                let pass = driver_rec.scope("driver", |drec| {
                    run_pass(
                        &sim.plan,
                        &sim.specs,
                        &sim.funcs,
                        sim.seed,
                        Some(&hub),
                        drec,
                    )
                });
                stop.store(true, Ordering::Release);
                pass
            });
            rec.scope("client", |rec| client_loop(rec, addr, &agg, &stop));
            driver.join().expect("driver thread panicked")
        });
        rec.merge_thread("driver", driver_rec);

        // The aggregator must have followed the instance without errors.
        agg.poll_all();
        for status in agg.statuses() {
            rec.push("agg.resyncs", status.resyncs as f64);
            rec.push("agg.errors", status.errors as f64);
            rec.push(
                "agg.bytes_per_poll",
                status.delta_bytes as f64 / status.polls.max(1) as f64,
            );
            rec.check("agg.follow", status.errors == 0 && status.healthy, || {
                format!(
                    "aggregator: {} errors, last {:?}",
                    status.errors, status.last_error
                )
            });
            rec.check(
                "agg.caught_up",
                status.samples == hub.latest().profile.samples,
                || {
                    format!(
                        "aggregator absorbed {} samples, hub has {}",
                        status.samples,
                        hub.latest().profile.samples
                    )
                },
            );
        }
        server.shutdown();

        let setup = server_setup + sim.record(rec, &pass);
        rec.push("setup_s", setup);
        rec.scope("product", |rec| {
            product::exercise(rec, &pass.product, &pass.half, &sim.funcs, PRODUCT_REPS)
        });
        sim.last = Some(pass);
    }
}

/// Build the workload called `name` (`None` for an unknown name).
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn SimBacked>> {
    let plan = match name {
        "solo_sim" => SimPlan::solo(),
        "duo_contended" => SimPlan::duo(),
        "sample_storm" => SimPlan::storm(1_000),
        "profile_io" => SimPlan::corpus(),
        "live_scrape" => SimPlan::storm(200),
        _ => return None,
    };
    let plan = if smoke { plan.smoke() } else { plan };
    let sim = Sim::new(plan, seed);
    Some(match name {
        "profile_io" => Box::new(ProfileIo::new(sim, smoke)),
        "live_scrape" => Box::new(LiveScrape(sim)),
        _ => Box::new(SimWorkload(sim)),
    })
}
