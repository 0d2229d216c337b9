//! The seeded workload generator. The same seed gives the same job texts,
//! the same cancel choices, the same sweep shuffle and the same start
//! profile; the program under test receives only these generated inputs.

use logit_core::coloring_for_graph;
use logit_graphs::{Graph, GraphBuilder, VertexOrdering};
use logit_server::{fnv1a, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The seed held out for claim checks: tuning runs never use it, so a
/// claimed gain can be confirmed on inputs the change was not fitted to.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Run shape of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Pipelined,
    Tempered,
}

/// The terminal frame a job must end with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// FINAL + DONE, and a stream equal to its offline replay.
    Done,
    /// The client cancels mid-run; the stream must end CANCELLED.
    Cancelled,
    /// Admission must reject the text with this `AdmissionError` code.
    Rejected(&'static str),
}

/// One generated job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub text: String,
    pub mode: Mode,
    pub expect: Expect,
    /// Player updates the job performs when it runs to completion.
    pub updates: u64,
}

/// A game family with its payoff parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    Graphical { delta0: f64, delta1: f64 },
    Ising { coupling: f64, field: f64 },
}

impl Family {
    fn text(self) -> String {
        match self {
            Family::Graphical { delta0, delta1 } => {
                format!("game=graphical\ndelta0={delta0}\ndelta1={delta1}")
            }
            Family::Ising { coupling, field } => {
                format!("game=ising\ncoupling={coupling}\nfield={field}")
            }
        }
    }

    /// The same family with one payoff moved by `bump`: a new content key,
    /// so the job misses the artifact cache.
    fn bumped(self, bump: f64) -> Family {
        match self {
            Family::Graphical { delta0, delta1 } => Family::Graphical {
                delta0: delta0 + bump,
                delta1,
            },
            Family::Ising { coupling, field } => Family::Ising {
                coupling: coupling + bump,
                field,
            },
        }
    }
}

/// The interaction graph a topology describes, built the way admission
/// builds it.
pub fn build_graph(topology: Topology) -> Graph {
    match topology {
        Topology::Ring { n } => GraphBuilder::ring(n),
        Topology::Clique { n } => GraphBuilder::clique(n),
        Topology::Torus { rows, cols } => GraphBuilder::torus(rows, cols),
        Topology::Grid { rows, cols } => GraphBuilder::grid(rows, cols),
        Topology::Hypercube { dim } => GraphBuilder::hypercube(dim),
        Topology::Circulant { n, k } => GraphBuilder::circulant(n, k),
    }
}

fn topology_text(topology: Topology) -> String {
    match topology {
        Topology::Ring { n } => format!("topology=ring\nn={n}"),
        Topology::Clique { n } => format!("topology=clique\nn={n}"),
        Topology::Torus { rows, cols } => format!("topology=torus\nrows={rows}\ncols={cols}"),
        Topology::Grid { rows, cols } => format!("topology=grid\nrows={rows}\ncols={cols}"),
        Topology::Hypercube { dim } => format!("topology=hypercube\ndim={dim}"),
        Topology::Circulant { n, k } => format!("topology=circulant\nn={n}\nk={k}"),
    }
}

/// What sizing needs to know about a topology: its player count, mean
/// degree and colour-class sizes under the server's colouring.
struct Shape {
    topology: Topology,
    degree: f64,
    class_sizes: Vec<u64>,
}

impl Shape {
    fn new(topology: Topology) -> Shape {
        let graph = build_graph(topology);
        let coloring = coloring_for_graph(&graph);
        Shape {
            topology,
            degree: 2.0 * graph.num_edges() as f64 / graph.num_vertices() as f64,
            class_sizes: coloring.classes().map(|c| c.len() as u64).collect(),
        }
    }

    fn n(&self) -> u64 {
        self.topology.num_players() as u64
    }

    fn classes(&self) -> u64 {
        self.class_sizes.len() as u64
    }

    /// Player updates in `ticks` coloured ticks from tick 0.
    fn coloured_updates(&self, ticks: u64) -> u64 {
        let full = ticks / self.classes() * self.n();
        let rest: u64 = self.class_sizes[..(ticks % self.classes()) as usize]
            .iter()
            .sum();
        full + rest
    }
}

/// The eight hot game descriptions of `serve-small`: every family and
/// topology the server offers, at `n` ≈ 64–500, few enough to stay in the
/// server's 32-entry artifact cache.
const HOT: [(Family, Topology); 8] = [
    (
        Family::Graphical {
            delta0: 2.0,
            delta1: 1.0,
        },
        Topology::Torus { rows: 16, cols: 16 },
    ),
    (
        Family::Ising {
            coupling: 1.0,
            field: 0.0,
        },
        Topology::Ring { n: 200 },
    ),
    (
        Family::Graphical {
            delta0: 1.5,
            delta1: 1.0,
        },
        Topology::Ring { n: 500 },
    ),
    (
        Family::Ising {
            coupling: 1.0,
            field: 0.2,
        },
        Topology::Grid { rows: 12, cols: 20 },
    ),
    (
        Family::Graphical {
            delta0: 1.0,
            delta1: 1.25,
        },
        Topology::Circulant { n: 300, k: 3 },
    ),
    (
        Family::Ising {
            coupling: 0.8,
            field: 0.0,
        },
        Topology::Hypercube { dim: 8 },
    ),
    (
        Family::Graphical {
            delta0: 2.0,
            delta1: 1.5,
        },
        Topology::Clique { n: 64 },
    ),
    (
        Family::Ising {
            coupling: 1.2,
            field: -0.1,
        },
        Topology::Torus { rows: 10, cols: 10 },
    ),
];

/// Per-replica work of a `serve-small` job in "neighbour visits": a job
/// on a degree-`d` graph runs `WORK / (d + 4)` updates per replica, about
/// 5 ms of engine work on a 2-core Xeon host.
const SMALL_WORK: f64 = 240_000.0;
/// Replicas of a pipelined `serve-small` job.
const SMALL_REPLICAS: u64 = 4;
/// Independent tempering ensembles of a tempered job, each a 4-rung ladder.
const TEMPER_ENSEMBLES: u64 = 2;
const RUNGS: u64 = 4;
/// Recorded points per pipelined series.
const SAMPLES: u64 = 10;

/// The malformed texts `serve-small` mixes in, each with the admission
/// code it must draw. Built from a well-formed base job by one edit.
pub const MALFORMED: [&str; 8] = [
    "missing-field",
    "unknown-field",
    "bad-value",
    "coordination",
    "ising",
    "ladder",
    "pipeline",
    "protocol",
];

fn malformed(kind: usize, seed: u64) -> Job {
    let pipelined = format!(
        "game=graphical\ndelta0=2\ndelta1=1\ntopology=ring\nn=64\nrule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.5\nsteps=1000\nsample_every=100\nobservable=fraction1\nreplicas=1\nseed={seed}"
    );
    let code = MALFORMED[kind];
    let text = match code {
        "missing-field" => pipelined.replace(&format!("\nseed={seed}"), ""),
        "unknown-field" => format!("{pipelined}\npriority=high"),
        "bad-value" => pipelined.replace("steps=1000", "steps=0"),
        "coordination" => pipelined.replace("delta0=2", "delta0=-1"),
        "ising" => pipelined.replace(
            "game=graphical\ndelta0=2\ndelta1=1",
            "game=ising\ncoupling=-1",
        ),
        "ladder" => format!(
            "game=graphical\ndelta0=2\ndelta1=1\ntopology=ring\nn=64\nrule=logit\nschedule=sweep\nmode=tempered\nladder=geometric\nbeta_min=2\nbeta_max=0.5\nrungs=4\nrounds=4\nsweep_ticks=64\nsample_every=1\nobservable=fraction1\nreplicas=1\nseed={seed}"
        ),
        "pipeline" => format!("{pipelined}\nchunk_ticks=0"),
        "protocol" => format!("{pipelined}\nseed=1"),
        other => unreachable!("no malformed template for {other}"),
    };
    Job {
        text,
        mode: Mode::Pipelined,
        expect: Expect::Rejected(code),
        updates: 0,
    }
}

#[allow(clippy::too_many_arguments)]
fn pipelined_text(
    family: Family,
    topology: Topology,
    rule: &str,
    schedule: &str,
    beta: f64,
    steps: u64,
    observable: &str,
    start: &str,
    replicas: u64,
    seed: u64,
) -> String {
    format!(
        "{}\n{}\nrule={rule}\nschedule={schedule}\nmode=pipelined\nbeta={beta}\nsteps={steps}\nsample_every={}\nobservable={observable}\nstart={start}\nreplicas={replicas}\nseed={seed}",
        family.text(),
        topology_text(topology),
        (steps / SAMPLES).max(1),
    )
}

#[allow(clippy::too_many_arguments)]
fn tempered_text(
    family: Family,
    topology: Topology,
    schedule: &str,
    rounds: u64,
    sweep_ticks: u64,
    samples: u64,
    start: &str,
    seed: u64,
) -> String {
    format!(
        "{}\n{}\nrule=logit\nschedule={schedule}\nmode=tempered\nladder=geometric\nbeta_min=0.5\nbeta_max=2\nrungs={RUNGS}\nrounds={rounds}\nsweep_ticks={sweep_ticks}\nsample_every={}\nobservable=fraction1\nstart={start}\nreplicas={TEMPER_ENSEMBLES}\nseed={seed}",
        family.text(),
        topology_text(topology),
        (rounds / samples).max(1),
    )
}

/// `serve-small`: many small mixed jobs. About 85% pipelined with four
/// replicas and 15% tempered with a four-rung ladder, 90% on the eight hot
/// descriptions and 10% on unique cold ones, and 2% malformed texts.
/// Tempered jobs use the logit rule and the `fraction1` observable.
pub fn serve_small(seed: u64, count: usize) -> Vec<Job> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shapes: Vec<Shape> = HOT.iter().map(|&(_, t)| Shape::new(t)).collect();
    let mut cold = 0u64;
    (0..count)
        .map(|_| {
            let job_seed = rng.gen_range(0..1_000_000_000u64);
            if rng.gen_bool(0.02) {
                return malformed(rng.gen_range(0..MALFORMED.len()), job_seed);
            }
            let hot = rng.gen_range(0..HOT.len());
            let (mut family, topology) = HOT[hot];
            if rng.gen_bool(0.10) {
                cold += 1;
                family = family.bumped(cold as f64 / 4096.0);
            }
            let shape = &shapes[hot];
            let start = ["zeros", "ones"][rng.gen_range(0..2usize)];
            let schedule = ["uniform", "sweep", "coloured"][rng.gen_range(0..3usize)];
            let steps = (SMALL_WORK / (shape.degree + 4.0)) as u64;
            if rng.gen_bool(0.15) {
                let schedule = if schedule == "coloured" {
                    "coloured"
                } else {
                    "sweep"
                };
                // One round sweeps every player once; the ensembles' rungs
                // together do about the updates of a pipelined job.
                let rounds =
                    (SMALL_REPLICAS * steps / (TEMPER_ENSEMBLES * RUNGS * shape.n())).max(1);
                let sweep_ticks = if schedule == "coloured" {
                    shape.classes()
                } else {
                    shape.n()
                };
                return Job {
                    text: tempered_text(
                        family,
                        topology,
                        schedule,
                        rounds,
                        sweep_ticks,
                        10,
                        start,
                        job_seed,
                    ),
                    mode: Mode::Tempered,
                    expect: Expect::Done,
                    updates: TEMPER_ENSEMBLES * RUNGS * rounds * shape.n(),
                };
            }
            let rule = ["logit", "metropolis", "nbr\nnoise=0.05"][rng.gen_range(0..3usize)];
            let beta = [1.2, 1.5, 2.0][rng.gen_range(0..3usize)];
            let observable = ["fraction0", "fraction1", "potential"][rng.gen_range(0..3usize)];
            // A coloured tick updates a whole colour class: size coloured
            // jobs in ticks so their updates match the other schedules.
            let (ticks, updates) = if schedule == "coloured" {
                let ticks = (steps * shape.classes() / shape.n()).max(1);
                (ticks, shape.coloured_updates(ticks))
            } else {
                (steps, steps)
            };
            Job {
                text: pipelined_text(
                    family,
                    topology,
                    rule,
                    schedule,
                    beta,
                    ticks,
                    observable,
                    start,
                    SMALL_REPLICAS,
                    job_seed,
                ),
                mode: Mode::Pipelined,
                expect: Expect::Done,
                updates: SMALL_REPLICAS * updates,
            }
        })
        .collect()
}

/// The `serve-heavy` instances.
const HEAVY_RING: Topology = Topology::Ring { n: 100_000 };
const HEAVY_CIRCULANT: Topology = Topology::Circulant { n: 20_000, k: 4 };
const HEAVY_FAMILY: Family = Family::Graphical {
    delta0: 2.0,
    delta1: 1.0,
};
const HEAVY_REPLICAS: u64 = 8;
const HEAVY_STEPS: u64 = 2_000_000;
const HEAVY_ROUNDS: u64 = 30;

/// `serve-heavy`: long engine-bound jobs in blocks of six, pipelined,
/// pipelined, tempered, pipelined, pipelined, tempered. One job per block,
/// at a seeded position, is cancelled: a tempered one in even blocks and a
/// pipelined one in odd blocks.
pub fn serve_heavy(seed: u64, count: usize) -> Vec<Job> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut jobs = Vec::with_capacity(count);
    let mut cancel_at = 0;
    for i in 0..count {
        if i % 6 == 0 {
            cancel_at = if i % 12 == 0 {
                [2, 5][rng.gen_range(0..2usize)]
            } else {
                [0, 1, 3, 4][rng.gen_range(0..4usize)]
            };
        }
        let job_seed = rng.gen_range(0..1_000_000_000u64);
        let expect = if i % 6 == cancel_at {
            Expect::Cancelled
        } else {
            Expect::Done
        };
        jobs.push(if i % 3 == 2 {
            let n = HEAVY_CIRCULANT.num_players() as u64;
            Job {
                text: tempered_text(
                    HEAVY_FAMILY,
                    HEAVY_CIRCULANT,
                    "sweep",
                    HEAVY_ROUNDS,
                    n,
                    20,
                    "zeros",
                    job_seed,
                ),
                mode: Mode::Tempered,
                expect,
                updates: TEMPER_ENSEMBLES * RUNGS * HEAVY_ROUNDS * n,
            }
        } else {
            Job {
                text: pipelined_text(
                    HEAVY_FAMILY,
                    HEAVY_RING,
                    "logit",
                    "sweep",
                    1.5,
                    HEAVY_STEPS,
                    "fraction1",
                    "zeros",
                    HEAVY_REPLICAS,
                    job_seed,
                ),
                mode: Mode::Pipelined,
                expect,
                updates: HEAVY_REPLICAS * HEAVY_STEPS,
            }
        });
    }
    jobs
}

/// The game descriptions a serve workload's jobs use: the eight of
/// `serve-small`, or the ring and the circulant of `serve-heavy`.
fn hot(heavy: bool) -> Vec<(Family, Topology)> {
    if heavy {
        vec![(HEAVY_FAMILY, HEAVY_RING), (HEAVY_FAMILY, HEAVY_CIRCULANT)]
    } else {
        HOT.to_vec()
    }
}

/// Short jobs that put every hot description of a workload into the
/// server's artifact cache and spawn its worker pool before timing.
pub fn warm_up(heavy: bool) -> Vec<String> {
    hot(heavy)
        .into_iter()
        .map(|(family, topology)| {
            pipelined_text(
                family,
                topology,
                "logit",
                "uniform",
                1.5,
                200,
                "fraction1",
                "zeros",
                2,
                1,
            )
        })
        .collect()
}

/// The hot topologies of a workload (the graphs its cache misses build).
pub fn hot_topologies(heavy: bool) -> Vec<Topology> {
    hot(heavy).into_iter().map(|(_, t)| t).collect()
}

/// The layer probe's instance for a serve workload: `(δ₀, δ₁, topology)`
/// of its first hot description, graphical in both workloads.
pub fn probe_instance(heavy: bool) -> (f64, f64, Topology) {
    match hot(heavy)[0] {
        (Family::Graphical { delta0, delta1 }, topology) => (delta0, delta1, topology),
        (Family::Ising { .. }, _) => unreachable!("the probe descriptions are graphical"),
    }
}

/// Digest of a job list: FNV-1a over every text and its expected outcome.
pub fn jobs_digest(jobs: &[Job]) -> u64 {
    let mut bytes = Vec::new();
    for job in jobs {
        bytes.extend_from_slice(job.text.as_bytes());
        bytes.extend_from_slice(format!("|{:?}\n", job.expect).as_bytes());
    }
    fnv1a(&bytes)
}

/// The sweep instance's label shuffle and its start profile.
pub struct SweepInputs {
    pub shuffle: VertexOrdering,
    pub start: Vec<usize>,
}

/// Seeded inputs of `sweep-1e6`: a uniformly random relabelling of the
/// circulant and a uniformly random 0/1 start profile.
pub fn sweep_inputs(seed: u64, n: usize) -> SweepInputs {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_5EED_5EED_5EED);
    let shuffle = VertexOrdering::random(n, &mut rng);
    let start = (0..n).map(|_| rng.gen_range(0..2usize)).collect();
    SweepInputs { shuffle, start }
}

/// Digest of the sweep inputs: FNV-1a over the shuffle and the start.
pub fn sweep_digest(inputs: &SweepInputs) -> u64 {
    let mut bytes = Vec::with_capacity(inputs.start.len() * 5);
    for (&v, &s) in inputs.shuffle.as_slice().iter().zip(&inputs.start) {
        bytes.extend_from_slice(&(v as u32).to_le_bytes());
        bytes.push(s as u8);
    }
    fnv1a(&bytes)
}

/// Seed of the `j`-th job of a run seeded with `seed`.
pub fn job_seed(seed: u64, j: u64) -> u64 {
    fnv1a(format!("{seed}/{j}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use logit_server::{prepare, ArtifactCache, JobSpec};

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(serve_small(7, 300), serve_small(7, 300));
        assert_eq!(serve_heavy(7, 24), serve_heavy(7, 24));
        assert_ne!(
            jobs_digest(&serve_small(7, 300)),
            jobs_digest(&serve_small(8, 300))
        );
        let (a, b) = (sweep_inputs(7, 1000), sweep_inputs(7, 1000));
        assert_eq!(a.start, b.start);
        assert_eq!(sweep_digest(&a), sweep_digest(&b));
        assert_ne!(sweep_digest(&a), sweep_digest(&sweep_inputs(8, 1000)));
    }

    #[test]
    fn generated_jobs_pass_admission_or_draw_their_code() {
        let cache = ArtifactCache::new(32);
        let mut jobs = serve_small(3, 400);
        jobs.extend((0..MALFORMED.len()).map(|k| malformed(k, 5)));
        jobs.extend(serve_heavy(3, 3));
        for job in jobs {
            let admitted = JobSpec::parse(&job.text).and_then(|spec| prepare(spec, &cache));
            match job.expect {
                Expect::Rejected(code) => {
                    assert_eq!(admitted.err().map(|e| e.code()), Some(code), "{}", job.text)
                }
                _ => assert!(admitted.is_ok(), "{}: {:?}", job.text, admitted.err()),
            }
        }
    }

    #[test]
    fn the_mix_has_its_stated_shares() {
        let jobs = serve_small(11, 5000);
        let share = |f: &dyn Fn(&Job) -> bool| jobs.iter().filter(|j| f(j)).count() as f64 / 5000.0;
        let tempered = share(&|j| j.mode == Mode::Tempered);
        let rejected = share(&|j| matches!(j.expect, Expect::Rejected(_)));
        assert!(
            (0.12..0.18).contains(&tempered),
            "tempered share {tempered}"
        );
        assert!(
            (0.01..0.03).contains(&rejected),
            "malformed share {rejected}"
        );

        let heavy = serve_heavy(11, 120);
        let cancelled = heavy.iter().filter(|j| j.expect == Expect::Cancelled);
        assert_eq!(cancelled.clone().count(), 20);
        assert_eq!(cancelled.filter(|j| j.mode == Mode::Tempered).count(), 10);
    }
}
