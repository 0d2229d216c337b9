//! The job description grammar: `key=value` lines → a validated
//! [`JobSpec`], plus the canonical content hash that keys the derived-
//! artifact cache.
//!
//! Parsing is the first admission stage: it rejects unknown fields,
//! duplicates, unparsable numbers and out-of-limit sizes with typed
//! [`AdmissionError`]s, so a malformed job never reaches the worker pool.
//! The *semantic* validation (does the payoff matrix describe a
//! coordination game, does the ladder increase, do the CSR indices fit in
//! `u32`) happens in [`prepare`](crate::prepare), which funnels the
//! fallible `try_*` constructors of the library crates into the same error
//! type.

use crate::error::AdmissionError;
use std::collections::BTreeMap;

/// Hard admission limits: a multi-tenant server refuses jobs that would
/// monopolise the shared pool, with a typed error instead of an OOM.
pub mod limits {
    /// Largest interaction graph a job may request.
    pub const MAX_PLAYERS: usize = 1 << 20;
    /// Largest replica ensemble per job.
    pub const MAX_REPLICAS: usize = 4096;
    /// Longest run (steps for pipelined jobs, `rounds * sweep_ticks` for
    /// tempered jobs).
    pub const MAX_STEPS: u64 = 1_000_000_000;
    /// Most recorded times a series may have (`steps / sample_every`).
    pub const MAX_SAMPLES: u64 = 100_000;
    /// Most rungs a β-ladder may have.
    pub const MAX_RUNGS: usize = 64;
    /// Largest interaction graph by edge count (a 2^20-vertex clique
    /// would be half a trillion edges — refuse before building it).
    pub const MAX_EDGES: u64 = 1 << 23;
}

/// Which game family the job simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GameFamily {
    /// Graphical coordination game (paper Section 5) with payoff gaps
    /// `δ₀ = a − d` and `δ₁ = b − c` played on every edge.
    Graphical { delta0: f64, delta1: f64 },
    /// Ferromagnetic Ising model with coupling `J` and external field `h`.
    Ising { coupling: f64, field: f64 },
}

/// The interaction topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Ring { n: usize },
    Clique { n: usize },
    Torus { rows: usize, cols: usize },
    Grid { rows: usize, cols: usize },
    Hypercube { dim: usize },
    Circulant { n: usize, k: usize },
}

impl Topology {
    /// Number of players the topology induces, saturating at `usize::MAX`
    /// for dimensions whose product does not fit.
    pub fn num_players(&self) -> usize {
        match *self {
            Topology::Ring { n } | Topology::Clique { n } | Topology::Circulant { n, .. } => n,
            Topology::Torus { rows, cols } | Topology::Grid { rows, cols } => {
                rows.saturating_mul(cols)
            }
            Topology::Hypercube { dim } => u32::try_from(dim)
                .ok()
                .and_then(|dim| 1usize.checked_shl(dim))
                .unwrap_or(usize::MAX),
        }
    }
}

/// The revision rule applied at each selected player.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleKind {
    /// Logit choice (the paper's dynamics).
    Logit,
    /// Metropolis acceptance with logit proposals.
    Metropolis,
    /// Noisy best response with mutation probability `noise`.
    Nbr { noise: f64 },
}

/// Which players revise at each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// One uniformly random player per tick (the paper's dynamics).
    Uniform,
    /// Systematic sweep in player order.
    Sweep,
    /// All players simultaneously.
    All,
    /// Colour classes in round-robin (parallel-revision model); uses the
    /// cached greedy colouring of the interaction graph.
    Coloured,
}

/// How the β-ladder of a tempered job is spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderSpec {
    /// `true` → geometric spacing, `false` → linear.
    pub geometric: bool,
    pub beta_min: f64,
    pub beta_max: f64,
    pub rungs: usize,
}

/// Single-β pipelined run vs. replica-exchange tempered run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModeKind {
    /// Farm the replicas through the pipelined engine at one β.
    Pipelined { beta: f64, steps: u64 },
    /// Parallel tempering across a β-ladder.
    Tempered {
        ladder: LadderSpec,
        rounds: u64,
        sweep_ticks: u64,
    },
}

/// The streamed observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservableKind {
    /// Fraction of players on strategy 0.
    Fraction0,
    /// Fraction of players on strategy 1.
    Fraction1,
    /// The exact potential Φ.
    Potential,
}

/// The deterministic start profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    Zeros,
    Ones,
}

/// A fully parsed, limit-checked job description.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub game: GameFamily,
    pub topology: Topology,
    pub rule: RuleKind,
    pub schedule: ScheduleKind,
    pub mode: ModeKind,
    pub observable: ObservableKind,
    pub start: StartKind,
    pub replicas: usize,
    pub seed: u64,
    pub sample_every: u64,
    /// Optional pipeline-farm chunk override (ticks per worker chunk).
    pub chunk_ticks: Option<u64>,
    /// Optional pipeline-farm channel-capacity override.
    pub channel_capacity: Option<usize>,
}

fn bad(field: &'static str, reason: impl Into<String>) -> AdmissionError {
    AdmissionError::BadValue {
        field,
        reason: reason.into(),
    }
}

/// The raw `key=value` map with take-and-complain-about-leftovers access.
struct Fields(BTreeMap<String, String>);

impl Fields {
    fn parse(text: &str) -> Result<Fields, AdmissionError> {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                AdmissionError::Protocol(format!("job line `{line}` is not key=value"))
            })?;
            let key = key.trim().to_string();
            if map.insert(key.clone(), value.trim().to_string()).is_some() {
                return Err(AdmissionError::Protocol(format!(
                    "field `{key}` given more than once"
                )));
            }
        }
        Ok(Fields(map))
    }

    fn take(&mut self, key: &'static str) -> Result<String, AdmissionError> {
        self.0.remove(key).ok_or(AdmissionError::MissingField(key))
    }

    fn take_opt(&mut self, key: &str) -> Option<String> {
        self.0.remove(key)
    }

    fn take_u64(&mut self, key: &'static str) -> Result<u64, AdmissionError> {
        let raw = self.take(key)?;
        raw.parse::<u64>()
            .map_err(|_| bad(key, format!("`{raw}` is not an unsigned integer")))
    }

    fn take_usize(&mut self, key: &'static str) -> Result<usize, AdmissionError> {
        Ok(self.take_u64(key)? as usize)
    }

    fn take_f64(&mut self, key: &'static str) -> Result<f64, AdmissionError> {
        let raw = self.take(key)?;
        let v = raw
            .parse::<f64>()
            .map_err(|_| bad(key, format!("`{raw}` is not a number")))?;
        if !v.is_finite() {
            return Err(bad(key, "must be finite"));
        }
        Ok(v)
    }

    fn finish(self) -> Result<(), AdmissionError> {
        match self.0.into_keys().next() {
            None => Ok(()),
            Some(key) => Err(AdmissionError::UnknownField(key)),
        }
    }
}

impl JobSpec {
    /// Parses and limit-checks a job description.
    pub fn parse(text: &str) -> Result<JobSpec, AdmissionError> {
        let mut f = Fields::parse(text)?;

        let topology = match f.take("topology")?.as_str() {
            "ring" => Topology::Ring {
                n: f.take_usize("n")?,
            },
            "clique" => Topology::Clique {
                n: f.take_usize("n")?,
            },
            "torus" => Topology::Torus {
                rows: f.take_usize("rows")?,
                cols: f.take_usize("cols")?,
            },
            "grid" => Topology::Grid {
                rows: f.take_usize("rows")?,
                cols: f.take_usize("cols")?,
            },
            "hypercube" => Topology::Hypercube {
                dim: f.take_usize("dim")?,
            },
            "circulant" => Topology::Circulant {
                n: f.take_usize("n")?,
                k: f.take_usize("k")?,
            },
            other => return Err(bad("topology", format!("unknown topology `{other}`"))),
        };
        // Pre-check the builder preconditions so malformed topologies are
        // typed rejections, never a panic in a handler thread. Every size
        // product saturates: a client's integers may be anything up to
        // `u64::MAX`, and a wrapped product could admit an unbounded graph.
        match topology {
            Topology::Ring { n } if n < 3 => {
                return Err(bad("n", "a ring needs at least 3 vertices"));
            }
            Topology::Torus { rows, cols } if rows < 3 || cols < 3 => {
                return Err(bad("rows", "a torus needs both dimensions at least 3"));
            }
            Topology::Circulant { n, k } if k < 1 || n <= k.saturating_mul(2) => {
                return Err(bad("k", "a circulant needs 1 <= k and n >= 2k + 1"));
            }
            Topology::Hypercube { dim } if dim >= 21 => {
                return Err(bad("dim", "hypercube dimension must be at most 20"));
            }
            _ => {}
        }
        let edges: u64 = match topology {
            Topology::Ring { n } => n as u64,
            Topology::Clique { n } => (n as u64).saturating_mul((n as u64).saturating_sub(1)) / 2,
            Topology::Torus { rows, cols } | Topology::Grid { rows, cols } => {
                (rows as u64).saturating_mul(cols as u64).saturating_mul(2)
            }
            Topology::Hypercube { dim } => (dim as u64) << (dim.saturating_sub(1)),
            Topology::Circulant { n, k } => (n as u64).saturating_mul(k as u64),
        };
        if edges > limits::MAX_EDGES {
            return Err(bad(
                "topology",
                format!(
                    "induces about {edges} edges, above the limit of {}",
                    limits::MAX_EDGES
                ),
            ));
        }
        let players = topology.num_players();
        if players == 0 {
            return Err(bad("topology", "induces zero players"));
        }
        if players > limits::MAX_PLAYERS {
            return Err(bad(
                "topology",
                format!(
                    "induces {players} players, above the limit of {}",
                    limits::MAX_PLAYERS
                ),
            ));
        }

        let game = match f.take("game")?.as_str() {
            "graphical" => GameFamily::Graphical {
                delta0: f.take_f64("delta0")?,
                delta1: f.take_f64("delta1")?,
            },
            "ising" => {
                let coupling = f.take_f64("coupling")?;
                let field = match f.take_opt("field") {
                    None => 0.0,
                    Some(raw) => {
                        let v = raw
                            .parse::<f64>()
                            .map_err(|_| bad("field", format!("`{raw}` is not a number")))?;
                        if !v.is_finite() {
                            return Err(bad("field", "must be finite"));
                        }
                        v
                    }
                };
                GameFamily::Ising { coupling, field }
            }
            other => return Err(bad("game", format!("unknown game family `{other}`"))),
        };

        let rule = match f.take("rule")?.as_str() {
            "logit" => RuleKind::Logit,
            "metropolis" => RuleKind::Metropolis,
            "nbr" => {
                let noise = f.take_f64("noise")?;
                if !(0.0..=1.0).contains(&noise) {
                    return Err(bad("noise", "must lie in [0, 1]"));
                }
                RuleKind::Nbr { noise }
            }
            other => return Err(bad("rule", format!("unknown rule `{other}`"))),
        };

        let schedule = match f.take("schedule")?.as_str() {
            "uniform" => ScheduleKind::Uniform,
            "sweep" => ScheduleKind::Sweep,
            "all" => ScheduleKind::All,
            "coloured" => ScheduleKind::Coloured,
            other => return Err(bad("schedule", format!("unknown schedule `{other}`"))),
        };

        let sample_every = f.take_u64("sample_every")?;
        if sample_every == 0 {
            return Err(bad("sample_every", "must be at least 1"));
        }

        let mode = match f.take("mode")?.as_str() {
            "pipelined" => {
                let beta = f.take_f64("beta")?;
                if beta < 0.0 {
                    return Err(bad("beta", "must be non-negative"));
                }
                let steps = f.take_u64("steps")?;
                if steps == 0 || steps > limits::MAX_STEPS {
                    return Err(bad(
                        "steps",
                        format!("must lie in 1..={}", limits::MAX_STEPS),
                    ));
                }
                if steps / sample_every > limits::MAX_SAMPLES {
                    return Err(bad(
                        "sample_every",
                        format!("would record more than {} samples", limits::MAX_SAMPLES),
                    ));
                }
                ModeKind::Pipelined { beta, steps }
            }
            "tempered" => {
                let geometric = match f.take("ladder")?.as_str() {
                    "geometric" => true,
                    "linear" => false,
                    other => return Err(bad("ladder", format!("unknown ladder `{other}`"))),
                };
                // Endpoint/monotonicity validation is deferred to
                // `BetaLadder::try_*` in `prepare`, so the ladder
                // crate stays the single source of truth.
                let ladder = LadderSpec {
                    geometric,
                    beta_min: f.take_f64("beta_min")?,
                    beta_max: f.take_f64("beta_max")?,
                    rungs: f.take_usize("rungs")?,
                };
                if ladder.rungs > limits::MAX_RUNGS {
                    return Err(bad(
                        "rungs",
                        format!("must be at most {}", limits::MAX_RUNGS),
                    ));
                }
                let rounds = f.take_u64("rounds")?;
                let sweep_ticks = f.take_u64("sweep_ticks")?;
                if rounds == 0 || sweep_ticks == 0 {
                    return Err(bad("rounds", "rounds and sweep_ticks must be at least 1"));
                }
                let total = rounds.saturating_mul(sweep_ticks);
                if total > limits::MAX_STEPS {
                    return Err(bad(
                        "rounds",
                        format!("rounds * sweep_ticks must be at most {}", limits::MAX_STEPS),
                    ));
                }
                if rounds / sample_every > limits::MAX_SAMPLES {
                    return Err(bad(
                        "sample_every",
                        format!("would record more than {} samples", limits::MAX_SAMPLES),
                    ));
                }
                ModeKind::Tempered {
                    ladder,
                    rounds,
                    sweep_ticks,
                }
            }
            other => return Err(bad("mode", format!("unknown mode `{other}`"))),
        };

        let observable = match f.take("observable")?.as_str() {
            "fraction0" => ObservableKind::Fraction0,
            "fraction1" => ObservableKind::Fraction1,
            "potential" => ObservableKind::Potential,
            other => return Err(bad("observable", format!("unknown observable `{other}`"))),
        };

        let start = match f.take_opt("start").as_deref().unwrap_or("zeros") {
            "zeros" => StartKind::Zeros,
            "ones" => StartKind::Ones,
            other => return Err(bad("start", format!("unknown start profile `{other}`"))),
        };

        let replicas = f.take_usize("replicas")?;
        if replicas == 0 || replicas > limits::MAX_REPLICAS {
            return Err(bad(
                "replicas",
                format!("must lie in 1..={}", limits::MAX_REPLICAS),
            ));
        }
        let seed = f.take_u64("seed")?;

        // Pipeline-farm overrides are passed through *unchecked* here:
        // `PipelineConfig::try_validate` in `prepare` owns the boundary, so
        // a zero or oversized value lands there as a typed `pipeline:`
        // admission error rather than tripping the farm's `assert!` or its
        // channel allocation.
        let chunk_ticks = f
            .take_opt("chunk_ticks")
            .map(|raw| {
                raw.parse::<u64>()
                    .map_err(|_| bad("chunk_ticks", format!("`{raw}` is not an unsigned integer")))
            })
            .transpose()?;
        let channel_capacity = f
            .take_opt("channel_capacity")
            .map(|raw| {
                raw.parse::<usize>().map_err(|_| {
                    bad(
                        "channel_capacity",
                        format!("`{raw}` is not an unsigned integer"),
                    )
                })
            })
            .transpose()?;

        f.finish()?;
        Ok(JobSpec {
            game,
            topology,
            rule,
            schedule,
            mode,
            observable,
            start,
            replicas,
            seed,
            sample_every,
            chunk_ticks,
            channel_capacity,
        })
    }

    /// Canonical text of the *game description* — family, payoffs and
    /// topology, the inputs every cached derived artifact (interaction
    /// graph, colouring, locality ordering) is a pure function of. Floats
    /// are rendered as bit patterns so the key is injective.
    pub fn canonical_game_text(&self) -> String {
        use crate::protocol::encode_f64;
        let game = match self.game {
            GameFamily::Graphical { delta0, delta1 } => format!(
                "graphical delta0={} delta1={}",
                encode_f64(delta0),
                encode_f64(delta1)
            ),
            GameFamily::Ising { coupling, field } => format!(
                "ising coupling={} field={}",
                encode_f64(coupling),
                encode_f64(field)
            ),
        };
        let topology = match self.topology {
            Topology::Ring { n } => format!("ring n={n}"),
            Topology::Clique { n } => format!("clique n={n}"),
            Topology::Torus { rows, cols } => format!("torus rows={rows} cols={cols}"),
            Topology::Grid { rows, cols } => format!("grid rows={rows} cols={cols}"),
            Topology::Hypercube { dim } => format!("hypercube dim={dim}"),
            Topology::Circulant { n, k } => format!("circulant n={n} k={k}"),
        };
        format!("{game} | {topology}")
    }

    /// FNV-1a 64-bit content hash of [`canonical_game_text`](Self::canonical_game_text):
    /// the artifact-cache key.
    pub fn content_key(&self) -> u64 {
        fnv1a(self.canonical_game_text().as_bytes())
    }
}

/// FNV-1a 64-bit hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_job() -> String {
        [
            "game=graphical",
            "topology=ring",
            "n=16",
            "delta0=2.0",
            "delta1=1.0",
            "rule=logit",
            "schedule=uniform",
            "mode=pipelined",
            "beta=1.25",
            "steps=400",
            "sample_every=100",
            "observable=fraction1",
            "replicas=8",
            "seed=7",
        ]
        .join("\n")
    }

    #[test]
    fn a_wellformed_job_parses() {
        let spec = JobSpec::parse(&base_job()).unwrap();
        assert_eq!(spec.topology, Topology::Ring { n: 16 });
        assert_eq!(spec.replicas, 8);
        assert_eq!(
            spec.mode,
            ModeKind::Pipelined {
                beta: 1.25,
                steps: 400
            }
        );
        assert_eq!(spec.start, StartKind::Zeros);
        assert!(spec.chunk_ticks.is_none());
    }

    #[test]
    fn malformed_jobs_get_typed_errors() {
        let missing = JobSpec::parse("game=ising\n");
        assert_eq!(missing.unwrap_err().code(), "missing-field");

        let unknown = JobSpec::parse(&format!("{}\nwat=1", base_job()));
        assert_eq!(unknown.unwrap_err().code(), "unknown-field");

        let dup = JobSpec::parse(&format!("{}\ngame=ising", base_job()));
        assert_eq!(dup.unwrap_err().code(), "protocol");

        let oversized = JobSpec::parse(&base_job().replace("n=16", "n=9999999"));
        assert_eq!(oversized.unwrap_err().code(), "bad-value");

        let zero_steps = JobSpec::parse(&base_job().replace("steps=400", "steps=0"));
        assert_eq!(zero_steps.unwrap_err().code(), "bad-value");

        let nan_beta = JobSpec::parse(&base_job().replace("beta=1.25", "beta=nan"));
        assert_eq!(nan_beta.unwrap_err().code(), "bad-value");
    }

    #[test]
    fn overflowing_topology_sizes_are_typed_rejections() {
        // Each size product overflows u64: a debug build must not panic on
        // it, and a release build must not wrap it into an admitted job.
        for topology in [
            "topology=circulant\nn=10\nk=9223372036854775808",
            "topology=torus\nrows=4294967296\ncols=4294967296",
            "topology=grid\nrows=4294967296\ncols=4294967296",
            "topology=clique\nn=18446744073709551615",
        ] {
            let text = base_job().replace("topology=ring\nn=16", topology);
            let err = JobSpec::parse(&text).expect_err(topology);
            assert_eq!(err.code(), "bad-value", "{topology}: {err}");
        }
        // The saturating player count never wraps either.
        let huge = Topology::Torus {
            rows: 1 << 32,
            cols: 1 << 32,
        };
        assert_eq!(huge.num_players(), usize::MAX);
        assert_eq!(Topology::Hypercube { dim: 64 }.num_players(), usize::MAX);
    }

    #[test]
    fn the_content_key_tracks_the_game_not_the_run() {
        let a = JobSpec::parse(&base_job()).unwrap();
        // Same game, different run parameters → same artifacts.
        let b = JobSpec::parse(&base_job().replace("seed=7", "seed=99")).unwrap();
        assert_eq!(a.content_key(), b.content_key());
        // Different payoffs → different artifacts.
        let c = JobSpec::parse(&base_job().replace("delta0=2.0", "delta0=3.0")).unwrap();
        assert_ne!(a.content_key(), c.content_key());
        // Different topology → different artifacts.
        let d = JobSpec::parse(&base_job().replace("n=16", "n=18")).unwrap();
        assert_ne!(a.content_key(), d.content_key());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
