//! Fuzz targets for the server's two input parsers: the frame reader and
//! the job-description grammar. Both face raw client bytes, so neither may
//! panic on any input: a malformed frame is an `io::Error`, a malformed job
//! is a typed `AdmissionError`, and an admitted job stays inside the
//! admission limits. Parsing only: no case reaches `prepare` or the pool.

use logit_core::PipelineConfig;
use logit_server::job::limits;
use logit_server::protocol::{read_frame, write_frame, MAX_FRAME_LEN};
use logit_server::{JobSpec, Topology};
use proptest::prelude::*;
use std::io::Cursor;

const CASES: u32 = 10_000;

/// Byte strings that look like frames often enough to get past the length
/// and UTF-8 checks: raw noise, an exact length prefix over noise or over
/// ASCII, or a prefix a few bytes off the body length (truncated or
/// overlong frames).
fn frame_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0u32..4, -3i64..4, prop::collection::vec(0u32..256, 0..48)).prop_map(|(shape, skew, body)| {
        let mut body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
        let announced = (body.len() as i64 + skew).max(0) as u32;
        match shape {
            0 => body,
            1 => [(body.len() as u32).to_be_bytes().to_vec(), body].concat(),
            2 => {
                body.iter_mut().for_each(|b| *b &= 0x7f);
                [(body.len() as u32).to_be_bytes().to_vec(), body].concat()
            }
            _ => [announced.to_be_bytes().to_vec(), body].concat(),
        }
    })
}

/// Arbitrary text, multi-byte code points included.
fn text(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x1_1000, 0..max_len).prop_map(|points| {
        points
            .into_iter()
            .map(|p| char::from_u32(p).unwrap_or('?'))
            .collect()
    })
}

/// Valid jobs covering every topology, both modes and the optional fields,
/// one `key=value` per line.
const BASE_JOBS: [&str; 4] = [
    "game=graphical\ntopology=ring\nn=16\ndelta0=2.0\ndelta1=1.0\nrule=logit\n\
     schedule=uniform\nmode=pipelined\nbeta=1.25\nsteps=400\nsample_every=100\n\
     observable=fraction1\nreplicas=8\nseed=7\nchunk_ticks=64\nchannel_capacity=4",
    "game=ising\ntopology=torus\nrows=4\ncols=5\ncoupling=0.8\nfield=0.1\n\
     rule=nbr\nnoise=0.1\nschedule=sweep\nmode=pipelined\nbeta=0.7\nsteps=2000\n\
     sample_every=200\nobservable=potential\nstart=ones\nreplicas=3\nseed=2",
    "game=graphical\ntopology=circulant\nn=40\nk=3\ndelta0=1.0\ndelta1=1.5\n\
     rule=metropolis\nschedule=coloured\nmode=tempered\nladder=geometric\n\
     beta_min=0.2\nbeta_max=2.0\nrungs=4\nrounds=10\nsweep_ticks=8\n\
     sample_every=2\nobservable=fraction0\nreplicas=2\nseed=1\nchannel_capacity=2",
    "game=graphical\ntopology=clique\nn=12\ndelta0=1.0\ndelta1=1.0\nrule=logit\n\
     schedule=all\nmode=tempered\nladder=linear\nbeta_min=0.1\nbeta_max=1.0\n\
     rungs=3\nrounds=5\nsweep_ticks=4\nsample_every=1\nobservable=potential\n\
     replicas=1\nseed=9\nchunk_ticks=1",
];

/// The extra topologies the field swap cannot reach by itself (the
/// `topology` value decides which size fields exist).
const TOPOLOGY_LINES: [&str; 3] = [
    "topology=grid\nrows=5\ncols=6",
    "topology=hypercube\ndim=4",
    "topology=circulant\nn=20\nk=2",
];

const EDGE_INTEGERS: [u64; 7] = [0, 1, 2, 1 << 31, 1 << 32, 1 << 63, u64::MAX];

/// Tokens for the random replacement: digits, signs, float syntax,
/// separators and the grammar's own keywords.
const TOKEN_PARTS: [&str; 16] = [
    "0", "7", "-", "+", ".", "e", "9", "nan", "inf", " ", "=", "#", "ring", "x", "\u{e9}", "\t",
];

/// A job text from a valid base with one field's value replaced.
fn mutated_job() -> impl Strategy<Value = String> {
    (
        0usize..BASE_JOBS.len() + TOPOLOGY_LINES.len(),
        0usize..32,
        0usize..EDGE_INTEGERS.len() + 1,
        prop::collection::vec(0usize..TOKEN_PARTS.len(), 0..6),
    )
        .prop_map(|(base, field, edge, token)| {
            let job = if base < BASE_JOBS.len() {
                BASE_JOBS[base].to_string()
            } else {
                BASE_JOBS[0].replace(
                    "topology=ring\nn=16",
                    TOPOLOGY_LINES[base - BASE_JOBS.len()],
                )
            };
            let mut lines: Vec<String> = job.lines().map(str::to_string).collect();
            let replacement = match EDGE_INTEGERS.get(edge) {
                Some(value) => value.to_string(),
                None => token.iter().map(|&t| TOKEN_PARTS[t]).collect(),
            };
            let index = field % lines.len();
            let key = lines[index]
                .split_once('=')
                .expect("base lines are key=value")
                .0;
            lines[index] = format!("{key}={replacement}");
            lines.join("\n")
        })
}

/// Exact `(players, edges)` of a topology, in `u128` so that the oracle
/// cannot wrap on any size the grammar can express.
fn exact_size(topology: Topology) -> (u128, u128) {
    match topology {
        Topology::Ring { n } => (n as u128, n as u128),
        Topology::Clique { n } => (n as u128, (n as u128) * (n as u128).saturating_sub(1) / 2),
        Topology::Torus { rows, cols } | Topology::Grid { rows, cols } => {
            let players = (rows as u128) * (cols as u128);
            (players, 2 * players)
        }
        Topology::Hypercube { dim } => (
            1 << dim.min(127),
            (dim as u128) << dim.saturating_sub(1).min(64),
        ),
        Topology::Circulant { n, k } => (n as u128, (n as u128) * (k as u128)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn read_frame_never_panics_on_arbitrary_bytes(bytes in frame_bytes()) {
        let mut reader = Cursor::new(&bytes);
        // Drain every frame the bytes hold; each read is Ok or Err.
        for _ in 0..bytes.len() + 1 {
            match read_frame(&mut reader) {
                Ok(Some((_, payload))) => prop_assert!(payload.len() < MAX_FRAME_LEN),
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn written_frames_round_trip(kind in 0u32..256, payload in text(64)) {
        let kind = kind as u8;
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, &payload).expect("writing to a Vec cannot fail");
        let mut reader = Cursor::new(&wire);
        let frame = read_frame(&mut reader).expect("a written frame reads back");
        prop_assert_eq!(frame, Some((kind, payload.clone())));
        // The frame is consumed exactly: a clean EOF follows.
        prop_assert!(matches!(read_frame(&mut reader), Ok(None)));
    }

    #[test]
    fn job_parsing_is_typed_and_admits_only_in_limit_jobs(text in mutated_job()) {
        let spec = match JobSpec::parse(&text) {
            // Every rejection is typed; its code is one of the stable set.
            Err(e) => {
                prop_assert!(!e.code().is_empty() && e.to_string().starts_with(e.code()));
                return Ok(());
            }
            Ok(spec) => spec,
        };
        let (players, edges) = exact_size(spec.topology);
        prop_assert!(
            (1..=limits::MAX_PLAYERS as u128).contains(&players),
            "admitted {players} players: {text}"
        );
        prop_assert!(edges <= limits::MAX_EDGES as u128, "admitted {edges} edges: {text}");
        prop_assert!((1..=limits::MAX_REPLICAS).contains(&spec.replicas));
        // The pipeline overrides go through their own typed boundary.
        let mut config = PipelineConfig::default();
        if let Some(chunk_ticks) = spec.chunk_ticks {
            config.chunk_ticks = chunk_ticks;
        }
        if let Some(channel_capacity) = spec.channel_capacity {
            config.channel_capacity = channel_capacity;
        }
        let valid = config.try_validate().is_ok();
        prop_assert_eq!(
            valid,
            config.chunk_ticks >= 1
                && (1..=PipelineConfig::MAX_CHANNEL_CAPACITY).contains(&config.channel_capacity)
        );
    }
}
