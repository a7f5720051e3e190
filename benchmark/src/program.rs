//! Seeded generation of the stores and the request program of each workload.
//!
//! Everything the service will be sent is produced here, from the run seed
//! alone, and serialized to JSON *before* any clock starts: the same seed
//! gives a byte-identical program, so two repetitions (or two commits) are
//! asked exactly the same questions. The only requests that cannot be
//! pre-serialized are the later pages of a paginated walk, which resume from
//! the cursor the previous page returned.
//!
//! The stream generator addresses inputs by versioned *name*
//! (`artifact7-v3`), the way a capture client would; it predicts the names
//! (and dense ids) the service will assign with its own per-artifact version
//! counters, so no request depends on a response.

use prov_api::{
    BoundarySpec, CloseSessionRequest, EntityRef, EvaluatorSpec, ExpandRequest, LineageDir,
    LineageRequest, OpenSessionRequest, OutputSpecDto, QueryRequest, QuerySpec,
    RecordActivityRequest, Request, RestrictRequest, SegmentOptions, SegmentRequest, SessionId,
    SummarizeRequest, VertexPredSpec,
};
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::hash::FxHashMap;
use prov_store::{Direction, Pipeline, PropFilter, ProvGraph, Traverse};
use prov_workload::{
    generate_pd, generate_sd, sources_at_percentile, ActivityStream, PdParams, SdParams,
    StreamParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four workloads (names are part of `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Write-only capture leg.
    Ingest,
    /// Read-only lineage + paginated walks on a frozen store.
    Lookup,
    /// One write then four reads per round.
    Mixed,
    /// PgSeg / PgSum analysis on the paper's `Pd` / `Sd` graphs.
    Explore,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Ingest, Workload::Lookup, Workload::Mixed, Workload::Explore];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Lookup => "lookup",
            Workload::Mixed => "mixed",
            Workload::Explore => "explore",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The request class behind the `primary_*` end-to-end metrics.
    pub fn primary(self) -> Class {
        match self {
            Workload::Ingest | Workload::Mixed => Class::Record,
            Workload::Lookup => Class::Lineage,
            Workload::Explore => Class::Segment,
        }
    }

    /// The request class behind the `secondary_*` end-to-end metrics.
    pub fn secondary(self) -> Class {
        match self {
            Workload::Ingest => Class::Stall,
            Workload::Lookup => Class::Page,
            Workload::Mixed => Class::FreshRead,
            Workload::Explore => Class::Summarize,
        }
    }
}

/// Request classes latencies are kept apart by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `RecordActivity` (every one, stalled or not).
    Record,
    /// The `RecordActivity` requests during which a compaction ran — a
    /// subset of [`Class::Record`], recognised from the response's
    /// `snapshots_written` counter advancing.
    Stall,
    /// `mixed` r1: the first read after a write (pays the snapshot refresh).
    FreshRead,
    /// `Lineage` on a snapshot that is already fresh.
    Lineage,
    /// One page of a paginated `Query`.
    Page,
    /// One-shot `Segment`.
    Segment,
    /// `Summarize`.
    Summarize,
    /// `OpenSession` / `Expand` / `Restrict` / `CloseSession`.
    Session,
}

impl Class {
    /// Number of classes (array dimension).
    pub const COUNT: usize = 8;

    /// Every class, in index order.
    pub const ALL: [Class; Class::COUNT] = [
        Class::Record,
        Class::Stall,
        Class::FreshRead,
        Class::Lineage,
        Class::Page,
        Class::Segment,
        Class::Summarize,
        Class::Session,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short name (metric suffix, span class).
    pub fn name(self) -> &'static str {
        match self {
            Class::Record => "record",
            Class::Stall => "stall",
            Class::FreshRead => "fresh_read",
            Class::Lineage => "lineage",
            Class::Page => "page",
            Class::Segment => "segment",
            Class::Summarize => "summarize",
            Class::Session => "session",
        }
    }

    /// The tail percentile reported for this class: the highest one that
    /// repeats on a shared two-core sandbox. The classes with a few dozen
    /// samples per repetition (compaction stalls, segments, summaries) stop
    /// at p75 — a burst from a noisy neighbour that slows four requests in a
    /// row moves a p95 of 70 samples by its full size — the others at p90.
    /// Three repetitions always leave at least ten samples beyond it.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Class::Stall | Class::Segment | Class::Summarize => 0.75,
            _ => 0.90,
        }
    }
}

/// Fixed operation counts of one repetition. Counts, never durations: every
/// repetition of a seed does identical work, so counts and digests repeat
/// exactly and only the clock varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Activities preloaded into the stream store (`S5k`).
    pub preload: usize,
    /// `RecordActivity` requests of one `ingest` repetition.
    pub ingest_ops: usize,
    /// Rounds (6 lineage + 1 walk) of one `lookup` repetition.
    pub lookup_rounds: usize,
    /// Rounds (1 write + 4 reads) of one `mixed` repetition.
    pub mixed_rounds: usize,
    /// Rounds (1 segment + 20 sessions + 1 summarize) of one `explore`
    /// repetition; round `r` runs on graph pair `r % graph_pairs`.
    pub explore_rounds: usize,
    /// Independent (`Pd`, `Sd`) graph pairs `explore` rotates through. One
    /// graph is one draw of a random process, and the cost of the paper's
    /// query family on it varies by tens of percent from draw to draw;
    /// rotating through several makes a run's statistics a property of the
    /// generator rather than of one graph.
    pub graph_pairs: usize,
    /// Target vertex count of each `Pd` graph.
    pub pd_vertices: usize,
    /// Segments in each `Sd` graph.
    pub sd_segments: usize,
}

impl Scale {
    /// The measured scale: one repetition is about two seconds of service
    /// time on the reference container, so a run pools several.
    pub const FULL: Scale = Scale {
        preload: 5_000,
        ingest_ops: 50_000,
        lookup_rounds: 240,
        mixed_rounds: 1_600,
        explore_rounds: 70,
        graph_pairs: 20,
        pd_vertices: 2_000,
        sd_segments: 100,
    };

    /// A few hundred requests per workload: enough to drive every code path
    /// of the harness from `cargo test` in seconds.
    pub const SMOKE: Scale = Scale {
        preload: 300,
        ingest_ops: 3_000,
        lookup_rounds: 4,
        mixed_rounds: 16,
        explore_rounds: 4,
        graph_pairs: 2,
        pd_vertices: 400,
        sd_segments: 40,
    };
}

/// Sessions opened (and summarized) per `explore` round.
pub const SESSIONS_PER_ROUND: usize = 20;
/// Rows per page of a paginated walk.
pub const PAGE_SIZE: usize = 256;

/// Index of the service a request is for. Stream workloads have one (the
/// durable stream store, [`STREAM`]); `explore` has the `Pd` graphs followed
/// by the `Sd` graphs.
pub type Store = usize;

/// The stream store of `ingest`, `lookup` and `mixed`.
pub const STREAM: Store = 0;

/// One step of a request program.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// One pre-serialized request.
    Send {
        /// The service it goes to.
        store: Store,
        /// Its latency class.
        class: Class,
        /// The serialized `Request`.
        json: String,
    },
    /// A paginated walk to exhaustion: the first page is `query` as is, each
    /// later page is `query` resumed from the cursor the previous page
    /// returned (serialized between requests, outside the clock).
    Walk {
        /// The walk's query, cursor unset.
        query: QueryRequest,
    },
}

/// Everything one repetition needs, generated from the seed.
#[derive(Debug)]
pub struct Program {
    /// `RecordActivity` requests that build the stream store before the
    /// measured phase (empty for `explore`).
    pub preload: Vec<String>,
    /// The measured request program.
    pub steps: Vec<Step>,
    /// The graphs `explore` serves from memory, indexed by [`Store`]: the
    /// `Pd` graphs, then the `Sd` graphs. Empty for the stream workloads.
    pub graphs: Vec<ProvGraph>,
}

fn to_json(request: &Request) -> String {
    serde_json::to_string(request).expect("requests always serialize")
}

/// An entity the stream generator knows exists: predicted name and id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Known {
    /// Versioned name (`artifact3-v2`).
    pub name: String,
    /// Dense vertex id.
    pub id: VertexId,
}

/// The `ActivityStream` turned into wire requests, with name/id prediction.
#[derive(Debug)]
pub struct StreamGen {
    stream: ActivityStream,
    versions: FxHashMap<String, u32>,
    /// Every entity created so far, in creation order.
    pub pool: Vec<Known>,
    next_vertex: u32,
}

/// One generated activity: the request plus where its entities sit in the
/// pool.
#[derive(Debug, Clone)]
pub struct Written {
    /// The `RecordActivity` request.
    pub request: RecordActivityRequest,
    /// Pool index of the first output (outputs are contiguous to the end).
    pub first_output: usize,
    /// Pool indices of the inputs.
    pub inputs: Vec<usize>,
}

impl StreamGen {
    /// A generator for `activities` activities at most.
    pub fn new(seed: u64, activities: usize) -> StreamGen {
        let params = StreamParams { seed, ..StreamParams::default() };
        // 1 + Poisson(2) outputs each: 8 per activity is far beyond any draw
        // that matters (larger pools are served at clamped rank anyway).
        StreamGen {
            stream: ActivityStream::new(params, activities * 8 + 8),
            versions: FxHashMap::default(),
            pool: Vec::new(),
            next_vertex: 0,
        }
    }

    /// The next activity of the stream.
    pub fn next_activity(&mut self) -> Written {
        let record = self.stream.next_activity(self.pool.len());
        let inputs: Vec<usize> =
            record.input_ranks.iter().map(|rank| self.pool.len() - rank).collect();
        let request = RecordActivityRequest {
            command: record.command,
            agent: None,
            inputs: inputs.iter().map(|&i| EntityRef::Name(self.pool[i].name.clone())).collect(),
            outputs: record
                .outputs
                .iter()
                .map(|artifact| OutputSpecDto { artifact: artifact.clone(), props: Vec::new() })
                .collect(),
            props: Vec::new(),
        };
        // The service creates the activity vertex, then one entity per
        // output in request order, versioning each artifact from 1.
        self.next_vertex += 1;
        let first_output = self.pool.len();
        for artifact in record.outputs {
            let version = self.versions.entry(artifact.clone()).or_insert(0);
            *version += 1;
            self.pool.push(Known {
                name: format!("{artifact}-v{version}"),
                id: VertexId::new(self.next_vertex),
            });
            self.next_vertex += 1;
        }
        Written { request, first_output, inputs }
    }
}

fn lineage(entity: &Known, direction: LineageDir, max_hops: Option<u32>) -> String {
    to_json(&Request::Lineage(LineageRequest {
        entity: EntityRef::Name(entity.name.clone()),
        direction,
        max_hops,
    }))
}

/// The walk pipeline: every entity upstream of `start`, 256 rows a page.
fn walk_query(start: &Known) -> QueryRequest {
    let pipeline = Pipeline::from_ids(vec![start.id])
        .traverse(
            &[(EdgeKind::Used, Direction::Out), (EdgeKind::WasGeneratedBy, Direction::Out)],
            1,
            Traverse::UNBOUNDED,
        )
        .filter(PropFilter::of_kind(VertexKind::Entity));
    QueryRequest {
        query: QuerySpec::Pipeline(pipeline),
        session: None,
        page_size: Some(PAGE_SIZE),
        cursor: None,
        max_expansions: None,
        max_paths: None,
    }
}

fn uniform<'a>(rng: &mut StdRng, pool: &'a [Known]) -> &'a Known {
    &pool[rng.gen_range(0..pool.len())]
}

/// Generate the program of `workload` for `seed` at `scale`.
pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Program {
    // Request picks draw from their own stream so the activity stream is the
    // same whatever the workload asks about it.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    if workload == Workload::Explore {
        return generate_explore(seed, scale, &mut rng);
    }
    let measured_writes = match workload {
        Workload::Ingest => scale.ingest_ops,
        Workload::Mixed => scale.mixed_rounds,
        _ => 0,
    };
    let mut gen = StreamGen::new(seed, scale.preload + measured_writes);
    let preload = (0..scale.preload)
        .map(|_| to_json(&Request::RecordActivity(gen.next_activity().request)))
        .collect();
    let send = |class, json| Step::Send { store: STREAM, class, json };
    let mut steps = Vec::new();
    match workload {
        Workload::Ingest => {
            for _ in 0..scale.ingest_ops {
                let written = gen.next_activity();
                steps.push(send(Class::Record, to_json(&Request::RecordActivity(written.request))));
            }
        }
        Workload::Lookup => {
            const HOPS: [Option<u32>; 3] = [Some(2), Some(6), None];
            let mut asked = 0usize;
            for _ in 0..scale.lookup_rounds {
                for _ in 0..6 {
                    let direction = [LineageDir::Ancestors, LineageDir::Descendants][asked % 2];
                    let entity = uniform(&mut rng, &gen.pool);
                    steps.push(send(Class::Lineage, lineage(entity, direction, HOPS[asked % 3])));
                    asked += 1;
                }
                steps.push(Step::Walk { query: walk_query(uniform(&mut rng, &gen.pool)) });
            }
        }
        Workload::Mixed => {
            for _ in 0..scale.mixed_rounds {
                let written = gen.next_activity();
                let output = gen.pool[written.first_output].clone();
                let input =
                    gen.pool[written.inputs[rng.gen_range(0..written.inputs.len())]].clone();
                steps.push(send(Class::Record, to_json(&Request::RecordActivity(written.request))));
                steps
                    .push(send(Class::FreshRead, lineage(&output, LineageDir::Ancestors, Some(6))));
                steps.push(send(Class::Lineage, lineage(&input, LineageDir::Descendants, None)));
                let any = uniform(&mut rng, &gen.pool);
                steps.push(send(Class::Lineage, lineage(any, LineageDir::Ancestors, None)));
                let first_page = walk_query(uniform(&mut rng, &gen.pool));
                steps.push(send(Class::Page, to_json(&Request::Query(first_page))));
            }
        }
        Workload::Explore => unreachable!("handled above"),
    }
    Program { preload, steps, graphs: Vec::new() }
}

fn name_of(graph: &ProvGraph, v: VertexId) -> EntityRef {
    EntityRef::Name(graph.vertex_name(v).expect("generated vertices are named").to_string())
}

fn generate_explore(seed: u64, scale: &Scale, rng: &mut StdRng) -> Program {
    let pairs = scale.graph_pairs;
    let graph_seed = |i: usize| seed.wrapping_mul(1_000).wrapping_add(i as u64);
    let pds: Vec<ProvGraph> = (0..pairs)
        .map(|i| {
            generate_pd(&PdParams { seed: graph_seed(i), ..PdParams::with_size(scale.pd_vertices) })
        })
        .collect();
    let sds: Vec<_> = (0..pairs)
        .map(|i| {
            generate_sd(&SdParams {
                seed: graph_seed(i),
                num_segments: scale.sd_segments,
                ..SdParams::default()
            })
        })
        .collect();
    let send =
        |store, class, request: Request| Step::Send { store, class, json: to_json(&request) };

    // The paper's standard PgSeg family (Fig. 5(a,d)): destinations are the
    // last two entities, sources slide along the creation order. Graph `p`
    // starts at variant `p` and steps through the six (percentile,
    // evaluator) combinations on its successive visits.
    let segment_request = |pd: &ProvGraph, variant: usize| {
        let entities = pd.vertices_of_kind(VertexKind::Entity);
        let percent = [0.0, 20.0, 40.0][variant % 3];
        let evaluator = (variant % 2 == 1).then_some(EvaluatorSpec::AlgBitset);
        Request::Segment(SegmentRequest {
            src: sources_at_percentile(pd, percent, 2).iter().map(|&v| name_of(pd, v)).collect(),
            dst: entities.iter().rev().take(2).map(|&v| name_of(pd, v)).collect(),
            boundary: BoundarySpec::none(),
            options: SegmentOptions { evaluator, ..SegmentOptions::default() },
        })
    };

    let mut steps = Vec::new();
    let mut order: Vec<usize> = (0..scale.sd_segments).collect();
    let per_round = SESSIONS_PER_ROUND.min(order.len());
    // Each service numbers its sessions from 0 in open order.
    let mut next_session = vec![0u64; pairs];
    for round in 0..scale.explore_rounds {
        let pair = round % pairs;
        let (pd_store, sd_store) = (pair, pairs + pair);
        let sd = &sds[pair];
        let variant = round / pairs + pair;
        steps.push(send(pd_store, Class::Segment, segment_request(&pds[pair], variant)));
        // Partial Fisher–Yates: the first `per_round` slots become a uniform
        // draw without replacement.
        for slot in 0..per_round {
            let pick = rng.gen_range(slot..order.len());
            order.swap(slot, pick);
        }
        let mut sessions = Vec::with_capacity(per_round);
        for (j, &segment) in order[..per_round].iter().enumerate() {
            let session = SessionId::new(next_session[pair]);
            next_session[pair] += 1;
            sessions.push(session);
            let last = *sd.segments[segment].vertices.last().expect("segments are non-empty");
            let dst = name_of(&sd.graph, last);
            steps.push(send(
                sd_store,
                Class::Session,
                Request::OpenSession(OpenSessionRequest {
                    src: vec![EntityRef::Name(format!("s{segment}-seed"))],
                    dst: vec![dst.clone()],
                    boundary: BoundarySpec::none(),
                    options: SegmentOptions::default(),
                }),
            ));
            if j % 4 == 3 {
                steps.push(send(
                    sd_store,
                    Class::Session,
                    Request::Expand(ExpandRequest { session, roots: vec![dst], k: 2 }),
                ));
                let no_agents = BoundarySpec::none()
                    .with_vertex(VertexPredSpec::ExcludeKind(VertexKind::Agent));
                steps.push(send(
                    sd_store,
                    Class::Session,
                    Request::Restrict(RestrictRequest { session, boundary: no_agents }),
                ));
            }
        }
        steps.push(send(
            sd_store,
            Class::Summarize,
            Request::Summarize(SummarizeRequest {
                sessions: sessions.clone(),
                k: Some(1),
                entity_keys: Vec::new(),
                activity_keys: Vec::new(),
            }),
        ));
        for session in sessions {
            steps.push(send(
                sd_store,
                Class::Session,
                Request::CloseSession(CloseSessionRequest { session }),
            ));
        }
    }
    let graphs = pds.into_iter().chain(sds.into_iter().map(|sd| sd.graph)).collect();
    Program { preload: Vec::new(), steps, graphs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_api::{ProvService, Response};

    fn flatten(program: &Program) -> Vec<String> {
        let mut out = program.preload.clone();
        for step in &program.steps {
            out.push(match step {
                Step::Send { json, .. } => json.clone(),
                Step::Walk { query } => to_json(&Request::Query(query.clone())),
            });
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for workload in Workload::ALL {
            let a = flatten(&generate(workload, 7, &Scale::SMOKE));
            let b = flatten(&generate(workload, 7, &Scale::SMOKE));
            let c = flatten(&generate(workload, 8, &Scale::SMOKE));
            assert_eq!(a, b, "{}: same seed must give a byte-identical program", workload.name());
            assert_ne!(a, c, "{}: another seed must give another program", workload.name());
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn predicted_names_and_ids_are_what_the_service_assigns() {
        let mut gen = StreamGen::new(3, 1_000);
        let mut svc = ProvService::new();
        for step in 0..1_000 {
            let written = gen.next_activity();
            let json = to_json(&Request::RecordActivity(written.request));
            let response: Response = serde_json::from_str(&svc.handle_json(&json)).unwrap();
            let Response::Activity(activity) = response else {
                panic!("step {step}: {response:?}");
            };
            let predicted = &gen.pool[written.first_output..];
            assert_eq!(activity.outputs.len(), predicted.len());
            for (id, known) in activity.outputs.iter().zip(predicted) {
                assert_eq!(*id, known.id, "step {step}: id of {}", known.name);
                assert_eq!(svc.db().graph().vertex_name(*id), Some(known.name.as_str()));
            }
        }
        assert!(gen.pool.iter().any(|k| k.name.ends_with("-v3")), "artifacts gather versions");
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert_ne!(workload.primary(), workload.secondary());
        }
        assert_eq!(Workload::parse("bogus"), None);
        for (i, class) in Class::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }
}
