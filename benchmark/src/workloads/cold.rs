//! `cold_start`: closed loop, one caller; each op opens the saved store,
//! asks its first structural and its first full-text question, and drops
//! the session.
//!
//! Why it exists: `store` (mmap open, per-section CRC, `xmldom::codec`,
//! `InvertedIndex::decode`) does most of the work and the warm workloads
//! never touch it. It is the read side of the ingest path `setup_s`
//! measures, so a format change that makes files smaller but decode slower
//! (or the reverse) moves `store.bytes_per_xml_byte`, `setup_s` and
//! `latency_p50_ms` in opposite directions in one table. Reads are served
//! from the operating system's page cache: the number is the sandbox's
//! decode cost, not a device's.

use super::{ClosedLoop, Op, Outcome, Params, Res, Tracing};
use crate::frozen;
use crate::layers::{self, Alg, QuerySpec, Scheme, Session};
use crate::metrics::Ledger;
use crate::scratch::ScratchDir;
use crate::stats::{self, Fnv};
use std::path::PathBuf;
use std::time::Instant;

/// First structural query: decodes tags + elems + stats.
const STRUCTURAL: &str = "//item[./description/parlist and ./mailbox/mail/text]";
/// First full-text query: also decodes terms + postings. A mid-frequency
/// term, so evaluating it stays small next to decoding the index.
const FULLTEXT: &str = "//item[./name[.contains(\"porcelain\")]]";

/// Ops per round (one kind of op; the round only sets the block grain).
const ROUND_OPS: usize = 8;

pub struct ColdStart;

pub struct World {
    _dir: ScratchDir,
    path: PathBuf,
    session: Session,
    xml_bytes: u64,
    file_bytes: u64,
}

fn spec(text: &str) -> QuerySpec {
    QuerySpec {
        text: text.to_string(),
        k: 10,
        alg: Alg::Hybrid,
        scheme: Scheme::StructureFirst,
        governed: false,
    }
}

impl ClosedLoop for ColdStart {
    type World = World;
    const NAME: &'static str = "cold_start";
    const FRESH_WORLD_FOR_TRACE: bool = false;

    fn corpus_bytes(&self, p: &Params) -> usize {
        p.corpus_bytes(frozen::COLD_CORPUS_BYTES)
    }

    fn setup(&self, p: &Params) -> Res<World> {
        let corpus = layers::generate_corpus(self.corpus_bytes(p), p.seed);
        let session = Session::from_xml(&corpus.xml)?;
        let dir = ScratchDir::new("cold").map_err(|e| format!("scratch: {e}"))?;
        let path = dir.path().join("doc.fxs");
        let file_bytes = session.save(&path, "doc")?;
        let world = World {
            _dir: dir,
            path,
            session,
            xml_bytes: corpus.xml.len() as u64,
            file_bytes,
        };
        // Warm-up: one op, so the file is in the page cache.
        let op = &self.round(p, 0).unwrap_or_default()[0];
        self.execute(&world, op, None)?;
        Ok(world)
    }

    fn round(&self, _: &Params, _: u64) -> Option<Vec<Op>> {
        let op = Op {
            class: "cold_start",
            specs: vec![spec(STRUCTURAL), spec(FULLTEXT)],
        };
        Some(vec![op; ROUND_OPS])
    }

    fn execute(
        &self,
        world: &World,
        op: &Op,
        mut tracing: Option<&mut Tracing<'_>>,
    ) -> Res<Outcome> {
        let start = Instant::now();
        let session = Session::open(&world.path)?;
        let opened = Instant::now();
        let root = tracing.as_deref_mut().map(|t| {
            let (s, e) = (t.recorder.ns_of(start), t.recorder.ns_of(opened));
            // Closed below, once the end is known.
            let root = t.recorder.push("op", None, s, s, t.op_id, op.class);
            t.recorder
                .push("store.open", Some(root), s, e, t.op_id, op.class);
            root
        });
        let first = super::run_spec(
            &session,
            &op.specs[0],
            op.class,
            root,
            tracing.as_deref_mut(),
        )?;
        let first_done = Instant::now();
        let second = super::run_spec(
            &session,
            &op.specs[1],
            op.class,
            root,
            tracing.as_deref_mut(),
        )?;
        let latency = start.elapsed();
        drop(session);
        let busy = start.elapsed();
        if let Some(t) = tracing {
            let end = t.recorder.ns_of(start + latency);
            t.recorder.close(root.expect("traced"), end);
            t.recorder.count(
                "bench.first_structural_ns",
                (first_done - opened).as_nanos() as u64,
            );
            t.recorder.count(
                "bench.first_fulltext_ns",
                (start + latency - first_done).as_nanos() as u64,
            );
            t.recorder.count("bench.cold_ops", 1);
        }
        let mut work = first.work;
        work.add(&second.work);
        Ok(Outcome {
            latency,
            busy,
            digest: Fnv::default()
                .u64(stats::digest_hits(&first.hits))
                .u64(stats::digest_hits(&second.hits))
                .finish(),
            complete: first.complete && second.complete,
            work,
        })
    }

    fn session<'a>(&self, world: &'a World) -> &'a Session {
        &world.session
    }

    fn trace_rounds(&self, p: &Params) -> u64 {
        if p.smoke {
            1
        } else {
            10
        }
    }

    fn probe(&self, world: &World, ledger: &mut Ledger) -> Res<()> {
        super::probe_store_layer(
            &world.session,
            &world.path,
            world.xml_bytes,
            world.file_bytes,
            ledger,
        )?;
        Ok(())
    }
}
