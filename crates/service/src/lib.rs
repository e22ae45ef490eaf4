//! # pwe-service — geometry as a service
//!
//! A sharded, snapshot-isolated, batched query layer over the
//! write-efficient structures of this workspace: interval stabbing, 2D
//! range and 3-sided reporting, k-d nearest neighbour and Delaunay point
//! location, served concurrently with batch updates.
//!
//! The serving model (MODEL.md §6) in one paragraph: readers clone the
//! `Arc` of the current immutable *generation* and answer a whole
//! [`api::QueryBatch`] from that one snapshot; the single writer rebuilds
//! the dirtied shards through the deterministic parallel engines (the
//! allocation-lean augmented-tree engine, the p-batched k-d construction,
//! the reserve-and-commit Delaunay engine) and publishes the next
//! generation by swapping that `Arc` under a mutex.  The lock covers only
//! the pointer-sized clone or swap, never a build or a query, and a
//! superseded generation is freed by the last `Arc` drop.  Because every
//! build is a pure function of the element sequence, generations are
//! bit-identical across thread counts, processes and replicas — which is
//! what makes the answers of a sharded deployment provably equal to a
//! single-instance oracle (the `shard_equiv` suite) and a concurrent
//! history checkable against a sequential replay (the `churn` suite).
//!
//! Failure containment (MODEL.md §6, "Failure semantics"): every shard
//! rebuild runs under `catch_unwind`; a failed rebuild quarantines the
//! shard, which keeps serving its last-good snapshot (stale-flagged in
//! every [`api::AnswerBatch`]) under a deterministic tick-counted
//! retry-with-backoff schedule.  The failure paths are exercised by the
//! deterministic fault-injection subsystem
//! ([`pwe_primitives::faultpoint`], default-off `faultinject` feature)
//! and pinned by the `fault_equiv` chaos suite.
//!
//! * [`api`] — the batched wire types: [`api::UpdateBatch`] in,
//!   [`api::QueryBatch`] → [`api::AnswerBatch`] out (answers carry the
//!   generation they were served from, plus the staleness contract).
//! * [`router`] — the deterministic shard router (hash-partitioned
//!   intervals and points, replicated Delaunay sites).
//! * [`gen`] — generation building through the existing engines.
//! * [`service`] — [`GeometryService`]: `apply` / `serve`.
//!
//! The load driver is the standalone `svcbench` package at the repo root,
//! which times the service end to end and checks every answer against an
//! oracle.

pub mod api;
pub mod gen;
mod radix;
pub mod router;
pub mod service;

pub use api::{
    Answer, AnswerBatch, ApplyReport, NearestHit, Query, QueryBatch, RejectReason, StaleShard,
    Update, UpdateBatch, MESH_SHARD,
};
pub use router::ShardRouter;
pub use service::{GeometryService, ServiceStats};
