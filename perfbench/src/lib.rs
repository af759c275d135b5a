//! # preexec-perfbench
//!
//! The repository's benchmark: six workloads that drive the system end
//! to end through its public entry points, from a cold select to served
//! queries, plus a traced repetition that splits each workload's time
//! across the layers (crates) it calls. `README.md` next to this crate
//! has the full tables and the two measured baseline sets.
//!
//! # Workloads (why each)
//!
//! - `select-cold`: one cold select of each of the 9 kernels and a
//!   generated scenario, each on a fresh engine — the wait for one answer
//!   from scratch, front end and simulator together.
//! - `sweep-cold`: the 17-point suite sweep over an empty store on 2
//!   threads — the paper's campaign, mostly simulation.
//! - `sweep-warm`: the same sweep over a store filled in set-up — no
//!   simulation, so front-end and plumbing changes show most here and
//!   simulator changes must not show.
//! - `atlas-grid`: 100 tiny generated scenarios — admission (`gen`,
//!   `analysis`, `oracle`) is a large share only here.
//! - `adapt-suite`: the online W controller on 4 benches —
//!   interval-logged simulation and the controller's search.
//! - `serve-mix`: 300 synthetic requests (independent uniform draws, 3/4
//!   to `/v1/select` and 1/4 to `/v1/sim`, with the class counts that
//!   draw gives on average) on 2 keep-alive connections to an in-process
//!   server — HTTP, queue, singleflight and LRU.
//!
//! # Metrics
//!
//! End to end (untraced runs): `ops_per_s` (ops/s), `latency_p50_ms` and
//! `latency_tail_ms` (ms; the tail is p98 for `serve-mix`, p80 for
//! `select-cold`, and the median for the batch workloads, whose few
//! repetitions support no tail), `setup_s` (s) and `peak_rss_mb` (MiB);
//! the times are divided by the host slowdown measured next to them. Per
//! layer (`--trace 1`): the engine's stage times and counters (front end, simulator,
//! selection, memo and store), simulator fast-forward from direct
//! replays, admission, controller, server and host metrics; each layer
//! metric moves `ops_per_s` or a latency on the workloads named in
//! `README.md`.
//!
//! # Running
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --bin
//! benchmark -- --workload NAME --seed N --seconds S --trace 0|1`; no
//! `--workload` runs all six, each in a child process. `benchmark repeat
//! --out DIR` collects result sets and `benchmark compare A B` judges two
//! of them under the bounds of `BENCHMARK.json`.
//!
//! # Modules
//!
//! - [`workloads`]: the six workloads and the direct replays that probe
//!   layers spans cannot see (simulator fast-forward, admission, store
//!   loads, interval-logged runs).
//! - [`run`]: set-up, the timed untraced loop, the traced repetition and
//!   the output checks (every repetition must match the first; at the
//!   default seed 7 the first must match `expected/seed7.txt`).
//! - [`spans`] and [`snap`]: in-memory spans around every call into a
//!   layer, carrying the engine's stage and counter deltas.
//! - [`mix`]: the seeded serve-mix request generator.
//! - [`metrics`]: the metric catalogue `BENCHMARK.json` lists.
//! - [`stats`]: nearest-rank percentiles, medians and quartiles.
//! - [`compare`]: `benchmark compare A B` under the bounds of
//!   `BENCHMARK.json`.
//! - [`host`]: peak memory and CPU time from `/proc`, and the
//!   calibration kernel every reported time is divided by, so that
//!   minutes-long slow stretches of a shared host do not show as
//!   regressions.
//!
//! The seed reaches the system only through generated inputs: scenario
//! names and request bodies. Seed 11 is held out: a performance claim
//! made with the default seed 7 must also hold on it.
//!
//! Not covered here: the `hotpath` and `atlas` micro-benches of
//! `crates/bench` and the CI perf gate stay as they are (moving CI onto
//! this benchmark is a follow-up), and per-stage counters inside the
//! simulator are a later change.

#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod metrics;
pub mod mix;
pub mod run;
pub mod snap;
pub mod spans;
pub mod stats;
pub mod workloads;
