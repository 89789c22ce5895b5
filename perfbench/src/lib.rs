//! Paper-suite benchmark worker: runs one arm of one workload, untraced
//! through the engine or traced through a replay of the DD package's public
//! API, and prints what it measured as one JSON line. `perfbench/run.py`
//! schedules these runs in child processes and aggregates them.

pub mod arms;
pub mod clock;
pub mod json;
pub mod replay;
pub mod workload;
