//! Tile execution: how the data-parallel kernel entry point fans work out.
//!
//! The denoise batch is embarrassingly parallel across jobs (each
//! [`LatentJob`](super::LatentJob) owns its RNG, target and latent — see
//! the bit-identity notes on [`super::try_denoise_batch`]), but this crate
//! sits *below* the serving layer and must not own threads. [`TileRunner`]
//! inverts that dependency: the kernel splits a batch into tiles and hands
//! the caller boxed tasks; the caller decides where they run. `sww-core`
//! backs the trait with its `WorkerPool`; tests and single-threaded
//! callers use [`InlineRunner`].
//!
//! The contract is deliberately tiny: [`TileRunner::run_all`] must run
//! **every** task to completion — on any thread, in any order, with any
//! concurrency — before returning. Dropping a task unexecuted is a
//! contract violation the kernel converts into a panic (a lost tile would
//! otherwise silently truncate a batch).

/// One tile of kernel work, ready to run anywhere.
pub type TileTask = Box<dyn FnOnce() + Send + 'static>;

/// A tile execution plan: the runner the tasks are handed to plus an
/// upper bound on how many tiles the batch splits into. `max_tiles` is
/// clamped to the batch size (and up to 1) at the call site, so an
/// oversized or zero plan is harmless; a plan of one tile is exactly the
/// sequential kernel.
#[derive(Clone, Copy)]
pub struct Tiling<'a> {
    /// Executor the tile tasks run on.
    pub runner: &'a dyn TileRunner,
    /// Upper bound on the number of contiguous tiles.
    pub max_tiles: usize,
}

impl<'a> Tiling<'a> {
    /// Plan a split into at most `max_tiles` tiles on `runner`.
    #[must_use]
    pub fn new(runner: &'a dyn TileRunner, max_tiles: usize) -> Tiling<'a> {
        Tiling { runner, max_tiles }
    }
}

/// An executor for a batch of independent kernel tiles.
pub trait TileRunner: Send + Sync {
    /// Run every task to completion before returning.
    fn run_all(&self, tasks: Vec<TileTask>);
}

/// Runs tiles sequentially on the calling thread. The zero-dependency
/// fallback: a tiled pass driven by an `InlineRunner` executes the same
/// instruction stream as the sequential kernel, just chunked.
#[derive(Debug, Clone, Copy, Default)]
pub struct InlineRunner;

impl TileRunner for InlineRunner {
    fn run_all(&self, tasks: Vec<TileTask>) {
        for task in tasks {
            task();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn inline_runner_runs_everything_in_order() {
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let tasks: Vec<TileTask> = (0..4)
            .map(|i| {
                let order = Arc::clone(&order);
                Box::new(move || order.lock().unwrap().push(i)) as TileTask
            })
            .collect();
        InlineRunner.run_all(tasks);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        InlineRunner.run_all(Vec::new());
    }
}
