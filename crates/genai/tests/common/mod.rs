//! Shared by the integration tests that run tiles across threads.

use sww_genai::diffusion::{TileRunner, TileTask};

/// Runs every tile on its own scoped thread and joins them all: the
/// simplest truly parallel [`TileRunner`], so these tests exercise
/// cross-thread execution without the serving layer's crew runner. A
/// panicking tile propagates when the scope joins.
pub struct ScopedRunner;

impl TileRunner for ScopedRunner {
    fn run_all(&self, tasks: Vec<TileTask>) {
        std::thread::scope(|scope| {
            for task in tasks {
                scope.spawn(task);
            }
        });
    }
}
