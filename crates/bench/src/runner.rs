//! Parallel trial execution with deterministic per-trial seeding.

use hc_noise::SeedStream;
use rand::rngs::StdRng;

/// Runs `trials` independent repetitions of `body`, each with its own RNG
/// derived from `seeds`, spread across available cores with std's scoped
/// threads. Results are returned in trial order regardless of scheduling,
/// so parallel and serial runs are bit-identical.
pub fn run_trials<T, F>(trials: usize, seeds: SeedStream, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, StdRng) -> T + Sync,
{
    run_trials_with(trials, seeds, || (), |t, rng, ()| body(t, rng))
}

/// [`run_trials`] with per-worker reusable state: `init` runs once on each
/// worker thread (and once on the serial path) and the resulting state is
/// threaded through every trial that worker executes.
///
/// This is the hook for scratch reuse on the hot paths — e.g. one
/// [`hc_core::BatchInference`] per worker, so thousands of inference trials
/// share a handful of allocations instead of allocating per trial. Because
/// each trial's randomness comes only from its own seeded RNG, results are
/// still bit-identical regardless of thread count or scheduling.
///
/// Worker count defaults to the available parallelism; the `HC_THREADS`
/// environment variable overrides it ([`hc_core::effective_threads`]) so CI
/// and bench runs can pin the fan-out deterministically.
pub fn run_trials_with<T, S, I, F>(trials: usize, seeds: SeedStream, init: I, body: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, StdRng, &mut S) -> T + Sync,
{
    let threads = hc_core::effective_threads(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
    .min(trials.max(1));

    if threads <= 1 || trials <= 1 {
        let mut state = init();
        return (0..trials)
            .map(|t| body(t, seeds.rng(t as u64), &mut state))
            .collect();
    }

    // Work-stealing on an atomic counter; each worker collects its own
    // (trial index, result) pairs and the pairs are merged in trial order.
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let body = &body;
    let init = &init;
    let counter = &counter;

    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let t = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if t >= trials {
                            break;
                        }
                        local.push((t, body(t, seeds.rng(t as u64), &mut state)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("trial workers do not panic"))
            .collect()
    });

    tagged.sort_by_key(|(t, _)| *t);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_are_in_trial_order() {
        let seeds = SeedStream::new(1);
        let out = run_trials(64, seeds, |t, _rng| t * 2);
        assert_eq!(out, (0..64).map(|t| t * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let seeds = SeedStream::new(2);
        let parallel = run_trials(32, seeds, |_t, mut rng| rng.random::<f64>());
        let serial: Vec<f64> = (0..32)
            .map(|t| seeds.rng(t as u64).random::<f64>())
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn zero_and_one_trials() {
        let seeds = SeedStream::new(3);
        assert!(run_trials(0, seeds, |t, _| t).is_empty());
        assert_eq!(run_trials(1, seeds, |t, _| t + 10), vec![10]);
    }

    #[test]
    fn stateful_runner_matches_stateless() {
        // Per-worker engine reuse must not change any trial's result.
        use hc_core::BatchInference;
        use hc_mech::TreeShape;

        let shape = TreeShape::new(2, 6);
        let seeds = SeedStream::new(4);
        let plain = run_trials(24, seeds, |_t, mut rng| {
            let noisy: Vec<f64> = (0..shape.nodes()).map(|_| rng.random::<f64>()).collect();
            hc_testutil::oracle::hierarchical_inference(&shape, &noisy)
        });
        let stateful = run_trials_with(
            24,
            seeds,
            || BatchInference::for_shape(&shape),
            |_t, mut rng, engine| {
                let noisy: Vec<f64> = (0..shape.nodes()).map(|_| rng.random::<f64>()).collect();
                engine.infer(&noisy)
            },
        );
        assert_eq!(plain, stateful);
    }
}
