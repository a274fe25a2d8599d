//! Times every experiment of `experiments::REGISTRY` at the small workload
//! size, so regressions in the simulation pipeline show up as timing
//! changes. The tables themselves come from `titalc reproduce`. The
//! harness is a plain `main` over `std::time::Instant` (the workspace
//! builds offline, so no criterion).
//!
//! ```text
//! cargo bench -p supersym-bench --bench paper
//! ```

use std::hint::black_box;
use std::time::Instant;
use supersym::experiments::REGISTRY;
use supersym::workloads::Size;

/// Timed runs per experiment, after one warm-up run.
const ITERS: u32 = 3;

fn main() {
    for experiment in REGISTRY {
        // One warm-up run so first-touch costs don't pollute the mean.
        black_box((experiment.run)(Size::Small));
        let start = Instant::now();
        for _ in 0..ITERS {
            black_box((experiment.run)(black_box(Size::Small)));
        }
        let mean = start.elapsed() / ITERS;
        println!("{:40} {mean:>12.2?}/iter  ({ITERS} iters)", experiment.name);
    }
}
