//! Empty. The paper's §5 "looking forward" code that lived here has moved to
//! its one user or gone: predicate implication is the containment prover's
//! (`cv_analyzer::containment`), the Fig. 8/9 analyses are the workload
//! repository's (`cv_core::repository`), checkpoint selection is the
//! `ablation_checkpoint` bin's, and generalized reuse is the prover's
//! semantic matching. The crate stays only because the frozen benchmark
//! lockfile (`perf/Cargo.lock`) records the `cv-analyzer → cv-extensions`
//! edge; ROADMAP item 1(f), the next change to the benchmark, deletes it with
//! that edge.
