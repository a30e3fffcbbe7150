//! The problem registry: every evolvable problem this workspace ships,
//! with its batch-kernel family and a self-check probe.
//!
//! Mirrors the rtl crate's `plane_registry` pattern: a static table the
//! analysis gate lints (`check_problems`) — shape sanity, probes, and
//! coverage by the conformance suite — so a problem cannot ship without
//! a pinned kernel, and a broken kernel cannot ship silently. The server
//! resolves its `POST /evolve` `problem` field against this table, and
//! the experiment binaries iterate it.

use crate::gait::GaitProblem;
use crate::kernel::{KernelFamily, ProblemKernel};
use crate::mealy::MealyProblem;
use core::fmt::Debug;
use evo::evolvable::EvolvableProblem;
use leonardo_rtl::bitslice::{Plane, W256};

/// A boxed problem instance as the registry hands it out.
pub type BoxedProblem = Box<dyn EvolvableProblem + Send + Sync>;

/// One registered problem: identity, shape, constructors for the scalar
/// instance and the batch-kernel family, and the gate probe.
#[derive(Clone, Copy)]
pub struct ProblemSpec {
    /// Stable identifier (`"gait"`, `"fsm_traces"`, `"serial_adder"`).
    pub name: &'static str,
    /// One-line description for catalogs and docs.
    pub summary: &'static str,
    /// Genome width in bits.
    pub width: usize,
    /// Maximum attainable fitness.
    pub max_fitness: u32,
    /// Construct the scalar problem instance.
    pub make: fn() -> BoxedProblem,
    /// Construct the batch-kernel family; [`ProblemSpec::kernel`] builds
    /// it at any plane width.
    pub kernel: fn() -> KernelFamily,
    /// Self-check: shape consistency, fitness determinism and bounds,
    /// known-optimum maximality, decode/encode round-trips, and
    /// kernel-vs-scalar agreement. `Err` carries the first violation.
    pub probe: fn() -> Result<(), String>,
}

impl Debug for ProblemSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProblemSpec")
            .field("name", &self.name)
            .field("width", &self.width)
            .field("max_fitness", &self.max_fitness)
            .finish()
    }
}

impl ProblemSpec {
    /// The registered kernel at plane width `P`.
    pub fn kernel<P: Plane>(&self) -> Box<dyn ProblemKernel<P>> {
        (self.kernel)().build()
    }

    /// Look a problem up by name.
    pub fn find(name: &str) -> Option<&'static ProblemSpec> {
        problem_registry().iter().find(|s| s.name == name)
    }
}

/// Every problem this workspace ships. Ordering is stable (gait first,
/// then the FSM workloads) — manifests and golden tables rely on it.
pub fn problem_registry() -> &'static [ProblemSpec] {
    const REGISTRY: [ProblemSpec; 3] = [
        ProblemSpec {
            name: "gait",
            summary: "the paper's three-rule gait landscape over 36-bit genomes",
            width: 36,
            max_fitness: 26,
            make: || Box::new(GaitProblem::paper()),
            kernel: || KernelFamily::Gait,
            probe: || probe_named("gait"),
        },
        ProblemSpec {
            name: "fsm_traces",
            summary: "recover a hidden 1101 sequence detector from 64 recorded I/O steps",
            width: 24,
            max_fitness: 64,
            make: || Box::new(MealyProblem::fsm_traces()),
            kernel: || KernelFamily::Mealy(MealyProblem::fsm_traces()),
            probe: || probe_named("fsm_traces"),
        },
        ProblemSpec {
            name: "serial_adder",
            summary: "evolve a 1-bit serial adder scored over bit-serial additions",
            width: 16,
            max_fitness: 48,
            make: || Box::new(MealyProblem::serial_adder()),
            kernel: || KernelFamily::Mealy(MealyProblem::serial_adder()),
            probe: || probe_named("serial_adder"),
        },
    ];
    &REGISTRY
}

/// Deterministic probe genomes: an LCG scatter plus the corner cases.
fn probe_genomes(n: usize) -> Vec<u64> {
    let mut g: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ 0x5DEE_CE66)
        .collect();
    g.extend([0, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555]);
    g
}

/// The registry self-check behind every entry's `probe` pointer.
fn probe_named(name: &'static str) -> Result<(), String> {
    let spec = ProblemSpec::find(name).ok_or_else(|| format!("{name}: not in the registry"))?;
    let problem = (spec.make)();
    if problem.name() != spec.name {
        return Err(format!("{name}: instance names itself {}", problem.name()));
    }
    if problem.width() != spec.width {
        return Err(format!(
            "{name}: instance width {} != registered {}",
            problem.width(),
            spec.width
        ));
    }
    if problem.max_fitness() != Some(spec.max_fitness) {
        return Err(format!(
            "{name}: instance max fitness {:?} != registered {}",
            problem.max_fitness(),
            spec.max_fitness
        ));
    }
    let mask = problem.mask();
    for g in probe_genomes(64) {
        let f = problem.fitness(g);
        if f != problem.fitness(g) {
            return Err(format!("{name}: fitness of {g:#x} is not deterministic"));
        }
        if f > spec.max_fitness {
            return Err(format!(
                "{name}: genome {g:#x} scores {f} above the registered maximum"
            ));
        }
        if f != problem.fitness(g & mask) {
            return Err(format!("{name}: bits above the width affect {g:#x}"));
        }
        let rt = problem.round_trip(g);
        if rt != g & mask {
            return Err(format!(
                "{name}: decode/encode of {g:#x} returns {rt:#x}, not the masked identity"
            ));
        }
    }
    if let Some(opt) = problem.known_optimum() {
        if problem.fitness(opt) != spec.max_fitness {
            return Err(format!(
                "{name}: known optimum {opt:#x} scores {}, not the maximum",
                problem.fitness(opt)
            ));
        }
    }
    probe_kernel::<u64>(spec, &problem)?;
    probe_kernel::<W256>(spec, &problem)?;
    Ok(())
}

/// Kernel-vs-scalar agreement on one width: every lane of a probe batch.
fn probe_kernel<P: Plane>(spec: &ProblemSpec, problem: &BoxedProblem) -> Result<(), String> {
    let mut kernel = spec.kernel::<P>();
    if kernel.width() != spec.width {
        return Err(format!(
            "{}: {} kernel width {} != registered {}",
            spec.name,
            P::NAME,
            kernel.width(),
            spec.width
        ));
    }
    let genomes = probe_genomes(P::LANES - 4);
    debug_assert_eq!(genomes.len(), P::LANES);
    let scores = kernel.score_batch(&genomes);
    for (l, (&g, &got)) in genomes.iter().zip(&scores).enumerate() {
        let want = problem.fitness(g);
        if got != want {
            return Err(format!(
                "{}: {} kernel lane {l} scores {g:#x} as {got}, scalar says {want}",
                spec.name,
                P::NAME
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use leonardo_rtl::bitslice::{W128, W512};

    #[test]
    fn registry_shape() {
        let reg = problem_registry();
        assert_eq!(reg.len(), 3);
        assert_eq!(reg[0].name, "gait");
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "names must be unique");
        for s in reg {
            assert!((1..=64).contains(&s.width), "{}", s.name);
            assert!(s.max_fitness > 0, "{}", s.name);
            assert!(!s.summary.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn every_probe_passes() {
        for s in problem_registry() {
            (s.probe)().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn find_resolves_names() {
        assert_eq!(ProblemSpec::find("gait").unwrap().width, 36);
        assert_eq!(ProblemSpec::find("fsm_traces").unwrap().max_fitness, 64);
        assert!(ProblemSpec::find("no_such_problem").is_none());
    }

    #[test]
    fn registered_shape_matches_the_instances() {
        for s in problem_registry() {
            let p = (s.make)();
            assert_eq!(p.name(), s.name);
            assert_eq!(p.width(), s.width);
            assert_eq!(p.max_fitness(), Some(s.max_fitness));
        }
    }

    #[test]
    fn kernel_accessor_dispatches_by_width() {
        let spec = ProblemSpec::find("serial_adder").unwrap();
        assert_eq!(spec.kernel::<u64>().width(), 16);
        assert_eq!(spec.kernel::<W128>().width(), 16);
        assert_eq!(spec.kernel::<W256>().width(), 16);
        assert_eq!(spec.kernel::<W512>().width(), 16);
    }
}
