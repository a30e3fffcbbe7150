//! Evolvable-problem registry checks.
//!
//! `leonardo-problems` ships a registry of evolvable problems
//! ([`leonardo_problems::problem_registry`]); every entry names its
//! genome width, its maximum fitness, a scalar constructor, a kernel
//! family that builds at any plane width, and a self-check probe. This checker is the gate
//! side of the `EvolvableProblem` contract: every registered problem
//! must have a sane shape, an instance that agrees with its registered
//! shape, fitness that is deterministic and bounded, a passing probe
//! (which internally pins kernel-vs-scalar agreement), and coverage by
//! the cross-problem conformance suite — so a problem can neither ship
//! broken nor ship untested.

use crate::finding::Finding;
use leonardo_problems::ProblemSpec;

/// Check name under which registry-shape defects are reported.
const SHAPE: &str = "problem-registry-shape";
/// Check name under which probe failures are reported.
const PROBE: &str = "problem-probe";
/// Check name under which suite-coverage holes are reported.
const COVERAGE: &str = "problem-suite-coverage";

/// Genomes every problem is spot-checked on, beyond its own probe: the
/// corners and an alternating pattern.
const SPOT_GENOMES: [u64; 4] = [0, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 1];

/// Validate a problem registry: shape sanity, instance-vs-registration
/// agreement, determinism/bound spot checks, every entry's probe, then
/// (when the suite source is available) that the conformance suite names
/// every registered problem.
///
/// `suite` is the text of `tests/problem_conformance.rs` when the gate
/// runs inside the repository; `None` (an installed binary, a stripped
/// tarball) downgrades the coverage check to a warning.
pub fn check_problems(registry: &[ProblemSpec], suite: Option<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();
    if registry.is_empty() {
        findings.push(Finding::error(
            SHAPE,
            "problem_registry",
            "the evolvable-problem registry is empty".to_string(),
        ));
        return findings;
    }

    let mut seen: Vec<&str> = Vec::new();
    for spec in registry {
        let ctx = format!("problem:{}", spec.name);
        if spec.name.is_empty() || spec.summary.is_empty() {
            findings.push(Finding::error(
                SHAPE,
                ctx.clone(),
                "problem name and summary must both be non-empty".to_string(),
            ));
        }
        if !(1..=64).contains(&spec.width) || spec.max_fitness == 0 {
            findings.push(Finding::error(
                SHAPE,
                ctx.clone(),
                format!(
                    "genome width must be 1..=64 and max fitness positive, got {} / {}",
                    spec.width, spec.max_fitness
                ),
            ));
        }
        if seen.contains(&spec.name) {
            findings.push(Finding::error(
                SHAPE,
                ctx.clone(),
                format!("problem name `{}` is registered twice", spec.name),
            ));
        }
        seen.push(spec.name);

        let problem = (spec.make)();
        if problem.name() != spec.name
            || problem.width() != spec.width
            || problem.max_fitness() != Some(spec.max_fitness)
        {
            findings.push(Finding::error(
                SHAPE,
                ctx.clone(),
                format!(
                    "instance shape ({}, {} bits, max {:?}) disagrees with the registration",
                    problem.name(),
                    problem.width(),
                    problem.max_fitness()
                ),
            ));
        }
        for g in SPOT_GENOMES {
            let a = problem.fitness(g);
            if a != problem.fitness(g) {
                findings.push(Finding::error(
                    PROBE,
                    ctx.clone(),
                    format!("fitness of genome {g:#x} is not deterministic"),
                ));
            }
            if a > spec.max_fitness {
                findings.push(Finding::error(
                    PROBE,
                    ctx.clone(),
                    format!("genome {g:#x} scores {a}, above the registered maximum"),
                ));
            }
        }
        if let Err(e) = (spec.probe)() {
            findings.push(Finding::error(
                PROBE,
                ctx.clone(),
                format!("registry probe failed: {e}"),
            ));
        }

        match suite {
            Some(text) if !text.contains(spec.name) => findings.push(Finding::error(
                COVERAGE,
                ctx,
                format!(
                    "registered problem `{}` never appears in the conformance suite",
                    spec.name
                ),
            )),
            Some(_) => {}
            None => findings.push(Finding::warning(
                COVERAGE,
                ctx,
                "conformance suite source unavailable; coverage not checked".to_string(),
            )),
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use leonardo_problems::problem_registry;

    #[test]
    fn shipped_registry_passes() {
        let findings = check_problems(problem_registry(), Some("gait fsm_traces serial_adder"));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn missing_suite_entry_is_an_error() {
        let findings = check_problems(problem_registry(), Some("gait serial_adder"));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].check, COVERAGE);
        assert!(findings[0].context.contains("fsm_traces"));
    }

    #[test]
    fn unavailable_suite_is_only_a_warning() {
        let findings = check_problems(problem_registry(), None);
        assert_eq!(findings.len(), problem_registry().len());
        assert!(findings
            .iter()
            .all(|f| f.severity == crate::Severity::Warning));
    }

    #[test]
    fn the_bad_problem_fixture_is_caught() {
        let findings = check_problems(&[crate::fixtures::bad_problem()], Some("bad_problem"));
        assert!(
            findings
                .iter()
                .any(|f| f.check == PROBE && f.message.contains("not deterministic")),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.check == SHAPE && f.message.contains("disagrees")),
            "{findings:?}"
        );
    }

    #[test]
    fn duplicate_names_are_an_error() {
        let spec = problem_registry()[0];
        let findings = check_problems(&[spec, spec], Some("gait"));
        assert!(findings
            .iter()
            .any(|f| f.check == SHAPE && f.message.contains("twice")));
    }

    #[test]
    fn empty_registry_is_an_error() {
        let findings = check_problems(&[], Some(""));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].check, SHAPE);
    }
}
