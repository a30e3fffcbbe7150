//! The static design-verification gate.
//!
//! ```text
//! analysis check [seed] [--json]   full gate: lint the chip netlist, check
//!                                  the resource budget, run the symbolic
//!                                  proof battery, verify the population path
//! analysis genome <hex> [--json]   statically check one 36-bit genome
//! analysis fixture <name> [--json] run a seeded-defect fixture (must fail):
//!                                  combinational-loop | width-mismatch |
//!                                  clb-overflow | trap-genome |
//!                                  broken-shard-plan | bad-fitness-unit |
//!                                  two-writer-ram | broken-plane-kernel |
//!                                  broken-doc-link | undocumented-route |
//!                                  bad-objective | bad-problem |
//!                                  coupled-sides
//! ```
//!
//! With `--json`, stdout carries exactly one JSON object per finding
//! (stable schema: `severity`, `check`, `context`, `message`), one per
//! line, and nothing else — the CI annotation step parses this stream.
//!
//! Findings are reported in a deterministic order — sorted by
//! `(context, check, message)` — regardless of which checker produced
//! them first, so gate output diffs cleanly between runs.
//!
//! Exit status: 0 when no error-severity finding, 1 otherwise, 2 on usage
//! errors.

#![forbid(unsafe_code)]

use analysis::finding::{has_errors, Finding};
use analysis::{
    check_genome, check_injectable_nodes, check_objectives, check_plane_registry,
    check_population_path, check_problems, check_shard_plan, fixtures, lint, symbolic,
};
use discipulus::genome::Genome;
use discipulus::params::GapParams;
use leonardo_rtl::bitslice::{CaRngX64, FitnessUnitX64, GapRtlX64, GapRtlX64Config, RamX64};
use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};
use leonardo_rtl::netlist::Describe;
use leonardo_rtl::top::DiscipulusTop;
use std::process::ExitCode;

/// Seed of the population-path verification when none is given.
const DEFAULT_SEED: u32 = 0xD15C;
/// Generation cap for the population-path verification.
const MAX_GENERATIONS: u64 = 50_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // accept both `fixture <name>` and the `--fixture <name>` spelling
    let norm: Vec<&str> = args.iter().map(|a| a.trim_start_matches("--")).collect();
    let json = norm.contains(&"json");
    let norm: Vec<&str> = norm.into_iter().filter(|&a| a != "json").collect();
    match norm.as_slice() {
        ["check"] => run_check(DEFAULT_SEED, json),
        ["check", seed] => match seed.parse() {
            Ok(s) => run_check(s, json),
            Err(_) => usage(&format!("invalid seed `{seed}`")),
        },
        ["genome", hex] => {
            let hex = hex.trim_start_matches("0x");
            match u64::from_str_radix(hex, 16) {
                Ok(bits) if bits >> 36 == 0 => report(check_genome(Genome::from_bits(bits)), json),
                Ok(bits) => usage(&format!("{bits:#x} does not fit in 36 bits")),
                Err(_) => usage(&format!("invalid genome hex `{hex}`")),
            }
        }
        ["fixture", name] => run_fixture(name, json),
        _ => usage("expected `check [seed]`, `genome <hex>` or `fixture <name>`"),
    }
}

fn run_check(seed: u32, json: bool) -> ExitCode {
    let say = |s: &str| {
        if !json {
            println!("{s}");
        }
    };
    let chip = DiscipulusTop::new(GapRtlConfig::paper(seed));
    let design = chip.design_netlist();
    say(&format!("== netlist lint: {} ==", design.design));
    say(&lint::budget_summary(&design));
    let mut findings = lint::lint_design(&design);
    // the 64-lane batch engine is a host-side simulation accelerator, not
    // part of the single-chip CLB budget, so its units lint standalone
    say("== batch-engine units (64-lane bit-sliced) ==");
    let batch = GapRtlX64::new(GapRtlX64Config::paper(), &[seed]);
    for n in [
        CaRngX64::new(&[seed]).netlist(),
        FitnessUnitX64::paper().netlist(),
        RamX64::new(32, 36).netlist(),
        batch.netlist(),
    ] {
        say(&format!("   {}: lint_unit", n.unit));
        findings.extend(lint::lint_unit(&n));
    }
    // every node a fault campaign can name must exist, as wide-enough
    // clocked state, in both engine netlists
    say("== fault-injection node addressing ==");
    let params = GapParams::paper();
    for n in [
        GapRtl::new(GapRtlConfig::paper(seed)).netlist(),
        batch.netlist(),
    ] {
        say(&format!("   {}: check_injectable_nodes", n.unit));
        findings.extend(check_injectable_nodes(&n, 1, &params));
    }
    // every registered bit-slice plane width: shape sanity, the per-width
    // scalar-equivalence probe, lane-equivalence-suite coverage
    say("== plane-width registry: shape, probes, suite coverage ==");
    let registry = leonardo_rtl::bitslice::plane_registry();
    for w in registry {
        say(&format!(
            "   {}: {} lanes ({} limb(s)): probe",
            w.name, w.lanes, w.words
        ));
    }
    let suite = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/bitslice_equivalence.rs"
    ))
    .ok();
    findings.extend(check_plane_registry(registry, suite.as_deref()));
    // every registered walk objective: shape sanity, finiteness and
    // determinism probes, objective-suite coverage
    say("== walk-objective registry: shape, probes, suite coverage ==");
    let objectives = leonardo_walker::objectives::objective_registry();
    for o in objectives {
        say(&format!("   {} ({}): probe", o.name, o.unit));
    }
    let obj_suite = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/walk_objectives.rs"
    ))
    .ok();
    findings.extend(check_objectives(objectives, obj_suite.as_deref()));
    // every registered evolvable problem: shape sanity, determinism and
    // bound spot checks, the kernel-pinning probe, conformance-suite
    // coverage
    say("== evolvable-problem registry: shape, probes, suite coverage ==");
    let problems = leonardo_problems::problem_registry();
    for p in problems {
        say(&format!(
            "   {} ({} bits, max {}): probe",
            p.name, p.width, p.max_fitness
        ));
    }
    let problem_suite = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/problem_conformance.rs"
    ))
    .ok();
    findings.extend(check_problems(problems, problem_suite.as_deref()));
    // the exhaustive sweep's partition arithmetic, at every shard count
    // the drivers use (CI smoke, defaults, full run) plus awkward odd ones
    say("== landscape shard plans ==");
    for (bits, shards) in [(24u32, 256usize), (24, 7), (36, 256), (36, 1), (36, 1000)] {
        say(&format!("   2^{bits} x {shards}: check_shard_plan"));
        findings.extend(check_shard_plan(&leonardo_landscape::ShardPlan::new(
            bits, shards,
        )));
    }
    // the symbolic battery: equivalence miters over all 2^36 genomes and
    // 2^32 RNG states, k-induction invariants, bounded reachability
    say("== symbolic proofs: miters, k-induction, reachability ==");
    let sym = symbolic::check_symbolic(seed);
    for p in &sym.proofs {
        say(&format!(
            "   {} {} [{}]: {} vars, {} clauses, {} conflicts, {} ms",
            if p.proved { "proved" } else { "FAILED" },
            p.name,
            p.context,
            p.stats.vars,
            p.stats.clauses,
            p.stats.conflicts,
            p.millis,
        ));
    }
    findings.extend(sym.findings);
    // the documentation gate: SERVER.md must match the route registry,
    // and every relative doc link / anchor must resolve
    say("== docs: server API reference + cross-document links ==");
    findings.extend(run_doc_checks(&say));
    say(&format!("== genome path: seed {seed:#x} =="));
    findings.extend(check_population_path(seed, MAX_GENERATIONS));
    report(findings, json)
}

/// The markdown files the link checker walks, repo-relative. Root-level
/// docs plus everything under `docs/`.
const DOC_FILES: &[&str] = &[
    "README.md",
    "ANALYSIS.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/FAULTS.md",
    "docs/LANDSCAPE.md",
    "docs/PARETO.md",
    "docs/PROBLEMS.md",
    "docs/SERVER.md",
    "docs/TELEMETRY.md",
];

/// Load the repo's docs and run both documentation checkers.
fn run_doc_checks(say: &dyn Fn(&str)) -> Vec<Finding> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut docs = Vec::new();
    let mut findings = Vec::new();
    for path in DOC_FILES {
        match std::fs::read_to_string(format!("{root}/{path}")) {
            Ok(content) => docs.push(analysis::DocFile {
                path: (*path).to_string(),
                content,
            }),
            Err(e) => findings.push(Finding::error(
                "missing-doc",
                (*path).to_string(),
                format!("required document cannot be read: {e}"),
            )),
        }
    }
    say(&format!(
        "   {} route(s) vs docs/SERVER.md: check_server_api",
        leonardo_server::route_specs().len()
    ));
    if let Some(server_md) = docs.iter().find(|d| d.path == "docs/SERVER.md") {
        findings.extend(analysis::check_server_api(
            leonardo_server::route_specs(),
            &server_md.content,
        ));
    }
    say(&format!("   {} document(s): check_doc_links", docs.len()));
    // directories are fine link targets (crate folders, results/)
    let exists = |p: &str| std::path::Path::new(&format!("{root}/{p}")).exists();
    findings.extend(analysis::check_doc_links(&docs, &exists));
    findings
}

fn run_fixture(name: &str, json: bool) -> ExitCode {
    let findings = match name {
        "combinational-loop" => lint::lint_unit(&fixtures::combinational_loop()),
        "width-mismatch" => lint::lint_design(&fixtures::width_mismatch()),
        "clb-overflow" => lint::lint_design(&fixtures::clb_overflow()),
        "trap-genome" => check_genome(fixtures::trap_genome()),
        "broken-shard-plan" => check_shard_plan(&fixtures::broken_shard_plan()),
        "bad-fitness-unit" => symbolic::miter_fitness_unit(&fixtures::bad_fitness_unit()).findings,
        "coupled-sides" => {
            symbolic::check_side_separability(&fixtures::coupled_sides(), "coupled_sides").findings
        }
        "two-writer-ram" => symbolic::check_control_invariant(&fixtures::two_writer_ram()).findings,
        "broken-plane-kernel" => {
            check_plane_registry(&[fixtures::broken_plane_width()], Some("w128"))
        }
        // an empty file tree: the README's link must come up dead
        "broken-doc-link" => analysis::check_doc_links(&fixtures::broken_doc_link(), &|_| false),
        "undocumented-route" => analysis::check_server_api(
            leonardo_server::route_specs(),
            &fixtures::undocumented_route_md(),
        ),
        "bad-objective" => check_objectives(&[fixtures::bad_objective()], Some("bad_objective")),
        "bad-problem" => check_problems(&[fixtures::bad_problem()], Some("bad_problem")),
        _ => return usage(&format!("unknown fixture `{name}`")),
    };
    report(findings, json)
}

/// Render one finding as a single-line JSON object with the stable
/// `severity`/`check`/`context`/`message` schema.
fn finding_json(f: &Finding) -> String {
    use leonardo_telemetry::json::escape_into;
    let mut out = String::with_capacity(96 + f.message.len());
    out.push_str("{\"severity\":");
    escape_into(&mut out, &format!("{}", f.severity));
    out.push_str(",\"check\":");
    escape_into(&mut out, f.check);
    out.push_str(",\"context\":");
    escape_into(&mut out, &f.context);
    out.push_str(",\"message\":");
    escape_into(&mut out, &f.message);
    out.push('}');
    out
}

fn report(mut findings: Vec<Finding>, json: bool) -> ExitCode {
    // deterministic order, independent of checker scheduling
    analysis::finding::sort_findings(&mut findings);
    for f in &findings {
        if json {
            println!("{}", finding_json(f));
        } else {
            println!("{f}");
        }
    }
    if has_errors(&findings) {
        let n = findings
            .iter()
            .filter(|f| f.severity == analysis::Severity::Error)
            .count();
        if !json {
            println!("FAIL: {n} error finding(s)");
        }
        ExitCode::FAILURE
    } else {
        if !json {
            println!("OK: no error findings ({} warning(s))", findings.len());
        }
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: analysis [--json] check [seed] | genome <hex> | fixture <name>");
    ExitCode::from(2)
}
