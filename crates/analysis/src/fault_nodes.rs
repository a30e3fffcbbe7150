//! Lint: every netlist node a fault campaign can name must exist.
//!
//! The fault models in `leonardo-faults` address storage by netlist node
//! name (`basis`, `rng_cells`, `best_genome_reg`) and bit position. This
//! check closes the loop statically: for each [`FaultModel`] it resolves
//! the node in **both** engine netlists (the scalar `gap` and the
//! 64-lane `gap_x64`) and verifies the node is clocked state wide enough
//! for every position the model can draw — so a campaign can never name
//! a node the design does not have, and a netlist refactor that renames
//! or narrows a storage array fails the gate rather than silently
//! invalidating the fault subsystem.

use crate::finding::Finding;
use discipulus::params::GapParams;
use leonardo_faults::FaultModel;
use leonardo_rtl::netlist::{NetKind, StaticNetlist};

/// Check one engine netlist against every fault model's node claim.
/// `lanes` is how many lanes of storage the netlist carries (1 for the
/// scalar chip, the lane count for the batch engine).
pub fn check_injectable_nodes(
    netlist: &StaticNetlist,
    lanes: u32,
    params: &GapParams,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for model in FaultModel::ALL {
        let node = model.node();
        let needed = model.domain_bits(params) * lanes;
        let ctx = format!("{}.{node}", netlist.unit);
        match netlist.find(node) {
            None => findings.push(Finding::error(
                "fault-node-missing",
                ctx,
                format!("fault model `{model}` addresses node `{node}`, absent from the netlist"),
            )),
            Some(net) => {
                if net.kind != NetKind::Register {
                    findings.push(Finding::error(
                        "fault-node-not-register",
                        ctx.clone(),
                        format!(
                            "fault model `{model}` needs clocked state, `{node}` is {:?}",
                            net.kind
                        ),
                    ));
                }
                if net.width < needed {
                    findings.push(Finding::error(
                        "fault-node-too-narrow",
                        ctx,
                        format!(
                            "fault model `{model}` draws positions over {needed} bits \
                             ({} per lane × {lanes} lanes), `{node}` is {} bits wide",
                            model.domain_bits(params),
                            net.width
                        ),
                    ));
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use leonardo_rtl::bitslice::{GapRtlXW, GapRtlXWConfig};
    use leonardo_rtl::gap_rtl::{GapRtl, GapRtlConfig};
    use leonardo_rtl::netlist::Describe;

    #[test]
    fn both_engine_netlists_carry_every_injectable_node() {
        let params = GapParams::paper();
        let scalar = GapRtl::new(GapRtlConfig::paper(1)).netlist();
        assert_eq!(check_injectable_nodes(&scalar, 1, &params), vec![]);
        let seeds: Vec<u32> = (0..64).collect();
        let batch = GapRtlXW::<u64>::new(GapRtlXWConfig::paper(), &seeds).netlist();
        assert_eq!(check_injectable_nodes(&batch, 64, &params), vec![]);
    }

    #[test]
    fn missing_and_narrow_nodes_are_errors() {
        let params = GapParams::paper();
        let broken = StaticNetlist::new("broken")
            .register("basis", 1152)
            .register("rng_cells", 16) // half the CA
            .wire("best_genome_reg", 36); // state modelled as a wire
        let findings = check_injectable_nodes(&broken, 1, &params);
        assert!(findings
            .iter()
            .any(|f| f.check == "fault-node-too-narrow" && f.context.contains("rng_cells")));
        assert!(
            findings
                .iter()
                .any(|f| f.check == "fault-node-not-register"
                    && f.context.contains("best_genome_reg"))
        );
        let empty = StaticNetlist::new("empty");
        let findings = check_injectable_nodes(&empty, 1, &params);
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.check == "fault-node-missing")
                .count(),
            FaultModel::ALL.len()
        );
    }
}
