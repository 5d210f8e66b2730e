//! The checker battery as it was before baselines: every node's tables
//! visited on every clone, flip counts probed in one federation-wide map,
//! one SHA-256 per route. Kept word for word as the oracle the
//! differential tests (`tests/check_differential.rs`) and the
//! `check_battery` bench hold [`crate::check::run_checkers`] against —
//! nothing in the engine calls it.

use std::collections::BTreeMap;

use dice_bgp::Ipv4Net;
use dice_netsim::{NodeId, QuietOutcome, ShadowSnapshot, Simulator};

use crate::check::{CheckReport, FaultClass, FaultReport};
use crate::interface::{AttestationRegistry, LocalVerdict};
use crate::sut::{CheckView, SutCatalog};

/// Per-(node, prefix) best-route flip counts of a snapshot.
pub fn flips_baseline(
    catalog: &SutCatalog,
    shadow: &ShadowSnapshot,
) -> BTreeMap<(NodeId, Ipv4Net), u64> {
    let mut out = BTreeMap::new();
    for (id, sut) in catalog.shadow_explorables(shadow) {
        sut.check_view().for_each_route_flip(&mut |prefix, flips| {
            out.insert((id, prefix), flips);
        });
    }
    out
}

/// What the full battery looks at: [`crate::check::CheckContext`] with
/// the federation-wide flip map for a baseline.
#[expect(
    missing_docs,
    reason = "field for field what CheckContext documents, with the flip map in place of the baseline"
)]
pub struct FullContext<'a> {
    pub sim: &'a Simulator,
    pub catalog: &'a SutCatalog,
    pub registry: &'a AttestationRegistry,
    pub baseline_flips: &'a BTreeMap<(NodeId, Ipv4Net), u64>,
    pub quiet: QuietOutcome,
    pub injected: bool,
}

impl<'a> FullContext<'a> {
    fn views(&self) -> impl Iterator<Item = (NodeId, &'a dyn CheckView)> + '_ {
        let sim = self.sim;
        sim.topology().node_ids().filter_map(move |id| {
            if sim.crashed(id).is_some() {
                return None;
            }
            self.catalog
                .resolve(sim.node(id))
                .map(|e| (id, e.check_view()))
        })
    }

    fn now(&self) -> u64 {
        self.sim.now().as_nanos()
    }
}

/// The default battery (crash, oscillation at `threshold`,
/// origin-authority, convergence) over one clone, in that order.
pub fn run_full_battery(threshold: u64, cx: &FullContext<'_>) -> CheckReport {
    let mut report = CheckReport::default();
    let CheckReport { verdicts, faults } = &mut report;

    for id in cx.sim.topology().node_ids() {
        match cx.sim.crashed(id) {
            // Nodes absent from the snapshot scope are not crashes.
            Some(reason) if reason == Simulator::OUTSIDE_SNAPSHOT => {}
            Some(reason) => {
                verdicts.push(LocalVerdict::fail(id, "crash", "node crashed"));
                faults.push(FaultReport {
                    class: FaultClass::ProgrammingError,
                    node: id,
                    detail: format!("crash: {reason}"),
                    at_nanos: cx.now(),
                });
            }
            None => verdicts.push(LocalVerdict::pass(id, "crash")),
        }
    }

    for (id, view) in cx.views() {
        let mut worst: Option<(Ipv4Net, u64)> = None;
        view.for_each_route_flip(&mut |prefix, flips| {
            let base = cx.baseline_flips.get(&(id, prefix)).copied().unwrap_or(0);
            let delta = flips.saturating_sub(base);
            if delta >= threshold && worst.map(|(_, w)| delta > w).unwrap_or(true) {
                worst = Some((prefix, delta));
            }
        });
        match worst {
            Some((prefix, delta)) => {
                verdicts.push(LocalVerdict::fail(
                    id,
                    "oscillation",
                    format!("route flapping on {prefix}"),
                ));
                faults.push(FaultReport {
                    class: FaultClass::PolicyConflict,
                    node: id,
                    detail: format!("oscillation on {prefix} ({delta} flips)"),
                    at_nanos: cx.now(),
                });
            }
            None => verdicts.push(LocalVerdict::pass(id, "oscillation")),
        }
    }

    if !cx.injected {
        for (id, view) in cx.views() {
            let mut bad: Vec<String> = Vec::new();
            view.for_each_best_route(&mut |prefix, origin| {
                if !cx.registry.is_attested(&prefix, origin) {
                    bad.push(format!("{prefix} originated by {origin} unattested"));
                    faults.push(FaultReport {
                        class: FaultClass::OperatorMistake,
                        node: id,
                        detail: format!("hijack: {prefix} via {origin}"),
                        at_nanos: cx.now(),
                    });
                }
            });
            if bad.is_empty() {
                verdicts.push(LocalVerdict::pass(id, "origin-authority"));
            } else {
                verdicts.push(LocalVerdict::fail(id, "origin-authority", bad.join("; ")));
            }
        }
    }

    match cx.quiet {
        QuietOutcome::Quiescent => {
            verdicts.push(LocalVerdict::pass(FaultReport::SYSTEM_WIDE, "convergence"));
        }
        QuietOutcome::TimedOut => {
            verdicts.push(LocalVerdict::fail(
                FaultReport::SYSTEM_WIDE,
                "convergence",
                "no quiescence within horizon",
            ));
            faults.push(FaultReport {
                class: FaultClass::PolicyConflict,
                node: FaultReport::SYSTEM_WIDE,
                detail: "system did not converge within exploration horizon".into(),
                at_nanos: cx.now(),
            });
        }
    }
    report
}
