//! Property checkers and the fault taxonomy.
//!
//! Checkers embody the paper's three fault classes:
//!
//! * **Programming errors** — a node crashed while processing an input
//!   ([`CrashChecker`]).
//! * **Policy conflicts** — persistent best-route oscillation / failure to
//!   converge ([`OscillationChecker`], [`ConvergenceChecker`]); the classic
//!   instance is the "bad gadget" preference cycle.
//! * **Operator mistakes** — announced routes whose (prefix, origin) pair is
//!   not attested, i.e. prefix hijacking by misconfiguration
//!   ([`OriginAuthorityChecker`]).
//!
//! All checks are *local*: they read only the node's own state — through
//! the protocol-agnostic [`CheckView`] seam resolved by a [`SutCatalog`] —
//! and the shared [`AttestationRegistry`] digests, and publish
//! [`LocalVerdict`]s — the narrow interface that keeps federated domains'
//! state confidential.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use dice_bgp::{Asn, Ipv4Net};
use dice_netsim::{Node, NodeId, QuietOutcome, ShadowSnapshot, Simulator};
use serde::{Deserialize, Serialize};

use crate::interface::{AttestationRegistry, LocalVerdict};
use crate::sut::{CheckView, SutCatalog};

/// The paper's fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultClass {
    /// A defect in the implementation (crash, assertion, memory error).
    ProgrammingError,
    /// Conflicting routing policies across domains (e.g. dispute cycles).
    PolicyConflict,
    /// A configuration change that violates global intent (e.g. hijack).
    OperatorMistake,
}

impl core::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultClass::ProgrammingError => write!(f, "programming-error"),
            FaultClass::PolicyConflict => write!(f, "policy-conflict"),
            FaultClass::OperatorMistake => write!(f, "operator-mistake"),
        }
    }
}

/// A detected fault with provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Classification.
    pub class: FaultClass,
    /// Node where the fault manifested ([`FaultReport::SYSTEM_WIDE`] when
    /// no single node is responsible).
    pub node: NodeId,
    /// Human-readable description (non-confidential).
    pub detail: String,
    /// Simulated time of detection.
    pub at_nanos: u64,
}

impl FaultReport {
    /// Sentinel node id for system-wide faults (e.g. non-convergence).
    pub const SYSTEM_WIDE: NodeId = NodeId(u32::MAX);

    /// Dedup key: class + node + detail.
    pub fn key(&self) -> (FaultClass, NodeId, String) {
        (self.class, self.node, self.detail.clone())
    }
}

/// What the checkers keep from one consistent cut ([`flips_baseline`]):
/// computed once, then shared read-only by every clone validated against
/// the cut, so that judging a clone costs what its input touched.
///
/// Per checkpointed node it holds the checkpoint `Arc` it was read from and
/// that node's route-flip counters. A clone's node whose simulator slot
/// still holds *that very* `Arc`
/// ([`Simulator::shared_checkpoint`], pointer-equal) is bit for bit the
/// state the cut recorded: it gets its baseline verdict without its tables
/// being visited. Identity of the `Arc` is the whole skip condition — not
/// a dirty bit, not an assumption about which cut the clone was built
/// from — so a baseline handed a clone of *another* cut merely skips fewer
/// nodes (those the delta chain still shares).
///
/// The origin-authority half — every node's unattested routes at the cut
/// and the `(prefix, origin) → attested` answers behind them — needs the
/// registry, so the first origin check against the cut fills it, once. It
/// is process-local scratch: built from state the battery reads anyway,
/// never serialized (no `Serialize` impl, by design), and nothing of it
/// crosses the attestation interface.
///
/// A baseline belongs to the [`SutCatalog`] that built it.
#[derive(Default)]
pub struct CheckBaseline {
    /// By node index; `None` for nodes outside the cut or unknown to the
    /// catalog.
    nodes: Vec<Option<NodeBaseline>>,
    origins: OnceLock<OriginBaseline>,
}

struct NodeBaseline {
    checkpoint: Arc<dyn Node>,
    /// Flip counters as the node's [`CheckView`] yields them: ascending by
    /// prefix, one entry per prefix.
    flips: Vec<(Ipv4Net, u64)>,
}

/// The cut as one registry judges it.
struct OriginBaseline {
    /// [`AttestationRegistry::stamp`] of the registry that answered; any
    /// other registry gets no answer from this table.
    registry: u64,
    /// Every `(prefix, origin)` some node's best-route table held at the
    /// cut, in front of the registry's SHA-256.
    attested: HashMap<(Ipv4Net, Asn), bool>,
    /// Per node (indexed as `CheckBaseline::nodes`), its unattested best
    /// routes in table order; empty means the node passes.
    unattested: Vec<Vec<(Ipv4Net, Asn)>>,
}

impl CheckBaseline {
    fn node(&self, id: NodeId) -> Option<&NodeBaseline> {
        self.nodes.get(id.index())?.as_ref()
    }

    /// A merge-join cursor over `id`'s baseline flip counters (all zero for
    /// a node the baseline does not know).
    fn flips_of(&self, id: NodeId) -> FlipCursor<'_> {
        FlipCursor {
            flips: self.node(id).map_or(&[][..], |n| n.flips.as_slice()),
            at: 0,
        }
    }

    /// The cut as `registry` judges it, filled on first use; `None` when
    /// the table was filled under a registry with other contents.
    fn origins(
        &self,
        catalog: &SutCatalog,
        registry: &AttestationRegistry,
    ) -> Option<&OriginBaseline> {
        let table = self.origins.get_or_init(|| {
            let mut attested = HashMap::new();
            let unattested = self
                .nodes
                .iter()
                .map(|node| {
                    let mut bad = Vec::new();
                    let view = node
                        .as_ref()
                        .and_then(|n| catalog.resolve(n.checkpoint.as_ref()));
                    if let Some(sut) = view {
                        sut.check_view().for_each_best_route(&mut |prefix, origin| {
                            let ok = *attested
                                .entry((prefix, origin))
                                .or_insert_with(|| registry.is_attested(&prefix, origin));
                            if !ok {
                                bad.push((prefix, origin));
                            }
                        });
                    }
                    bad
                })
                .collect();
            OriginBaseline {
                registry: registry.stamp(),
                attested,
                unattested,
            }
        });
        (table.registry == registry.stamp()).then_some(table)
    }
}

/// Looks prefixes up in one node's baseline flip counters. A [`CheckView`]
/// yields its counters in the order the baseline recorded them, so the
/// lookup is a merge-join: each call resumes where the previous one ended.
struct FlipCursor<'a> {
    flips: &'a [(Ipv4Net, u64)],
    at: usize,
}

impl FlipCursor<'_> {
    /// The baseline counter of `prefix`, 0 if it had none.
    fn get(&mut self, prefix: Ipv4Net) -> u64 {
        // A view that steps backwards restarts the join where `prefix`
        // belongs.
        let passed = self.at.checked_sub(1).and_then(|i| self.flips.get(i));
        if passed.is_some_and(|(p, _)| *p >= prefix) {
            self.at = self.flips.partition_point(|(p, _)| *p < prefix);
        }
        while self.flips.get(self.at).is_some_and(|(p, _)| *p < prefix) {
            self.at += 1;
        }
        match self.flips.get(self.at) {
            Some(&(p, flips)) if p == prefix => flips,
            _ => 0,
        }
    }
}

/// Everything a checker may look at for one explored clone.
pub struct CheckContext<'a> {
    /// The clone after running the exploration horizon.
    pub sim: &'a Simulator,
    /// Resolves nodes to their checker-visible state.
    pub catalog: &'a SutCatalog,
    /// Shared attestation digests.
    pub registry: &'a AttestationRegistry,
    /// The baseline of the cut the clone was built from
    /// ([`flips_baseline`]): per-node route-flip counts at snapshot time,
    /// and what lets untouched nodes keep their baseline verdict.
    pub baseline_flips: &'a CheckBaseline,
    /// Whether the clone quiesced within the horizon.
    pub quiet: QuietOutcome,
    /// Whether a synthetic exploration input was injected into this clone.
    /// *State-based* properties (origin authority) are only meaningful on
    /// the un-perturbed clone — synthetic announcements are by construction
    /// unattested and would drown the signal; *input-triggered* properties
    /// (crashes, divergence) are checked on every clone.
    pub injected: bool,
}

impl<'a> CheckContext<'a> {
    /// The checker-visible state of every live (non-crashed) node the
    /// catalog recognizes.
    pub fn views(&self) -> impl Iterator<Item = (NodeId, &'a dyn CheckView)> + '_ {
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

    /// Whether node `id` is still, bit for bit, the state the baseline's
    /// cut recorded: its slot shares the very checkpoint the baseline was
    /// read from.
    fn untouched(&self, id: NodeId) -> bool {
        match (self.baseline_flips.node(id), self.sim.shared_checkpoint(id)) {
            (Some(base), Some(now)) => Arc::ptr_eq(&base.checkpoint, now),
            _ => false,
        }
    }
}

/// A property checker producing local verdicts and fault reports.
pub trait Checker: Send + Sync {
    /// Stable identifier used in verdicts.
    fn name(&self) -> &'static str;
    /// Run the check over a clone, appending to `report` — what
    /// [`run_checkers`] calls. The in-tree checkers push straight into the
    /// report, so a passing verdict allocates nothing.
    fn check_into(&self, cx: &CheckContext<'_>, report: &mut CheckReport);
    /// [`Checker::check_into`], collected into fresh vectors.
    fn check(&self, cx: &CheckContext<'_>) -> (Vec<LocalVerdict>, Vec<FaultReport>) {
        let mut report = CheckReport::default();
        self.check_into(cx, &mut report);
        (report.verdicts, report.faults)
    }
}

/// Detects crashed nodes (programming errors).
#[derive(Debug, Default)]
pub struct CrashChecker;

impl Checker for CrashChecker {
    fn name(&self) -> &'static str {
        "crash"
    }

    // One slot field per node either way: there is no table to skip.
    fn check_into(&self, cx: &CheckContext<'_>, report: &mut CheckReport) {
        for id in cx.sim.topology().node_ids() {
            match cx.sim.crashed(id) {
                None => report.verdicts.push(LocalVerdict::pass(id, self.name())),
                // Nodes absent from the snapshot scope are not crashes.
                Some(_) if cx.sim.outside_snapshot(id) => {}
                Some(reason) => crashed(self.name(), id, reason, cx, report),
            }
        }
    }
}

fn crashed(
    checker: &'static str,
    id: NodeId,
    reason: &str,
    cx: &CheckContext<'_>,
    report: &mut CheckReport,
) {
    report
        .verdicts
        .push(LocalVerdict::fail(id, checker, "node crashed"));
    report.faults.push(FaultReport {
        class: FaultClass::ProgrammingError,
        node: id,
        detail: format!("crash: {reason}"),
        at_nanos: cx.sim.now().as_nanos(),
    });
}

/// Detects persistent best-route oscillation (policy conflicts).
#[derive(Debug)]
pub struct OscillationChecker {
    /// Flips (beyond baseline) for one prefix that count as oscillation.
    /// Must sit above transient convergence churn (a handful of flips per
    /// injected announcement) and below dispute-cycle livelock (hundreds).
    pub threshold: u64,
}

impl Default for OscillationChecker {
    fn default() -> Self {
        OscillationChecker { threshold: 20 }
    }
}

impl Checker for OscillationChecker {
    fn name(&self) -> &'static str {
        "oscillation"
    }

    fn check_into(&self, cx: &CheckContext<'_>, report: &mut CheckReport) {
        for (id, view) in cx.views() {
            // A node that still is its checkpoint has flipped nothing since
            // the cut. At threshold 0 a delta of 0 already fires, so there
            // the tables are visited like any touched node's.
            if self.threshold > 0 && cx.untouched(id) {
                report.verdicts.push(LocalVerdict::pass(id, self.name()));
                continue;
            }
            let mut base = cx.baseline_flips.flips_of(id);
            let mut worst: Option<(Ipv4Net, u64)> = None;
            view.for_each_route_flip(&mut |prefix, flips| {
                let delta = flips.saturating_sub(base.get(prefix));
                if delta >= self.threshold && worst.map(|(_, w)| delta > w).unwrap_or(true) {
                    worst = Some((prefix, delta));
                }
            });
            match worst {
                Some((prefix, delta)) => flapping(self.name(), id, prefix, delta, cx, report),
                None => report.verdicts.push(LocalVerdict::pass(id, self.name())),
            }
        }
    }
}

fn flapping(
    checker: &'static str,
    id: NodeId,
    prefix: Ipv4Net,
    delta: u64,
    cx: &CheckContext<'_>,
    report: &mut CheckReport,
) {
    report.verdicts.push(LocalVerdict::fail(
        id,
        checker,
        format!("route flapping on {prefix}"),
    ));
    report.faults.push(FaultReport {
        class: FaultClass::PolicyConflict,
        node: id,
        detail: format!("oscillation on {prefix} ({delta} flips)"),
        at_nanos: cx.sim.now().as_nanos(),
    });
}

/// Detects unattested route origins (operator mistakes / hijacks).
#[derive(Debug, Default)]
pub struct OriginAuthorityChecker;

impl Checker for OriginAuthorityChecker {
    fn name(&self) -> &'static str {
        "origin-authority"
    }

    fn check_into(&self, cx: &CheckContext<'_>, report: &mut CheckReport) {
        if cx.injected {
            // Origin authority is a state property of the live system;
            // synthetic inputs would be trivially (and meaninglessly)
            // unattested.
            return;
        }
        let origins = cx.baseline_flips.origins(cx.catalog, cx.registry);
        for (id, view) in cx.views() {
            // An untouched node holds the routes it held at the cut: its
            // baseline outcome, stamped with this clone's clock.
            let kept = origins
                .filter(|_| cx.untouched(id))
                .and_then(|table| table.unattested.get(id.index()));
            match kept {
                Some(bad) => origin_verdict(self.name(), id, bad, cx, report),
                None => {
                    let bad = unattested_routes(view, origins, cx.registry);
                    origin_verdict(self.name(), id, &bad, cx, report)
                }
            }
        }
    }
}

/// The unattested best routes of a touched node, in table order, with the
/// cut's answers in front of the registry's SHA-256.
fn unattested_routes(
    view: &dyn CheckView,
    origins: Option<&OriginBaseline>,
    registry: &AttestationRegistry,
) -> Vec<(Ipv4Net, Asn)> {
    let mut bad = Vec::new();
    view.for_each_best_route(&mut |prefix, origin| {
        let known = origins.and_then(|t| t.attested.get(&(prefix, origin)).copied());
        if !known.unwrap_or_else(|| registry.is_attested(&prefix, origin)) {
            bad.push((prefix, origin));
        }
    });
    bad
}

fn origin_verdict(
    checker: &'static str,
    id: NodeId,
    bad: &[(Ipv4Net, Asn)],
    cx: &CheckContext<'_>,
    report: &mut CheckReport,
) {
    if bad.is_empty() {
        report.verdicts.push(LocalVerdict::pass(id, checker));
        return;
    }
    let at_nanos = cx.sim.now().as_nanos();
    report
        .faults
        .extend(bad.iter().map(|(prefix, origin)| FaultReport {
            class: FaultClass::OperatorMistake,
            node: id,
            detail: format!("hijack: {prefix} via {origin}"),
            at_nanos,
        }));
    let detail: Vec<String> = bad
        .iter()
        .map(|(prefix, origin)| format!("{prefix} originated by {origin} unattested"))
        .collect();
    report
        .verdicts
        .push(LocalVerdict::fail(id, checker, detail.join("; ")));
}

/// Flags clones that failed to quiesce within the horizon.
#[derive(Debug, Default)]
pub struct ConvergenceChecker;

impl Checker for ConvergenceChecker {
    fn name(&self) -> &'static str {
        "convergence"
    }

    fn check_into(&self, cx: &CheckContext<'_>, report: &mut CheckReport) {
        match cx.quiet {
            QuietOutcome::Quiescent => report
                .verdicts
                .push(LocalVerdict::pass(FaultReport::SYSTEM_WIDE, self.name())),
            QuietOutcome::TimedOut => {
                report.verdicts.push(LocalVerdict::fail(
                    FaultReport::SYSTEM_WIDE,
                    self.name(),
                    "no quiescence within horizon",
                ));
                report.faults.push(FaultReport {
                    class: FaultClass::PolicyConflict,
                    node: FaultReport::SYSTEM_WIDE,
                    detail: "system did not converge within exploration horizon".into(),
                    at_nanos: cx.sim.now().as_nanos(),
                });
            }
        }
    }
}

/// The default checker battery.
pub fn default_checkers(oscillation_threshold: u64) -> Vec<Box<dyn Checker>> {
    vec![
        Box::new(CrashChecker),
        Box::new(OscillationChecker {
            threshold: oscillation_threshold,
        }),
        Box::new(OriginAuthorityChecker),
        Box::new(ConvergenceChecker),
    ]
}

/// Aggregated outcome of a checker battery over one clone.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All verdicts published through the information-sharing interface.
    pub verdicts: Vec<LocalVerdict>,
    /// Detected faults.
    pub faults: Vec<FaultReport>,
}

impl CheckReport {
    /// Number of failing verdicts.
    pub fn failed(&self) -> usize {
        self.verdicts.iter().filter(|v| !v.ok).count()
    }
}

/// Run a battery of checkers over one clone.
pub fn run_checkers(checkers: &[Box<dyn Checker>], cx: &CheckContext<'_>) -> CheckReport {
    let mut report = CheckReport::default();
    // One verdict per node per checker at most (the default battery emits
    // 3n + 1): reserved once, so passing verdicts never allocate.
    report
        .verdicts
        .reserve(checkers.len() * cx.sim.topology().len());
    for c in checkers {
        c.check_into(cx, &mut report);
    }
    report
}

/// Read the checkers' baseline off a snapshot — per node the checkpoint
/// and its best-route flip counts, which the oscillation checker
/// subtracts. Once per cut; see [`CheckBaseline`].
pub fn flips_baseline(catalog: &SutCatalog, shadow: &ShadowSnapshot) -> CheckBaseline {
    let len = shadow
        .nodes()
        .keys()
        .next_back()
        .map_or(0, |id| id.index() + 1);
    let mut nodes: Vec<Option<NodeBaseline>> = Vec::new();
    nodes.resize_with(len, || None);
    for (id, checkpoint) in shadow.nodes() {
        let Some(sut) = catalog.resolve(checkpoint.as_ref()) else {
            continue;
        };
        let mut flips = Vec::new();
        sut.check_view()
            .for_each_route_flip(&mut |prefix, count| flips.push((prefix, count)));
        // The join wants ascending, unique prefixes — what the in-tree
        // views yield. Any other order is sorted once here, a repeated
        // prefix keeping its last count.
        if !flips.is_sorted_by(|a, b| a.0 < b.0) {
            let sorted: BTreeMap<Ipv4Net, u64> = flips.into_iter().collect();
            flips = sorted.into_iter().collect();
        }
        if let Some(slot) = nodes.get_mut(id.index()) {
            *slot = Some(NodeBaseline {
                checkpoint: Arc::clone(checkpoint),
                flips,
            });
        }
    }
    CheckBaseline {
        nodes,
        origins: OnceLock::new(),
    }
}

/// Build the attestation registry from router configs: every node attests
/// the prefixes it legitimately owns. (In deployment this is an IRR/RPKI-
/// like out-of-band step; only digests are shared.) Prefer
/// [`SutCatalog::build_registry`] when a live simulator is at hand.
pub fn build_registry(
    configs: impl IntoIterator<Item = (NodeId, dice_bgp::RouterConfig)>,
    seed: u64,
) -> AttestationRegistry {
    let mut reg = AttestationRegistry::with_seed(seed);
    for (_, cfg) in configs {
        for prefix in &cfg.owned {
            reg.attest(prefix, cfg.asn);
        }
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::{net, Asn, BgpRouter, RouterConfig, RouterId};
    use dice_netsim::{LinkParams, SimDuration, SimTime, Topology};

    fn mini_sim(cfgs: Vec<RouterConfig>) -> Simulator {
        let n = cfgs.len();
        let mut topo = Topology::with_nodes(n);
        for i in 1..n {
            topo.add_edge(
                NodeId(0),
                NodeId(i as u32),
                LinkParams::fixed(SimDuration::from_millis(2)),
                dice_netsim::Relationship::Unlabeled,
            );
        }
        let mut sim = Simulator::new(topo, 3);
        for (i, cfg) in cfgs.into_iter().enumerate() {
            sim.set_node(NodeId(i as u32), Box::new(BgpRouter::new(cfg)));
        }
        sim.start();
        sim
    }

    fn cfg(i: u32, peers: &[u32]) -> RouterConfig {
        let mut c = RouterConfig::minimal(Asn(65000 + i as u16), RouterId(i + 1));
        for &p in peers {
            c = c.with_neighbor(NodeId(p), Asn(65000 + p as u16), "all", "all");
        }
        c
    }

    #[test]
    fn crash_checker_reports_programming_error() {
        let mut sim = mini_sim(vec![cfg(0, &[1]), cfg(1, &[0])]);
        sim.run_until(SimTime::from_nanos(3_000_000_000));
        sim.inject_node_crash(NodeId(1));
        let catalog = SutCatalog::default();
        let reg = AttestationRegistry::with_seed(1);
        let baseline = CheckBaseline::default();
        let cx = CheckContext {
            sim: &sim,
            catalog: &catalog,
            registry: &reg,
            baseline_flips: &baseline,
            quiet: QuietOutcome::Quiescent,
            injected: false,
        };
        let (verdicts, faults) = CrashChecker.check(&cx);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].class, FaultClass::ProgrammingError);
        assert_eq!(faults[0].node, NodeId(1));
        assert!(verdicts.iter().any(|v| !v.ok));
    }

    #[test]
    fn origin_checker_flags_unattested_route() {
        let c0 = cfg(0, &[1]).with_network(net("10.0.0.0/16"));
        let mut c1 = cfg(1, &[0]);
        // Node 1 announces a prefix it does not own (hijack).
        c1.networks.push(net("99.0.0.0/8"));
        let mut sim = mini_sim(vec![c0.clone(), c1.clone()]);
        sim.run_until(SimTime::from_nanos(10_000_000_000));

        let catalog = SutCatalog::default();
        let reg = build_registry([(NodeId(0), c0), (NodeId(1), c1)], 7);
        let baseline = CheckBaseline::default();
        let cx = CheckContext {
            sim: &sim,
            catalog: &catalog,
            registry: &reg,
            baseline_flips: &baseline,
            quiet: QuietOutcome::Quiescent,
            injected: false,
        };
        let (_, faults) = OriginAuthorityChecker.check(&cx);
        assert!(
            faults
                .iter()
                .any(|f| f.class == FaultClass::OperatorMistake && f.detail.contains("99.0.0.0/8")),
            "hijack must be reported: {faults:?}"
        );
        // The legitimate prefix is NOT reported.
        assert!(!faults.iter().any(|f| f.detail.contains("10.0.0.0/16")));
    }

    #[test]
    fn oscillation_checker_uses_baseline() {
        let c0 = cfg(0, &[1]).with_network(net("10.0.0.0/8"));
        let c1 = cfg(1, &[0]);
        let mut sim = mini_sim(vec![c0, c1]);
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let catalog = SutCatalog::default();
        let reg = AttestationRegistry::with_seed(1);

        // Baseline equal to current flips: no oscillation reported.
        let baseline = flips_baseline(&catalog, &sim.instant_snapshot());
        let cx = CheckContext {
            sim: &sim,
            catalog: &catalog,
            registry: &reg,
            baseline_flips: &baseline,
            quiet: QuietOutcome::Quiescent,
            injected: false,
        };
        let (_, faults) = OscillationChecker { threshold: 3 }.check(&cx);
        assert!(
            faults.is_empty(),
            "steady state is not oscillation: {faults:?}"
        );

        // Zero baseline with enough accumulated flips would fire; verify the
        // threshold arithmetic via an artificially low threshold.
        let zero = CheckBaseline::default();
        let cx2 = CheckContext {
            sim: &sim,
            catalog: &catalog,
            registry: &reg,
            baseline_flips: &zero,
            quiet: QuietOutcome::Quiescent,
            injected: false,
        };
        let (_, faults_low) = OscillationChecker { threshold: 1 }.check(&cx2);
        assert!(!faults_low.is_empty(), "flips beyond baseline must fire");
    }

    #[test]
    fn convergence_checker_maps_quiet_outcome() {
        let sim = mini_sim(vec![cfg(0, &[1]), cfg(1, &[0])]);
        let catalog = SutCatalog::default();
        let reg = AttestationRegistry::with_seed(1);
        let baseline = CheckBaseline::default();
        for (quiet, expect_fault) in [
            (QuietOutcome::Quiescent, false),
            (QuietOutcome::TimedOut, true),
        ] {
            let cx = CheckContext {
                sim: &sim,
                catalog: &catalog,
                registry: &reg,
                baseline_flips: &baseline,
                quiet,
                injected: false,
            };
            let (_, faults) = ConvergenceChecker.check(&cx);
            assert_eq!(!faults.is_empty(), expect_fault);
        }
    }

    #[test]
    fn registry_built_from_owned_lists() {
        let c0 = cfg(0, &[]).with_network(net("10.0.0.0/16"));
        let reg = build_registry([(NodeId(0), c0)], 5);
        assert!(reg.is_attested(&net("10.0.0.0/16"), Asn(65000)));
        assert!(!reg.is_attested(&net("10.0.0.0/16"), Asn(65001)));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn check_report_aggregates() {
        let mut sim = mini_sim(vec![cfg(0, &[1]), cfg(1, &[0])]);
        sim.inject_node_crash(NodeId(0));
        let catalog = SutCatalog::default();
        let reg = AttestationRegistry::with_seed(1);
        let baseline = CheckBaseline::default();
        let cx = CheckContext {
            sim: &sim,
            catalog: &catalog,
            registry: &reg,
            baseline_flips: &baseline,
            quiet: QuietOutcome::TimedOut,
            injected: false,
        };
        let battery = default_checkers(20);
        let report = run_checkers(&battery, &cx);
        assert!(report.failed() >= 2, "crash + convergence verdicts fail");
        let classes: std::collections::BTreeSet<FaultClass> =
            report.faults.iter().map(|f| f.class).collect();
        assert!(classes.contains(&FaultClass::ProgrammingError));
        assert!(classes.contains(&FaultClass::PolicyConflict));
    }
}
