//! **F2 — Path-exploration efficiency** (paper §2: concolic execution
//! "systematically explores all possible paths at one node"; insight (iii)
//! grammar-based fuzzing).
//!
//! Coverage and distinct-path curves versus executed inputs for four input
//! generators over the *same* instrumented UPDATE handler:
//!
//! * concolic, generational search (DiCE's default)
//! * concolic, DFS negation
//! * grammar-only (valid-by-construction messages, no solver)
//! * random byte mutation
//!
//! Expected shape (as in the paper): concolic strictly dominates; grammar
//! plateaus on the valid-message region; random barely leaves the framing
//! checks.

use dice_bench::{maybe_write_json, Table};
use dice_concolic::{
    explore, random_fuzz, ConcolicCtx, ConcolicProgram, Coverage, ExploreConfig, RunStatus,
    Strategy, SymInput,
};
use dice_core::{mark_update, scenarios, DomainProgram, UpdateGrammar};
use dice_netsim::NodeId;
use serde_json::json;

const BUDGET: usize = 256;
const CHECKPOINTS: [usize; 6] = [8, 32, 64, 128, 192, 256];

fn coverage_at(timeline: &[usize], at: usize) -> usize {
    if timeline.is_empty() {
        return 0;
    }
    timeline[at.min(timeline.len()).saturating_sub(1)]
}

/// Grammar-only baseline: run N fresh grammar messages, no mutation, no
/// solver — measures how far validity alone reaches.
fn grammar_only(
    handler: &mut DomainProgram<dice_bgp::UpdateTwin>,
    grammar: &mut UpdateGrammar,
    budget: usize,
) -> (Vec<usize>, usize, Option<usize>) {
    let mut coverage = Coverage::default();
    let mut timeline = Vec::with_capacity(budget);
    let mut paths = std::collections::BTreeSet::new();
    let mut first_crash = None;
    for i in 0..budget {
        let bytes = grammar.generate();
        let mask = mark_update(&bytes);
        let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes, mask));
        let status = handler.run(&mut ctx);
        if first_crash.is_none() && matches!(status, RunStatus::Crash(_)) {
            first_crash = Some(i);
        }
        coverage.add_path(ctx.path());
        paths.insert(ctx.path_signature());
        timeline.push(coverage.len());
    }
    (timeline, paths.len(), first_crash)
}

fn main() {
    // The handler under test: the buggy-parser scenario's middle router
    // (a policy-bearing config with the seeded defect).
    let live = scenarios::buggy_parser_scenario(55);
    let twin = live
        .node(NodeId(1))
        .as_any()
        .downcast_ref::<dice_bgp::BgpRouter>()
        .and_then(|r| r.update_twin(NodeId(0)))
        .map(DomainProgram)
        .unwrap();
    let peer_asn = scenarios::asn_of(0);

    let seeds = {
        let mut g = UpdateGrammar::new(peer_asn, 1);
        vec![g.generate(), g.generate_large_unknown()]
    };

    let mut table = Table::new(
        "F2 — branch coverage vs inputs executed (same handler, 4 generators)",
        &[
            "method",
            "cov@8",
            "cov@32",
            "cov@64",
            "cov@128",
            "cov@192",
            "cov@256",
            "distinct_paths",
            "first_crash_exec",
        ],
    );

    let mut runs: Vec<(String, Vec<usize>, usize, Option<usize>)> = Vec::new();

    for (name, strategy) in [
        ("concolic/generational", Strategy::Generational),
        ("concolic/dfs", Strategy::Dfs),
    ] {
        let mut handler = twin.clone();
        let report = explore(
            &mut handler,
            &seeds,
            &mark_update,
            &ExploreConfig {
                strategy,
                max_executions: BUDGET,
                ..Default::default()
            },
        );
        runs.push((
            name.to_string(),
            report.coverage_timeline.clone(),
            report.distinct_paths,
            report.first_crash(),
        ));
    }
    {
        let mut handler = twin.clone();
        let mut grammar = UpdateGrammar::new(peer_asn, 2);
        let (timeline, paths, crash) = grammar_only(&mut handler, &mut grammar, BUDGET);
        runs.push(("grammar-only".into(), timeline, paths, crash));
    }
    {
        let mut handler = twin.clone();
        let report = random_fuzz(&mut handler, &seeds, &mark_update, BUDGET, 777);
        let crash = report
            .executions
            .iter()
            .position(|e| matches!(e.status, RunStatus::Crash(_)));
        runs.push((
            "random-mutation".into(),
            report.coverage_timeline.clone(),
            report.distinct_paths,
            crash,
        ));
    }

    for (name, timeline, paths, crash) in &runs {
        table.row(json!([
            name,
            coverage_at(timeline, CHECKPOINTS[0]),
            coverage_at(timeline, CHECKPOINTS[1]),
            coverage_at(timeline, CHECKPOINTS[2]),
            coverage_at(timeline, CHECKPOINTS[3]),
            coverage_at(timeline, CHECKPOINTS[4]),
            coverage_at(timeline, CHECKPOINTS[5]),
            paths,
            crash,
        ]));
    }
    table.print();

    // Shape assertions (soft): report rank inversions loudly.
    let cov_final = |i: usize| runs[i].1.last().copied().unwrap_or(0);
    if !(cov_final(0) >= cov_final(2) && cov_final(2) >= cov_final(3)) {
        eprintln!(
            "WARNING: expected coverage order concolic >= grammar >= random, got {} / {} / {}",
            cov_final(0),
            cov_final(2),
            cov_final(3)
        );
    }

    maybe_write_json(&[&table], &[]);
}
