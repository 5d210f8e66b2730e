//! **T3 — Constraints cover code *and* configuration** (paper §3: "the
//! explored execution paths are comprehensive of both code and
//! configuration", via the interpreted config).
//!
//! The same seed messages run through the instrumented handler under
//! configurations of growing policy complexity, with the code fixed. The
//! binary exits non-zero unless every larger policy raises both the
//! constraints a seed's run records (`avg_path_constraints`) and the
//! branches a fixed 64-execution exploration covers (`branch_coverage`).
//! The distinct paths it explores are reported, not asserted: at 64
//! executions they read 48 at every size. That is the budget's limit, not
//! the twin's: at 256 executions they read 201 / 215 / 222 at 0 / 2 / 4
//! rules, and at 1,024, 746 / 801 at 0 / 2.

use dice_bench::{maybe_write_json, Table};
use dice_bgp::policy::{Match, Policy, PrefixFilter, Rule, Verdict};
use dice_bgp::{net, Asn, RouterConfig, RouterId};
use dice_concolic::{explore, ConcolicCtx, ConcolicProgram, ExploreConfig, SymInput};
use dice_core::{mark_update, DomainProgram, UpdateGrammar};
use dice_netsim::NodeId;
use serde_json::json;

/// A config whose import policy has `rules` prefix/AS rules.
fn config_with_rules(rules_n: usize) -> RouterConfig {
    let mut rules = Vec::new();
    for i in 0..rules_n {
        rules.push(Rule {
            matches: vec![
                Match::PrefixIn(vec![PrefixFilter {
                    net: net(&format!("{}.0.0.0/8", 16 + i)),
                    min_len: 8,
                    max_len: 24,
                }]),
                Match::AsPathContains(Asn(64200 + i as u16)),
            ],
            actions: vec![dice_bgp::Action::SetLocalPref(150 + i as u32)],
            verdict: None,
        });
    }
    let policy = Policy {
        name: "imp".into(),
        rules,
        default: Verdict::Accept,
    };
    let mut cfg = RouterConfig::minimal(Asn(65001), RouterId(1)).with_neighbor(
        NodeId(2),
        Asn(65002),
        "imp",
        "all",
    );
    cfg = cfg.with_policy(policy);
    cfg
}

fn main() {
    let mut grammar = UpdateGrammar::new(Asn(65002), 3);
    let seeds = vec![grammar.generate(), grammar.generate(), grammar.generate()];

    let mut table = Table::new(
        "T3 — recorded constraints scale with configuration complexity (code fixed)",
        &[
            "policy_rules",
            "config_complexity",
            "avg_path_constraints",
            "distinct_paths_64_execs",
            "branch_coverage",
        ],
    );

    let mut grown: Vec<(usize, f64, usize)> = Vec::new();
    for rules_n in [0usize, 2, 4, 8, 16] {
        let cfg = config_with_rules(rules_n);
        let complexity = cfg.policy_complexity();

        // Average constraint count on the fixed seeds (no exploration).
        let router = dice_bgp::BgpRouter::new(cfg);
        let mut handler = DomainProgram(router.update_twin(NodeId(2)).unwrap());
        let mut total = 0usize;
        for bytes in &seeds {
            let mask = mark_update(bytes);
            let mut ctx = ConcolicCtx::new(SymInput::with_mask(bytes.clone(), mask));
            let _ = handler.run(&mut ctx);
            total += ctx.path().len();
        }
        let avg = total as f64 / seeds.len() as f64;

        // Exploration breadth under a fixed budget.
        let report = explore(
            &mut handler,
            &seeds,
            &mark_update,
            &ExploreConfig {
                max_executions: 64,
                ..Default::default()
            },
        );

        table.row(json!([
            rules_n,
            complexity,
            avg,
            report.distinct_paths,
            report.final_coverage(),
        ]));
        grown.push((rules_n, avg, report.final_coverage()));
    }
    table.print();

    for (&(fewer, avg_a, cov_a), &(more, avg_b, cov_b)) in grown.iter().zip(&grown[1..]) {
        assert!(
            avg_b > avg_a && cov_b > cov_a,
            "{more} policy rules must record more constraints and cover more branches than \
             {fewer}: constraints {avg_a} -> {avg_b}, coverage {cov_a} -> {cov_b}"
        );
    }
    maybe_write_json(&[&table], &[]);
}
