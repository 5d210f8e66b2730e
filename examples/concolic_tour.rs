//! A tour of the concolic engine on the real BGP UPDATE handler: watch the
//! solver steer messages through parser validation, the interpreted import
//! policy, and into the seeded defect.
//!
//! ```sh
//! cargo run --release --example concolic_tour
//! ```

use dice_system::bgp::{net, Asn, BgpRouter, RouterConfig, RouterId};
use dice_system::concolic::{explore, ExploreConfig, RunStatus, Strategy};
use dice_system::dice::{mark_update, DomainProgram, GrammarConfig, UpdateGrammar};
use dice_system::netsim::NodeId;

fn main() {
    // A router whose import policy only admits 10.0.0.0/8{8,24} and whose
    // build carries the seeded unknown-attribute defect.
    let mut cfg = RouterConfig::minimal(Asn(65001), RouterId(0x0A000001)).with_neighbor(
        NodeId(2),
        Asn(65002),
        "imp",
        "all",
    );
    cfg = cfg.with_policy(dice_system::bgp::Policy {
        name: "imp".into(),
        rules: vec![
            dice_system::bgp::Rule {
                matches: vec![dice_system::bgp::Match::PrefixIn(vec![
                    dice_system::bgp::PrefixFilter {
                        net: net("10.0.0.0/8"),
                        min_len: 8,
                        max_len: 24,
                    },
                ])],
                actions: vec![dice_system::bgp::Action::SetLocalPref(200)],
                verdict: Some(dice_system::bgp::Verdict::Accept),
            },
            dice_system::bgp::Rule::reject(vec![dice_system::bgp::Match::Any]),
        ],
        default: dice_system::bgp::Verdict::Reject,
    });
    cfg.bugs.attr_overflow_crash = true;

    let mut grammar = UpdateGrammar::new(GrammarConfig::for_peer(Asn(65002)), 5);
    let seeds = vec![grammar.generate(), grammar.generate_large_unknown()];
    println!(
        "seeds: {} messages ({} bytes total)",
        seeds.len(),
        seeds.iter().map(Vec::len).sum::<usize>()
    );

    let router = BgpRouter::new(cfg);
    for (name, strategy) in [
        ("generational", Strategy::Generational),
        ("dfs", Strategy::Dfs),
    ] {
        let mut handler = DomainProgram(router.update_twin(NodeId(2)).unwrap());
        let report = explore(
            &mut handler,
            &seeds,
            &mark_update,
            &ExploreConfig {
                strategy,
                max_executions: 160,
                ..Default::default()
            },
        );
        println!("\n== {name} search ==");
        println!(
            "executions: {}, distinct paths: {}, branch coverage: {}, solver: {} queries / {} SAT / {} UNSAT",
            report.executions.len(),
            report.distinct_paths,
            report.final_coverage(),
            report.solver.queries,
            report.solver.sat,
            report.solver.unsat,
        );
        let mut rejected_stages = std::collections::BTreeMap::new();
        let mut ok = 0usize;
        for e in &report.executions {
            match &e.status {
                RunStatus::Ok => ok += 1,
                RunStatus::Rejected(stage) => {
                    *rejected_stages.entry(stage.as_ref()).or_insert(0usize) += 1
                }
                RunStatus::Crash(_) => {}
            }
        }
        println!("accepted inputs: {ok}");
        println!("rejection stages explored:");
        for (stage, count) in &rejected_stages {
            println!("  {stage:<28} x{count}");
        }
        match report.first_crash() {
            Some(i) => {
                let e = &report.executions[i];
                println!(
                    "CRASH found at execution #{i}: {} bytes, status {:?}",
                    e.input.len(),
                    e.status
                );
                // Show the synthesized trigger: the unknown attr type code
                // the solver pushed into the defect window.
                println!("  solver-synthesized input reaches the 0xF0+/0x90+ overflow window");
            }
            None => println!("no crash found (unexpected for this budget)"),
        }
    }
}
