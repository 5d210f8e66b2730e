//! # dice-bench — the experiment harness
//!
//! One binary per table/figure of the evaluation (see DESIGN.md §4 and
//! EXPERIMENTS.md):
//!
//! | target | experiment |
//! |---|---|
//! | `exp_demo27` | F1 — the 27-router Figure 1 demo |
//! | `exp_detection` | T1 — detection of the three fault classes |
//! | `exp_overhead` | T2 — checkpoint/snapshot overhead |
//! | `exp_exploration` | F2 — concolic vs grammar vs random coverage |
//! | `exp_code_config` | T3 — constraints scale with configuration |
//! | `exp_snapshot_consistency` | A1 — consistent vs uncoordinated snapshots |
//! | `exp_campaign` | C1 — federation-scale campaign throughput and detection latency |
//! | `exp_gossip` | G1 — gossip pub/sub and mixed-protocol campaigns |
//! | `exp_topo` | T1 — rounds/s and snapshot-bytes curves vs topology size |
//!
//! Criterion micro-benches (`snapshot_bench`, `clone_reuse`, `handler_bench`,
//! `solver_bench`, `wire_path`) cover T4 (instrumentation and snapshot tax).
//!
//! Each binary prints a Markdown table to stdout and, when `--json PATH`
//! is given, writes the raw rows as JSON for archival.

use std::fmt::Write as _;

/// Fixed, realistic wire-path workloads shared by the `wire_path`
/// criterion bench and the `exp_wire` allocation experiment, so the time
/// and allocation sides of W1 measure the same messages.
pub mod wire_workload {
    use dice_bgp::wire::{Message, UpdateMsg};
    use dice_bgp::{net, AsPath, Community, Ipv4Addr, PathAttrs};
    use dice_gossip::{GossipFrame, Rumor};

    /// A transit-grade BGP UPDATE: two withdrawals, a 4-hop AS_PATH,
    /// MED + LOCAL_PREF, three communities, eight announced prefixes.
    pub fn bgp_update() -> Message {
        let mut attrs = PathAttrs {
            as_path: AsPath::sequence([65001, 65007, 65021, 65100]),
            next_hop: Ipv4Addr(0x0a00_0001),
            med: Some(50),
            local_pref: Some(120),
            ..PathAttrs::default()
        };
        for c in [0xFDE8_0001u32, 0xFDE8_0002, 0xFDE8_0100] {
            attrs.communities.insert(Community(c));
        }
        let nlri = (0..8u32).map(|i| net(&format!("10.{i}.0.0/16"))).collect();
        Message::Update(UpdateMsg {
            withdrawn: vec![net("192.0.2.0/24"), net("198.51.100.0/24")],
            attrs: Some(attrs),
            nlri,
        })
    }

    /// An anti-entropy digest over 32 `(topic, id)` pairs.
    pub fn gossip_digest() -> GossipFrame {
        GossipFrame::Digest((0..32u16).map(|t| (t, u32::from(t) * 7 + 1)).collect())
    }

    /// A rumor push with a 64-byte payload.
    pub fn gossip_rumor() -> GossipFrame {
        GossipFrame::Rumor(Rumor {
            topic: 5,
            id: 421,
            origin: 65007,
            ttl: 4,
            payload: (0..64u8).collect(),
        })
    }
}

/// A simple Markdown table builder for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render as Markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &[String], out: &mut String| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, " {:<w$} |", c, w = widths[i]);
            }
            let _ = writeln!(out, "{s}");
        };
        line(&self.header, &mut out);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&sep, &mut out);
        for r in &self.rows {
            line(r, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The rows as JSON (array of objects keyed by header).
    pub fn to_json(&self) -> serde_json::Value {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|r| {
                let obj: serde_json::Map<String, serde_json::Value> = self
                    .header
                    .iter()
                    .zip(r)
                    .map(|(h, c)| (h.clone(), serde_json::Value::String(c.clone())))
                    .collect();
                serde_json::Value::Object(obj)
            })
            .collect();
        serde_json::json!({ "title": self.title, "rows": rows })
    }
}

/// Write experiment artifacts as JSON when `--json PATH` was passed.
pub fn maybe_write_json(tables: &[&Table]) {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            if let Some(path) = args.next() {
                let v: Vec<serde_json::Value> = tables.iter().map(|t| t.to_json()).collect();
                let body = serde_json::to_string_pretty(&v).expect("serializable");
                std::fs::write(&path, body).unwrap_or_else(|e| {
                    eprintln!("failed to write {path}: {e}");
                });
                eprintln!("wrote {path}");
            }
        }
    }
}

/// Append the standard campaign summary rows (rounds, wall, rounds/s,
/// sim time, executions, validations, coverage union, faults by class) to
/// a `[campaign, metric, value]`-shaped table. Shared by every campaign
/// experiment binary so the committed trajectory files keep one format.
pub fn summarize_campaign(table: &mut Table, label: &str, report: &dice_core::CampaignReport) {
    let mut by_class: std::collections::BTreeMap<String, usize> = Default::default();
    for f in &report.faults {
        *by_class.entry(f.class.to_string()).or_default() += 1;
    }
    let faults = if by_class.is_empty() {
        "none".into()
    } else {
        by_class
            .iter()
            .map(|(c, n)| format!("{c}:{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let perf = &report.perf;
    let rows: [(&str, String); 13] = [
        ("rounds", report.rounds.len().to_string()),
        ("wall", format!("{:.1}ms", report.wall_us as f64 / 1e3)),
        ("rounds/s", format!("{:.2}", report.rounds_per_sec())),
        ("sim time consumed", fmt_nanos(report.sim_nanos)),
        ("concolic executions", report.executions_total.to_string()),
        ("inputs validated", report.validated_total.to_string()),
        ("coverage union", report.coverage_union.to_string()),
        ("faults by class", faults),
        ("snapshot bytes", perf.snapshot_bytes.to_string()),
        (
            "clone pool",
            format!(
                "{} hits / {} misses ({:.0}% reuse)",
                perf.pool_hits,
                perf.pool_misses,
                perf.pool_hit_rate() * 100.0
            ),
        ),
        (
            "solver cache",
            format!(
                "{} refuted / {} solves ({:.0}% hit rate), {} memo hits, {} covered flips skipped",
                perf.solver_cache_hits,
                perf.solver_queries,
                perf.solver_cache_hit_rate() * 100.0,
                perf.unary_memo_hits,
                perf.covered_flips_skipped
            ),
        ),
        (
            "wire path",
            format!(
                "{} bytes, buf pool {} hits / {} misses, {} batches (max {} frames)",
                perf.wire_bytes,
                perf.buf_hits,
                perf.buf_misses,
                perf.delivered_batches,
                perf.max_batch_occupancy
            ),
        ),
        (
            "delta snapshots",
            format!(
                "{} delta bytes, {} nodes recaptured, {} churn events",
                perf.snapshot_delta_bytes, perf.nodes_recaptured, perf.churn_events
            ),
        ),
    ];
    for (metric, value) in rows {
        table.row(vec![label.into(), metric.into(), value]);
    }
}

/// Prefixes originated on the internet-like scale systems regardless of
/// their size: `n` originators would mean `n²` RIB entries and convergence
/// that dwarfs whatever is being measured.
pub const INTERNET_ORIGINATORS: usize = 4;

/// The seeded internet-like AS graph of the scale experiments (`exp_topo`,
/// the 1k-node micro-benches, `benchmark/`'s `internet1k_sweep`): lateral
/// peering probability scaled down as `8/n`, keeping expected peer degree
/// roughly constant so a curve over `n` measures size, not densification.
pub fn internet_topology(n: usize) -> dice_netsim::Topology {
    let params = dice_netsim::InternetParams {
        peering_prob: (8.0 / n as f64).min(0.15),
        ..Default::default()
    };
    let mut rng = dice_netsim::SimRng::seed_from_u64(0xD1CE_0000 + n as u64);
    dice_netsim::Topology::internet_like(n, &params, &mut rng)
}

/// The full Gao–Rexford BGP system over [`internet_topology`]`(n)` with
/// [`INTERNET_ORIGINATORS`] prefixes, run to quiescence.
pub fn converged_internet(n: usize) -> dice_netsim::Simulator {
    use dice_netsim::{SimDuration, SimTime};
    let topo = internet_topology(n);
    let mut live =
        dice_core::scenarios::build_system_with_originators(&topo, INTERNET_ORIGINATORS, 17);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(600_000_000_000),
    );
    live
}

/// The counting allocator of the allocation-reporting benches
/// (`handler_bench`, `check_battery`): a bench installs it with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;` and
/// reads [`allocations`] before and after the code it measures.
pub struct CountingAlloc;

static ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Heap allocations and reallocations since process start, once
/// [`CountingAlloc`] is the global allocator.
pub fn allocations() -> u64 {
    ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is a relaxed
// atomic add, which neither allocates nor unwinds.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout`, as the caller guarantees.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

/// One consistent cut of a benchmark system and a valid input for it — what
/// the per-input micro-benches (`clone_reuse`'s `reset_same_shadow`,
/// `check_battery`) bind their pooled clone to.
pub struct BoundClone {
    /// The cut.
    pub shadow: dice_netsim::ShadowSnapshot,
    /// The topology it was taken on.
    pub topo: dice_netsim::Topology,
    /// The (explorer, peer) pair inputs are injected at.
    pub explorer: dice_netsim::NodeId,
    #[allow(missing_docs)]
    pub peer: dice_netsim::NodeId,
    /// The grammar seed of that pair's exploration plan that a clone
    /// propagates furthest: accepted, and flooded through the federation.
    pub valid_input: Vec<u8>,
}

/// The systems `benchmark/`'s sweep workloads deploy — `"gossip16"` (the
/// 16-node mesh), `"demo27"`, `"internet1k"` ([`converged_internet`]) —
/// converged and cut, explorer node 0 with its first injection peer.
pub fn bound_clone(name: &str) -> BoundClone {
    use dice_core::scenarios;
    use dice_netsim::{NodeId, SimDuration, SimTime};
    let mut live = match name {
        "gossip16" => scenarios::gossip_mesh(16, 2),
        "demo27" => scenarios::demo27_system(2),
        "internet1k" => converged_internet(1000),
        other => panic!("no benchmark system named {other}"),
    };
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    let (shadow, _) = dice_core::snapshot::take_instant_snapshot(&mut live);
    let explorer = NodeId(0);
    let sut = dice_core::SutCatalog::default()
        .resolve(live.node(explorer))
        .expect("node 0 is explorable");
    let peer = sut.injection_peers()[0];
    let plan = sut
        .exploration_plan(peer, 4, 7)
        .expect("the first injection peer has a plan");
    let topo = live.topology().clone();
    let reach = |input: &Vec<u8>| {
        let mut clone = dice_netsim::Simulator::from_shadow(&shadow, &topo, 3);
        clone.deliver_direct(peer, explorer, input);
        let end = clone.now() + SimDuration::from_secs(30);
        clone.run_until_quiet(SimDuration::from_secs(5), end);
        clone.trace().stats().msgs_delivered
    };
    let valid_input = plan
        .seeds
        .iter()
        .max_by_key(|input| reach(input))
        .expect("a plan has seeds")
        .clone();
    BoundClone {
        shadow,
        topo,
        explorer,
        peer,
        valid_input,
    }
}

/// Append the rows that make a committed trajectory file comparable
/// across machines and commits: host cores, the commit the binary was
/// built from (`git describe --always --dirty`, `unknown` outside a checkout) and how many
/// times each point was repeated.
pub fn host_rows(table: &mut Table, repeat: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    table.row(vec!["host cores".into(), cores.to_string()]);
    table.row(vec!["commit".into(), commit]);
    table.row(vec!["repeat (medians of)".into(), repeat.to_string()]);
}

/// Read `--repeat N` from argv (default 1). Experiment binaries rerun
/// their primary campaign `N` times on fresh identical systems and report
/// the spread via [`spread_rows`], damping scheduler noise in the
/// committed trajectory files.
pub fn parse_repeat() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--repeat" {
            let n = args
                .next()
                .unwrap_or_else(|| panic!("--repeat needs a count"));
            return n
                .parse::<usize>()
                .unwrap_or_else(|e| panic!("bad --repeat {n}: {e}"))
                .max(1);
        }
    }
    1
}

/// `(min, median, max)` of a sample set; the median of an even count is
/// the mean of the two middle samples. Panics on an empty slice.
pub fn min_median_max(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let median = if s.len() % 2 == 1 {
        s[s.len() / 2]
    } else {
        (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0
    };
    (s[0], median, s[s.len() - 1])
}

/// Append a `rounds/s min/median/max of N` row to a
/// `[campaign, metric, value]`-shaped table when more than one sample was
/// collected (`--repeat 1`, the default, leaves the table unchanged).
pub fn spread_rows(table: &mut Table, label: &str, rounds_per_sec: &[f64]) {
    if rounds_per_sec.len() < 2 {
        return;
    }
    let (min, median, max) = min_median_max(rounds_per_sec);
    table.row(vec![
        label.into(),
        format!("rounds/s min/median/max of {}", rounds_per_sec.len()),
        format!("{min:.2} / {median:.2} / {max:.2}"),
    ]);
}

/// Append one `first <class> detection` row per detected fault class to a
/// `[campaign, metric, value]`-shaped table.
pub fn detection_rows(table: &mut Table, label: &str, report: &dice_core::CampaignReport) {
    for d in &report.detection {
        table.row(vec![
            label.into(),
            format!("first {} detection", d.class),
            format!(
                "round {} ({} via {}), input #{}, {:.1}ms cumulative",
                d.round,
                d.explorer,
                d.inject_peer,
                d.input_ordinal,
                d.wall_us_cum as f64 / 1e3
            ),
        ]);
    }
}

/// Format a nanosecond count as a human duration string.
pub fn fmt_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "23456".into()]);
        let md = t.render();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| name  | value |"));
        assert!(md.contains("| alpha | 1     |"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_shape() {
        let mut t = Table::new("J", &["k"]);
        t.row(vec!["v".into()]);
        let j = t.to_json();
        assert_eq!(j["title"], "J");
        assert_eq!(j["rows"][0]["k"], "v");
    }

    #[test]
    fn min_median_max_handles_odd_and_even_counts() {
        assert_eq!(min_median_max(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(min_median_max(&[4.0, 1.0, 3.0, 2.0]), (1.0, 2.5, 4.0));
        assert_eq!(min_median_max(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_rows_noop_below_two_samples() {
        let mut t = Table::new("S", &["campaign", "metric", "value"]);
        spread_rows(&mut t, "x", &[1.0]);
        assert!(!t.render().contains("min/median/max"));
        spread_rows(&mut t, "x", &[2.0, 1.0, 4.0]);
        assert!(t.render().contains("1.00 / 2.00 / 4.00"));
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(fmt_nanos(500), "500ns");
        assert_eq!(fmt_nanos(1_500), "1us");
        assert_eq!(fmt_nanos(2_500_000), "2.5ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
