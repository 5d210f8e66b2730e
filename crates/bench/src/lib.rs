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
//! | `exp_wire` | W1 — heap allocations per encoded datagram, fresh vs pooled |
//! | `exp_topo` | T1 — the 100 / 1k / 5k scale curve on internet-like topologies |
//! | `exp_faults` | N1 — detection effort vs link loss on the nemesis federation |
//!
//! Criterion micro-benches (`snapshot_bench`, `clone_reuse`, `handler_bench`,
//! `solver_bench`, `wire_path`, `check_battery`) cover T4 (instrumentation
//! and snapshot tax). Campaign throughput is not measured here: that is the
//! `benchmark/` package's job (EXPERIMENTS.md, "Where it went").
//!
//! Each binary prints Markdown tables to stdout and, when `--json PATH` is
//! given, writes them as JSON under one `{host_cores, commit, repeat}`
//! header: quantities are JSON numbers, their units are in the column names.

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

/// One table cell: text, or a quantity that reaches the JSON artifact as a
/// number — the unit belongs in the column name, never in the cell. `None`
/// is `null` there and `-` in Markdown.
pub type Cell = serde_json::Value;

fn render_cell(cell: &Cell) -> String {
    match cell {
        Cell::String(s) => s.clone(),
        Cell::F64(x) => format!("{x:.2}"),
        Cell::Null => "-".into(),
        other => serde_json::to_string(other).expect("serializable"),
    }
}

/// A table of typed cells: Markdown on stdout, JSON for the artifact.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<Cell>>,
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

    /// Append a row: a JSON array, one cell per column —
    /// `t.row(json!(["demo27", 12, 3.5]))`.
    pub fn row(&mut self, cells: Cell) {
        let Cell::Array(cells) = cells else {
            panic!("a row is a JSON array of cells, got {cells:?}");
        };
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render as Markdown.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(render_cell).collect())
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                rows.iter()
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
        for r in &rows {
            line(r, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The rows as JSON (array of objects keyed by column name).
    pub fn to_json(&self) -> serde_json::Value {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|r| {
                serde_json::Value::Object(
                    self.header.iter().cloned().zip(r.iter().cloned()).collect(),
                )
            })
            .collect();
        serde_json::json!({ "title": self.title, "rows": rows })
    }
}

/// What makes an artifact comparable across machines and commits: host
/// cores, the commit the binary was built from (`git describe --always
/// --dirty`, `unknown` outside a checkout) and how many times each point
/// was repeated.
fn artifact_header() -> serde_json::Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    serde_json::json!({ "host_cores": cores, "commit": commit, "repeat": parse_repeat() })
}

/// What [`maybe_write_json`] writes.
fn artifact(
    tables: &[&Table],
    campaigns: &[(String, &dice_core::CampaignReport)],
) -> serde_json::Value {
    let tables: Vec<serde_json::Value> = tables.iter().map(|t| t.to_json()).collect();
    let campaigns: serde_json::Map<String, serde_json::Value> = campaigns
        .iter()
        .map(|(label, report)| {
            let json = serde_json::to_string(report).expect("serializable");
            let value = serde_json::from_str(&json).expect("round-trips");
            (label.clone(), value)
        })
        .collect();
    serde_json::json!({ "header": artifact_header(), "tables": tables, "campaigns": campaigns })
}

/// When `--json PATH` was passed, write the binary's artifact there: the
/// `{host_cores, commit, repeat}` header, once, then `tables`, then — for a
/// binary that wants campaign detail on file — `campaigns`, its labelled
/// [`dice_core::CampaignReport`]s as the engine serializes them.
pub fn maybe_write_json(tables: &[&Table], campaigns: &[(String, &dice_core::CampaignReport)]) {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            if let Some(path) = args.next() {
                let body = serde_json::to_string_pretty(&artifact(tables, campaigns))
                    .expect("serializable");
                std::fs::write(&path, body).unwrap_or_else(|e| {
                    eprintln!("failed to write {path}: {e}");
                });
                eprintln!("wrote {path}");
            }
        }
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
/// (`handler_bench`, `check_battery`, `exp_wire`) and of the allocation
/// budgets (`tests/alloc_budgets.rs`, `dice-bgp`'s `differential.rs`):
/// install it with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;` and
/// read [`allocations`] / [`allocated_bytes`] before and after the code to
/// measure. The counts are the calling thread's own, so a test harness
/// running tests on parallel threads does not mix their counts.
pub struct CountingAlloc;

thread_local! {
    /// Allocations and reallocations this thread made, and the bytes they
    /// asked for.
    static COUNTS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Count one allocation of `bytes` on this thread. Bumping a
/// const-initialised thread-local `Cell` neither allocates nor unwinds
/// (`try_with` declines instead of panicking during thread exit).
fn count(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// Heap allocations and reallocations this thread has made, once
/// [`CountingAlloc`] is the global allocator.
pub fn allocations() -> u64 {
    COUNTS.with(|c| c.get().0)
}

/// Bytes requested by those allocations (a reallocation counts its new
/// size — a grown `Vec` costs a new block).
pub fn allocated_bytes() -> u64 {
    COUNTS.with(|c| c.get().1)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is `count`, which
// neither allocates nor unwinds.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout`, as the caller guarantees.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

/// A handler twin, its marking policy and a fully marked message for it:
/// one execution of an exploration session.
pub type TwinCase = (
    &'static str,
    Box<dyn dice_concolic::ConcolicProgram>,
    Vec<u8>,
    fn(&[u8]) -> Vec<bool>,
);

/// The two twins over [`wire_workload`]'s messages — `"bgp_update"` (the
/// UPDATE twin of a router with one neighbour) and `"gossip_digest"` (the
/// frame twin of a node subscribed to topic 3) — as `handler_bench` times
/// them and the allocation budgets count them.
pub fn twin_cases() -> [TwinCase; 2] {
    use dice_bgp::{Asn, RouterConfig, RouterId};
    use dice_core::{gossip_sut::mark_gossip, mark_update};
    use dice_core::{SymbolicGossipHandler, SymbolicUpdateHandler};
    let router = RouterConfig::minimal(Asn(65000), RouterId(1)).with_neighbor(
        dice_netsim::NodeId(2),
        Asn(65001),
        "all",
        "all",
    );
    let gossip = dice_gossip::GossipConfig::new(7).subscribe(3);
    [
        (
            "bgp_update",
            Box::new(SymbolicUpdateHandler::new(router, dice_netsim::NodeId(2))),
            dice_bgp::encode(&wire_workload::bgp_update()),
            mark_update,
        ),
        (
            "gossip_digest",
            Box::new(SymbolicGossipHandler::new(gossip)),
            dice_gossip::wire::encode(&wire_workload::gossip_digest()),
            mark_gossip,
        ),
    ]
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
    #[allow(
        missing_docs,
        reason = "the pair's other end: documented with `explorer`"
    )]
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

/// Read `--repeat N` from argv (default 1): how many times a binary that
/// takes the flag measures each point on fresh identical systems, to
/// report medians. Recorded in every artifact's header.
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

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["name", "value", "rate_per_s"]);
        t.row(json!(["alpha", 1, 2.5]));
        t.row(json!(["b", 23456, None::<f64>]));
        let md = t.render();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| name  | value | rate_per_s |"));
        assert!(md.contains("| alpha | 1     | 2.50       |"));
        assert!(md.contains("| b     | 23456 | -          |"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(json!(["only-one"]));
    }

    #[test]
    fn json_cells_are_typed_and_the_header_appears_once() {
        let mut t = Table::new("J", &["k", "n", "wall_ms", "ok", "none"]);
        t.row(json!(["v", 7, 1.5, true, Cell::Null]));
        let text = serde_json::to_string(&artifact(&[&t, &t], &[])).expect("serializable");
        assert_eq!(text.matches("\"header\"").count(), 1);
        assert_eq!(text.matches("\"host_cores\"").count(), 1);
        assert!(text.contains(r#""k":"v","n":7,"wall_ms":1.5,"ok":true,"none":null"#));
        let v: Cell = serde_json::from_str(&text).expect("parses");
        assert_eq!(v["tables"][1]["title"], "J");
        assert_eq!(v["header"]["repeat"], Cell::U64(1));
        assert!(matches!(v["header"]["commit"], Cell::String(_)));
    }

    /// `^[0-9.,]+ ?(ns|µs|us|ms|s|x|%)?$`: a number, bare or with its unit,
    /// that was rendered into a string.
    fn is_rendered_quantity(s: &str) -> bool {
        let rest = s.trim_start_matches(|c: char| c.is_ascii_digit() || ".,".contains(c));
        let unit = rest.strip_prefix(' ').unwrap_or(rest);
        rest.len() < s.len() && ["", "ns", "µs", "us", "ms", "s", "x", "%"].contains(&unit)
    }

    #[test]
    fn committed_bench_files_hold_numbers_not_strings() {
        assert!(is_rendered_quantity("37.2ms") && is_rendered_quantity("199.63"));
        assert!(is_rendered_quantity("5%") && is_rendered_quantity("1,024 ns"));
        assert!(!is_rendered_quantity("demo27") && !is_rendered_quantity("s"));

        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = 0;
        for entry in std::fs::read_dir(&root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).expect("readable");
            let v: Cell = serde_json::from_str(&text).expect("parses");
            let header = &v["header"];
            assert!(
                matches!(
                    (&header["host_cores"], &header["commit"], &header["repeat"]),
                    (Cell::U64(_), Cell::String(_), Cell::U64(_))
                ),
                "{name}: header {header:?}"
            );
            let Cell::Array(tables) = &v["tables"] else {
                panic!("{name}: no tables");
            };
            assert!(!tables.is_empty(), "{name}: no tables");
            for table in tables {
                let Cell::Array(rows) = &table["rows"] else {
                    panic!("{name}: a table without rows");
                };
                for row in rows {
                    let Cell::Object(cells) = row else {
                        panic!("{name}: a row that is not an object");
                    };
                    for (column, cell) in cells.iter() {
                        if let Cell::String(s) = cell {
                            assert!(
                                !is_rendered_quantity(s) && !s.contains(" / "),
                                "{name}: column {column:?} holds {s:?} — a quantity is a \
                                 JSON number with its unit in the column name"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(files, 3, "BENCH_wire / BENCH_topology / BENCH_faults");
    }

    #[test]
    fn min_median_max_handles_odd_and_even_counts() {
        assert_eq!(min_median_max(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(min_median_max(&[4.0, 1.0, 3.0, 2.0]), (1.0, 2.5, 4.0));
        assert_eq!(min_median_max(&[5.0]), (5.0, 5.0, 5.0));
    }
}
