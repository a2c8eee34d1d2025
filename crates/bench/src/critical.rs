//! Cross-rank happens-before DAG and critical-path analysis
//! (`mpicd-inspect critical-path`).
//!
//! Builds a DAG over the reconstructed transfer timelines of one or more
//! flight-recorder dumps (see [`crate::flight::merge_dumps`] for the
//! multi-process case):
//!
//! * **Nodes** are the lifecycle points of each matched transfer —
//!   send-post (on the sender rank), receive-post, match and terminal (on
//!   the receiver rank).
//! * **Dependency edges** are the transfer's internal happens-before
//!   constraints: both posts precede the match (`wait`), the match
//!   precedes the terminal (`active`). The send-post → match edge is the
//!   cross-rank arc.
//! * **Program-order edges** chain each rank's nodes in time order
//!   (`idle` when nothing else explains the gap), plus a virtual origin at
//!   the earliest timestamp. Every node is therefore reachable, and the
//!   path weight from origin to the latest node is the measured makespan
//!   *by construction* — the per-edge weights are timestamp deltas. A
//!   rank is keyed by (dump, rank), the dump being `id >>
//!   MERGE_ID_SHIFT`: merged dumps come from different processes, whose
//!   rank numbers and clock epochs are their own.
//!
//! The **critical path** is recovered by walking backward from the latest
//! node, at every step following the predecessor that was the *binding
//! constraint* (latest to clear; dependency edges win ties against idle
//! edges). `active` edges are split into pack/unpack/copy using the
//! existing per-timeline phase attribution; modeled wire time is reported
//! alongside as overlap, exactly as in the flat report.
//!
//! **Slack** is computed per transfer on the same DAG with idle gaps made
//! compressible (weight 0), CPM-style: `(longest constrained path in the
//! DAG) − (longest constrained path through this transfer)`. Transfers on
//! the binding chain have exactly zero slack; fat slack marks transfers
//! that could slow down for free.
//!
//! **Collectives** are grouped by their reserved tags
//! ([`mpicd::collective_tag_name`]): each group gets its own sub-DAG and
//! critical path, exposing the spine of the bcast tree or the reduce fan-in.

use crate::flight::{fmt_ns, Analysis, Timeline, MERGE_ID_SHIFT};
use mpicd_obs::export::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a node marks in a transfer's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    /// Virtual origin at the earliest timestamp (rank -1).
    Origin,
    /// Send post, on the sender rank.
    PostSend,
    /// Receive post, on the receiver rank.
    PostRecv,
    /// Match, on the receiver rank.
    Match,
    /// Terminal (complete or error), on the receiver rank.
    End,
}

impl NodeKind {
    fn as_str(self) -> &'static str {
        match self {
            Self::Origin => "origin",
            Self::PostSend => "post_send",
            Self::PostRecv => "post_recv",
            Self::Match => "match",
            Self::End => "end",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: NodeKind,
    /// Dump the event came from (0 unless dumps were merged).
    dump: u64,
    /// Rank the event executed on (-1 for the origin).
    rank: i64,
    t_ns: u64,
    /// Index into the timeline slice (usize::MAX for the origin).
    tl: usize,
}

/// Edge classification for blame and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    /// Post → match: waiting for the partner (the cross-rank arc when the
    /// tail is the send post).
    Wait,
    /// Match → terminal: the transfer's active execution.
    Active,
    /// Rank program-order gap with no transfer activity.
    Idle,
}

impl EdgeKind {
    fn as_str(self) -> &'static str {
        match self {
            Self::Wait => "wait",
            Self::Active => "active",
            Self::Idle => "idle",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    kind: EdgeKind,
}

/// One step of the reported critical path, in forward time order.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Edge class: `wait`, `active` or `idle`.
    pub kind: &'static str,
    /// Wall-clock weight of the step.
    pub ns: u64,
    /// Rank blamed for the step (where its head event executed).
    pub rank: i64,
    /// Dump of that rank (0 unless dumps were merged).
    pub dump: u64,
    /// Send-side id of the transfer involved (0 for idle/origin steps).
    pub id: u64,
    /// `tail_kind->head_kind` label, e.g. `post_send->match`.
    pub label: String,
    /// Cross-rank step (tail and head on different ranks).
    pub cross_rank: bool,
}

/// Per-transfer slack: how much the transfer could slow down without
/// extending the makespan, given the dependency and program-order
/// constraints (idle gaps are compressible).
#[derive(Debug, Clone, Copy)]
pub struct TransferSlack {
    /// Send-side transfer id.
    pub id: u64,
    /// Sender rank.
    pub src: i64,
    /// Receiver rank.
    pub dst: i64,
    /// Payload bytes.
    pub bytes: u64,
    /// Slack in nanoseconds.
    pub slack_ns: u64,
}

/// Critical path of one collective operation's reserved-tag traffic.
#[derive(Debug, Clone)]
pub struct CollectivePath {
    /// Operation name (`bcast` or `reduce`).
    pub name: &'static str,
    /// Transfers carrying the reserved tag.
    pub transfers: usize,
    /// Group makespan: earliest post → latest terminal.
    pub makespan_ns: u64,
    /// Critical path through the group's sub-DAG.
    pub steps: Vec<PathStep>,
}

/// Aggregate phase weights along a critical path.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathPhases {
    /// Σ wait-edge weights.
    pub wait: u64,
    /// Pack share of active edges.
    pub pack: u64,
    /// Unpack share of active edges.
    pub unpack: u64,
    /// Residual (copy/bookkeeping) share of active edges.
    pub copy: u64,
    /// Σ idle-edge weights.
    pub idle: u64,
    /// Modeled wire time overlapping the path's active edges (reported,
    /// not part of the wall-clock sum).
    pub wire: u64,
}

impl PathPhases {
    /// Wall-clock sum of the path (`wire` excluded: it overlaps).
    pub fn total(&self) -> u64 {
        self.wait + self.pack + self.unpack + self.copy + self.idle
    }
}

/// The full critical-path report over an [`Analysis`].
#[derive(Debug, Clone, Default)]
pub struct CriticalReport {
    /// Transfers in the DAG (completed + errored).
    pub transfers: usize,
    /// Earliest node timestamp (the virtual origin).
    pub origin_ns: u64,
    /// Measured makespan: latest node − earliest node.
    pub makespan_ns: u64,
    /// The critical path, origin → latest node, forward order.
    pub steps: Vec<PathStep>,
    /// Phase decomposition of the path (sums to `makespan_ns` exactly).
    pub phases: PathPhases,
    /// ns of critical-path time blamed on each (dump, rank).
    pub blame: BTreeMap<(u64, i64), u64>,
    /// Per-transfer slack, ascending (critical transfers first).
    pub slack: Vec<TransferSlack>,
    /// Connected components of the DAG ignoring the virtual origin — 1
    /// means every rank's timeline is causally linked to every other.
    pub components: usize,
    /// Cross-rank dependency arcs on the critical path.
    pub cross_rank_steps: usize,
    /// Per-collective critical paths (reserved-tag traffic).
    pub collectives: Vec<CollectivePath>,
}

/// Build the DAG over `tls` and return (nodes, edges, origin index).
/// Nodes are sorted by (t_ns, index) implicitly via a returned order.
fn build_dag(tls: &[&Timeline]) -> (Vec<Node>, Vec<Edge>) {
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    if tls.is_empty() {
        return (nodes, edges);
    }
    let origin_t = tls.iter().map(|t| t.first_post_ns()).min().unwrap_or(0);
    nodes.push(Node {
        kind: NodeKind::Origin,
        dump: 0,
        rank: -1,
        t_ns: origin_t,
        tl: usize::MAX,
    });
    for (i, t) in tls.iter().enumerate() {
        let dump = t.id >> MERGE_ID_SHIFT;
        let ps = nodes.len();
        nodes.push(Node {
            kind: NodeKind::PostSend,
            dump,
            rank: t.src,
            t_ns: t.post_send_ns,
            tl: i,
        });
        let pr = t.post_recv_ns.map(|r| {
            nodes.push(Node {
                kind: NodeKind::PostRecv,
                dump,
                rank: t.dst,
                t_ns: r,
                tl: i,
            });
            nodes.len() - 1
        });
        let m = nodes.len();
        nodes.push(Node {
            kind: NodeKind::Match,
            dump,
            rank: t.dst,
            t_ns: t.match_ns,
            tl: i,
        });
        let e = nodes.len();
        nodes.push(Node {
            kind: NodeKind::End,
            dump,
            rank: t.dst,
            t_ns: t.end_ns,
            tl: i,
        });
        edges.push(Edge {
            from: ps,
            to: m,
            kind: EdgeKind::Wait,
        });
        if let Some(pr) = pr {
            edges.push(Edge {
                from: pr,
                to: m,
                kind: EdgeKind::Wait,
            });
        }
        edges.push(Edge {
            from: m,
            to: e,
            kind: EdgeKind::Active,
        });
    }
    // Program order per (dump, rank) + origin fan-out to each rank's
    // first node.
    let mut by_rank: BTreeMap<(u64, i64), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate().skip(1) {
        by_rank.entry((n.dump, n.rank)).or_default().push(i);
    }
    for chain in by_rank.values_mut() {
        chain.sort_by_key(|&i| (nodes[i].t_ns, i));
        edges.push(Edge {
            from: 0,
            to: chain[0],
            kind: EdgeKind::Idle,
        });
        for w in chain.windows(2) {
            edges.push(Edge {
                from: w[0],
                to: w[1],
                kind: EdgeKind::Idle,
            });
        }
    }
    (nodes, edges)
}

/// Walk backward from the latest node, following the binding constraint at
/// every step, and return the path in forward order.
fn backward_walk(nodes: &[Node], edges: &[Edge], tls: &[&Timeline]) -> Vec<PathStep> {
    if nodes.len() <= 1 {
        return Vec::new();
    }
    let mut incoming: Vec<Vec<&Edge>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        incoming[e.to].push(e);
    }
    let last = (1..nodes.len())
        .max_by_key(|&i| (nodes[i].t_ns, i))
        .unwrap();
    let mut steps = Vec::new();
    let mut cur = last;
    while cur != 0 {
        // Binding constraint: the predecessor that cleared last; on ties a
        // dependency edge explains the time better than an idle gap.
        let Some(&e) = incoming[cur].iter().max_by_key(|e| {
            (
                nodes[e.from].t_ns,
                e.kind != EdgeKind::Idle,
                std::cmp::Reverse(e.from),
            )
        }) else {
            break;
        };
        let head = nodes[cur];
        let tail = nodes[e.from];
        steps.push(PathStep {
            kind: e.kind.as_str(),
            ns: head.t_ns.saturating_sub(tail.t_ns),
            rank: head.rank,
            dump: head.dump,
            id: if head.tl == usize::MAX || e.kind == EdgeKind::Idle {
                0
            } else {
                tls[head.tl].id
            },
            label: format!("{}->{}", tail.kind.as_str(), head.kind.as_str()),
            cross_rank: (tail.dump, tail.rank) != (head.dump, head.rank) && tail.rank >= 0,
        });
        cur = e.from;
    }
    steps.reverse();
    steps
}

/// Phase decomposition + blame of a path. Active edges are split with the
/// owning timeline's pack/unpack attribution, scaled to the edge weight.
fn decompose(steps: &[PathStep], tls: &[&Timeline]) -> (PathPhases, BTreeMap<(u64, i64), u64>) {
    let by_id: BTreeMap<u64, &Timeline> = tls.iter().map(|t| (t.id, *t)).collect();
    let mut p = PathPhases::default();
    let mut blame: BTreeMap<(u64, i64), u64> = BTreeMap::new();
    for s in steps {
        *blame.entry((s.dump, s.rank)).or_default() += s.ns;
        match s.kind {
            "wait" => p.wait += s.ns,
            "idle" => p.idle += s.ns,
            _ => match by_id.get(&s.id) {
                Some(t) => {
                    // The active edge weight is exactly end - match; the
                    // timeline's callback sums partition it.
                    let cb = (t.pack_ns + t.unpack_ns).min(s.ns);
                    let scale = if t.pack_ns + t.unpack_ns == 0 {
                        0.0
                    } else {
                        cb as f64 / (t.pack_ns + t.unpack_ns) as f64
                    };
                    let pack = (t.pack_ns as f64 * scale) as u64;
                    let unpack = (t.unpack_ns as f64 * scale) as u64;
                    p.pack += pack;
                    p.unpack += unpack.min(cb - pack.min(cb));
                    p.copy += s.ns - pack - unpack.min(cb - pack.min(cb));
                    p.wire += t.wire_ns;
                }
                None => p.copy += s.ns,
            },
        }
    }
    (p, blame)
}

/// Longest mandatory-work path through every transfer → slack. Idle and
/// origin edges are compressible (weight 0); dependency edges keep their
/// wall-clock weight. Slack is measured against the DAG's own longest
/// constrained path (CPM-style), so the binding chain gets exactly zero.
fn slack_of(nodes: &[Node], edges: &[Edge], tls: &[&Timeline]) -> Vec<TransferSlack> {
    let n = nodes.len();
    if n <= 1 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (nodes[i].t_ns, i));
    let w = |e: &Edge| {
        if e.kind == EdgeKind::Idle {
            0
        } else {
            nodes[e.to].t_ns.saturating_sub(nodes[e.from].t_ns)
        }
    };
    let mut fdist = vec![0u64; n];
    for &i in &order {
        for e in edges.iter().filter(|e| e.from == i) {
            fdist[e.to] = fdist[e.to].max(fdist[i] + w(e));
        }
    }
    let mut bdist = vec![0u64; n];
    for &i in order.iter().rev() {
        for e in edges.iter().filter(|e| e.to == i) {
            bdist[e.from] = bdist[e.from].max(bdist[i] + w(e));
        }
    }
    let horizon = fdist.iter().copied().max().unwrap_or(0);
    // Per transfer: the longest constrained path through its active edge.
    let mut out = Vec::new();
    for e in edges.iter().filter(|e| e.kind == EdgeKind::Active) {
        let through = fdist[e.from] + w(e) + bdist[e.to];
        let t = tls[nodes[e.to].tl];
        out.push(TransferSlack {
            id: t.id,
            src: t.src,
            dst: t.dst,
            bytes: t.bytes,
            slack_ns: horizon.saturating_sub(through),
        });
    }
    out.sort_by_key(|s| (s.slack_ns, s.id));
    out
}

/// Connected components over the DAG, ignoring the virtual origin (which
/// would connect everything trivially).
fn component_count(nodes: &[Node], edges: &[Edge]) -> usize {
    let n = nodes.len();
    if n <= 1 {
        return 0;
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in edges.iter().filter(|e| e.from != 0) {
        let (a, b) = (find(&mut parent, e.from), find(&mut parent, e.to));
        parent[a] = b;
    }
    (1..n)
        .map(|i| find(&mut parent, i))
        .collect::<std::collections::BTreeSet<_>>()
        .len()
}

/// Run the whole critical-path analysis over reconstructed timelines.
pub fn critical_path(a: &Analysis) -> CriticalReport {
    let tls: Vec<&Timeline> = a.completed.iter().chain(a.errored.iter()).collect();
    if tls.is_empty() {
        return CriticalReport::default();
    }
    let (nodes, edges) = build_dag(&tls);
    let origin_ns = nodes[0].t_ns;
    let makespan_ns = nodes
        .iter()
        .map(|n| n.t_ns)
        .max()
        .unwrap_or(origin_ns)
        .saturating_sub(origin_ns);
    let steps = backward_walk(&nodes, &edges, &tls);
    let (phases, blame) = decompose(&steps, &tls);
    let slack = slack_of(&nodes, &edges, &tls);
    let components = component_count(&nodes, &edges);
    let cross_rank_steps = steps.iter().filter(|s| s.cross_rank).count();

    // Per-collective sub-DAGs, grouped by reserved tag.
    let mut groups: BTreeMap<&'static str, Vec<&Timeline>> = BTreeMap::new();
    for t in &tls {
        if let Ok(tag) = i32::try_from(t.tag) {
            if let Some(name) = mpicd::collective_tag_name(tag) {
                groups.entry(name).or_default().push(t);
            }
        }
    }
    let collectives = groups
        .into_iter()
        .map(|(name, group)| {
            let (gn, ge) = build_dag(&group);
            let g_origin = gn[0].t_ns;
            let g_make = gn
                .iter()
                .map(|n| n.t_ns)
                .max()
                .unwrap_or(g_origin)
                .saturating_sub(g_origin);
            CollectivePath {
                name,
                transfers: group.len(),
                makespan_ns: g_make,
                steps: backward_walk(&gn, &ge, &group),
            }
        })
        .collect();

    CriticalReport {
        transfers: tls.len(),
        origin_ns,
        makespan_ns,
        steps,
        phases,
        blame,
        slack,
        components,
        cross_rank_steps,
        collectives,
    }
}

/// Render the human-readable critical-path report. Contains the literal
/// line `malformed timelines: N` so CI can grep the same contract as the
/// flat report.
pub fn render_critical(a: &Analysis, r: &CriticalReport, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "critical path report — {source}");
    let _ = writeln!(out, "malformed timelines: {}", a.malformed.len());
    for reason in a.malformed.iter().take(20) {
        let _ = writeln!(out, "  ! {reason}");
    }
    let _ = writeln!(
        out,
        "transfers: {}, DAG components: {}, makespan: {}",
        r.transfers,
        r.components,
        fmt_ns(r.makespan_ns)
    );
    let p = &r.phases;
    let _ = writeln!(
        out,
        "path: wait {} + pack {} + unpack {} + copy {} + idle {} = {} \
         (wire overlap {}, {} cross-rank arcs)",
        fmt_ns(p.wait),
        fmt_ns(p.pack),
        fmt_ns(p.unpack),
        fmt_ns(p.copy),
        fmt_ns(p.idle),
        fmt_ns(p.total()),
        fmt_ns(p.wire),
        r.cross_rank_steps
    );
    let _ = writeln!(out, "\nper-rank blame:");
    for (&(dump, rank), ns) in &r.blame {
        let pctg = if r.makespan_ns > 0 {
            *ns as f64 * 100.0 / r.makespan_ns as f64
        } else {
            0.0
        };
        let label = match (dump, rank) {
            (_, r) if r < 0 => "(origin)".to_string(),
            (0, r) => format!("rank {r}"),
            (d, r) => format!("dump {d} rank {r}"),
        };
        let _ = writeln!(out, "  {label:>10}: {:>10} ({pctg:5.1}%)", fmt_ns(*ns));
    }
    let _ = writeln!(out, "\ncritical path ({} steps):", r.steps.len());
    for s in r.steps.iter().filter(|s| s.ns > 0 || s.kind != "idle") {
        let _ = writeln!(
            out,
            "  {:<6} {:>10}  rank {:>3}  {}{}{}",
            s.kind,
            fmt_ns(s.ns),
            s.rank,
            s.label,
            if s.id != 0 {
                format!("  id {}", s.id)
            } else {
                String::new()
            },
            if s.cross_rank { "  [cross-rank]" } else { "" }
        );
    }
    let _ = writeln!(out, "\ntightest slack (most critical transfers first):");
    for s in r.slack.iter().take(10) {
        let _ = writeln!(
            out,
            "  id {} {}->{} {}B: slack {}",
            s.id,
            s.src,
            s.dst,
            s.bytes,
            fmt_ns(s.slack_ns)
        );
    }
    if !r.collectives.is_empty() {
        let _ = writeln!(out, "\ncollectives:");
        for c in &r.collectives {
            let _ = writeln!(
                out,
                "  {} ({} transfers, makespan {}):",
                c.name,
                c.transfers,
                fmt_ns(c.makespan_ns)
            );
            for s in c.steps.iter().filter(|s| s.kind != "idle" || s.ns > 0) {
                let _ = writeln!(
                    out,
                    "    {:<6} {:>10}  rank {:>3}  {}{}",
                    s.kind,
                    fmt_ns(s.ns),
                    s.rank,
                    s.label,
                    if s.cross_rank { "  [cross-rank]" } else { "" }
                );
            }
        }
    }
    out
}

fn steps_json(out: &mut String, steps: &[PathStep]) {
    out.push('[');
    for (i, s) in steps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"ns\":{},\"rank\":{},\"dump\":{},\"id\":{},\
             \"label\":\"{}\",\"cross_rank\":{}}}",
            s.kind,
            s.ns,
            s.rank,
            s.dump,
            s.id,
            escape(&s.label),
            s.cross_rank
        );
    }
    out.push(']');
}

/// Render the critical-path report as one JSON object (`--json`).
pub fn render_critical_json(a: &Analysis, r: &CriticalReport, source: &str) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"source\":\"{}\",\"malformed\":{},\"transfers\":{},\"components\":{},\
         \"origin_ns\":{},\"makespan_ns\":{},\"cross_rank_steps\":{},",
        escape(source),
        a.malformed.len(),
        r.transfers,
        r.components,
        r.origin_ns,
        r.makespan_ns,
        r.cross_rank_steps
    );
    let p = &r.phases;
    let _ = write!(
        out,
        "\"phases\":{{\"wait\":{},\"pack\":{},\"unpack\":{},\"copy\":{},\"idle\":{},\
         \"wire\":{},\"total\":{}}},",
        p.wait,
        p.pack,
        p.unpack,
        p.copy,
        p.idle,
        p.wire,
        p.total()
    );
    out.push_str("\"blame\":{");
    // Keys: the rank, prefixed with its dump (`"2:0"`) when dumps were
    // merged.
    for (i, ((dump, rank), ns)) in r.blame.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = match dump {
            0 => write!(out, "\"{rank}\":{ns}"),
            d => write!(out, "\"{d}:{rank}\":{ns}"),
        };
    }
    out.push_str("},\"path\":");
    steps_json(&mut out, &r.steps);
    out.push_str(",\"slack\":[");
    for (i, s) in r.slack.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"src\":{},\"dst\":{},\"bytes\":{},\"slack_ns\":{}}}",
            s.id, s.src, s.dst, s.bytes, s.slack_ns
        );
    }
    out.push_str("],\"collectives\":[");
    for (i, c) in r.collectives.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"transfers\":{},\"makespan_ns\":{},\"path\":",
            c.name, c.transfers, c.makespan_ns
        );
        steps_json(&mut out, &c.steps);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::tests::Rec;
    use crate::flight::{analyze, merge_dumps, parse_dump};

    /// A transfer `src -> dst` on `tag`: send id `id`, receive post
    /// `recv_id` (0 = unrecorded), stamps [post_send, post_recv, match, end].
    fn line(id: u64, recv_id: u64, t: [u64; 4], src: i64, dst: i64, tag: i64) -> String {
        Rec {
            src,
            dst,
            tag,
            ..Rec::new(id, recv_id, t)
        }
        .line()
    }

    /// A two-hop relay: 0 -> 1 (id 1, recv 2), then 1 -> 2 (id 3, recv 4).
    /// The second send posts only after the first completes, so the
    /// critical path must cross rank 0 -> 1 -> 2.
    fn relay() -> String {
        [
            line(1, 2, [200, 100, 300, 600], 0, 1, 7),
            line(3, 4, [700, 150, 800, 1000], 1, 2, 7),
        ]
        .join("\n")
    }

    #[test]
    fn relay_path_crosses_ranks_and_sums_to_makespan() {
        let a = analyze(&parse_dump(&relay()).unwrap());
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        let r = critical_path(&a);
        assert_eq!(r.transfers, 2);
        assert_eq!(r.makespan_ns, 900); // 1000 - 100
        assert_eq!(
            r.phases.total(),
            r.makespan_ns,
            "path weight is the makespan by construction"
        );
        assert_eq!(r.components, 1, "relay is one causal component");
        assert!(r.cross_rank_steps >= 1, "path crosses ranks: {:?}", r.steps);
        // The binding chain ends in transfer 3's active edge.
        let last = r.steps.last().unwrap();
        assert_eq!((last.kind, last.id), ("active", 3));
        // Slack: transfer 3 is on the critical chain (tight), transfer 1
        // feeds it (also constrained through the relay).
        assert_eq!(r.slack[0].slack_ns, 0, "{:?}", r.slack);
    }

    #[test]
    fn disjoint_pairs_are_two_components() {
        // 0->1 and 2->3 never interact.
        let text = [
            line(1, 0, [100, 0, 200, 300], 0, 1, 7),
            line(3, 0, [110, 0, 210, 400], 2, 3, 7),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        let r = critical_path(&a);
        assert_eq!(r.components, 2);
        assert_eq!(r.makespan_ns, 300);
        assert_eq!(r.phases.total(), r.makespan_ns);
    }

    #[test]
    fn merged_dumps_keep_their_ranks_apart() {
        // Both processes call their ranks 0 and 1 and start their clocks
        // at their own epochs: merged, they are separate components.
        let single = analyze(&parse_dump(&relay()).unwrap());
        let dumps = vec![parse_dump(&relay()).unwrap(), parse_dump(&relay()).unwrap()];
        let merged = analyze(&merge_dumps(dumps));
        let (one, two) = (critical_path(&single), critical_path(&merged));
        assert_eq!(two.components, 2 * one.components);
        assert_eq!(two.makespan_ns, one.makespan_ns);
        assert_eq!(two.phases.total(), two.makespan_ns);
        assert!(two.blame.keys().all(|&(dump, rank)| rank < 0 || dump > 0));
        let json = render_critical_json(&merged, &two, "merged");
        assert!(json.contains("\"components\":2"), "{json}");
    }

    #[test]
    fn collective_tags_are_grouped() {
        let bcast_tag = i64::from(i32::MAX - 11);
        let text = [
            line(1, 0, [100, 0, 200, 300], 0, 1, bcast_tag),
            line(3, 0, [310, 0, 400, 500], 1, 2, bcast_tag),
            line(5, 0, [120, 0, 130, 140], 0, 2, 9),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        let r = critical_path(&a);
        assert_eq!(r.collectives.len(), 1);
        let c = &r.collectives[0];
        assert_eq!((c.name, c.transfers), ("bcast", 2));
        assert_eq!(c.makespan_ns, 400); // 500 - 100
        let total: u64 = c.steps.iter().map(|s| s.ns).sum();
        assert_eq!(total, c.makespan_ns);
    }

    #[test]
    fn reports_render_and_agree() {
        let a = analyze(&parse_dump(&relay()).unwrap());
        let r = critical_path(&a);
        let text = render_critical(&a, &r, "relay");
        assert!(text.contains("malformed timelines: 0"));
        assert!(text.contains("per-rank blame"));
        assert!(text.contains("[cross-rank]"), "{text}");
        let json = render_critical_json(&a, &r, "relay");
        assert!(json.contains("\"makespan_ns\":900"));
        assert!(json.contains("\"components\":1"));
        assert!(json.contains("\"cross_rank\":true"));
        assert!(json.contains("\"slack\":["));
    }

    #[test]
    fn empty_analysis_yields_empty_report() {
        let a = analyze(&parse_dump("").unwrap());
        let r = critical_path(&a);
        assert_eq!(r.transfers, 0);
        assert_eq!(r.makespan_ns, 0);
        assert!(r.steps.is_empty());
        assert_eq!(r.components, 0);
    }
}
