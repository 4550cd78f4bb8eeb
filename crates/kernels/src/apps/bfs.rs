//! BFS — breadth-first search (Rodinia `bfs`).
//!
//! Two kernels and a host iteration loop, as in Rodinia:
//!
//! * **K1** — every frontier node visits its neighbours (a data-dependent
//!   divergent loop over the adjacency list) and tentatively labels
//!   unvisited ones.
//! * **K2** — folds the tentative labels into the frontier for the next
//!   level and raises the `over` flag if anything changed.
//!
//! The host relaunches both kernels until the flag stays low (iteration
//! capped so corrupted flags cannot hang the run). Integer data — output
//! comparisons are exact.

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::{elem_addr, gid_guard, hash_u32};
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand};

pub const NODES: u32 = 1024;
const BLOCK: u32 = 128;
/// Maximum BFS levels the host will run (well above the true diameter).
const MAX_LEVELS: usize = 24;
const SEED: u64 = 0x424653;

pub struct Bfs;

/// Degree of node `i` (2..=5).
fn degree(i: u32) -> u32 {
    2 + hash_u32(SEED ^ 0xdeed, i as u64, 4)
}

/// The CSR adjacency (starts, edges), built once per process as the
/// kernels are.
pub fn graph() -> &'static (Vec<u32>, Vec<u32>) {
    static G: OnceLock<(Vec<u32>, Vec<u32>)> = OnceLock::new();
    G.get_or_init(build_graph)
}

fn build_graph() -> (Vec<u32>, Vec<u32>) {
    let mut starts = Vec::with_capacity(NODES as usize + 1);
    let mut edges = Vec::new();
    let mut cursor = 0u32;
    for i in 0..NODES {
        starts.push(cursor);
        let d = degree(i);
        for e in 0..d {
            // Mix of local and long-range edges keeps the diameter small
            // but the neighbour loop divergent.
            let tgt = if e % 2 == 0 {
                (i + 1 + hash_u32(SEED, (i * 8 + e) as u64, 4)) % NODES
            } else {
                hash_u32(SEED ^ 0x1234, (i * 8 + e) as u64, NODES)
            };
            edges.push(tgt);
            cursor += 1;
        }
    }
    starts.push(cursor);
    (starts, edges)
}

/// K1: benchmark parameters: 0 = starts, 1 = edges, 2 = mask, 3 = updating,
/// 4 = visited, 5 = cost, 6 = nodes.
pub fn kernel_expand() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("bfs_k1_expand");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, j, end, nb, cost) = (
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
        );
        let (p, q, r) = (a.pred(), a.pred(), a.pred());
        gid_guard(&mut a, gid, tmp, p, 6);
        a.if_then(p, false, |a| {
            // q = mask[gid] != 0
            elem_addr(a, addr, roff, 2, gid, 2);
            a.ld(tmp, MemSpace::Global, addr, 0);
            a.isetp(q, tmp, 0u32, CmpOp::Ne, true);
            a.if_then(q, false, |a| {
                // mask[gid] = 0
                a.mov(tmp, 0u32);
                a.st(MemSpace::Global, addr, 0, tmp);
                // my cost
                elem_addr(a, addr, roff, 5, gid, 2);
                a.ld(cost, MemSpace::Global, addr, 0);
                a.iadd(cost, cost, 1u32);
                // j = starts[gid], end = starts[gid+1]
                elem_addr(a, addr, roff, 0, gid, 2);
                a.ld(j, MemSpace::Global, addr, 0);
                a.ld(end, MemSpace::Global, addr, 4);
                // Guard against zero-trip (cannot happen fault-free: deg >= 2).
                a.isetp(r, j, Operand::Reg(end), CmpOp::Lt, true);
                a.if_then(r, false, |a| {
                    a.loop_while(|a| {
                        // nb = edges[j]
                        elem_addr(a, addr, roff, 1, j, 2);
                        a.ld(nb, MemSpace::Global, addr, 0);
                        // if !visited[nb]: cost[nb] = cost; updating[nb] = 1
                        elem_addr(a, addr, roff, 4, nb, 2);
                        a.ld(tmp, MemSpace::Global, addr, 0);
                        a.isetp(r, tmp, 0u32, CmpOp::Eq, true);
                        a.predicated(r, false, |a| {
                            elem_addr(a, addr, roff, 5, nb, 2);
                            a.st(MemSpace::Global, addr, 0, cost);
                            a.mov(tmp, 1u32);
                            elem_addr(a, addr, roff, 3, nb, 2);
                            a.st(MemSpace::Global, addr, 0, tmp);
                        });
                        a.iadd(j, j, 1u32);
                        a.isetp(r, j, Operand::Reg(end), CmpOp::Lt, true);
                        (r, false)
                    });
                });
            });
        });
        a.build().expect("bfs expand is well formed")
    })
}

/// K2: benchmark parameters: 0 = mask, 1 = updating, 2 = visited,
/// 3 = over flag, 4 = nodes.
pub fn kernel_fold() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("bfs_k2_fold");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, one) = (a.reg(), a.reg(), a.reg(), a.reg());
        let (p, q) = (a.pred(), a.pred());
        gid_guard(&mut a, gid, tmp, p, 4);
        a.if_then(p, false, |a| {
            elem_addr(a, addr, roff, 1, gid, 2);
            a.ld(tmp, MemSpace::Global, addr, 0);
            a.isetp(q, tmp, 0u32, CmpOp::Ne, true);
            a.if_then(q, false, |a| {
                a.mov(one, 1u32);
                // mask[gid] = visited[gid] = 1; updating[gid] = 0; over = 1.
                elem_addr(a, addr, roff, 0, gid, 2);
                a.st(MemSpace::Global, addr, 0, one);
                elem_addr(a, addr, roff, 2, gid, 2);
                a.st(MemSpace::Global, addr, 0, one);
                a.mov(tmp, 0u32);
                elem_addr(a, addr, roff, 1, gid, 2);
                a.st(MemSpace::Global, addr, 0, tmp);
                tmr::load_ptr(a, addr, roff, 3);
                a.st(MemSpace::Global, addr, 0, one);
            });
        });
        a.build().expect("bfs fold is well formed")
    })
}

impl Benchmark for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1", "K2"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let (starts, edges) = graph();
        let ne = edges.len() as u32;
        let bufs = ctl.alloc(&[
            (NODES + 1) * 4, // starts
            ne * 4,          // edges
            NODES * 4,       // mask
            NODES * 4,       // updating
            NODES * 4,       // visited
            NODES * 4,       // cost
            4,               // over flag
        ]);
        let (b_starts, b_edges, mask, upd, visited, cost, over) = (
            bufs[0], bufs[1], bufs[2], bufs[3], bufs[4], bufs[5], bufs[6],
        );
        ctl.write_with(b_starts, NODES + 1, |i| starts[i as usize]);
        ctl.write_with(b_edges, ne, |i| edges[i as usize]);
        ctl.write_with(mask, NODES, |i| (i == 0) as u32);
        ctl.write_with(upd, NODES, |_| 0);
        ctl.write_with(visited, NODES, |i| (i == 0) as u32);
        ctl.write_with(cost, NODES, |i| if i == 0 { 0 } else { u32::MAX });
        let k1 = kernel_expand();
        let k2 = kernel_fold();
        let grid = NODES / BLOCK;
        for _ in 0..MAX_LEVELS {
            ctl.write_u32(over, 0);
            ctl.launch(
                0,
                k1,
                grid,
                BLOCK,
                vec![b_starts, b_edges, mask, upd, visited, cost, NODES],
            )?;
            ctl.vote(0, &[(cost, NODES), (upd, NODES), (mask, NODES)])?;
            ctl.launch(1, k2, grid, BLOCK, vec![mask, upd, visited, over, NODES])?;
            ctl.vote(
                1,
                &[(mask, NODES), (visited, NODES), (upd, NODES), (over, 1)],
            )?;
            if ctl.read_u32(over) == 0 {
                break;
            }
        }
        ctl.set_outputs(&[(cost, NODES)]);
        Ok(())
    }
}

/// CPU reference: BFS levels from node 0; unreachable stays `u32::MAX`.
pub fn cpu_reference() -> Vec<u32> {
    let (starts, edges) = graph();
    let mut cost = vec![u32::MAX; NODES as usize];
    cost[0] = 0;
    let mut frontier = vec![0u32];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for e in starts[u as usize]..starts[u as usize + 1] {
                let v = edges[e as usize] as usize;
                if cost[v] == u32::MAX {
                    cost[v] = cost[u as usize] + 1;
                    next.push(v as u32);
                }
            }
        }
        frontier = next;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn graph_is_connectedish_and_deterministic() {
        assert_eq!(*graph(), build_graph());
        let cost = cpu_reference();
        let reached = cost.iter().filter(|&&c| c != u32::MAX).count();
        assert!(
            reached > NODES as usize / 2,
            "graph too disconnected: {reached}"
        );
    }

    #[test]
    fn matches_cpu_reference_exactly() {
        let g = golden_run(&Bfs, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(got, want, "cost of node {i}");
        }
    }

    #[test]
    fn timed_equals_functional() {
        let f = golden_run(&Bfs, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&Bfs, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&Bfs, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&Bfs, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
