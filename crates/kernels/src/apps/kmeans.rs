//! K-Means — clustering (Rodinia `kmeans`).
//!
//! Two kernels, as in Rodinia's CUDA port:
//!
//! * **K1 `invert_mapping`** — transposes the point-major feature matrix
//!   into feature-major layout (pure streaming memory work).
//! * **K2 `kmeansPoint`** — assigns each point to its nearest cluster.
//!   Feature reads go through the **texture path** (Rodinia binds
//!   `t_features` to a texture), making K-Means the suite's main L1T
//!   exerciser.
//!
//! Host glue recomputes centroids between iterations, exactly like the
//! benchmark's CPU side.

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::{elem_addr, gid_guard, hash_f32};
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand};

pub const NPOINTS: u32 = 2048;
pub const NFEAT: u32 = 8;
pub const NCLUST: u32 = 5;
pub const ITERS: usize = 2;
const BLOCK: u32 = 128;
const SEED: u64 = 0x4b4d;

pub struct KMeans;

/// K1: `features[f*NPOINTS + gid] = flipped[gid*NFEAT + f]` for all f.
/// Benchmark parameters: 0 = flipped, 1 = features, 2 = npoints.
pub fn kernel_invert() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("kmeans_k1_invert_mapping");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, src, dst, v) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        gid_guard(&mut a, gid, tmp, p, 2);
        a.if_then(p, false, |a| {
            for f in 0..NFEAT {
                // src = flipped + 4*(gid*NFEAT + f)
                a.shl(tmp, gid, NFEAT.trailing_zeros());
                a.iadd(tmp, tmp, f);
                elem_addr(a, src, roff, 0, tmp, 2);
                // re-derive the element index for the transposed store
                a.ld(v, MemSpace::Global, src, 0);
                a.mov(tmp, f * NPOINTS);
                a.iadd(tmp, tmp, Operand::Reg(gid));
                elem_addr(a, dst, roff, 1, tmp, 2);
                a.st(MemSpace::Global, dst, 0, v);
            }
        });
        a.build().expect("invert_mapping is well formed")
    })
}

/// K2: nearest-cluster assignment.
/// Benchmark parameters: 0 = features (feature-major, read via texture),
/// 1 = clusters, 2 = membership, 3 = npoints.
pub fn kernel_point() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("kmeans_k2_kmeansPoint");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, fv, cv, d) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (dist, best, besti) = (a.reg(), a.reg(), a.reg());
        let p = a.pred();
        let q = a.pred();
        gid_guard(&mut a, gid, tmp, p, 3);
        a.if_then(p, false, |a| {
            a.mov(best, f32::MAX);
            a.mov(besti, 0u32);
            for c in 0..NCLUST {
                a.mov(dist, 0.0f32);
                for f in 0..NFEAT {
                    // fv = tex features[f*NPOINTS + gid]
                    a.mov(tmp, f * NPOINTS);
                    a.iadd(tmp, tmp, Operand::Reg(gid));
                    tmr::load_ptr(a, addr, roff, 0);
                    a.iscadd(addr, tmp, Operand::Reg(addr), 2);
                    a.ld(fv, MemSpace::Tex, addr, 0);
                    // cv = clusters[c*NFEAT + f]
                    a.mov(tmp, c * NFEAT + f);
                    elem_addr(a, addr, roff, 1, tmp, 2);
                    a.ld(cv, MemSpace::Global, addr, 0);
                    // dist += (fv - cv)^2
                    a.fmul(cv, cv, Operand::imm_f32(-1.0));
                    a.fadd(d, fv, Operand::Reg(cv));
                    a.ffma(dist, d, Operand::Reg(d), Operand::Reg(dist));
                }
                // if dist < best { best = dist; besti = c }
                a.fsetp(q, dist, Operand::Reg(best), CmpOp::Lt);
                a.predicated(q, false, |a| {
                    a.mov(best, Operand::Reg(dist));
                    a.mov(besti, c);
                });
            }
            elem_addr(a, addr, roff, 2, gid, 2);
            a.st(MemSpace::Global, addr, 0, besti);
        });
        a.build().expect("kmeansPoint is well formed")
    })
}

/// Point-major input features.
pub fn input_feature(point: u32, f: u32) -> f32 {
    // Clustered blobs so the assignment is meaningful.
    let blob = point % NCLUST;
    blob as f32 + 0.3 * hash_f32(SEED + f as u64, point as u64)
}

fn initial_cluster(c: u32, f: u32) -> f32 {
    // Initial centers = the first NCLUST points (Rodinia's choice).
    input_feature(c, f)
}

impl Benchmark for KMeans {
    fn name(&self) -> &'static str {
        "K-Means"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1", "K2"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let nf = NPOINTS * NFEAT;
        let bufs = ctl.alloc(&[nf * 4, nf * 4, NCLUST * NFEAT * 4, NPOINTS * 4]);
        let (flipped, features, clusters, membership) = (bufs[0], bufs[1], bufs[2], bufs[3]);
        ctl.write_with(flipped, nf, |i| {
            input_feature(i / NFEAT, i % NFEAT).to_bits()
        });
        ctl.write_with(clusters, NCLUST * NFEAT, |i| {
            initial_cluster(i / NFEAT, i % NFEAT).to_bits()
        });
        let k1 = kernel_invert();
        let k2 = kernel_point();
        let grid = NPOINTS / BLOCK;
        ctl.launch(0, k1, grid, BLOCK, vec![flipped, features, NPOINTS])?;
        ctl.vote(0, &[(features, nf)])?;
        for _ in 0..ITERS {
            ctl.launch(
                1,
                k2,
                grid,
                BLOCK,
                vec![features, clusters, membership, NPOINTS],
            )?;
            ctl.vote(1, &[(membership, NPOINTS)])?;
            // Host: recompute centroids (guarded against corrupted indices).
            let mut sums = vec![0.0f32; (NCLUST * NFEAT) as usize];
            let mut counts = vec![0u32; NCLUST as usize];
            let mut point = [0u32; NFEAT as usize];
            for pnt in 0..NPOINTS {
                let m = ctl.read_u32(membership + pnt * 4) % NCLUST;
                counts[m as usize] += 1;
                ctl.read_slice(flipped + pnt * NFEAT * 4, &mut point);
                for (f, &v) in (0..NFEAT).zip(&point) {
                    sums[(m * NFEAT + f) as usize] += f32::from_bits(v);
                }
            }
            for c in 0..NCLUST {
                if counts[c as usize] > 0 {
                    for f in 0..NFEAT {
                        let mean = sums[(c * NFEAT + f) as usize] / counts[c as usize] as f32;
                        ctl.write_f32(clusters + (c * NFEAT + f) * 4, mean);
                    }
                }
            }
        }
        ctl.set_outputs(&[(membership, NPOINTS), (clusters, NCLUST * NFEAT)]);
        Ok(())
    }
}

/// CPU reference mirroring the GPU arithmetic order; returns
/// (membership, clusters).
pub fn cpu_reference() -> (Vec<u32>, Vec<f32>) {
    let mut clusters: Vec<f32> = (0..NCLUST)
        .flat_map(|c| (0..NFEAT).map(move |f| initial_cluster(c, f)))
        .collect();
    let mut membership = vec![0u32; NPOINTS as usize];
    for _ in 0..ITERS {
        for pnt in 0..NPOINTS {
            let mut best = f32::MAX;
            let mut besti = 0u32;
            for c in 0..NCLUST {
                let mut dist = 0.0f32;
                for f in 0..NFEAT {
                    let d = input_feature(pnt, f) + -clusters[(c * NFEAT + f) as usize];
                    dist = d.mul_add(d, dist);
                }
                if dist < best {
                    best = dist;
                    besti = c;
                }
            }
            membership[pnt as usize] = besti;
        }
        let mut sums = vec![0.0f32; (NCLUST * NFEAT) as usize];
        let mut counts = vec![0u32; NCLUST as usize];
        for pnt in 0..NPOINTS {
            let m = membership[pnt as usize];
            counts[m as usize] += 1;
            for f in 0..NFEAT {
                sums[(m * NFEAT + f) as usize] += input_feature(pnt, f);
            }
        }
        for c in 0..NCLUST {
            if counts[c as usize] > 0 {
                for f in 0..NFEAT {
                    clusters[(c * NFEAT + f) as usize] =
                        sums[(c * NFEAT + f) as usize] / counts[c as usize] as f32;
                }
            }
        }
    }
    (membership, clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn matches_cpu_reference() {
        let g = golden_run(&KMeans, &GpuConfig::default(), Variant::FUNCTIONAL);
        let (want_m, want_c) = cpu_reference();
        let got_m = &g.output[..NPOINTS as usize];
        for (i, (&got, &want)) in got_m.iter().zip(want_m.iter()).enumerate() {
            assert_eq!(got, want, "membership of point {i}");
        }
        let got_c = &g.output[NPOINTS as usize..];
        for (i, (&got, &want)) in got_c.iter().zip(want_c.iter()).enumerate() {
            assert_eq!(f32::from_bits(got), want, "cluster word {i}");
        }
    }

    #[test]
    fn timed_equals_functional_and_uses_texture() {
        let f = golden_run(&KMeans, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&KMeans, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        assert!(
            t.app_stats().l1t.accesses > 0,
            "K2 reads features via texture"
        );
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&KMeans, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&KMeans, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
