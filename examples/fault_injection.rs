//! Statistical fault-injection campaign on one benchmark: the AVF vs SVF
//! comparison of the paper, in miniature.
//!
//! ```sh
//! cargo run --release --example fault_injection [-- <injections>]
//! ```

use gpu_reliability::prelude::*;
use kernels::apps::hotspot::HotSpot;
use relia::error_margin;
use relia::{Confidence, TrialTarget};
use vgpu_sim::HwStructure;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    let cfg = CampaignCfg::new(n, n, 42);
    println!(
        "{n} injections per target → ±{:.2}% at 99% confidence (paper: 3000 → ±2.35%)\n",
        error_margin(n, Confidence::C99) * 100.0
    );

    // Cross-layer AVF: bit flips in the five hardware structures of the
    // cycle-level simulator, derated and size-weighted (Section II-B).
    let avf = run_uarch_campaign(&HotSpot, &cfg, false);
    println!("HotSpot, microarchitecture level (gpuFI-4 model):");
    for (k, kernel) in avf.kernels.iter().enumerate() {
        for &h in &HwStructure::ALL {
            let r = avf.avf(k, h);
            println!(
                "  {} {:<4}  FR={:>6.2}%  DF={:<6.4}  AVF={:>7.4}%  (sdc {:.4}%, to {:.4}%, due {:.4}%)",
                kernel,
                h.label(),
                avf.counts(k, TrialTarget::Structure(h)).failure_rate() * 100.0,
                avf.derating(k, h),
                r.total() * 100.0,
                r.sdc * 100.0,
                r.timeout * 100.0,
                r.due * 100.0
            );
        }
    }
    let a = avf.app_avf();
    println!(
        "  chip AVF (size-weighted, cycle-weighted) = {:.4}%\n",
        a.total() * 100.0
    );

    // Software level: destination-register value flips in the dynamic
    // instruction stream (Section II-C).
    let svf = run_sw_campaign(&HotSpot, &cfg, false);
    for (k, kernel) in svf.kernels.iter().enumerate() {
        let s = svf.svf(k);
        println!(
            "HotSpot {} software level (NVBitFI model): SVF = {:.2}% (sdc {:.2}%, to {:.2}%, due {:.2}%), SVF-LD = {:.2}%",
            kernel,
            s.total() * 100.0,
            s.sdc * 100.0,
            s.timeout * 100.0,
            s.due * 100.0,
            svf.svf_ld(k).total() * 100.0
        );
    }
    println!(
        "\nThe gap ({}x) is the paper's core point: software-level injection\n\
         sees only live destination values and no hardware masking, so its\n\
         absolute vulnerabilities — and often its *rankings* — diverge from\n\
         the cross-layer ground truth.",
        (svf.app_svf().total() / avf.app_avf().total().max(1e-9)) as u32
    );
}
