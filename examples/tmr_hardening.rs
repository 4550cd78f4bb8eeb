//! Thread-level TMR hardening (Section IV / Figure 6): triple the grid,
//! vote on the GPU, and measure what each assessment layer thinks of the
//! protection.
//!
//! ```sh
//! cargo run --release --example tmr_hardening [-- <injections>]
//! ```

use gpu_reliability::prelude::*;
use kernels::apps::scp::Scp;
use kernels::golden_run;
use vgpu_sim::GpuConfig;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    let cfg = CampaignCfg::new(n, n, 7);
    let gpu = GpuConfig::default();

    // The transform itself: same application, hardened harness.
    let plain = golden_run(&Scp, &gpu, Variant::TIMED);
    let tmr = golden_run(&Scp, &gpu, Variant::TIMED_TMR);
    assert_eq!(
        plain.output, tmr.output,
        "TMR must not change fault-free results"
    );
    println!(
        "SCP fault-free: {} cycles unprotected, {} cycles with TMR ({:.2}x; the paper's ~3x cost)",
        plain.total_cost,
        tmr.total_cost,
        tmr.total_cost as f64 / plain.total_cost as f64
    );
    let votes = tmr.records.iter().filter(|r| r.is_vote).count();
    println!("TMR inserted {votes} on-GPU majority-vote launches\n");

    // Both layers, both variants.
    let avf_base = run_uarch_campaign(&Scp, &cfg, false);
    let avf_tmr = run_uarch_campaign(&Scp, &cfg, true);
    let svf_base = run_sw_campaign(&Scp, &cfg, false);
    let svf_tmr = run_sw_campaign(&Scp, &cfg, true);

    let (ab, at) = (avf_base.app_avf(), avf_tmr.app_avf());
    let (sb, st) = (svf_base.app_svf(), svf_tmr.app_svf());
    println!("                 unprotected   TMR-hardened");
    println!(
        "AVF  total       {:>9.4}%   {:>9.4}%",
        ab.total() * 100.0,
        at.total() * 100.0
    );
    println!(
        "AVF  SDC         {:>9.4}%   {:>9.4}%",
        ab.sdc * 100.0,
        at.sdc * 100.0
    );
    println!(
        "AVF  DUE         {:>9.4}%   {:>9.4}%",
        ab.due * 100.0,
        at.due * 100.0
    );
    println!(
        "SVF  total       {:>9.2}%   {:>9.2}%",
        sb.total() * 100.0,
        st.total() * 100.0
    );
    println!(
        "SVF  SDC         {:>9.2}%   {:>9.2}%",
        sb.sdc * 100.0,
        st.sdc * 100.0
    );
    println!(
        "SVF  DUE         {:>9.2}%   {:>9.2}%",
        sb.due * 100.0,
        st.due * 100.0
    );
    println!(
        "\nInsight #5 of the paper: the software-level view declares SDCs\n\
         eliminated, while the cross-layer view still finds some (faults in\n\
         output-bound cache lines and in the vote itself), and DUEs rise\n\
         with the tripled resource usage."
    );
}
