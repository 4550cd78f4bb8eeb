//! `campaign list` and `campaign golden`: what there is to inject into,
//! and what one fault-free run of it looks like, launch by launch.

use bench::cli::{parse_or_exit, Cmd};
use kernels::{all_benchmarks, golden_run, Variant};
use vgpu_sim::Mode;

pub fn list() {
    println!("{:<12} kernels", "app");
    for b in all_benchmarks() {
        println!("{:<12} {}", b.name(), b.kernels().join(" "));
    }
}

pub fn golden(args: &[String]) {
    let a = parse_or_exit(Cmd::Golden, args);
    let (spec, app) = a.campaign();
    let mode = spec.layer.mode();
    let variant = Variant {
        mode,
        hardened: spec.hardened,
    };
    let g = golden_run(app.as_ref(), &a.gpu(), variant);
    let (engine, unit) = match mode {
        Mode::Timed => ("timed", "cycles"),
        Mode::Functional => ("functional", "instrs"),
    };
    println!(
        "{} golden ({engine}{}): total cost {} ({unit}), {} launches, output {} words",
        app.name(),
        if spec.hardened { ", TMR" } else { "" },
        g.total_cost,
        g.records.len(),
        g.output.len()
    );
    for (i, r) in g.records.iter().enumerate() {
        let s = &r.stats;
        println!(
            "  #{i:<3} {}{}  cycles={:<8} warp_instrs={:<8} thr_instrs={:<9} occ={:>5.1}% \
             l1d_mr={:>5.1}% l2_mr={:>5.1}%",
            app.kernels()[r.kernel_idx],
            if r.is_vote { "(vote)" } else { "" },
            s.cycles,
            s.warp_instrs,
            s.thread_instrs,
            s.occupancy() * 100.0,
            s.l1d.miss_rate() * 100.0,
            s.l2.miss_rate() * 100.0
        );
    }
}
