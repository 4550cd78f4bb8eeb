//! `campaign smoke`: the tiny end-to-end gate for scripts/check.sh. A
//! 2-shard run through real checkpoint files must merge to the
//! single-shot result, the three trial paths (oracle, timed, replay)
//! must classify identically on both layers — on VA, on BFS, whose host
//! glue sits between 22 launches, and on BFS under TMR, which adds a vote
//! after each — and 3-shard adaptive waves must match single-shot waves.

use dispatch::CampaignSpec;
use relia::plan::{Layer, PreparedCampaign};
use relia::{
    assemble_sw, assemble_uarch, execute_shard, execute_trials_with, load_checkpoint,
    records_fingerprint, EngineBackend, EngineCfg, FastForward, TrialRecord,
};
use stat::{run_adaptive, uarch_targets, AdaptiveCfg};
use vgpu_sim::{FaultPattern, GpuConfig};

use crate::args::fail;

/// Fail unless `got` classifies and assembles exactly like `want`.
fn expect_same(what: &str, prep: &PreparedCampaign, got: &[TrialRecord], want: &[TrialRecord]) {
    let layer = prep.plan.layer;
    let (fp_got, fp_want) = (records_fingerprint(got), records_fingerprint(want));
    if fp_got != fp_want {
        fail(&format!(
            "smoke failed ({}): {what}: fingerprint {fp_got:#x} != {fp_want:#x}",
            layer.label()
        ));
    }
    let same = match layer {
        Layer::Uarch => assemble_uarch(prep, got).unwrap() == assemble_uarch(prep, want).unwrap(),
        Layer::Sw => assemble_sw(prep, got).unwrap() == assemble_sw(prep, want).unwrap(),
    };
    if !same {
        fail(&format!(
            "smoke failed ({}): {what}: assembled results differ",
            layer.label()
        ));
    }
    println!("smoke {}: {what} ({fp_want:#018x})", layer.label());
}

pub fn smoke() {
    let dir = std::env::temp_dir().join(format!("relia_campaign_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignSpec {
        app: "VA".into(),
        layer: Layer::Uarch,
        n: 6,
        seed: 0x5A5A,
        sms: GpuConfig::default().num_sms,
        hardened: false,
        structures: None,
        fault_model: FaultPattern::SingleBit,
        backend: EngineBackend::Timed,
        wave: None,
    };
    let bench = spec.find_bench().unwrap_or_else(|e| fail(&e));
    for (app, layer, hardened) in [
        ("VA", Layer::Uarch, false),
        ("VA", Layer::Sw, false),
        ("BFS", Layer::Uarch, false),
        ("BFS", Layer::Sw, false),
        ("BFS", Layer::Uarch, true),
        ("BFS", Layer::Sw, true),
    ] {
        let spec = CampaignSpec {
            app: app.into(),
            layer,
            hardened,
            ..spec.clone()
        };
        let app = format!("{app}{}", if hardened { "-TMR" } else { "" });
        let bench = spec.find_bench().unwrap_or_else(|e| fail(&e));
        let prep = spec.prepare(bench.as_ref());
        let single = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        if app == "VA" {
            let mut merged = Vec::new();
            for idx in 0..2 {
                let path = dir.join(format!("{}-{idx}.jsonl", layer.label()));
                let eng = EngineCfg {
                    checkpoint: Some(path.clone()),
                    ..EngineCfg::sharded(2, idx)
                };
                execute_shard(&prep, &eng).unwrap();
                merged.extend(load_checkpoint(&path).unwrap().records);
            }
            expect_same("VA 2-shard merge == single-shot", &prep, &merged, &single);
        }
        // Path equivalence: the default path (`single` above — snapshot
        // fast-forward for uarch, CTA replay for sw) and the trace-replay
        // backend must classify byte-identically to the oracle, which
        // simulates every trial in full (docs/PERF.md, docs/TRACE.md).
        let all: Vec<usize> = (0..prep.plan.len()).collect();
        let oracle = execute_trials_with(&prep, FastForward::disabled(), &all, |_| Ok(())).unwrap();
        expect_same(&format!("{app} default == oracle"), &prep, &single, &oracle);
        let replay_eng = EngineCfg {
            backend: EngineBackend::Replay,
            ..EngineCfg::single_shot()
        };
        let replay = execute_shard(&prep, &replay_eng).unwrap();
        expect_same(&format!("{app} replay == oracle"), &prep, &replay, &oracle);
    }
    // Adaptive gate: a CI-driven campaign executed single-shot must match
    // the same campaign with every wave split over 3 in-process shards —
    // wave plans, records, and convergence trajectory, byte for byte.
    let cfg = spec.campaign_cfg();
    let acfg = AdaptiveCfg::new(0.15, 6, 24);
    let waves = |shards: usize| {
        run_adaptive(
            bench.as_ref(),
            &cfg,
            false,
            Layer::Uarch,
            &uarch_targets(),
            &acfg,
            |prep, _| {
                let mut recs = Vec::new();
                for i in 0..shards {
                    recs.extend(execute_shard(prep, &EngineCfg::sharded(shards, i))?);
                }
                Ok(recs)
            },
        )
        .unwrap_or_else(|e| fail(&format!("smoke failed (adaptive): {e}")))
    };
    let (single, sharded) = (waves(1), waves(3));
    if single != sharded {
        fail("smoke failed (adaptive): 3-shard wave execution differs from single-shot");
    }
    if !(single.waves >= 1 && single.total_trials() > 0) {
        fail("smoke failed (adaptive): campaign executed no waves");
    }
    println!(
        "smoke adaptive: 3-shard waves == single-shot ({} waves, {} trials, \
         records {:#018x})",
        single.waves,
        single.total_trials(),
        single.records_fp
    );
    let _ = std::fs::remove_dir_all(&dir);
}
