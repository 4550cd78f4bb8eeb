//! A trace imported from its blobs (`AppTrace::from_blobs`: decoded and
//! folded blob by blob) is the trace the recorder folded from the live
//! probe stream. On VA, NW and BFS — one launch; many launches with host
//! glue between them; pointer chasing — both index the same bytes and
//! live word-cycles, and every planned uarch trial of a seed-7 plan gets
//! the same verdict from both.

use kernels::apps::{bfs::Bfs, nw::Nw, va::Va};
use kernels::{Benchmark, PlannedFault};
use relia::{prepare_uarch_campaign, CampaignCfg};
use trace::{AppTrace, Verdict};

#[test]
fn imported_blobs_adjudicate_like_the_recorded_trace() {
    let cfg = CampaignCfg::new(72, 1, 7);
    let apps: [&dyn Benchmark; 3] = [&Va, &Nw, &Bfs];
    for bench in apps {
        let app = bench.name();
        let prep = prepare_uarch_campaign(bench, &cfg, false);
        let recorded = trace::record_app_trace(bench, &cfg.gpu, &prep.golden);
        let imported = AppTrace::from_blobs(recorded.blobs().to_vec());
        // The fold's two drivers built the same index.
        assert_eq!(imported.index_bytes(), recorded.index_bytes(), "{app}");
        let word_cycles = recorded.live_word_cycles();
        assert_eq!(imported.live_word_cycles(), word_cycles, "{app}");
        let mut dead = 0;
        for t in &prep.plan.trials {
            if let Some((ordinal, PlannedFault::Uarch(f))) = &t.fault {
                let verdict = recorded.adjudicate(&cfg.gpu, *ordinal, f);
                let again = imported.adjudicate(&cfg.gpu, *ordinal, f);
                assert_eq!(again, verdict, "{app} trial {}", t.index);
                dead += usize::from(matches!(verdict, Verdict::Dead { .. }));
            }
        }
        assert!(dead > 0, "{app}: no trial adjudicated dead");
    }
}
