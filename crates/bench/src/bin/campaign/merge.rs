//! `campaign merge`: fold shard checkpoint files back into the
//! single-shot result, and the result printer every subcommand that ends
//! with a fully covered plan shares.

use std::path::Path;

use bench::cli::{die, parse_or_exit, Cmd};
use relia::checkpoint::CheckpointHeader;
use relia::plan::{Layer, PreparedCampaign};
use relia::{
    assemble_sw, assemble_uarch, load_checkpoint, pct, records_fingerprint, ClassRates, RecordSet,
    Table, TrialRecord,
};

use crate::args::fail;

/// One result row: a label and the per-class rates in percent.
fn rate_row(label: &str, r: ClassRates) -> Vec<String> {
    vec![
        label.to_string(),
        pct(r.sdc),
        pct(r.timeout),
        pct(r.due),
        pct(r.total()),
    ]
}

/// Print the assembled result of a fully covered plan (and write it as
/// CSV when `--csv` was given) — the byte-comparison artifact for the
/// shard-merge and dispatch differential checks.
pub fn print_result(prep: &PreparedCampaign, records: &[TrialRecord], csv: Option<&Path>) {
    let table = match prep.plan.layer {
        Layer::Uarch => {
            let res = assemble_uarch(prep, records).unwrap_or_else(|e| fail(&e.to_string()));
            let mut t = Table::new(
                format!("{} — chip AVF per kernel (%)", res.app),
                &["Kernel", "SDC", "Timeout", "DUE", "AVF"],
            );
            for k in &res.kernels {
                t.row(rate_row(&k.kernel, k.chip_avf(&prep.cfg.gpu)));
            }
            t.row(rate_row("app", res.app_avf(&prep.cfg.gpu)));
            t
        }
        Layer::Sw => {
            let res = assemble_sw(prep, records).unwrap_or_else(|e| fail(&e.to_string()));
            let mut t = Table::new(
                format!("{} — SVF per kernel (%)", res.app),
                &["Kernel", "SDC", "Timeout", "DUE", "SVF", "SVF-LD"],
            );
            let mut row = |label: &str, svf: ClassRates, svf_ld: ClassRates| {
                let mut cells = rate_row(label, svf);
                cells.push(pct(svf_ld.total()));
                t.row(cells);
            };
            for k in &res.kernels {
                row(&k.kernel, k.svf(), k.svf_ld());
            }
            row("app", res.app_svf(), res.app_svf_ld());
            t
        }
    };
    println!("{table}");
    write_csv(&table, csv);
    println!("result fingerprint: {:#018x}", records_fingerprint(records));
}

/// Write `table` where `--csv` said, if it said anything.
pub fn write_csv(table: &Table, csv: Option<&Path>) {
    if let Some(path) = csv {
        bench::driver::write_csv(table, path);
    }
}

pub fn merge(args: &[String]) {
    let a = parse_or_exit(Cmd::Merge, args);
    if a.positional.is_empty() {
        die("merge requires at least one shard checkpoint file");
    }
    let (spec, bench) = a.campaign();
    let prep = spec.prepare(bench.as_ref());
    let expect = CheckpointHeader::for_plan(&prep.plan, 1, 0);
    // Two files for the same shard (a reassigned lease journaled twice, a
    // resumed run merged alongside its original) are fine: the set keeps
    // the first record of each trial and rejects only records that
    // *disagree* on an outcome.
    let mut set = RecordSet::new(prep.plan.len());
    let mut first: Option<CheckpointHeader> = None;
    for path in &a.positional {
        let ck = load_checkpoint(Path::new(path)).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        if ck.header.fingerprint != expect.fingerprint {
            fail(&format!(
                "{path}: fingerprint {:#x} does not match this plan ({:#x}) — \
                 different app/layer/n/seed/sms/hardened?",
                ck.header.fingerprint, expect.fingerprint
            ));
        }
        match &first {
            None => first = Some(ck.header.clone()),
            Some(h) if !h.same_plan(&ck.header) => {
                fail(&format!(
                    "{path}: shard header disagrees with {}",
                    a.positional[0]
                ));
            }
            _ => {}
        }
        set.extend(&ck.records)
            .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    }
    // A missing shard fails loudly here: the set does not cover the plan.
    let records = set.complete().unwrap_or_else(|e| fail(&e.to_string()));
    print_result(&prep, &records, a.path("--csv").as_deref());
}
