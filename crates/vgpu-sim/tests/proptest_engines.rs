//! Differential property tests: the cycle-level engine and the functional
//! engine must compute identical architectural results for arbitrary
//! programs, and fault injection must never break the machine (every run
//! terminates in one of the four outcome classes).
//!
//! Two program generators. `random_kernel` is ALU soup. `structured_kernel`
//! nests the shapes that decide where the interpreter's straight-line
//! blocks begin and end: guards that change mid-run, a predicate written
//! and then used as the next guard, branches into a run's middle and
//! reconvergence points inside one (`if_then`), divergent bounded loops,
//! barriers over two warps, shared and global loads and stores inside
//! runs, and predicated `EXIT`. On those, the engines must agree on memory
//! and on every instruction counter of `Stats`, fault-free; and on a
//! single-warp launch, where both engines execute the same dynamic
//! instruction order, under every software fault kind and pattern. A
//! software injector makes the timed engine run each instruction at its
//! issue, so there it is the per-instruction reference for the functional
//! engine's blocks. Without an injector or a probe, the timed engine
//! defers pure ops to the warp's next impure issue and runs them as one
//! block; on structured launches of several warps, with a
//! microarchitecture fault in any structure, from cycle 0 and resumed
//! from a snapshot, that must end exactly as a probed run, which runs
//! every op at its issue.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use vgpu_arch::{
    BoolOp, CmpOp, InstrClass, Kernel, KernelBuilder, LaunchConfig, MemSpace, Op, Operand, Pred,
    Reg, SpecialReg,
};
use vgpu_sim::{
    ArenaPlanner, Budget, ChunkStore, ConvergeWith, FaultPattern, FaultPlan, GlobalMem, Gpu,
    GpuConfig, HwStructure, LaunchAbort, Mode, ProbeEvent, Stats, SwFault, SwFaultKind, SwInjector,
    TraceSink, UarchFault, UarchInjector,
};

/// A random but *safe* kernel: ALU soup over 6 data registers driven by
/// lane identity, finished by a store of the mixed result — no wild
/// addresses, no divergence hazards beyond predication.
fn random_kernel(ops: &[u8], with_loop: bool) -> Kernel {
    let mut a = KernelBuilder::new("prop");
    let (gid, tmp, addr) = (a.reg(), a.reg(), a.reg());
    let regs: Vec<Reg> = (0..6).map(|_| a.reg()).collect();
    let p = a.pred();
    a.linear_tid(gid, tmp);
    for (i, &r) in regs.iter().enumerate() {
        a.imad(
            r,
            gid,
            Operand::Imm((i as u32).wrapping_mul(2654435761)),
            Operand::Imm(i as u32 + 1),
        );
    }
    let emit = |a: &mut KernelBuilder, code: u8| {
        let d = regs[(code % 6) as usize];
        let x = regs[((code >> 2) % 6) as usize];
        let y = regs[((code >> 4) % 6) as usize];
        match code % 8 {
            0 => a.iadd(d, x, Operand::Reg(y)),
            1 => a.imul(d, x, Operand::Reg(y)),
            2 => a.xor(d, x, Operand::Reg(y)),
            3 => a.iscadd(d, x, Operand::Reg(y), code % 5),
            4 => a.fadd(d, x, Operand::Reg(y)),
            5 => a.ffma(d, x, Operand::Reg(y), Operand::imm_f32(0.5)),
            6 => a.shr(d, x, (code % 31) as u32),
            _ => a.imax(d, x, Operand::Reg(y), true),
        }
    };
    if with_loop {
        let i = a.reg();
        let q = a.pred();
        a.mov(i, 0u32);
        a.loop_while(|a| {
            for &code in ops {
                emit(a, code);
            }
            a.iadd(i, i, 1u32);
            // Divergent trip count: lane-dependent bound.
            a.and(tmp, gid, 3u32);
            a.iadd(tmp, tmp, 1u32);
            a.isetp(q, i, Operand::Reg(tmp), CmpOp::Lt, true);
            (q, false)
        });
    } else {
        for &code in ops {
            emit(&mut a, code);
        }
    }
    // Predicated mixing, then store the whole state.
    a.isetp(p, gid, 17u32, CmpOp::Gt, true);
    a.predicated(p, false, |a| a.xor(regs[0], regs[1], Operand::Reg(regs[2])));
    let mut acc = regs[0];
    for &r in &regs[1..] {
        a.xor(acc, acc, Operand::Reg(r));
        acc = regs[0];
    }
    a.mov(addr, a.param(0));
    a.iscadd(addr, gid, Operand::Reg(addr), 2);
    a.st(MemSpace::Global, addr, 0, regs[0]);
    a.build().unwrap()
}

/// Output words per thread of `structured_kernel`: slots 0..6 take the
/// data registers at the end, 6 and 7 the stores made mid-program.
const SLOTS: u32 = 8;

/// The registers and predicates `structured_kernel`'s statements share.
struct Frame {
    gid: Reg,
    tid: Reg,
    tmp: Reg,
    addr: Reg,
    data: [Reg; 6],
    /// Loop counter and bound per nesting depth.
    count: [Reg; 2],
    bound: [Reg; 2],
    /// Guard / branch condition, loop condition, exit condition.
    p: Pred,
    q: Pred,
    e: Pred,
    /// Threads per CTA and per launch (powers of two).
    block: u32,
    threads: u32,
}

/// A random structured kernel over `codes`: each byte picks a statement;
/// `if`, `if/else` and loop statements take the next few bytes as their
/// body, two levels deep. Params: 0 = output (`SLOTS` words per thread),
/// 1 = input (one word per thread). Shared memory: one word per thread.
/// Every thread writes only its own output words and, between barriers,
/// only its own shared word, so any interleaving of warps gives one result.
fn structured_kernel(codes: &[u8], block: u32, threads: u32) -> Kernel {
    let mut a = KernelBuilder::new("structured");
    a.alloc_smem(block * 4);
    let f = Frame {
        gid: a.reg(),
        tid: a.reg(),
        tmp: a.reg(),
        addr: a.reg(),
        data: [a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg()],
        count: [a.reg(), a.reg()],
        bound: [a.reg(), a.reg()],
        p: a.pred(),
        q: a.pred(),
        e: a.pred(),
        block,
        threads,
    };
    a.linear_tid(f.gid, f.tmp);
    a.s2r(f.tid, SpecialReg::TidX);
    for (i, &r) in f.data.iter().enumerate() {
        a.imad(
            r,
            f.gid,
            Operand::Imm((i as u32).wrapping_mul(2654435761)),
            Operand::Imm(i as u32 + 1),
        );
    }
    let mut it = codes.iter().copied();
    while let Some(c) = it.next() {
        statement(&mut a, &f, c, &mut it, 0);
    }
    for (slot, &r) in f.data.iter().enumerate() {
        out_addr(&mut a, &f, slot as u32);
        a.st(MemSpace::Global, f.addr, 0, r);
    }
    a.build().unwrap()
}

/// `f.addr = &out[gid * SLOTS + slot]`.
fn out_addr(a: &mut KernelBuilder, f: &Frame, slot: u32) {
    a.imad(f.addr, f.gid, SLOTS, slot);
    a.mov(f.tmp, a.param(0));
    a.iscadd(f.addr, f.addr, Operand::Reg(f.tmp), 2);
}

/// One ALU instruction over the data registers, chosen by `c`.
fn alu(a: &mut KernelBuilder, f: &Frame, c: u8, k: u8) {
    let d = f.data[(c % 6) as usize];
    let x = f.data[((c >> 2) % 6) as usize];
    let y = f.data[((c >> 4) % 6) as usize];
    match k % 12 {
        0 => a.iadd(d, x, Operand::Reg(y)),
        1 => a.imul(d, x, Operand::Reg(y)),
        2 => a.xor(d, x, Operand::Reg(y)),
        3 => a.iscadd(d, x, Operand::Reg(y), c % 5),
        4 => a.fadd(d, x, Operand::Reg(y)),
        5 => a.ffma(d, x, Operand::Reg(y), Operand::imm_f32(0.5)),
        6 => a.shr(d, x, (c % 31) as u32),
        7 => a.imax(d, x, Operand::Reg(y), true),
        8 => a.sel(d, x, Operand::Reg(y), f.p, c & 1 != 0),
        9 => a.i2f(d, x),
        10 => a.frcp(d, x),
        _ => a.mov(d, a.param(1)),
    }
}

/// Emit the statement `c`, taking a compound statement's body from `it`.
fn statement(
    a: &mut KernelBuilder,
    f: &Frame,
    c: u8,
    it: &mut impl Iterator<Item = u8>,
    depth: usize,
) {
    let x = f.data[((c >> 2) % 6) as usize];
    let d = f.data[(c % 6) as usize];
    let cmp = [CmpOp::Lt, CmpOp::Ge, CmpOp::Ne, CmpOp::Eq][(c >> 6) as usize];
    let body_len = 1 + (c >> 5) as usize % 3;
    // Compound statements and barriers nest only so deep; a barrier or an
    // exit inside divergent code is left out.
    let kind = match c % 11 {
        4..=6 if depth >= 2 => 0,
        8 | 10 if depth > 0 => 7,
        k => k,
    };
    match kind {
        0 | 1 => alu(a, f, c, c / 11),
        2 => {
            // The guard changes mid-run: set, use, flip.
            a.isetp(f.p, x, (c >> 3) as u32, cmp, c & 1 != 0);
            a.predicated(f.p, false, |a| alu(a, f, c.rotate_left(3), c));
            a.predicated(f.p, true, |a| alu(a, f, c.rotate_left(5), c >> 1));
            alu(a, f, c.rotate_left(1), c >> 2);
        }
        3 => {
            // A predicate written, combined, then the next guard.
            a.and(f.tmp, f.gid, 3u32);
            a.isetp(f.q, f.tmp, (c & 3) as u32, CmpOp::Ne, false);
            a.isetp(f.p, x, Operand::Reg(d), cmp, true);
            a.psetp(f.p, f.p, f.q, BoolOp::And, false, c & 1 != 0);
            a.predicated(f.p, c & 2 != 0, |a| alu(a, f, c.rotate_left(2), c));
        }
        4 => {
            // A branch into the middle of a run: the `if` joins where the
            // code after it goes on.
            a.and(f.tmp, x, 7u32);
            a.isetp(f.p, f.tmp, (c >> 4) as u32 & 7, cmp, false);
            a.if_then(f.p, false, |a| body(a, f, it, body_len, depth));
            alu(a, f, c.rotate_left(4), c);
        }
        5 => {
            a.and(f.tmp, f.gid, 1u32);
            a.isetp(f.p, f.tmp, 0u32, CmpOp::Eq, false);
            let split = it.next().unwrap_or(c);
            a.if_then_else(
                f.p,
                c & 1 != 0,
                |a| body(a, f, it, body_len, depth),
                |a| {
                    alu(a, f, split, split >> 1);
                    alu(a, f, split.rotate_left(3), split);
                },
            );
        }
        6 => {
            // A divergent loop of at most four trips.
            let (i, n) = (f.count[depth], f.bound[depth]);
            a.mov(i, 0u32);
            a.loop_while(|a| {
                body(a, f, it, body_len, depth);
                a.iadd(i, i, 1u32);
                a.and(n, x, 3u32);
                a.iadd(n, n, 1u32);
                a.isetp(f.q, i, Operand::Reg(n), CmpOp::Lt, true);
                (f.q, false)
            });
        }
        7 => {
            // This thread's shared word, stored and read back in one run.
            a.shl(f.tmp, f.tid, 2u32);
            a.st(MemSpace::Shared, f.tmp, 0, x);
            alu(a, f, c.rotate_left(2), c);
            a.ld(d, MemSpace::Shared, f.tmp, 0);
            alu(a, f, c.rotate_left(6), c >> 3);
        }
        8 => {
            // Exchange through shared memory across the CTA's warps.
            a.shl(f.tmp, f.tid, 2u32);
            a.st(MemSpace::Shared, f.tmp, 0, x);
            a.bar();
            a.iadd(f.tmp, f.tid, (c >> 4) as u32 * 7 + 1);
            a.and(f.tmp, f.tmp, f.block - 1);
            a.shl(f.tmp, f.tmp, 2u32);
            a.ld(d, MemSpace::Shared, f.tmp, 0);
            alu(a, f, c.rotate_left(1), c);
            a.bar();
        }
        9 => {
            // A global load and a store inside one run.
            a.iadd(f.addr, f.gid, (c >> 3) as u32);
            a.and(f.addr, f.addr, f.threads - 1);
            a.mov(f.tmp, a.param(1));
            a.iscadd(f.addr, f.addr, Operand::Reg(f.tmp), 2);
            a.ld(d, MemSpace::Global, f.addr, 0);
            alu(a, f, c.rotate_left(3), c);
            out_addr(a, f, 6 + (c >> 7) as u32);
            a.st(MemSpace::Global, f.addr, 0, x);
            alu(a, f, c.rotate_left(5), c >> 2);
        }
        _ => {
            // Predicated EXIT of about one lane in eight.
            a.xor(f.tmp, f.gid, c as u32);
            a.and(f.tmp, f.tmp, 7u32);
            a.isetp(f.e, f.tmp, 0u32, CmpOp::Eq, false);
            a.emit_guarded(Op::Exit, f.e, false);
        }
    }
}

fn body(
    a: &mut KernelBuilder,
    f: &Frame,
    it: &mut impl Iterator<Item = u8>,
    len: usize,
    depth: usize,
) {
    let mut any = false;
    for _ in 0..len {
        let Some(c) = it.next() else { break };
        statement(a, f, c, it, depth + 1);
        any = true;
    }
    if !any {
        alu(a, f, len as u8, 0);
    }
}

/// The input words of a structured launch.
fn input(i: u32) -> u32 {
    i.wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995
}

/// A machine holding the input of a structured launch on `threads`
/// threads in CTAs of `block`, and the launch.
fn structured_gpu(mode: Mode, block: u32, threads: u32) -> (Gpu, LaunchConfig) {
    let mut planner = ArenaPlanner::new();
    let out = planner.alloc(threads * SLOTS * 4);
    let inp = planner.alloc(threads * 4);
    let mem = planner.build();
    let mut gpu = Gpu::new(GpuConfig::default(), mem, mode);
    let words: Vec<u32> = (0..threads).map(input).collect();
    gpu.host_write_block(inp, &words);
    (
        gpu,
        LaunchConfig::new(threads / block, block, vec![out, inp]),
    )
}

/// Run a structured kernel on `threads` threads in CTAs of `block`:
/// its result, output words and a counter of `sw`, if one is given.
fn run_structured(
    kernel: &Kernel,
    mode: Mode,
    block: u32,
    threads: u32,
    sw: Option<&mut SwInjector>,
    budget: &Budget,
) -> (Result<Stats, LaunchAbort>, Vec<u32>) {
    let (mut gpu, lc) = structured_gpu(mode, block, threads);
    let out = lc.params[0];
    let plan = match sw {
        Some(s) => FaultPlan::Sw(s),
        None => FaultPlan::None,
    };
    let res = gpu.launch(kernel, &lc, plan, budget);
    (res, gpu.host_read_block(out, threads * SLOTS))
}

/// The instruction counters of `Stats`, which both engines keep alike.
fn instr_counters(s: &Stats) -> [u64; 14] {
    let c = s.class_dest_instrs;
    [
        s.warp_instrs,
        s.thread_instrs,
        s.load_instrs,
        s.store_instrs,
        s.smem_instrs,
        s.gp_dest_instrs,
        s.ld_dest_instrs,
        s.src_reg_instrs,
        c[0],
        c[1],
        c[2],
        c[3],
        c[4],
        c[5],
    ]
}

/// Every software fault kind.
fn sw_kinds() -> Vec<SwFaultKind> {
    let mut kinds = vec![
        SwFaultKind::DestValue,
        SwFaultKind::DestValueLoad,
        SwFaultKind::SrcTransient,
        SwFaultKind::SrcPersistent,
        SwFaultKind::ArchState,
    ];
    kinds.extend(InstrClass::ALL.map(SwFaultKind::DestClass));
    kinds
}

const PATTERNS: [FaultPattern; 7] = [
    FaultPattern::SingleBit,
    FaultPattern::DoubleAdjacent,
    FaultPattern::WholeEntry,
    FaultPattern::BurstRow,
    FaultPattern::BurstCol,
    FaultPattern::StuckAt0,
    FaultPattern::StuckAt1,
];

/// A probe sink that drops what it is told.
struct Discard;

impl TraceSink for Discard {
    fn consume(&mut self, _: &[ProbeEvent]) {}
}

/// What a faulty launch left: its result, the injector's `applied` and
/// `population`, device memory, and the arena as the host reads it
/// (through the L2).
type Ending = (Result<Stats, LaunchAbort>, bool, u64, GlobalMem, Vec<u32>);

fn ending(gpu: &Gpu, res: Result<Stats, LaunchAbort>, inj: &UarchInjector) -> Ending {
    let host = gpu.host_read_block(0, gpu.mem().size() / 4);
    (res, inj.applied, inj.population, gpu.mem().clone(), host)
}

fn run(kernel: &Kernel, mode: Mode, n: u32) -> Vec<u32> {
    let mut planner = ArenaPlanner::new();
    let out = planner.alloc(n * 4);
    let mem = planner.build();
    let mut gpu = Gpu::new(GpuConfig::default(), mem, mode);
    let lc = LaunchConfig::new(n / 64, 64, vec![out]);
    gpu.launch(kernel, &lc, FaultPlan::None, &Budget::unlimited())
        .unwrap();
    gpu.host_read_block(out, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Timed and functional engines agree on arbitrary ALU programs.
    #[test]
    fn engines_agree_on_random_programs(
        ops in prop::collection::vec(any::<u8>(), 1..40),
        with_loop in any::<bool>(),
    ) {
        let k = random_kernel(&ops, with_loop);
        let n = 256;
        prop_assert_eq!(run(&k, Mode::Timed, n), run(&k, Mode::Functional, n));
    }

    /// Any microarchitecture fault either completes (masked/SDC) or aborts
    /// cleanly — the simulator must never panic, hang, or corrupt itself.
    #[test]
    fn uarch_faults_always_classify(
        ops in prop::collection::vec(any::<u8>(), 1..20),
        cycle_frac in 0.0f64..1.0,
        pick in any::<u64>(),
        bit in 0u8..32,
        structure in 0usize..5,
    ) {
        let k = random_kernel(&ops, false);
        let n = 256;
        let golden = {
            let mut planner = ArenaPlanner::new();
            let out = planner.alloc(n * 4);
            let mem = planner.build();
            let mut gpu = Gpu::new(GpuConfig::default(), mem, Mode::Timed);
            let lc = LaunchConfig::new(n / 64, 64, vec![out]);
            gpu.launch(&k, &lc, FaultPlan::None, &Budget::unlimited()).unwrap()
        };
        let mut planner = ArenaPlanner::new();
        let out = planner.alloc(n * 4);
        let mem = planner.build();
        let mut gpu = Gpu::new(GpuConfig::default(), mem, Mode::Timed);
        let lc = LaunchConfig::new(n / 64, 64, vec![out]);
        let mut inj = UarchInjector::new(UarchFault {
            cycle: ((golden.cycles as f64) * cycle_frac) as u64,
            structure: HwStructure::ALL[structure],
            loc_pick: pick,
            bit,
            pattern: vgpu_sim::FaultPattern::SingleBit,
        });
        let budget = Budget { cycles: golden.cycles * 10 + 1000, instrs: u64::MAX / 2 };
        // Either outcome is fine; not panicking/hanging is the property.
        let _ = gpu.launch(&k, &lc, FaultPlan::Uarch(&mut inj), &budget);
    }

    /// Software faults likewise always classify, and a fault whose target
    /// index lies inside the eligible stream is always applied.
    #[test]
    fn sw_faults_always_classify_and_apply(
        ops in prop::collection::vec(any::<u8>(), 1..20),
        frac in 0.0f64..1.0,
        bit in 0u8..32,
    ) {
        let k = random_kernel(&ops, false);
        let n = 256;
        let golden = {
            let mut planner = ArenaPlanner::new();
            let out = planner.alloc(n * 4);
            let mem = planner.build();
            let mut gpu = Gpu::new(GpuConfig::default(), mem, Mode::Functional);
            let lc = LaunchConfig::new(n / 64, 64, vec![out]);
            gpu.launch(&k, &lc, FaultPlan::None, &Budget::unlimited()).unwrap()
        };
        let target = ((golden.gp_dest_instrs.saturating_sub(1)) as f64 * frac) as u64;
        let mut planner = ArenaPlanner::new();
        let out = planner.alloc(n * 4);
        let mem = planner.build();
        let mut gpu = Gpu::new(GpuConfig::default(), mem, Mode::Functional);
        let lc = LaunchConfig::new(n / 64, 64, vec![out]);
        let mut inj = SwInjector::new(SwFault { kind: SwFaultKind::DestValue, target, bit, loc_pick: 0, pattern: vgpu_sim::FaultPattern::SingleBit });
        let budget = Budget { cycles: u64::MAX / 2, instrs: golden.thread_instrs * 10 + 1000 };
        let res = gpu.launch(&k, &lc, FaultPlan::Sw(&mut inj), &budget);
        if res.is_ok() {
            prop_assert!(inj.applied, "in-stream target must fire");
        }
    }

    /// Structured programs over two CTAs of two warps: both engines leave
    /// the same memory and the same instruction counters, fault-free.
    #[test]
    fn engines_agree_on_structured_programs(
        codes in prop::collection::vec(any::<u8>(), 1..48),
    ) {
        let (block, threads) = (64, 128);
        let k = structured_kernel(&codes, block, threads);
        let none = Budget::unlimited();
        let (t, t_out) = run_structured(&k, Mode::Timed, block, threads, None, &none);
        let (f, f_out) = run_structured(&k, Mode::Functional, block, threads, None, &none);
        let (t, f) = (t.unwrap(), f.unwrap());
        prop_assert_eq!(instr_counters(&t), instr_counters(&f));
        prop_assert_eq!(t_out, f_out);
    }

    /// Every software fault kind and pattern on a single-warp launch of a
    /// structured program: both engines leave the same memory, and the
    /// injectors the same `applied`, `stuck` and `counter`, or both end in
    /// the same DUE.
    #[test]
    fn sw_faults_agree_across_engines_on_one_warp(
        codes in prop::collection::vec(any::<u8>(), 1..40),
        frac in 0.0f64..1.0,
        bit in 0u8..32,
        pick in any::<u64>(),
    ) {
        let (block, threads) = (32, 32);
        let k = structured_kernel(&codes, block, threads);
        let none = Budget::unlimited();
        let (golden, _) = run_structured(&k, Mode::Timed, block, threads, None, &none);
        let golden = golden.unwrap();
        let budget = Budget {
            cycles: golden.cycles * 20 + 10_000,
            instrs: golden.thread_instrs * 20 + 1_000,
        };
        for kind in sw_kinds() {
            let target = (kind.eligible(&golden) as f64 * frac) as u64;
            for pattern in PATTERNS {
                let fault = SwFault { kind, target, bit, loc_pick: pick, pattern };
                let mut ti = SwInjector::new(fault);
                let mut fi = SwInjector::new(fault);
                let (t, t_out) =
                    run_structured(&k, Mode::Timed, block, threads, Some(&mut ti), &budget);
                let (f, f_out) =
                    run_structured(&k, Mode::Functional, block, threads, Some(&mut fi), &budget);
                let what = format!("{kind:?} {pattern:?} target {target}");
                match (&t, &f) {
                    // The budgets count cycles on one engine and
                    // thread-instructions on the other, so a long faulty
                    // run may time out on one of them only.
                    (Err(LaunchAbort::Timeout), _) | (_, Err(LaunchAbort::Timeout)) => continue,
                    (Ok(_), Ok(_)) => prop_assert_eq!(&t_out, &f_out, "{}", what),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", what),
                    _ => prop_assert!(false, "{what}: timed {t:?}, functional {f:?}"),
                }
                prop_assert_eq!(ti.applied, fi.applied, "{}", what);
                prop_assert_eq!(ti.stuck, fi.stuck, "{}", what);
                prop_assert_eq!(ti.counter, fi.counter, "{}", what);
                if target < kind.eligible(&golden) {
                    prop_assert!(fi.applied, "{}: an in-stream target fires", what);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deferred pure ops are exact under faults. A structured launch of
    /// four warps in two CTAs takes a microarchitecture fault at a random
    /// cycle in each injectable structure, once transient and once
    /// stuck-at. Run with a probe attached, every op runs at its issue;
    /// run without one, from cycle 0 and resumed from the latest golden
    /// snapshot at or before the fault with the convergence exit on, pure
    /// ops wait for the warp's next impure issue. All three must leave the
    /// same outcome, `Stats`, injector and memory.
    #[test]
    fn deferred_ops_match_eager_ones_under_faults(
        codes in prop::collection::vec(any::<u8>(), 1..40),
        cycle_frac in 0.0f64..1.0,
        pick in any::<u64>(),
        bit in 0u8..32,
        transient in 0usize..5,
        stuck in 5usize..7,
    ) {
        let (block, threads) = (64, 128);
        let k = structured_kernel(&codes, block, threads);
        let none = Budget::unlimited();
        let (mut gpu, lc) = structured_gpu(Mode::Timed, block, threads);
        let cycles = gpu.launch(&k, &lc, FaultPlan::None, &none).unwrap().cycles;
        // The golden run again, captured at four cycles and at its end.
        let (mut gpu, _) = structured_gpu(Mode::Timed, block, threads);
        let mut store = ChunkStore::new();
        let at: Vec<u64> = (0..4).map(|i| cycles * i / 4).collect();
        let (golden, mids) = gpu.launch_instrumented(&k, &lc, &none, &at, &mut store).unwrap();
        let end = gpu.capture(&mut store);
        let budget = Budget { cycles: cycles * 20 + 10_000, instrs: u64::MAX / 2 };

        for structure in HwStructure::INJECTABLE {
            for pattern in [PATTERNS[transient], PATTERNS[stuck]] {
                let fault = UarchFault {
                    cycle: (cycles as f64 * cycle_frac) as u64,
                    structure,
                    loc_pick: pick,
                    bit,
                    pattern,
                };
                let what = format!("{structure:?} {pattern:?} at cycle {}", fault.cycle);
                let from_zero = |probed: bool| {
                    let (mut gpu, lc) = structured_gpu(Mode::Timed, block, threads);
                    if probed {
                        gpu.attach_probe(Arc::new(Mutex::new(Discard)));
                    }
                    let mut inj = UarchInjector::new(fault);
                    let res = gpu.launch(&k, &lc, FaultPlan::Uarch(&mut inj), &budget);
                    ending(&gpu, res, &inj)
                };
                let eager = from_zero(true);
                prop_assert_eq!(&from_zero(false), &eager, "{} from cycle 0", what);

                let snap = *mids
                    .iter()
                    .rev()
                    .find(|&&s| store.cycle(s).unwrap() <= fault.cycle)
                    .expect("a snapshot at cycle 0");
                let (mut gpu, lc) = structured_gpu(Mode::Timed, block, threads);
                let mut inj = UarchInjector::new(fault);
                let converge = ConvergeWith { snaps: &mids, end_stats: golden };
                let res = gpu.resume_from(&store, snap, &k, &lc, Some(&mut inj), &budget, Some(converge));
                // A converged run stops where it met golden; the rest of
                // the launch is golden's.
                if res.as_ref().is_ok_and(|r| r.converged_at.is_some()) {
                    gpu.restore(&store, end);
                }
                let resumed = ending(&gpu, res.map(|r| r.stats), &inj);
                prop_assert_eq!(&resumed, &eager, "{} resumed", what);
            }
        }
    }
}
