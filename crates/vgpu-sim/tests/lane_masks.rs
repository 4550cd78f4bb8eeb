//! The interpreter against a per-lane model. `step_warp` evaluates an op on
//! all 32 lanes at once and writes back under the exec mask; the model
//! here evaluates it lane by lane, touching active lanes only. One random
//! instruction of every lane-parallel kind, with random operand kinds,
//! register words (NaN, ±inf and subnormal patterns included) and exec
//! masks (none, one lane, partial, all): the DUE, or else every register,
//! predicate and memory word, must agree — and no inactive lane's register
//! or predicate bit may change.
//!
//! `proptest_engines.rs` cannot catch a mistake here: both of its engines
//! run through this same `step_warp`.
//!
//! Then the row paths that the random instruction rarely reaches: global
//! rows of 32 consecutive words, FFMA rows bit for bit against
//! `f32::mul_add`, every shape of a shared-memory access (the DUE lane, the
//! stores before it, two lanes on one word, each bank-conflict degree, the
//! probe events), and the per-pc facts of every app kernel against its ops.

use proptest::prelude::*;
use vgpu_arch::{
    BoolOp, CmpOp, Instr, InstrClass, Kernel, MemAccess, MemSpace, Op, Operand, Pred, Reg,
    SpecialReg, WARP_SIZE,
};
use vgpu_sim::exec::{
    ffma_row, ffma_row_lanes, step_warp, ExecCtx, FlatMem, GMem, IssueClass, StepEvent,
};
use vgpu_sim::warp::Warp;
use vgpu_sim::{DueKind, GlobalMem, Stats};

const NUM_REGS: u8 = 8;
const SMEM_WORDS: usize = 16;
/// The mapped global ranges `[start, end)`, with a guard gap between.
const GLOBAL: [(u32, u32); 2] = [(0x1000, 0x1100), (0x1200, 0x1280)];
const PARAMS: [u32; 4] = [0x1000, 7, 0x3f80_0000, 0xffff_fffc];
/// `(warp_in_cta, ctaid_x, ctaid_y, ntid, nctaid)` of the stepped warp.
const GEOM: (u32, u32, u32, u32, u32) = (3, 5, 2, 160, 9);

/// Words that exercise edge cases: NaNs (quiet, signalling, negative),
/// ±inf, ±0, subnormals, ±1.0, extreme integers and shift amounts.
const SPECIAL: [u32; 18] = [
    0x7fc0_0000,
    0x7f80_0001,
    0xffc0_0001,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x807f_ffff,
    0x3f80_0000,
    0xbf80_0000,
    0x7fff_ffff,
    0xffff_ffff,
    0x4f00_0000,
    31,
    32,
    33,
    0xffff_fffc,
];

fn word() -> BoxedStrategy<u32> {
    prop_oneof![
        any::<u32>(),
        (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        0u32..64,
    ]
    .boxed()
}

fn operand() -> BoxedStrategy<Operand> {
    prop_oneof![
        (0..NUM_REGS).prop_map(|r| Operand::Reg(Reg(r))),
        word().prop_map(Operand::Imm),
        (0..PARAMS.len() as u16).prop_map(Operand::Const),
    ]
    .boxed()
}

const CMPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];
const SRS: [SpecialReg; 6] = [
    SpecialReg::TidX,
    SpecialReg::CtaIdX,
    SpecialReg::CtaIdY,
    SpecialReg::NTidX,
    SpecialReg::NCtaIdX,
    SpecialReg::LaneId,
];
const OFFS: [i32; 6] = [0, 0, 4, -4, 60, -0x1000];

/// Every lane-parallel op kind (31 codes), its fields drawn from `x`.
fn make_op(code: u8, d: u8, a: u8, b: Operand, c: Operand, x: u32) -> Op {
    let (d, a) = (Reg(d), Reg(a));
    let bit = |i: u32| x >> i & 1 != 0;
    let p = Pred((x >> 4 & 3) as u8);
    let cmp = CMPS[(x >> 8) as usize % CMPS.len()];
    let off = OFFS[(x >> 12) as usize % OFFS.len()];
    let b_reg = match b {
        Operand::Reg(r) => r,
        _ => Reg((x >> 16) as u8 % NUM_REGS),
    };
    match code {
        0 => Op::S2R {
            d,
            sr: SRS[x as usize % SRS.len()],
        },
        1 => Op::Mov { d, a: b },
        2 => Op::IAdd { d, a, b },
        3 => Op::ISub { d, a, b },
        4 => Op::IMul { d, a, b },
        5 => Op::IMad { d, a, b, c },
        6 => Op::IScAdd {
            d,
            a,
            b,
            shift: (x >> 20) as u8,
        },
        7 => Op::IMnMx {
            d,
            a,
            b,
            max: bit(0),
            signed: bit(1),
        },
        8 => Op::Shl { d, a, b },
        9 => Op::Shr { d, a, b },
        10 => Op::And { d, a, b },
        11 => Op::Or { d, a, b },
        12 => Op::Xor { d, a, b },
        13 => Op::Not { d, a },
        14 => Op::FAdd { d, a, b },
        15 => Op::FMul { d, a, b },
        16 => Op::FFma { d, a, b, c },
        17 => Op::FMnMx {
            d,
            a,
            b,
            max: bit(0),
        },
        18 => Op::FRcp { d, a },
        19 => Op::FSqrt { d, a },
        20 => Op::FExp { d, a },
        21 => Op::FLog { d, a },
        22 => Op::FAbs { d, a },
        23 => Op::I2F { d, a },
        24 => Op::F2I { d, a },
        25 => Op::ISetP {
            p,
            a,
            b,
            cmp,
            signed: bit(0),
        },
        26 => Op::FSetP { p, a, b, cmp },
        27 => Op::PSetP {
            p,
            a: Pred((x >> 6 & 3) as u8),
            b: Pred((x >> 24 & 3) as u8),
            op: [BoolOp::And, BoolOp::Or, BoolOp::Xor][(x >> 26) as usize % 3],
            na: bit(0),
            nb: bit(1),
        },
        28 => Op::Sel {
            d,
            a,
            b,
            p,
            neg: bit(0),
        },
        29 => Op::Ld {
            d,
            space: [MemSpace::Global, MemSpace::Shared, MemSpace::Tex][x as usize % 3],
            a,
            off,
        },
        _ => Op::St {
            space: [MemSpace::Global, MemSpace::Shared][x as usize % 2],
            a,
            off,
            v: b_reg,
        },
    }
}

/// Everything one instruction can change.
#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: Vec<u32>,
    preds: [u32; 4],
    smem: Vec<u32>,
    mem: GlobalMem,
}

/// The op on the lanes of `mask`, one lane at a time, in ascending order.
/// Global accesses validate every active lane before touching memory;
/// shared accesses validate each lane as they reach it.
fn model(op: &Op, mask: u32, st: &mut State) -> Result<(), DueKind> {
    let (warp_in_cta, ctaid_x, ctaid_y, ntid, nctaid) = GEOM;
    let f = f32::from_bits;
    let fb = f32::to_bits;
    let active = || (0..WARP_SIZE).filter(move |l| mask >> l & 1 != 0);
    let at = |r: Reg, l: usize| r.0 as usize * WARP_SIZE + l;
    let global = |st: &State, a: Reg, off: i32| -> Result<(), DueKind> {
        for l in active() {
            let addr = st.regs[at(a, l)].wrapping_add(off as u32);
            if !addr.is_multiple_of(4) {
                return Err(DueKind::Misaligned { addr });
            }
            if !GLOBAL
                .iter()
                .any(|&(s, e)| s <= addr && addr as u64 + 4 <= e as u64)
            {
                return Err(DueKind::IllegalAddress { addr });
            }
        }
        Ok(())
    };
    match *op {
        Op::Ld {
            space: MemSpace::Global | MemSpace::Tex,
            a,
            off,
            ..
        }
        | Op::St {
            space: MemSpace::Global,
            a,
            off,
            ..
        } => global(st, a, off)?,
        _ => {}
    }
    for l in active() {
        let r = |st: &State, r: Reg| st.regs[at(r, l)];
        let o = |st: &State, o: Operand| match o {
            Operand::Reg(x) => st.regs[at(x, l)],
            Operand::Imm(v) => v,
            Operand::Const(i) => PARAMS[i as usize],
        };
        let pbit = |st: &State, p: Pred| st.preds[p.0 as usize] >> l & 1 != 0;
        let fcmp = |cmp: CmpOp, x: f32, y: f32| match x.partial_cmp(&y) {
            Some(ord) => cmp.eval(ord),
            None => cmp == CmpOp::Ne,
        };
        let value = match *op {
            Op::S2R { sr, .. } => Some(match sr {
                SpecialReg::TidX => warp_in_cta * WARP_SIZE as u32 + l as u32,
                SpecialReg::CtaIdX => ctaid_x,
                SpecialReg::CtaIdY => ctaid_y,
                SpecialReg::NTidX => ntid,
                SpecialReg::NCtaIdX => nctaid,
                SpecialReg::LaneId => l as u32,
            }),
            Op::Mov { a, .. } => Some(o(st, a)),
            Op::IAdd { a, b, .. } => Some(r(st, a).wrapping_add(o(st, b))),
            Op::ISub { a, b, .. } => Some(r(st, a).wrapping_sub(o(st, b))),
            Op::IMul { a, b, .. } => Some(r(st, a).wrapping_mul(o(st, b))),
            Op::IMad { a, b, c, .. } => {
                Some(r(st, a).wrapping_mul(o(st, b)).wrapping_add(o(st, c)))
            }
            Op::IScAdd { a, b, shift, .. } => {
                Some((r(st, a) << (shift as u32 % 32)).wrapping_add(o(st, b)))
            }
            Op::IMnMx {
                a, b, max, signed, ..
            } => {
                let (x, y) = (r(st, a), o(st, b));
                Some(match (max, signed) {
                    (true, true) => (x as i32).max(y as i32) as u32,
                    (false, true) => (x as i32).min(y as i32) as u32,
                    (true, false) => x.max(y),
                    (false, false) => x.min(y),
                })
            }
            Op::Shl { a, b, .. } => Some(match o(st, b) {
                y if y < 32 => r(st, a) << y,
                _ => 0,
            }),
            Op::Shr { a, b, .. } => Some(match o(st, b) {
                y if y < 32 => r(st, a) >> y,
                _ => 0,
            }),
            Op::And { a, b, .. } => Some(r(st, a) & o(st, b)),
            Op::Or { a, b, .. } => Some(r(st, a) | o(st, b)),
            Op::Xor { a, b, .. } => Some(r(st, a) ^ o(st, b)),
            Op::Not { a, .. } => Some(!r(st, a)),
            Op::FAdd { a, b, .. } => Some(fb(f(r(st, a)) + f(o(st, b)))),
            Op::FMul { a, b, .. } => Some(fb(f(r(st, a)) * f(o(st, b)))),
            Op::FFma { a, b, c, .. } => Some(fb(f(r(st, a)).mul_add(f(o(st, b)), f(o(st, c))))),
            Op::FMnMx { a, b, max, .. } => {
                let (x, y) = (f(r(st, a)), f(o(st, b)));
                Some(fb(if max { x.max(y) } else { x.min(y) }))
            }
            Op::FRcp { a, .. } => Some(fb(1.0 / f(r(st, a)))),
            Op::FSqrt { a, .. } => Some(fb(f(r(st, a)).sqrt())),
            Op::FExp { a, .. } => Some(fb(f(r(st, a)).exp())),
            Op::FLog { a, .. } => Some(fb(f(r(st, a)).ln())),
            Op::FAbs { a, .. } => Some(r(st, a) & 0x7fff_ffff),
            Op::I2F { a, .. } => Some(fb(r(st, a) as i32 as f32)),
            Op::F2I { a, .. } => Some(f(r(st, a)) as i32 as u32),
            Op::Sel { a, b, p, neg, .. } => Some(if pbit(st, p) ^ neg {
                r(st, a)
            } else {
                o(st, b)
            }),
            Op::Ld { space, a, off, .. } | Op::St { space, a, off, .. } => {
                let addr = r(st, a).wrapping_add(off as u32);
                let smem_word = || -> Result<usize, DueKind> {
                    if !addr.is_multiple_of(4) {
                        return Err(DueKind::Misaligned { addr });
                    }
                    if addr as u64 + 4 > (SMEM_WORDS * 4) as u64 {
                        return Err(DueKind::SmemOutOfBounds { off: addr });
                    }
                    Ok(addr as usize / 4)
                };
                match (*op, space) {
                    (Op::Ld { .. }, MemSpace::Shared) => Some(st.smem[smem_word()?]),
                    (Op::Ld { .. }, _) => Some(st.mem.read_u32(addr)),
                    (Op::St { v, .. }, MemSpace::Shared) => {
                        st.smem[smem_word()?] = r(st, v);
                        None
                    }
                    (Op::St { v, .. }, _) => {
                        let v = r(st, v);
                        st.mem.write_u32(addr, v);
                        None
                    }
                    _ => unreachable!(),
                }
            }
            _ => None,
        };
        if let (Some(d), Some(v)) = (op.dst_reg(), value) {
            st.regs[at(d, l)] = v;
        }
        let pred = match *op {
            Op::ISetP {
                p,
                a,
                b,
                cmp,
                signed,
            } => {
                let (x, y) = (r(st, a), o(st, b));
                let ord = if signed {
                    (x as i32).cmp(&(y as i32))
                } else {
                    x.cmp(&y)
                };
                Some((p, cmp.eval(ord)))
            }
            Op::FSetP { p, a, b, cmp } => Some((p, fcmp(cmp, f(r(st, a)), f(o(st, b))))),
            Op::PSetP {
                p,
                a,
                b,
                op,
                na,
                nb,
            } => Some((p, op.eval(pbit(st, a) ^ na, pbit(st, b) ^ nb))),
            _ => None,
        };
        if let Some((p, v)) = pred {
            let bit = 1u32 << l;
            let q = &mut st.preds[p.0 as usize];
            *q = if v { *q | bit } else { *q & !bit };
        }
    }
    Ok(())
}

/// Step `op`, guarded by `@[!]P<g>`, once on a fresh warp holding `st`.
fn interpret(op: Op, g: Pred, negate: bool, st: &mut State) -> Result<StepEvent, DueKind> {
    let (warp_in_cta, ctaid_x, ctaid_y, ntid, nctaid) = GEOM;
    let kernel = Kernel::new(
        "lane",
        vec![Instr::guarded(op, g, negate), Instr::new(Op::Exit)],
        NUM_REGS,
        (SMEM_WORDS * 4) as u32,
    )
    .unwrap();
    let mut w = Warp::new(ctaid_x, ctaid_y, warp_in_cta, u32::MAX, 0);
    w.preds = st.preds;
    let mut stats = Stats::default();
    let mut flat = FlatMem { mem: &mut st.mem };
    let mut ctx = ExecCtx {
        kernel: &kernel,
        params: &PARAMS,
        ntid,
        nctaid,
        regs: &mut st.regs,
        smem: &mut st.smem,
        mem: &mut flat,
        stats: &mut stats,
        sw: None,
        max_stack: 64,
    };
    let ev = step_warp(&mut w, &mut ctx);
    st.preds = w.preds;
    ev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn lane_parallel_ops_match_the_per_lane_model(
        op in (0u8..31, 0..NUM_REGS, 0..NUM_REGS, operand(), operand(), any::<u32>())
            .prop_map(|(code, d, a, b, c, x)| make_op(code, d, a, b, c, x)),
        regs in prop::collection::vec(word(), NUM_REGS as usize * WARP_SIZE),
        valid in prop::collection::vec(any::<u32>(), WARP_SIZE),
        guard in (0u8..4, any::<u32>(), 0u8..4, any::<bool>()),
        preds in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let (mask_kind, bits, g, negate) = guard;
        let mask = match mask_kind {
            0 => 0,
            1 => 1 << (bits % 32),
            2 => bits,
            _ => u32::MAX,
        };
        let mut mem = GlobalMem::new(0x2000);
        for (s, e) in GLOBAL {
            mem.map(s, e - s);
            for addr in (s..e).step_by(4) {
                mem.write_u32(addr, addr.wrapping_mul(0x9e37_79b9));
            }
        }
        let mut before = State {
            regs,
            preds: [preds.0, preds.1, preds.2, preds.3],
            smem: (0..SMEM_WORDS as u32).map(|i| !i).collect(),
            mem,
        };
        // Memory ops: most lanes of the address register point inside
        // the space, so runs that do not end in a DUE are common.
        if let Op::Ld { space, a, .. } | Op::St { space, a, .. } = op {
            for (l, &v) in valid.iter().enumerate() {
                let (s, e) = match space {
                    MemSpace::Shared => (0, SMEM_WORDS as u32 * 4),
                    _ => GLOBAL[(v >> 3) as usize % 2],
                };
                // Half of them on a space's last two words, so an offset
                // can carry them just past its end.
                let words = (e - s) / 4;
                let k = if v & 8 != 0 { words - 1 - (v >> 4) % 2 } else { (v >> 4) % words };
                if v % 8 != 0 {
                    before.regs[a.0 as usize * WARP_SIZE + l] = s + 4 * k;
                }
            }
        }
        let g = Pred(g);
        before.preds[g.0 as usize] = if negate { !mask } else { mask };

        let mut want = before.clone();
        let want_res = model(&op, mask, &mut want);
        let mut got = before.clone();
        let got_res = interpret(op, g, negate, &mut got);
        match (want_res, got_res) {
            (Err(w), Err(e)) => prop_assert_eq!(w, e, "{:?} mask {:#x}", op, mask),
            (Ok(()), Ok(StepEvent::Issued(_))) => {
                for (i, (&b, &a)) in before.regs.iter().zip(&got.regs).enumerate() {
                    if mask >> (i % WARP_SIZE) & 1 == 0 {
                        prop_assert_eq!(b, a, "{:?}: inactive lane {} of R{} written", op, i % WARP_SIZE, i / WARP_SIZE);
                    }
                }
                for (p, (&b, &a)) in before.preds.iter().zip(&got.preds).enumerate() {
                    prop_assert_eq!(b & !mask, a & !mask, "{:?}: inactive bits of P{} written", op, p);
                }
                prop_assert_eq!(&want, &got, "{:?} mask {:#x}", op, mask);
            }
            (w, e) => panic!("{op:?} mask {mask:#x}: model {w:?}, interpreter {e:?}"),
        }
    }
}

#[test]
fn global_rows_of_consecutive_words_match_the_per_lane_model() {
    // Full warps on 32 consecutive words move as one piece when the row
    // lies in one mapped range; every other row takes the lane path.
    let (r0, r1) = (GLOBAL[0].0, GLOBAL[1].0);
    let bases = [
        r0,
        r0 + 0x40,
        r0 + 0x80,   // ends exactly at the range's end
        r0 + 0x84,   // lane 31 past the end
        r1,          // the whole second range
        r1 - 0x40,   // starts in the guard gap
        r0 + 2,      // misaligned
        0xffff_ffc0, // wraps around the address space
    ];
    for base in bases {
        for mask in [u32::MAX, 0x7fff_ffff, 0xffff_fffe] {
            for op in [
                Op::Ld {
                    d: Reg(1),
                    space: MemSpace::Global,
                    a: Reg(0),
                    off: 0,
                },
                Op::St {
                    space: MemSpace::Global,
                    a: Reg(0),
                    off: 0,
                    v: Reg(2),
                },
            ] {
                let mut mem = GlobalMem::new(0x2000);
                for (s, e) in GLOBAL {
                    mem.map(s, e - s);
                    for addr in (s..e).step_by(4) {
                        mem.write_u32(addr, addr.wrapping_mul(0x9e37_79b9));
                    }
                }
                let mut regs = vec![0u32; NUM_REGS as usize * WARP_SIZE];
                for l in 0..WARP_SIZE {
                    regs[l] = base.wrapping_add(4 * l as u32);
                    regs[2 * WARP_SIZE + l] = 0x5000 + l as u32;
                }
                let before = State {
                    regs,
                    preds: [mask, 0, 0, 0],
                    smem: vec![0; SMEM_WORDS],
                    mem,
                };
                let mut want = before.clone();
                let want_res = model(&op, mask, &mut want);
                let mut got = before.clone();
                let got_res = interpret(op, Pred(0), false, &mut got).map(|_| ());
                assert_eq!(got_res, want_res, "{op:?} base {base:#x} mask {mask:#x}");
                assert_eq!(got, want, "{op:?} base {base:#x} mask {mask:#x}");
            }
        }
    }
}

/// Words for FFMA operands: ±0, subnormals, normals, ±max, ±inf, and
/// NaNs with distinct payloads (quiet and signalling, both signs).
const FMA_WORDS: [u32; 20] = [
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x8000_0001,
    0x007f_ffff,
    0x0080_0000,
    0x3f80_0000,
    0xbf80_0000,
    0x4040_0000,
    0x3eaa_aaab,
    0x7f7f_ffff,
    0xff7f_ffff,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_0000,
    0x7fc0_1234,
    0xffc0_0abc,
    0x7f80_0001,
    0xff80_5555,
    0x7fa0_0007,
];

#[test]
fn ffma_rows_match_per_lane_mul_add_bit_for_bit() {
    let f = f32::from_bits;
    // Every ordered triple of FMA_WORDS (so one, two and three NaN
    // operands, each with its own payload), then pseudo-random words.
    let mut triples: Vec<[u32; 3]> = Vec::new();
    for &a in &FMA_WORDS {
        for &b in &FMA_WORDS {
            for &c in &FMA_WORDS {
                triples.push([a, b, c]);
            }
        }
    }
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..32 * 64 {
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        };
        triples.push([next(), next(), next()]);
    }
    let nan_operands = |t: &[u32; 3]| t.iter().filter(|&&w| f(w).is_nan()).count();
    for n in 0..=3 {
        assert!(triples.iter().any(|t| nan_operands(t) == n));
    }
    for chunk in triples.chunks(WARP_SIZE) {
        let mut rows = [[0u32; WARP_SIZE]; 3];
        for (l, t) in chunk.iter().enumerate() {
            for (row, &w) in rows.iter_mut().zip(t) {
                row[l] = w;
            }
        }
        let [a, b, c] = &rows;
        let hw = ffma_row(a, b, c);
        let portable = ffma_row_lanes(a, b, c);
        for l in 0..chunk.len() {
            let want = f(a[l]).mul_add(f(b[l]), f(c[l])).to_bits();
            assert_eq!(hw[l], want, "ffma_row {:08x?}", chunk[l]);
            assert_eq!(portable[l], want, "ffma_row_lanes {:08x?}", chunk[l]);
        }
    }
}

/// Shared words of the shared-memory shape tests: 32 banks, 32 deep.
const BIG_SMEM: usize = 1024;

/// [`FlatMem`] that records the shared-memory probe events it is given,
/// and reports itself probed only when `on`.
struct SmemProbe<'a> {
    flat: FlatMem<'a>,
    on: bool,
    events: Vec<(usize, bool)>,
}

impl GMem for SmemProbe<'_> {
    fn load(
        &mut self,
        tex: bool,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        self.flat.load(tex, mask, addrs, out)
    }

    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        self.flat.store(mask, addrs, vals)
    }

    fn probed(&self) -> bool {
        self.on
    }

    fn probe_smem(&mut self, word: usize, write: bool) {
        self.events.push((word, write));
    }
}

/// One shared-memory access and what it left behind.
struct SmemRun {
    res: Result<StepEvent, DueKind>,
    /// R1: the load destination, `0xdead_0000 + lane` before.
    dst: Vec<u32>,
    /// Shared memory, `!word` before.
    smem: Vec<u32>,
    events: Vec<(usize, bool)>,
}

/// Step `LD.S R1, [R0]` (or `ST.S [R0], R2` with `R2 = 0x100 + lane`) on
/// the lanes of `mask`, with `R0 = addrs`.
fn smem_step(store: bool, mask: u32, addrs: [u32; WARP_SIZE], probed: bool) -> SmemRun {
    let (a, d, v) = (Reg(0), Reg(1), Reg(2));
    let op = if store {
        Op::St {
            space: MemSpace::Shared,
            a,
            off: 0,
            v,
        }
    } else {
        Op::Ld {
            d,
            space: MemSpace::Shared,
            a,
            off: 0,
        }
    };
    let kernel = Kernel::new(
        "smem",
        vec![Instr::new(op), Instr::new(Op::Exit)],
        3,
        (BIG_SMEM * 4) as u32,
    )
    .unwrap();
    let mut regs = vec![0u32; 3 * WARP_SIZE];
    for l in 0..WARP_SIZE {
        regs[l] = addrs[l];
        regs[WARP_SIZE + l] = 0xdead_0000 + l as u32;
        regs[2 * WARP_SIZE + l] = 0x100 + l as u32;
    }
    let mut smem: Vec<u32> = (0..BIG_SMEM as u32).map(|i| !i).collect();
    let mut global = GlobalMem::new(64);
    let mut mem = SmemProbe {
        flat: FlatMem { mem: &mut global },
        on: probed,
        events: Vec::new(),
    };
    let mut stats = Stats::default();
    let mut w = Warp::new(0, 0, 0, mask, 0);
    let res = step_warp(
        &mut w,
        &mut ExecCtx {
            kernel: &kernel,
            params: &[],
            ntid: 32,
            nctaid: 1,
            regs: &mut regs,
            smem: &mut smem,
            mem: &mut mem,
            stats: &mut stats,
            sw: None,
            max_stack: 64,
        },
    );
    SmemRun {
        res,
        dst: regs[WARP_SIZE..2 * WARP_SIZE].to_vec(),
        smem,
        events: mem.events,
    }
}

fn smem_issued(extra_conflicts: u32) -> Result<StepEvent, DueKind> {
    Ok(StepEvent::Issued(IssueClass::Smem { extra_conflicts }))
}

/// Word `l` on lane `l`: one word per bank.
fn stride_one() -> [u32; WARP_SIZE] {
    std::array::from_fn(|l| 4 * l as u32)
}

#[test]
fn smem_aligned_row_loads_and_stores_every_lane() {
    let ld = smem_step(false, u32::MAX, stride_one(), true);
    assert_eq!(ld.res, smem_issued(0));
    assert!((0..WARP_SIZE).all(|l| ld.dst[l] == !(l as u32)));
    let want: Vec<_> = (0..WARP_SIZE).map(|l| (l, false)).collect();
    assert_eq!(ld.events, want);

    let st = smem_step(true, u32::MAX, stride_one(), true);
    assert_eq!(st.res, smem_issued(0));
    assert!((0..WARP_SIZE).all(|l| st.smem[l] == 0x100 + l as u32));
    assert!((WARP_SIZE..BIG_SMEM).all(|i| st.smem[i] == !(i as u32)));
    let want: Vec<_> = (0..WARP_SIZE).map(|l| (l, true)).collect();
    assert_eq!(st.events, want);
}

#[test]
fn smem_first_bad_lane_raises_its_due_after_the_lanes_below_it() {
    let end = (BIG_SMEM * 4) as u32;
    // (bad lanes and their addresses, the DUE): the lowest bad lane
    // decides, and a lane both misaligned and out of range is Misaligned.
    let cases: [(&[(usize, u32)], DueKind); 4] = [
        (&[(5, 22)], DueKind::Misaligned { addr: 22 }),
        (&[(7, end)], DueKind::SmemOutOfBounds { off: end }),
        (
            &[(9, end + 4), (12, 2)],
            DueKind::SmemOutOfBounds { off: end + 4 },
        ),
        (
            &[(3, end + 1), (4, end)],
            DueKind::Misaligned { addr: end + 1 },
        ),
    ];
    for (bad, due) in cases {
        let mut addrs = stride_one();
        for &(l, a) in bad {
            addrs[l] = a;
        }
        let first = bad[0].0;
        for store in [false, true] {
            let run = smem_step(store, u32::MAX, addrs, true);
            assert_eq!(run.res, Err(due), "store {store}");
            for l in 0..WARP_SIZE {
                let moved = if store {
                    run.smem[l] == 0x100 + l as u32
                } else {
                    run.dst[l] == !(l as u32)
                };
                assert_eq!(moved, l < first, "store {store}, lane {l}");
            }
            let want: Vec<_> = (0..first).map(|l| (l, store)).collect();
            assert_eq!(run.events, want, "store {store}");
        }
    }
}

#[test]
fn smem_two_lanes_on_one_word() {
    let mut addrs = stride_one();
    addrs[20] = addrs[3];
    // Bank 3 holds lanes 3 and 20; bank 20 none.
    let st = smem_step(true, u32::MAX, addrs, true);
    assert_eq!(st.res, smem_issued(1));
    assert_eq!(st.smem[3], 0x100 + 20, "the higher lane's store wins");
    assert_eq!(st.smem[20], !20);
    assert_eq!(st.events[20], (3, true));

    let ld = smem_step(false, u32::MAX, addrs, true);
    assert_eq!(ld.res, smem_issued(1));
    assert_eq!((ld.dst[3], ld.dst[20]), (!3, !3));
}

#[test]
fn smem_each_bank_conflict_degree() {
    for degree in 1..=WARP_SIZE {
        // Lanes `k * degree ..` share bank `k`, each on its own word.
        let addrs: [u32; WARP_SIZE] =
            std::array::from_fn(|l| 4 * ((l / degree) + WARP_SIZE * (l % degree)) as u32);
        for store in [false, true] {
            let run = smem_step(store, u32::MAX, addrs, false);
            assert_eq!(run.res, smem_issued(degree as u32 - 1), "degree {degree}");
        }
    }
    // Every lane on one word counts 32 times.
    let run = smem_step(false, u32::MAX, [64; WARP_SIZE], false);
    assert_eq!(run.res, smem_issued(31));
}

#[test]
fn smem_partial_mask_touches_and_checks_its_lanes_only() {
    let mask = 0x00f0_0f0f;
    let end = (BIG_SMEM * 4) as u32;
    // Inactive lanes hold addresses that would raise a DUE; lanes 0 and
    // 8 share bank 0.
    let addrs: [u32; WARP_SIZE] = std::array::from_fn(|l| match l {
        8 => 4 * WARP_SIZE as u32,
        _ if mask >> l & 1 != 0 => 4 * l as u32,
        _ => end + l as u32,
    });
    let active = |l: usize| mask >> l & 1 != 0;
    let ld = smem_step(false, mask, addrs, true);
    assert_eq!(ld.res, smem_issued(1));
    for l in 0..WARP_SIZE {
        let want = match l {
            8 => !(WARP_SIZE as u32),
            _ if active(l) => !(l as u32),
            _ => 0xdead_0000 + l as u32,
        };
        assert_eq!(ld.dst[l], want, "lane {l}");
    }
    let st = smem_step(true, mask, addrs, true);
    assert_eq!(st.res, smem_issued(1));
    for (l, &addr) in addrs.iter().enumerate() {
        let stored = st.smem[(addr / 4) as usize % BIG_SMEM] == 0x100 + l as u32;
        assert_eq!(stored, active(l), "lane {l}");
    }
    let want: Vec<_> = (0..WARP_SIZE)
        .filter(|&l| active(l))
        .map(|l| ((addrs[l] / 4) as usize, true))
        .collect();
    assert_eq!(st.events, want);
    // Unprobed, no event is reported.
    assert!(smem_step(true, mask, addrs, false).events.is_empty());
}

#[test]
fn every_app_kernel_has_its_ops_facts() {
    use kernels::apps::*;
    let kernels = [
        sradv1::kernel_extract(),
        sradv1::kernel_prepare(),
        sradv1::kernel_reduce(),
        sradv1::kernel_srad(),
        sradv1::kernel_srad2(),
        sradv1::kernel_compress(),
        sradv2::kernel1(),
        sradv2::kernel2(),
        kmeans::kernel_invert(),
        kmeans::kernel_point(),
        hotspot::kernel(),
        lud::kernel_diagonal(),
        lud::kernel_perimeter(),
        lud::kernel_internal(),
        scp::kernel(),
        va::kernel(),
        nw::kernel1(),
        nw::kernel2(),
        pathfinder::kernel(),
        backprop::kernel_layerforward(),
        backprop::kernel_adjust(),
        bfs::kernel_expand(),
        bfs::kernel_fold(),
    ];
    assert_eq!(kernels.len(), ::kernels::total_kernels());
    // Hardened runs launch the same kernels with `grid_y == 3`, plus the
    // vote kernel.
    let vote = ::kernels::tmr::vote_kernel();
    let mut seen = [false; 4];
    for k in kernels.iter().chain([vote]) {
        assert_eq!(k.facts().len(), k.instrs.len(), "{}", k.name);
        for (pc, (i, facts)) in k.instrs.iter().zip(k.facts()).enumerate() {
            let op = &i.op;
            let access = match *op {
                Op::Ld {
                    space: MemSpace::Shared,
                    ..
                }
                | Op::St {
                    space: MemSpace::Shared,
                    ..
                } => MemAccess::Shared,
                Op::Ld { .. } => MemAccess::GlobalLoad,
                Op::St { .. } => MemAccess::GlobalStore,
                _ => MemAccess::None,
            };
            seen[access as usize] = true;
            assert_eq!(facts.access, access, "{} pc {pc}: {op}", k.name);
            assert_eq!(facts.gp_dest, op.has_gp_dest(), "{} pc {pc}: {op}", k.name);
            assert_eq!(facts.class, op.instr_class(), "{} pc {pc}: {op}", k.name);
            assert_eq!(
                facts.reads_src,
                !op.src_regs().is_empty(),
                "{} pc {pc}: {op}",
                k.name
            );
            assert_eq!(facts.gp_dest, facts.class != InstrClass::Other);
        }
    }
    assert_eq!(seen, [true; 4], "the suite makes every kind of access");
}
