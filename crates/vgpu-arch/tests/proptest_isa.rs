//! Property-based tests of the ISA layer: every program the builder can
//! produce validates, disassembles, and reports consistent def/use sets.

use proptest::prelude::*;
use vgpu_arch::{
    BoolOp, CmpOp, Instr, Kernel, KernelBuilder, MemSpace, Op, Operand, Pred, Reg, SpecialReg,
};

/// Strategy: an arbitrary ALU/control-free op over `nregs` registers.
fn arb_alu_op(nregs: u8) -> impl Strategy<Value = Op> {
    let reg = (0..nregs).prop_map(Reg);
    let operand = prop_oneof![
        (0..nregs).prop_map(|r| Operand::Reg(Reg(r))),
        any::<u32>().prop_map(Operand::Imm),
        (0u16..8).prop_map(Operand::Const),
    ];
    prop_oneof![
        (reg.clone(), reg.clone(), operand.clone()).prop_map(|(d, a, b)| Op::IAdd { d, a, b }),
        (reg.clone(), reg.clone(), operand.clone()).prop_map(|(d, a, b)| Op::ISub { d, a, b }),
        (reg.clone(), reg.clone(), operand.clone()).prop_map(|(d, a, b)| Op::IMul { d, a, b }),
        (reg.clone(), reg.clone(), operand.clone(), operand.clone())
            .prop_map(|(d, a, b, c)| Op::IMad { d, a, b, c }),
        (reg.clone(), reg.clone(), operand.clone(), 0u8..31)
            .prop_map(|(d, a, b, shift)| Op::IScAdd { d, a, b, shift }),
        (reg.clone(), reg.clone(), operand.clone()).prop_map(|(d, a, b)| Op::And { d, a, b }),
        (reg.clone(), reg.clone(), operand.clone()).prop_map(|(d, a, b)| Op::Xor { d, a, b }),
        (reg.clone(), reg.clone(), operand.clone()).prop_map(|(d, a, b)| Op::Shl { d, a, b }),
        (reg.clone(), reg.clone(), operand.clone()).prop_map(|(d, a, b)| Op::FAdd { d, a, b }),
        (reg.clone(), reg.clone(), operand.clone(), operand.clone())
            .prop_map(|(d, a, b, c)| Op::FFma { d, a, b, c }),
        (reg.clone(), reg.clone()).prop_map(|(d, a)| Op::FSqrt { d, a }),
        (reg.clone(), reg.clone()).prop_map(|(d, a)| Op::Not { d, a }),
        reg.clone().prop_map(|d| Op::S2R {
            d,
            sr: SpecialReg::TidX
        }),
        (0u8..4, reg.clone(), operand.clone()).prop_map(|(p, a, b)| Op::ISetP {
            p: Pred(p),
            a,
            b,
            cmp: CmpOp::Lt,
            signed: true
        }),
        (0u8..4, 0u8..4, 0u8..4).prop_map(|(p, a, b)| Op::PSetP {
            p: Pred(p),
            a: Pred(a),
            b: Pred(b),
            op: BoolOp::And,
            na: false,
            nb: false
        }),
    ]
}

proptest! {
    /// Any straight-line program over in-range registers validates.
    #[test]
    fn random_alu_programs_validate(ops in prop::collection::vec(arb_alu_op(12), 1..100)) {
        let mut instrs: Vec<Instr> = ops.into_iter().map(Instr::new).collect();
        instrs.push(Instr::new(Op::Exit));
        let k = Kernel::new("prop", instrs, 12, 0).expect("validates");
        prop_assert!(k.len() >= 2);
        // Disassembly never panics and mentions every PC.
        let d = k.disassemble();
        prop_assert!(d.lines().count() >= k.len());
    }

    /// def/use reporting: the destination register never appears spuriously,
    /// and every reported source register index is in range.
    #[test]
    fn def_use_sets_are_in_range(op in arb_alu_op(12)) {
        if let Some(d) = op.dst_reg() {
            prop_assert!(d.0 < 12);
        }
        for r in op.src_regs() {
            prop_assert!(r.0 < 12);
        }
    }

    /// Register pressure computed by the builder covers every register the
    /// program touches.
    #[test]
    fn builder_register_count_covers_uses(ops in prop::collection::vec(arb_alu_op(10), 1..50)) {
        let mut b = KernelBuilder::new("prop");
        for op in &ops {
            b.emit(*op);
        }
        let k = b.build().unwrap();
        for i in k.instrs() {
            if let Some(d) = i.op.dst_reg() {
                prop_assert!(d.0 < k.num_regs);
            }
            for r in i.op.src_regs() {
                prop_assert!(r.0 < k.num_regs);
            }
        }
    }

    /// Out-of-range register indices are always rejected.
    #[test]
    fn validation_rejects_out_of_range(reg in 8u8..64) {
        let instrs = vec![
            Instr::new(Op::Mov { d: Reg(reg), a: Operand::Imm(0) }),
            Instr::new(Op::Exit),
        ];
        prop_assert!(Kernel::new("bad", instrs, 8, 0).is_err());
    }

    /// Structured control flow from the builder always yields in-range
    /// branch targets and reconvergence points, at any nesting shape.
    #[test]
    fn structured_control_flow_always_validates(
        depth in 1usize..5,
        body_len in 1usize..6,
    ) {
        let mut b = KernelBuilder::new("prop");
        let r = b.reg();
        let p = b.pred();
        b.isetp(p, r, 1u32, CmpOp::Lt, true);
        fn nest(b: &mut KernelBuilder, r: Reg, p: Pred, depth: usize, body_len: usize) {
            b.if_then(p, false, |b| {
                for _ in 0..body_len {
                    b.iadd(r, r, 1u32);
                }
                if depth > 0 {
                    nest(b, r, p, depth - 1, body_len);
                }
            });
        }
        nest(&mut b, r, p, depth, body_len);
        prop_assert!(b.build().is_ok());
    }

    /// Texture stores never validate.
    #[test]
    fn texture_stores_rejected(off in -64i32..64) {
        let instrs = vec![
            Instr::new(Op::St { space: MemSpace::Tex, a: Reg(0), off, v: Reg(1) }),
            Instr::new(Op::Exit),
        ];
        prop_assert!(Kernel::new("bad", instrs, 4, 0).is_err());
    }
}
