//! Block-dispatch oracle: `Cpu::run_block` must be partition-invariant.
//!
//! For arbitrary programs — straight-line code, wild branches, memory
//! traffic, syscalls, and the bound-check and frame prologue/epilogue
//! shapes the AFT compiler emits — slicing a run into blocks of any sizes
//! (1, 7, mixed, or one maximal block) must retire the **identical** trace
//! on every platform: same [`StepEvent`] sequence, same [`CpuStats`], same
//! cycles, same register file and flags, same [`BusStats`] (execute checks
//! included), same timer ticks, same memory image.  A block of size 1 is
//! exactly `Cpu::step`, the single-step form that serves as the block
//! loop's oracle.
//!
//! The same programs also pin the bus's access-attribute cache at CPU
//! level: a run with the cache off (every access takes the region cascade
//! and MPU backend directly) must retire the identical trace, with the
//! MPU disarmed and armed.  `prop_attr_cache.rs` checks the cache access
//! by access; this checks what a program sees.
//!
//! [`CpuStats`]: amulet_mcu::CpuStats
//! [`BusStats`]: amulet_mcu::BusStats

use amulet_core::addr::{Addr, AddrRange};
use amulet_core::layout::PlatformSpec;
use amulet_mcu::bus::Bus;
use amulet_mcu::code::InstrStore;
use amulet_mcu::cpu::{Cpu, StepEvent};
use amulet_mcu::isa::{AluOp, Cond, Instr, Reg, UnaryOp, Width};
use amulet_mcu::mpu::{MPUCTL0, MPUSAM, MPUSEGB1, MPUSEGB2};
use proptest::collection::vec;
use proptest::prelude::*;

/// An instruction whose branch target (if any) is still a slot index
/// into the flattened program, resolved to a real address at layout time.
#[derive(Clone, Debug, PartialEq)]
enum P {
    /// A complete instruction with no intra-program target.
    I(Instr),
    /// `Jcc` to the instruction at slot `usize % len`.
    Jcc(Cond, usize),
    /// `Jmp` to the instruction at slot `usize % len`.
    Jmp(usize),
    /// `Call` of the instruction at slot `usize % len`.
    Call(usize),
}

const CONDS: [Cond; 8] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Lo,
    Cond::Hs,
    Cond::Lt,
    Cond::Ge,
    Cond::Mi,
    Cond::Pl,
];
const ALU_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
];
const UNARY_OPS: [UnaryOp; 5] = [
    UnaryOp::Neg,
    UnaryOp::Not,
    UnaryOp::Shl(3),
    UnaryOp::Shr(2),
    UnaryOp::Sar(1),
];

/// General-purpose-biased register: mostly `R4`–`R15`, occasionally the
/// architectural `PC`/`SP`/`SR`, whose side effects on control flow and the
/// stack the oracle must also cover.
fn reg_strategy() -> impl Strategy<Value = Reg> {
    prop_oneof![
        (4u8..16).prop_map(Reg),
        (4u8..16).prop_map(Reg),
        (4u8..16).prop_map(Reg),
        (0u8..16).prop_map(Reg),
    ]
}

/// Immediates biased toward the bounds AFT checks actually use (SRAM
/// edges) plus small strides and fully arbitrary words.
fn imm_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..64, 0x1C00u16..0x2400, Just(0x2400u16), 0u16..0xFFFF,]
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    (0usize..CONDS.len()).prop_map(|i| CONDS[i])
}

/// One generator chunk: either a multi-instruction shape the AFT emits
/// (bound checks, stride advances, frame prologues/epilogues) or a single
/// arbitrary instruction.  Chunks are
/// concatenated and laid out contiguously, so the shapes land adjacent
/// exactly as compiled code would.
fn chunk_strategy() -> impl Strategy<Value = Vec<P>> {
    let target = 0usize..256;
    prop_oneof![
        // Single bounds check: CmpImm + Jcc.
        (
            reg_strategy(),
            imm_strategy(),
            cond_strategy(),
            target.clone()
        )
            .prop_map(|(a, imm, cond, t)| vec![P::I(Instr::CmpImm { a, imm }), P::Jcc(cond, t)]),
        // Double bounds check: CmpImm + Jcc(Lo) + CmpImm + Jcc(Hs).
        (
            reg_strategy(),
            imm_strategy(),
            imm_strategy(),
            target.clone(),
            target.clone()
        )
            .prop_map(|(a, lo, hi, t1, t2)| vec![
                P::I(Instr::CmpImm { a, imm: lo }),
                P::Jcc(Cond::Lo, t1),
                P::I(Instr::CmpImm { a, imm: hi }),
                P::Jcc(Cond::Hs, t2),
            ]),
        // Stride advance then check: AluImm(Add) + CmpImm + Jcc.
        (
            reg_strategy(),
            0u16..16,
            imm_strategy(),
            cond_strategy(),
            target.clone()
        )
            .prop_map(|(dst, step, imm, cond, t)| vec![
                P::I(Instr::AluImm {
                    op: AluOp::Add,
                    dst,
                    imm: step,
                }),
                P::I(Instr::CmpImm { a: dst, imm }),
                P::Jcc(cond, t),
            ]),
        // Frame prologue: Push + Mov.
        (reg_strategy(), reg_strategy(), reg_strategy()).prop_map(|(push, dst, src)| vec![
            P::I(Instr::Push { src: push }),
            P::I(Instr::Mov { dst, src }),
        ]),
        // Frame epilogue: Mov + Pop.
        (reg_strategy(), reg_strategy(), reg_strategy()).prop_map(|(dst, src, pop)| vec![
            P::I(Instr::Mov { dst, src }),
            P::I(Instr::Pop { dst: pop }),
        ]),
        // A single arbitrary instruction.
        single_strategy().prop_map(|p| vec![p]),
    ]
}

/// A single arbitrary instruction, weighted toward the common cases but
/// covering memory traffic, wild control flow, syscalls and faults.
fn single_strategy() -> impl Strategy<Value = P> {
    let target = 0usize..256;
    prop_oneof![
        (reg_strategy(), imm_strategy()).prop_map(|(dst, imm)| P::I(Instr::MovImm { dst, imm })),
        (reg_strategy(), reg_strategy()).prop_map(|(dst, src)| P::I(Instr::Mov { dst, src })),
        (0usize..ALU_OPS.len(), reg_strategy(), reg_strategy()).prop_map(|(op, dst, src)| P::I(
            Instr::Alu {
                op: ALU_OPS[op],
                dst,
                src
            }
        )),
        (0usize..ALU_OPS.len(), reg_strategy(), imm_strategy()).prop_map(|(op, dst, imm)| P::I(
            Instr::AluImm {
                op: ALU_OPS[op],
                dst,
                imm
            }
        )),
        (0usize..UNARY_OPS.len(), reg_strategy()).prop_map(|(op, reg)| P::I(Instr::Unary {
            op: UNARY_OPS[op],
            reg
        })),
        (reg_strategy(), reg_strategy()).prop_map(|(a, b)| P::I(Instr::Cmp { a, b })),
        (reg_strategy(), imm_strategy()).prop_map(|(a, imm)| P::I(Instr::CmpImm { a, imm })),
        (reg_strategy(), reg_strategy(), -8i16..8).prop_map(|(dst, base, off)| P::I(Instr::Load {
            dst,
            base,
            offset: off * 2,
            width: Width::Word,
        })),
        (reg_strategy(), reg_strategy(), -8i16..8).prop_map(|(src, base, off)| P::I(
            Instr::Store {
                src,
                base,
                offset: off * 2,
                width: Width::Word,
            }
        )),
        (reg_strategy(), imm_strategy()).prop_map(|(dst, addr)| P::I(Instr::LoadAbs {
            dst,
            addr: addr & !1,
            width: Width::Word,
        })),
        (reg_strategy(), imm_strategy()).prop_map(|(src, addr)| P::I(Instr::StoreAbs {
            src,
            addr: addr & !1,
            width: Width::Word,
        })),
        reg_strategy().prop_map(|src| P::I(Instr::Push { src })),
        reg_strategy().prop_map(|dst| P::I(Instr::Pop { dst })),
        target.clone().prop_map(P::Jmp),
        target.clone().prop_map(P::Call),
        reg_strategy().prop_map(|reg| P::I(Instr::Br { reg })),
        Just(P::I(Instr::Ret)),
        (0u16..8).prop_map(|num| P::I(Instr::Syscall { num })),
        Just(P::I(Instr::Nop)),
    ]
}

/// A whole program: concatenated chunks.
fn program_strategy() -> impl Strategy<Value = Vec<P>> {
    vec(chunk_strategy(), 1..14).prop_map(|chunks| chunks.into_iter().flatten().collect())
}

const ORIGIN: Addr = 0x4400;

/// Lays the program out contiguously from [`ORIGIN`], resolves slot-index
/// branch targets to instruction-start addresses, and terminates it with
/// a `Halt` so straight-line fall-through stops.
fn assemble(program: &[P]) -> InstrStore {
    let mut addrs = Vec::with_capacity(program.len() + 1);
    let mut at = ORIGIN;
    for p in program {
        addrs.push(at);
        let size = match p {
            P::I(i) => i.size_bytes(),
            P::Jcc(..) | P::Jmp(..) | P::Call(..) => 4,
        };
        at += size;
    }
    addrs.push(at); // the trailing Halt is a valid target too
    let resolve = |idx: usize| addrs[idx % addrs.len()] as u16;
    let mut code = InstrStore::new();
    for (p, &addr) in program.iter().zip(&addrs) {
        let instr = match p {
            P::I(i) => *i,
            P::Jcc(cond, t) => Instr::Jcc {
                cond: *cond,
                target: resolve(*t),
            },
            P::Jmp(t) => Instr::Jmp {
                target: resolve(*t),
            },
            P::Call(t) => Instr::Call {
                target: resolve(*t),
            },
        };
        code.insert(addr, instr);
    }
    code.insert(at, Instr::Halt);
    code
}

/// Everything observable about a run, for exact comparison.
type Fingerprint = (
    Vec<StepEvent>,
    amulet_mcu::CpuStats,
    u64,       // cpu cycles
    [u16; 16], // register file
    u16,       // status word
    amulet_mcu::BusStats,
    u64,     // timer raw cycles
    Vec<u8>, // full memory image
);

/// A power-on bus for `platform` with the access-attribute cache on or
/// off.  `armed` also writes the segmented-MPU registers: an
/// execute-only segment over the code at [`ORIGIN`] up to `0x6000`, a
/// read/write segment up to `0x8000` and a no-access segment above it.
/// Where a platform has no such registers the writes land (or fault)
/// identically in every run, so the comparison stays exact.
fn bus(platform: &PlatformSpec, attr_cache: bool, armed: bool) -> Bus {
    let mut bus = Bus::new(platform.clone());
    bus.set_attr_cache_enabled(attr_cache);
    if armed {
        for (reg, value) in [
            (MPUSEGB1, 0x600),
            (MPUSEGB2, 0x800),
            (MPUSAM, 0x0034),
            (MPUCTL0, 0xA501),
        ] {
            let _ = bus.write(reg, 2, value);
        }
    }
    bus
}

/// Runs `code` on `bus` from [`ORIGIN`] for at most `cap` steps, pulling
/// block sizes cyclically from `blocks`, collecting every stopping event.
/// Syscalls resume (the OS would service them); halts and faults end the
/// run.
fn run(mut bus: Bus, code: &InstrStore, cap: u64, blocks: &[u64]) -> Fingerprint {
    let mut cpu = Cpu::new();
    cpu.set_pc(ORIGIN);
    cpu.set_sp(0x2400);
    let mut events = Vec::new();
    let mut total: u64 = 0;
    let mut bi = 0usize;
    while total < cap {
        let block = blocks[bi % blocks.len()].min(cap - total);
        bi += 1;
        let (ev, used) = cpu.run_block(&mut bus, code, block);
        total += used;
        if let Some(ev) = ev {
            events.push(ev);
            if matches!(ev, StepEvent::Halted | StepEvent::Fault(_)) {
                break;
            }
        }
    }
    let regs: [u16; 16] = core::array::from_fn(|i| cpu.reg(Reg(i as u8)));
    (
        events,
        cpu.stats,
        cpu.cycles,
        regs,
        cpu.status_word(),
        bus.stats,
        bus.timer.raw_cycles(),
        bus.dump_bytes(AddrRange::new(0, 0x1_0000)),
    )
}

const STEP_CAP: u64 = 3_000;

/// The five platform profiles the repo models.  The advanced-MPU ablation
/// disables the bus's attribute fast path, so the property covers both
/// the cached and the uncached permission-check regimes.
fn platforms() -> [PlatformSpec; 5] {
    [
        PlatformSpec::msp430fr5969(),
        PlatformSpec::msp430fr5969_advanced_mpu(),
        PlatformSpec::msp430fr5994(),
        PlatformSpec::cortex_m33(),
        PlatformSpec::riscv_pmp(),
    ]
}

/// Describes the first differing fingerprint field, compactly — the raw
/// tuples contain a 64 KiB memory image each.
fn diff(a: &Fingerprint, b: &Fingerprint) -> Option<String> {
    if a == b {
        return None;
    }
    Some(if a.0 != b.0 {
        format!("events {:?} vs {:?}", a.0, b.0)
    } else if a.1 != b.1 {
        format!("cpu stats {:?} vs {:?}", a.1, b.1)
    } else if a.2 != b.2 {
        format!("cycles {} vs {}", a.2, b.2)
    } else if a.3 != b.3 {
        format!("regs {:?} vs {:?}", a.3, b.3)
    } else if a.4 != b.4 {
        format!("flags {:#06x} vs {:#06x}", a.4, b.4)
    } else if a.5 != b.5 {
        format!("bus stats {:?} vs {:?}", a.5, b.5)
    } else if a.6 != b.6 {
        format!("timer {} vs {}", a.6, b.6)
    } else {
        let at = a.7.iter().zip(&b.7).position(|(x, y)| x != y).unwrap();
        format!("memory at {at:#06x}: {} vs {}", a.7[at], b.7[at])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Block-partition invariance: slicing the same run into blocks of
    /// generated sizes — interleaved with the degenerate 1 and the awkward
    /// 7 — retires the identical trace as one maximal block, on every
    /// platform.  Turning the attribute cache off changes nothing either,
    /// with the MPU disarmed or armed.
    #[test]
    fn run_block_is_partition_invariant(
        program in program_strategy(),
        sizes in vec(1u64..24, 1..8),
    ) {
        let code = assemble(&program);
        let mut blocks = vec![1, 7];
        blocks.extend(sizes);
        for platform in platforms() {
            let whole = run(bus(&platform, true, false), &code, STEP_CAP, &[u64::MAX]);
            let sliced = run(bus(&platform, true, false), &code, STEP_CAP, &blocks);
            let d = diff(&whole, &sliced);
            prop_assert!(
                d.is_none(),
                "partitioned run diverged on {}: {}",
                platform.name,
                d.unwrap()
            );
            for armed in [false, true] {
                let cached = if armed {
                    run(bus(&platform, true, true), &code, STEP_CAP, &[u64::MAX])
                } else {
                    whole.clone()
                };
                let direct = run(bus(&platform, false, armed), &code, STEP_CAP, &[u64::MAX]);
                let d = diff(&cached, &direct);
                prop_assert!(
                    d.is_none(),
                    "attribute cache off diverged on {} (MPU armed: {armed}): {}",
                    platform.name,
                    d.unwrap()
                );
            }
        }
    }
}
