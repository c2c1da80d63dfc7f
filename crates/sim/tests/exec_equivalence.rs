//! Bytecode ≡ tree-walk: an explicit expression-level oracle.
//!
//! The simulator runs compiled postfix bytecode at every expression site
//! that compiles and tree-walks the rest. This suite compiles every
//! process (`compile_program`) and every continuous assign
//! (`compile_expr`) of the hand-written cases below and of the golden
//! and faulty designs of all 11 benchmark projects, pairs each compiled
//! slot with its source expression, and requires `exec_code` to agree
//! with `eval_expr` on seeded stores dense in x/z: the same value or the
//! exact same fault text, and the same next `$random` draw afterwards.
//! Both evaluators are called directly; no global state is involved.

use std::path::{Path, PathBuf};

use cirfix_ast::{Expr, SourceFile};
use cirfix_logic::{Logic, LogicVec};
use cirfix_parser::parse;
use cirfix_sim::code::{compile_expr, compile_program, exec_code, ExprCode};
use cirfix_sim::{
    elaborate, eval_expr, Design, EvalCtx, Lcg, Op, Scope, SimConfig, SimError, Simulator, Store,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Case {
    name: &'static str,
    src: &'static str,
}

/// Hand-written cases, elaborated with top `t`. The `fault_` cases must
/// also end in a runtime fault when simulated.
const CASES: &[Case] = &[
    Case {
        name: "counter_with_reset",
        src: r#"module t;
            reg clk, rst;
            reg [7:0] n;
            wire [7:0] next = rst ? 8'd0 : n + 8'd1;
            initial begin clk = 0; rst = 1; #7 rst = 0; #60 $finish; end
            always #5 clk = !clk;
            always @(posedge clk) n <= next;
        endmodule"#,
    },
    Case {
        name: "four_state_operators",
        src: r#"module t;
            reg [3:0] a, b;
            reg [3:0] y0, y1, y2, y3, y4;
            reg r0, r1, r2;
            initial begin
                a = 4'b10x1; b = 4'b0z10;
                y0 = a & b; y1 = a | b; y2 = a ^ b; y3 = ~a; y4 = a + b;
                r0 = &a; r1 = |b; r2 = ^a;
                #1 a = 4'd9; b = 4'd3;
                y0 = a * b; y1 = a / b; y2 = a % b; y3 = a << b[1:0]; y4 = a >> 1;
                r0 = a < b; r1 = a == b; r2 = a === b;
                #1 $finish;
            end
        endmodule"#,
    },
    Case {
        name: "case_flavours_and_part_selects",
        src: r#"module t;
            parameter W = 8;
            reg [W-1:0] s;
            reg [3:0] y;
            reg [1:0] idx;
            always @(s or idx)
                casez (s[3:0])
                    4'b1???: y = {2'b00, s[1:0]};
                    4'b01??: y = {4{s[0]}};
                    default: y = {idx, 2'b11};
                endcase
            initial begin
                idx = 2'b10;
                s = 8'h0f; #1 ;
                s = 8'h84; #1 ;
                s = 8'h46; #1 ;
                $finish;
            end
        endmodule"#,
    },
    Case {
        name: "random_and_time_draw_order",
        src: r#"module t;
            reg [31:0] a, b;
            reg [63:0] tm;
            integer i;
            initial begin
                for (i = 0; i < 4; i = i + 1) begin
                    a = $random;
                    b = $random ^ a;
                    #3 tm = $time;
                end
                $display("a=%h b=%h t=%0d", a, b, tm);
                $finish;
            end
        endmodule"#,
    },
    Case {
        name: "memories_and_dynamic_indexing",
        src: r#"module t;
            reg [7:0] mem [0:7];
            reg [7:0] out;
            reg [2:0] addr;
            integer i;
            initial begin
                for (i = 0; i < 8; i = i + 1)
                    mem[i] = i * 3;
                addr = 3'd5;
                out = mem[addr];
                #1 addr = 3'd2;
                out = mem[addr] + mem[7];
                #1 $finish;
            end
        endmodule"#,
    },
    Case {
        name: "nonblocking_with_intra_delay",
        src: r#"module t;
            reg [3:0] q;
            reg [3:0] d;
            initial begin
                d = 4'd7;
                q <= #4 d;
                d = 4'd2;
                #10 $finish;
            end
        endmodule"#,
    },
    Case {
        name: "replication_and_repeat_loops",
        src: r#"module t;
            reg [11:0] w;
            reg [3:0] n;
            initial begin
                n = 4'd0;
                repeat (5) n = n + 1;
                w = {3{n}};
                #1 $finish;
            end
        endmodule"#,
    },
    Case {
        name: "fault_unknown_replication_count",
        src: r#"module t;
            reg [3:0] n;
            reg [7:0] w;
            initial begin
                #1 w = {n[1:0]{2'b01}};
            end
        endmodule"#,
    },
    Case {
        name: "fault_replication_count_too_large",
        src: r#"module t;
            reg [15:0] n;
            reg [7:0] w;
            initial begin
                n = 16'd5000;
                #1 w = {n{1'b1}};
            end
        endmodule"#,
    },
];

/// Seeded stores per design.
const STORES: u64 = 12;
/// Per-bit x/z probability (percent), cycled over the stores.
const DENSITIES: [u32; 4] = [5, 15, 30, 50];

/// A random value of `width` bits. Half the values are fully known, so
/// arithmetic, comparisons and indexing see definite operands too; the
/// rest are x/z with probability `density` percent per bit.
fn arb_value(rng: &mut StdRng, width: usize, density: u32) -> LogicVec {
    let density = if rng.gen() { density } else { 0 };
    let bits = (0..width)
        .map(|_| {
            if rng.gen_range(0u32..100) < density {
                if rng.gen() {
                    Logic::X
                } else {
                    Logic::Z
                }
            } else if rng.gen() {
                Logic::One
            } else {
                Logic::Zero
            }
        })
        .collect();
    LogicVec::from_bits_lsb(bits)
}

/// Every signal and memory word of `design` filled at random.
fn seeded_store(design: &Design, seed: u64) -> Store {
    let density = DENSITIES[seed as usize % DENSITIES.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = Store::new(design);
    for v in &mut store.signals {
        *v = arb_value(&mut rng, v.width(), density);
    }
    for words in &mut store.memories {
        for w in words {
            *w = arb_value(&mut rng, w.width(), density);
        }
    }
    store
}

/// One expression site: the source expression, the bytecode compiled
/// for it (`None` where the engine tree-walks) and its scope.
struct Site<'d> {
    name: String,
    expr: &'d Expr,
    code: Option<ExprCode>,
    scope: &'d Scope,
}

/// Pairs every compiled slot of every process (`a`, the `b` delay and
/// the `CaseJump` labels) and every continuous assign with its source
/// expression.
fn sites(design: &Design) -> Vec<Site<'_>> {
    let sig_lsb: Vec<usize> = design.signals.iter().map(|s| s.lsb).collect();
    let mut out = Vec::new();
    for (pi, process) in design.processes.iter().enumerate() {
        let compiled = compile_program(&process.program, &process.scope, &sig_lsb);
        assert_eq!(compiled.ops.len(), process.program.ops.len());
        for (pc, (op, slots)) in process.program.ops.iter().zip(compiled.ops).enumerate() {
            let mut pair = |slot: &str, expr, code| {
                out.push(Site {
                    name: format!("process {pi} ({}) op {pc} slot {slot}", process.origin),
                    expr,
                    code,
                    scope: &process.scope,
                });
            };
            match op {
                Op::Assign { rhs, .. } | Op::EvalPending { rhs } => pair("a", rhs, slots.a),
                Op::NonBlocking { rhs, delay, .. } => {
                    pair("a", rhs, slots.a);
                    match delay {
                        Some(delay) => pair("b", delay, slots.b),
                        None => assert!(slots.b.is_none(), "delay slot without a delay"),
                    }
                }
                Op::WaitDelay { amount } => pair("a", amount, slots.a),
                Op::WaitCond { cond, .. } | Op::JumpIfFalse { cond, .. } => {
                    pair("a", cond, slots.a);
                }
                Op::RepeatInit { count } => pair("a", count, slots.a),
                Op::CaseJump { subject, arms, .. } => {
                    pair("a", subject, slots.a);
                    assert_eq!(slots.labels.len(), arms.len());
                    for (arm, ((labels, _), codes)) in arms.iter().zip(slots.labels).enumerate() {
                        assert_eq!(codes.len(), labels.len());
                        for (li, (label, code)) in labels.iter().zip(codes).enumerate() {
                            pair(&format!("label {arm}.{li}"), label, code);
                        }
                    }
                }
                _ => assert!(
                    slots.a.is_none() && slots.b.is_none() && slots.labels.is_empty(),
                    "control-only op {pc} has compiled slots"
                ),
            }
        }
    }
    for (ci, ca) in design.cassigns.iter().enumerate() {
        out.push(Site {
            name: format!("assign {ci} ({})", ca.origin),
            expr: &ca.rhs,
            code: compile_expr(&ca.rhs, &ca.scope, &sig_lsb),
            scope: &ca.scope,
        });
    }
    out
}

/// Runs the oracle over one design and returns its (compiled, total)
/// site counts.
fn check_design(label: &str, design: &Design) -> (usize, usize) {
    let sites = sites(design);
    let sig_lsb: Vec<usize> = design.signals.iter().map(|s| s.lsb).collect();
    let mem_offset: Vec<u64> = design.memories.iter().map(|m| m.offset).collect();
    let stores: Vec<Store> = (0..STORES).map(|s| seeded_store(design, s)).collect();
    let (mut stack, mut counts) = (Vec::new(), Vec::new());
    let mut compiled = 0;
    for site in &sites {
        let Some(code) = &site.code else { continue };
        compiled += 1;
        for (seed, store) in (0u64..).zip(&stores) {
            let time = seed * 37 + 5;
            let mut walk_rng = Lcg::new(seed + 1);
            let walked = eval_expr(
                site.expr,
                &mut EvalCtx {
                    scope: site.scope,
                    store,
                    sig_lsb: &sig_lsb,
                    mem_offset: &mem_offset,
                    time,
                    rng: &mut walk_rng,
                },
            );
            let mut code_rng = Lcg::new(seed + 1);
            let executed = exec_code(
                code,
                &mut EvalCtx {
                    scope: site.scope,
                    store,
                    sig_lsb: &sig_lsb,
                    mem_offset: &mem_offset,
                    time,
                    rng: &mut code_rng,
                },
                &mut stack,
                &mut counts,
            );
            assert_eq!(
                executed, walked,
                "[{label}] {}: value or fault on store {seed}",
                site.name
            );
            assert_eq!(
                code_rng.next_u32(),
                walk_rng.next_u32(),
                "[{label}] {}: next $random draw on store {seed}",
                site.name
            );
        }
    }
    (compiled, sites.len())
}

fn elaborate_case(case: &Case) -> Design {
    let file = parse(case.src).expect("parse");
    elaborate(&file, "t").expect("elaborate")
}

#[test]
fn bytecode_matches_tree_walk_on_hand_written_cases() {
    for case in CASES {
        let (compiled, total) = check_design(case.name, &elaborate_case(case));
        assert!(
            compiled > 0,
            "[{}] nothing compiled ({total} sites)",
            case.name
        );
    }
}

/// The golden and faulty designs of every benchmark project, each
/// joined with its testbench, as (label, source, top) triples.
fn benchmark_sources() -> Vec<(String, SourceFile, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../benchmarks/verilog");
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    let mut projects: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("benchmark directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("design.v").is_file())
        .collect();
    projects.sort();
    assert_eq!(projects.len(), 11, "all 11 projects");
    let mut out = Vec::new();
    let mut defects = 0;
    for dir in projects {
        let tb = parse(&read(&dir.join("tb.v"))).expect("testbench parses");
        let top = tb.modules[0].name.clone();
        let mut designs = vec![dir.join("design.v")];
        let mut faulty: Vec<PathBuf> = std::fs::read_dir(dir.join("defects"))
            .expect("defects directory")
            .map(|e| e.expect("dir entry").path())
            .collect();
        faulty.sort();
        defects += faulty.len();
        designs.extend(faulty);
        for path in designs {
            let mut file = parse(&read(&path)).expect("design parses");
            file.extend_from(tb.clone());
            let label = path
                .strip_prefix(&root)
                .unwrap_or(&path)
                .display()
                .to_string();
            out.push((label, file, top.clone()));
        }
    }
    assert_eq!(defects, 32, "all 32 scenarios");
    out
}

#[test]
fn bytecode_matches_tree_walk_on_every_benchmark_design() {
    let (mut compiled, mut total) = (0, 0);
    for (label, file, top) in benchmark_sources() {
        let design = elaborate(&file, &top).unwrap_or_else(|e| panic!("[{label}] {e}"));
        let (c, t) = check_design(&label, &design);
        assert!(c > 0, "[{label}] nothing compiled ({t} sites)");
        compiled += c;
        total += t;
    }
    // The oracle is only as strong as its coverage: nearly every
    // expression site of the benchmark designs compiles.
    assert!(
        compiled * 10 >= total * 9,
        "only {compiled} of {total} sites compiled"
    );
}

#[test]
fn runtime_faults_surface_as_sim_errors() {
    for case in CASES.iter().filter(|c| c.name.starts_with("fault_")) {
        let outcome = Simulator::from_design(elaborate_case(case), SimConfig::default()).run();
        assert!(
            matches!(outcome, Err(SimError::Runtime { .. })),
            "[{}] expected a runtime fault, got {outcome:?}",
            case.name
        );
    }
}
