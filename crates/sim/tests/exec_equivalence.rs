//! Bytecode ≡ tree walk: an explicit expression-level oracle.
//!
//! The simulator evaluates expressions only as bytecode, compiled at
//! elaboration. This suite takes every expression site straight from the
//! AST of the hand-written cases below and of the golden and faulty
//! designs of all 11 benchmark projects: right-hand sides, conditions,
//! delays, case subjects and labels, repeat counts, dynamic target
//! indices, system-task arguments, and continuous-assign and port
//! expressions. It compiles each one with `compile_expr` in the scope of
//! its instance and requires `exec_code` to agree with the tree walker in
//! `tree_walk/` on seeded stores dense in x/z: the same value or the
//! exact same fault text, and the same next `$random` draw afterwards.
//! Every elaboration constant (parameter values and overrides, ranges,
//! array bounds, net and part-select target bounds, reg initializers),
//! and every other site read as a constant, must give the same value or
//! fault through `eval_const` and the tree walker. Both evaluators are
//! called directly; no global state is involved.

mod tree_walk;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cirfix_ast::{print::expr_to_string, DeclKind, Expr, Item, LValue, SourceFile, Stmt};
use cirfix_logic::{Logic, LogicVec};
use cirfix_parser::parse;
use cirfix_sim::code::{compile_expr, exec_code, Inst};
use cirfix_sim::{
    elaborate, eval_const, Design, EvalCtx, Lcg, Scope, ScopeEntry, SimConfig, SimError, Simulator,
    Store,
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
    Case {
        name: "dynamic_part_selects",
        src: r#"module t;
            parameter P = 16'hbeef;
            reg [15:0] v;
            reg [11:4] w;
            reg [3:0] i, j;
            reg [31:0] hi, lo;
            reg [7:0] mem [0:3];
            reg [15:0] y;
            initial begin
                i = 4'd7; j = 4'd4; v = 16'h1234; w = 8'ha5; hi = 32'd9; lo = 32'd2;
                y = v[i:j];
                y = P[i:j] ^ w[i:j];
                y = v[hi:lo] + w[11:j] + w[i:4'd4];
                y = v[i:$random] | v[$random:j];
                y = {v[i + 4'd1:j - 4'd1], P[$time:0]};
                y = mem[i:j] | ghost[i:j];
                y = w[5:2] | v[40'h1_0000_0003:40'h1_0000_0000];
                #1 $finish;
            end
        endmodule"#,
    },
    Case {
        name: "dynamic_target_indices",
        src: r#"module t;
            reg [7:0] q;
            reg [11:4] r;
            reg [7:0] mem [2:5];
            reg [3:0] i;
            initial begin
                i = 4'd6;
                q[i] = 1'b1;
                r[i] = 1'b0;
                mem[i] = 8'h5a;
                mem[i - 4'd1] <= 8'h3c;
                q[i + $random] = 1'b0;
                {q[i ^ 4'd1], mem[{2'b01, i[1:0]}]} = 9'h1ff;
                r[i] <= #2 q[i];
                #3 $finish;
            end
        endmodule"#,
    },
    Case {
        name: "system_task_arguments",
        src: r#"module t;
            reg [7:0] a;
            reg [3:0] b;
            initial begin
                a = 8'd200; b = 4'bx01z;
                $display("a=%d b=%b h=%h", a, b, a + b);
                $display("%s and %s", "text", a[3:0]);
                $write(a, " ", b, $time);
                $monitor("m %d", {a, b});
                $display("draw %h", $random ^ a);
                $strobe("%0d %c", a - 8'd1, a);
                #1 $finish;
            end
        endmodule"#,
    },
    Case {
        name: "elaboration_constants",
        src: r#"module sub (y);
            parameter W = 4;
            parameter MASK = 8'hf0;
            localparam HALF = W / 2;
            localparam TOP = W - 1;
            localparam SEL = MASK[7:4] ^ {2{2'b01}};
            output [TOP:0] y;
            assign y = {HALF{2'b10}} ^ SEL;
        endmodule
        module t;
            parameter N = 3;
            localparam M = (N << 2) | 1;
            localparam C = N > 2 ? 8'd7 : 8'd9;
            localparam R = $random % 16;
            localparam Q = M % 5 + R[3:0];
            reg [M:0] r = C + 1;
            reg [7:0] mem [0:N];
            wire [3:0] w;
            wire [7:0] bus;
            assign bus[N:0] = w;
            sub #(.W(N + 1), .MASK(C << 4)) s0 (w);
            initial begin
                r[N:1] = 3'b101;
                mem[N - 1] = Q;
                #1 $finish;
            end
        endmodule"#,
    },
    Case {
        name: "fault_dynamic_part_select_below_the_declared_range",
        src: r#"module t;
            reg [11:4] w;
            reg [3:0] i;
            reg [7:0] y;
            initial begin
                w = 8'h5a;
                i = 4'd2;
                #1 y = w[i + 4'd3:i];
            end
        endmodule"#,
    },
    Case {
        name: "fault_string_used_as_a_value",
        src: r#"module t;
            initial #1 $display("%d", "oops");
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

/// How the simulator evaluates a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// At run time, as bytecode: right-hand sides, conditions, delays,
    /// case subjects and labels, repeat counts, continuous-assign and
    /// port expressions.
    Value,
    /// At run time: a procedural bit-select or memory-word target index.
    TargetIndex,
    /// At run time: a system-task argument other than a string literal.
    SysArg,
    /// At elaboration, through `eval_const`.
    Constant,
}

const KINDS: [Kind; 4] = [Kind::Value, Kind::TargetIndex, Kind::SysArg, Kind::Constant];

/// One expression site, taken from the AST, with the scope of the
/// instance it is evaluated in.
struct Site<'a> {
    kind: Kind,
    expr: &'a Expr,
    scope: Arc<Scope>,
}

/// Every expression site of `file` elaborated from `top`. Instances are
/// found by walking the hierarchy in the AST; their scopes come from the
/// design's processes and continuous assigns (an instance with neither
/// evaluates nothing at run time, and its constants are skipped).
fn sites<'a>(file: &'a SourceFile, top: &'a str, design: &Design) -> Vec<Site<'a>> {
    let scopes: HashMap<&str, &Arc<Scope>> = design
        .processes
        .iter()
        .map(|p| &p.scope)
        .chain(design.cassigns.iter().map(|c| &c.scope))
        .map(|scope| (scope.path.as_str(), scope))
        .collect();
    let mut out = Vec::new();
    let mut instances = vec![(String::new(), top)];
    while let Some((path, name)) = instances.pop() {
        let module = file.module(name).expect("instantiated module exists");
        let prefix = if path.is_empty() {
            String::new()
        } else {
            format!("{path}.")
        };
        for item in &module.items {
            if let Item::Instance(inst) = item {
                instances.push((format!("{prefix}{}", inst.name), inst.module.as_str()));
            }
        }
        let Some(scope) = scopes.get(path.as_str()) else {
            continue;
        };
        let mut found = Vec::new();
        for item in &module.items {
            item_sites(item, &mut found);
        }
        out.extend(found.into_iter().map(|(kind, expr)| Site {
            kind,
            expr,
            scope: Arc::clone(scope),
        }));
    }
    out
}

fn item_sites<'a>(item: &'a Item, out: &mut Vec<(Kind, &'a Expr)>) {
    match item {
        Item::Decl(d) => {
            if let Some((msb, lsb)) = &d.range {
                out.extend([(Kind::Constant, msb), (Kind::Constant, lsb)]);
            }
            for v in &d.vars {
                if let Some((hi, lo)) = &v.array {
                    out.extend([(Kind::Constant, hi), (Kind::Constant, lo)]);
                }
                if let Some(init) = &v.init {
                    // Wire initializers become continuous assigns.
                    let kind = if d.kind == DeclKind::Wire {
                        Kind::Value
                    } else {
                        Kind::Constant
                    };
                    out.push((kind, init));
                }
            }
        }
        Item::Param(p) => out.push((Kind::Constant, &p.value)),
        Item::Assign { lhs, rhs, .. } => {
            // Net target indices and bounds are elaboration constants.
            lvalue_sites(lhs, Kind::Constant, out);
            out.push((Kind::Value, rhs));
        }
        Item::Always { body, .. } | Item::Initial { body, .. } => stmt_sites(body, out),
        Item::Instance(inst) => {
            out.extend(
                inst.params
                    .iter()
                    .filter_map(|c| Some((Kind::Constant, c.expr.as_ref()?))),
            );
            out.extend(
                inst.ports
                    .iter()
                    .filter_map(|c| Some((Kind::Value, c.expr.as_ref()?))),
            );
        }
    }
}

/// An assignment target's expressions: its indices (`index_kind`) and
/// its part-select bounds (always constants).
fn lvalue_sites<'a>(lv: &'a LValue, index_kind: Kind, out: &mut Vec<(Kind, &'a Expr)>) {
    match lv {
        LValue::Ident { .. } => {}
        LValue::Index { index, .. } => out.push((index_kind, index)),
        LValue::Range { msb, lsb, .. } => {
            out.extend([(Kind::Constant, msb), (Kind::Constant, lsb)]);
        }
        LValue::Concat { parts, .. } => {
            for p in parts {
                lvalue_sites(p, index_kind, out);
            }
        }
    }
}

fn stmt_sites<'a>(stmt: &'a Stmt, out: &mut Vec<(Kind, &'a Expr)>) {
    let mut value = |e| out.push((Kind::Value, e));
    match stmt {
        Stmt::Block { stmts, .. } => stmts.iter().for_each(|s| stmt_sites(s, out)),
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => {
            value(cond);
            stmt_sites(then_s, out);
            else_s.iter().for_each(|s| stmt_sites(s, out));
        }
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            value(subject);
            for arm in arms {
                out.extend(arm.labels.iter().map(|l| (Kind::Value, l)));
                stmt_sites(&arm.body, out);
            }
            default.iter().for_each(|s| stmt_sites(s, out));
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            value(cond);
            for s in [init, step, body] {
                stmt_sites(s, out);
            }
        }
        Stmt::While { cond: e, body, .. } | Stmt::Repeat { count: e, body, .. } => {
            value(e);
            stmt_sites(body, out);
        }
        Stmt::Forever { body, .. } => stmt_sites(body, out),
        Stmt::Blocking {
            lhs, delay, rhs, ..
        }
        | Stmt::NonBlocking {
            lhs, delay, rhs, ..
        } => {
            value(rhs);
            delay.iter().for_each(&mut value);
            lvalue_sites(lhs, Kind::TargetIndex, out);
        }
        Stmt::Delay {
            amount: e, body, ..
        }
        | Stmt::Wait { cond: e, body, .. } => {
            value(e);
            body.iter().for_each(|s| stmt_sites(s, out));
        }
        Stmt::EventControl { body, .. } => body.iter().for_each(|s| stmt_sites(s, out)),
        Stmt::SysCall { args, .. } => out.extend(
            args.iter()
                .filter(|a| !matches!(a, Expr::Str { .. }))
                .map(|a| (Kind::SysArg, a)),
        ),
        Stmt::EventTrigger { .. } | Stmt::Null { .. } => {}
    }
}

/// The parameters a scope binds: the table its constants evaluate in.
fn params_of(scope: &Scope) -> HashMap<String, LogicVec> {
    scope
        .entries
        .iter()
        .filter_map(|(name, entry)| match entry {
            ScopeEntry::Param(v) => Some((name.clone(), v.clone())),
            _ => None,
        })
        .collect()
}

/// What the oracle checked on one design.
#[derive(Default)]
struct Coverage {
    /// Sites per [`Kind`], in [`KINDS`] order.
    sites: [usize; 4],
    /// Run-time sites whose code holds a part-select with run-time
    /// bounds.
    dynamic_selects: usize,
}

/// Runs the oracle over every site of one design.
fn check_design(label: &str, file: &SourceFile, top: &str) -> Coverage {
    let design = elaborate(file, top).unwrap_or_else(|e| panic!("[{label}] {e}"));
    let sig_lsb: Vec<usize> = design.signals.iter().map(|s| s.lsb).collect();
    let mem_offset: Vec<u64> = design.memories.iter().map(|m| m.offset).collect();
    let stores: Vec<Store> = (0..STORES).map(|s| seeded_store(&design, s)).collect();
    let (mut stack, mut counts) = (Vec::new(), Vec::new());
    let mut coverage = Coverage::default();
    for site in sites(file, top, &design) {
        let name = format!(
            "{:?} site `{}` in `{}`",
            site.kind,
            expr_to_string(site.expr),
            site.scope.path
        );
        coverage.sites[KINDS.iter().position(|k| *k == site.kind).unwrap()] += 1;
        // Every site also reads as a constant: signals are then
        // undeclared, which drives `eval_const` down its fault paths.
        let params = params_of(&site.scope);
        assert_eq!(
            eval_const(site.expr, &params),
            tree_walk::eval_const(site.expr, &params),
            "[{label}] {name}: as an elaboration constant"
        );
        if site.kind == Kind::Constant {
            continue;
        }
        let code = compile_expr(site.expr, &site.scope, &design.signals);
        if code.insts.iter().any(|i| matches!(i, Inst::SliceDyn(_))) {
            coverage.dynamic_selects += 1;
        }
        for (seed, store) in (0u64..).zip(&stores) {
            let time = seed * 37 + 5;
            let mut walk_rng = Lcg::new(seed + 1);
            let walked = tree_walk::eval_expr(
                site.expr,
                &site.scope,
                &mut EvalCtx {
                    store,
                    sig_lsb: &sig_lsb,
                    mem_offset: &mem_offset,
                    time,
                    rng: &mut walk_rng,
                },
            );
            let mut code_rng = Lcg::new(seed + 1);
            let executed = exec_code(
                &code,
                &mut EvalCtx {
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
                "[{label}] {name}: value or fault on store {seed}"
            );
            assert_eq!(
                code_rng.next_u32(),
                walk_rng.next_u32(),
                "[{label}] {name}: next $random draw on store {seed}"
            );
        }
    }
    coverage
}

#[test]
fn bytecode_matches_tree_walk_on_hand_written_cases() {
    let mut total = Coverage::default();
    for case in CASES {
        let file = parse(case.src).expect("parse");
        let coverage = check_design(case.name, &file, "t");
        assert!(
            coverage.sites.iter().sum::<usize>() > 0,
            "[{}] no expression sites",
            case.name
        );
        for (t, c) in total.sites.iter_mut().zip(coverage.sites) {
            *t += c;
        }
        total.dynamic_selects += coverage.dynamic_selects;
    }
    // The cases exist for what no benchmark design has: every kind of
    // site, and part-selects with run-time bounds.
    for (kind, n) in KINDS.iter().zip(total.sites) {
        assert!(n > 0, "no {kind:?} sites in the hand-written cases");
    }
    assert!(
        total.dynamic_selects >= 8,
        "{} dynamic part-selects",
        total.dynamic_selects
    );
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
    let mut constants = 0;
    for (label, file, top) in benchmark_sources() {
        let coverage = check_design(&label, &file, &top);
        assert!(coverage.sites[0] > 0, "[{label}] no run-time sites");
        constants += coverage.sites[3];
    }
    assert!(constants > 0, "no elaboration constants");
}

#[test]
fn runtime_faults_surface_as_sim_errors() {
    for case in CASES.iter().filter(|c| c.name.starts_with("fault_")) {
        let design = elaborate(&parse(case.src).expect("parse"), "t").expect("elaborate");
        let outcome = Simulator::from_design(design, SimConfig::default()).run();
        assert!(
            matches!(outcome, Err(SimError::Runtime { .. })),
            "[{}] expected a runtime fault, got {outcome:?}",
            case.name
        );
    }
}
