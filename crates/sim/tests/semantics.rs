//! Deeper Verilog semantics tests against the event-driven engine:
//! scheduling regions, edge cases of four-state propagation, hierarchy,
//! and testbench constructs the benchmark suite relies on.

use cirfix_parser::parse;
use cirfix_sim::{ProbeSpec, SimConfig, SimError, Simulator};

fn run(src: &str, top: &str) -> Simulator {
    let file = parse(src).expect("parse");
    let mut sim = Simulator::new(&file, top, SimConfig::default()).expect("elaborate");
    sim.run().expect("run");
    sim
}

fn value(sim: &Simulator, name: &str) -> Option<u64> {
    sim.signal(name).expect("signal exists").to_u64()
}

#[test]
fn nba_updates_are_simultaneous_across_processes() {
    // Two always blocks exchanging values through NBAs must swap, not
    // race — the textbook justification for non-blocking assignment.
    let sim = run(
        r#"module t;
            reg clk;
            reg [3:0] a, b;
            initial begin clk = 0; a = 1; b = 9; #12 $finish; end
            always #5 clk = !clk;
            always @(posedge clk) a <= b;
            always @(posedge clk) b <= a;
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "a"), Some(9));
    assert_eq!(value(&sim, "b"), Some(1));
}

#[test]
fn zero_delay_inactive_region_orders_after_active() {
    // A #0 write is deferred past the currently active events.
    let sim = run(
        r#"module t;
            reg [3:0] a, b;
            initial begin
                a = 1;
                #0 a = 2;
            end
            initial b = a;  // runs in the active region: sees 1 or x?
        endmodule"#,
        "t",
    );
    // Process order: first initial runs (a=1, schedules #0), second
    // initial runs (b = 1), then the inactive region sets a = 2.
    assert_eq!(value(&sim, "a"), Some(2));
    assert_eq!(value(&sim, "b"), Some(1));
}

#[test]
fn async_reset_block_fires_between_clock_edges() {
    let sim = run(
        r#"module t;
            reg clk, rst;
            reg [3:0] n;
            initial begin clk = 0; rst = 0; end
            always #5 clk = !clk;
            always @(posedge clk or posedge rst)
                if (rst) n <= 0;
                else n <= n + 1;
            initial begin
                @(negedge clk);
                rst = 1;
                #1 rst = 0;
                #32 $finish;
            end
        endmodule"#,
        "t",
    );
    // Reset pulse at t=10..11; posedges at 15, 25, 35 increment from 0.
    assert_eq!(value(&sim, "n"), Some(3));
}

#[test]
fn casez_wildcards_in_simulation() {
    let sim = run(
        r#"module t;
            reg [3:0] s;
            reg [1:0] y;
            always @(s)
                casez (s)
                    4'b1???: y = 2'd3;
                    4'b01??: y = 2'd2;
                    4'b001?: y = 2'd1;
                    default: y = 2'd0;
                endcase
            initial begin
                s = 4'b0001; #1 ;
                s = 4'b0010; #1 ;
                s = 4'b0111; #1 ;
                s = 4'b1000; #1 ;
            end
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "y"), Some(3), "priority encoder top bit");
}

#[test]
fn parameterized_hierarchy_three_deep() {
    let sim = run(
        r#"
        module leaf (y);
            parameter V = 1;
            output [7:0] y;
            assign y = V;
        endmodule
        module mid (y);
            parameter V = 2;
            output [7:0] y;
            leaf #(.V(V * 3)) l (y);
        endmodule
        module t;
            wire [7:0] y;
            mid #(.V(7)) m (y);
        endmodule
        "#,
        "t",
    );
    assert_eq!(value(&sim, "y"), Some(21));
    assert_eq!(value(&sim, "m.l.y"), Some(21), "hierarchical names resolve");
}

#[test]
fn memory_word_nba_and_readback() {
    let sim = run(
        r#"module t;
            reg clk;
            reg [7:0] mem [0:7];
            reg [2:0] wa, ra;
            reg [7:0] out;
            initial begin
                clk = 0;
                wa = 3; ra = 3;
                #40 $finish;
            end
            always #5 clk = !clk;
            always @(posedge clk) mem[wa] <= 8'h5a;
            always @(negedge clk) out <= mem[ra];
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "out"), Some(0x5a));
}

#[test]
fn wide_arithmetic_and_reductions() {
    let sim = run(
        r#"module t;
            reg [63:0] big;
            reg p, q;
            initial begin
                big = 64'hffff_ffff_ffff_fffe;
                p = ^big;     // parity of 63 ones = 1
                q = &big;     // not all ones = 0
                big = big + 64'd2;   // wraps to 0
            end
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "p"), Some(1));
    assert_eq!(value(&sim, "q"), Some(0));
    assert_eq!(value(&sim, "big"), Some(0));
}

#[test]
fn x_propagates_through_conditions_as_false() {
    let sim = run(
        r#"module t;
            reg u;       // never initialized: x
            reg [3:0] y;
            initial begin
                y = 4'd7;
                if (u) y = 4'd1;
                else y = 4'd2;   // x condition takes the else branch
            end
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "y"), Some(2));
}

#[test]
fn ternary_with_x_condition_merges_branches() {
    let sim = run(
        r#"module t;
            reg u;
            wire [3:0] w;
            assign w = u ? 4'b1100 : 4'b1010;
        endmodule"#,
        "t",
    );
    let w = run_signal_string(&sim, "w");
    assert_eq!(w, "4'b1xx0");
}

fn run_signal_string(sim: &Simulator, name: &str) -> String {
    sim.signal(name).expect("signal").to_string()
}

#[test]
fn while_loop_with_signal_condition() {
    let sim = run(
        r#"module t;
            integer i;
            reg [7:0] total;
            initial begin
                total = 0;
                i = 0;
                while (i < 5) begin
                    total = total + i[7:0];
                    i = i + 1;
                end
            end
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "total"), Some(10));
}

#[test]
fn event_trigger_chains_across_three_processes() {
    let sim = run(
        r#"module t;
            event e1, e2;
            reg [3:0] stage;
            initial begin stage = 0; #5 -> e1; end
            initial begin @(e1); stage = 1; -> e2; end
            initial begin @(e2); stage = 2; end
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "stage"), Some(2));
}

#[test]
fn probe_start_before_any_activity_records_x() {
    let src = r#"module t;
        reg [3:0] q;
        initial #30 q = 5;
        initial #50 $finish;
    endmodule"#;
    let file = parse(src).unwrap();
    let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
    let p = sim
        .add_probe(&ProbeSpec::periodic(vec!["q".into()], 10, 10))
        .unwrap();
    sim.run().unwrap();
    let trace = sim.probe_trace(p);
    assert!(trace.get(10, "q").unwrap().has_unknown());
    assert_eq!(trace.get(40, "q").unwrap().to_u64(), Some(5));
}

#[test]
fn missing_probe_signal_is_an_elaboration_error() {
    let file = parse("module t; reg q; initial q = 0; endmodule").unwrap();
    let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
    let err = sim
        .add_probe(&ProbeSpec::periodic(vec!["ghost".into()], 5, 10))
        .unwrap_err();
    assert!(err.is_compile_failure());
}

#[test]
fn step_limit_guards_against_heavy_mutants() {
    let src = r#"module t;
        reg clk;
        reg [31:0] n;
        initial begin clk = 0; n = 0; end
        always #1 clk = !clk;
        always @(clk) n <= n + 1;
    endmodule"#;
    let file = parse(src).unwrap();
    let mut sim = Simulator::new(
        &file,
        "t",
        SimConfig {
            max_time: 1_000_000_000,
            max_total_ops: 10_000,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let err = sim.run().unwrap_err();
    assert!(matches!(err, SimError::StepLimit { .. }));
}

/// Property test over adversarially "mutated" designs: `forever` loops
/// with and without delays, zero-delay oscillators, and self-triggering
/// NBAs — the shapes GP mutation produces in practice (§4). Every one
/// must terminate within the configured budget and classify as a
/// resource-style [`SimError`] (or finish cleanly), never hang or panic.
#[test]
fn adversarial_mutants_terminate_within_budget_and_classify() {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xC1F1);
    for case in 0..60u32 {
        let width = rng.gen_range(1usize..=32);
        let delay = rng.gen_range(0u64..=3);
        let kind = rng.gen_range(0u32..4);
        let src = match kind {
            // A forever loop whose delay a mutation may have removed.
            0 => {
                let body = if delay == 0 {
                    "n = n + 1;".to_string()
                } else {
                    format!("#{delay} n = n + 1;")
                };
                format!(
                    "module t;\n reg [{msb}:0] n;\n initial begin n = 0; forever begin {body} end end\nendmodule",
                    msb = width - 1
                )
            }
            // A zero-delay oscillator in the blocking world.
            1 => format!(
                "module t;\n reg [{msb}:0] n;\n initial n = 0;\n always @(n) n = n + 1;\nendmodule",
                msb = width - 1
            ),
            // A self-triggering non-blocking assignment.
            2 => format!(
                "module t;\n reg [{msb}:0] n;\n initial n = 0;\n always @(n) n <= n + 1;\nendmodule",
                msb = width - 1
            ),
            // A free-running clock driving a sensitivity-list loop.
            _ => {
                let d = delay.max(1);
                format!(
                    "module t;\n reg clk;\n reg [{msb}:0] n;\n initial begin clk = 0; n = 0; end\n always #{d} clk = !clk;\n always @(clk) n <= n + 1;\nendmodule",
                    msb = width - 1
                )
            }
        };
        let file = parse(&src).unwrap_or_else(|e| panic!("case {case}: parse: {e}\n{src}"));
        let mut sim = Simulator::new(
            &file,
            "t",
            SimConfig {
                max_time: 1_000_000_000,
                max_deltas: 2_000,
                max_ops_per_resume: 20_000,
                max_total_ops: 50_000,
                ..SimConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("case {case}: elaborate: {e}\n{src}"));
        let started = std::time::Instant::now();
        let result = sim.run();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "case {case} overran its budget wall-clock\n{src}"
        );
        match result {
            // Budget-bounded clean exit (event exhaustion / max_time).
            Ok(_) => {}
            Err(
                SimError::Oscillation { .. }
                | SimError::RunawayProcess { .. }
                | SimError::StepLimit { .. }
                | SimError::ResourceExhausted { .. },
            ) => {}
            Err(other) => panic!("case {case}: unexpected classification {other}\n{src}"),
        }
    }
}

#[test]
fn blocking_intra_delay_holds_value_across_other_writes() {
    let sim = run(
        r#"module t;
            reg [7:0] a, b;
            initial begin
                a = 8'd10;
                b = #6 a + 8'd1;  // rhs (11) captured at t=0
            end
            always @(a) begin end
            initial #3 a = 8'd99;
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "b"), Some(11));
    assert_eq!(value(&sim, "a"), Some(99));
}

#[test]
fn vcd_export_of_probe_trace() {
    let src = r#"module t;
        reg clk;
        reg [3:0] n;
        initial begin clk = 0; n = 0; end
        always #5 clk = !clk;
        always @(posedge clk) n <= n + 1;
        initial #45 $finish;
    endmodule"#;
    let file = parse(src).unwrap();
    let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
    let p = sim
        .add_probe(&ProbeSpec::periodic(vec!["n".into(), "clk".into()], 5, 10))
        .unwrap();
    sim.run().unwrap();
    let vcd = cirfix_sim::vcd::trace_to_vcd(sim.probe_trace(p), "t", "1ns");
    assert!(vcd.contains("$var wire 4 ! n $end"));
    assert!(vcd.contains("$var wire 1 \" clk $end"));
    assert!(vcd.contains("#5"));
    assert!(vcd.contains("b0001 !"));
}

/// A mask with bit `t` set for each listed time `t`.
fn times_mask(times: &[u64]) -> u64 {
    times.iter().fold(0, |m, t| m | 1 << t)
}

#[test]
fn edge_wakeups_follow_the_ieee_transition_table() {
    // IEEE 1364-2005 §9.7.2's edge table: a posedge is a transition
    // 0->1, 0->x, 0->z, x->1 or z->1; a negedge is 1->0, 1->x, 1->z,
    // x->0 or z->0; x<->z is neither. `s` takes all 12 ordered
    // transitions between 0/1/x/z (x->0 twice), one per time unit from
    // its initial x, and each wakeup through the event queue sets bit
    // `$time` of a mask. The vector `v` takes the same steps in its LSB
    // and the opposite ones in its MSB: a vector's edge is its LSB's
    // (same section). The expected masks are read off the table by
    // hand, not computed.
    let sim = run(
        r#"module t;
            reg s;
            reg [1:0] v;
            reg [15:0] s_pos, s_neg, v_pos, v_neg;
            initial begin
                s_pos = 0; s_neg = 0; v_pos = 0; v_neg = 0;
                #1 s = 1'b0; v = 2'b10;   // t=1  x->0
                #1 s = 1'b1; v = 2'b01;   // t=2  0->1
                #1 s = 1'bx; v = 2'bxx;   // t=3  1->x
                #1 s = 1'b0; v = 2'b10;   // t=4  x->0
                #1 s = 1'bz; v = 2'bzz;   // t=5  0->z
                #1 s = 1'b1; v = 2'b01;   // t=6  z->1
                #1 s = 1'bz; v = 2'bzz;   // t=7  1->z
                #1 s = 1'bx; v = 2'bxx;   // t=8  z->x
                #1 s = 1'bz; v = 2'bzz;   // t=9  x->z
                #1 s = 1'b0; v = 2'b10;   // t=10 z->0
                #1 s = 1'bx; v = 2'bxx;   // t=11 0->x
                #1 s = 1'b1; v = 2'b01;   // t=12 x->1
                #1 s = 1'b0; v = 2'b10;   // t=13 1->0
                #1 $finish;
            end
            always @(posedge s) s_pos = s_pos | (16'd1 << $time);
            always @(negedge s) s_neg = s_neg | (16'd1 << $time);
            always @(posedge v) v_pos = v_pos | (16'd1 << $time);
            always @(negedge v) v_neg = v_neg | (16'd1 << $time);
        endmodule"#,
        "t",
    );
    let posedges = times_mask(&[2, 5, 6, 11, 12]);
    let negedges = times_mask(&[1, 3, 4, 7, 10, 13]);
    assert_eq!(value(&sim, "s_pos"), Some(posedges), "posedge s");
    assert_eq!(value(&sim, "s_neg"), Some(negedges), "negedge s");
    assert_eq!(value(&sim, "v_pos"), Some(posedges), "posedge v");
    assert_eq!(value(&sim, "v_neg"), Some(negedges), "negedge v");
}

#[test]
fn continuous_assigns_settle_before_inactive_and_after_nba_updates() {
    // IEEE 1364-2005 §11.6.1: a continuous assign is a process sensitive
    // to its operands; an operand change adds an *active* update event.
    // §11.4's reference model runs every active event before it promotes
    // the inactive (`#0`) region, and promotes the nonblocking-update
    // region only once the inactive region is empty too. So a `#0`
    // reader after a blocking write to `a` sees `y` and the assign
    // chained on it (`z`) already updated; a `#0` reader after `a <= …`
    // still sees the old `y`, and an `@(y)` reader sees the new one.
    // Each value below is worked out by hand from those rules.
    let sim = run(
        r#"module t;
            reg [3:0] a;
            wire [3:0] y, z;
            reg [3:0] y0, z0, y1, z1, y_nba, y_late, seen, wakes;
            assign y = a + 4'd1;
            assign z = {y[1:0], y[3:2]};
            always @(z) begin seen = z; wakes = wakes + 4'd1; end
            initial begin
                wakes = 4'd0;
                #1 a = 4'd2;          // y = 3, z = 4'b1100
                #0 y0 = y; z0 = z;
                a = 4'd5;             // y = 6, z = 4'b1001
                #0 y1 = y; z1 = z;
                a <= 4'd9;            // lands in the NBA region: y = 10, z = 4'b1010
                #0 y_nba = y;
                @(y) y_late = y;
                #1 $finish;
            end
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "y0"), Some(3), "#0 after a blocking write");
    assert_eq!(
        value(&sim, "z0"),
        Some(0b1100),
        "assign driven by an assign"
    );
    assert_eq!(value(&sim, "y1"), Some(6));
    assert_eq!(value(&sim, "z1"), Some(0b1001));
    assert_eq!(
        value(&sim, "y_nba"),
        Some(6),
        "#0 runs before the NBA region"
    );
    assert_eq!(value(&sim, "y_late"), Some(10), "@(y) after the NBA update");
    assert_eq!(value(&sim, "seen"), Some(0b1010));
    assert_eq!(value(&sim, "wakes"), Some(3), "one wakeup per change of z");
}

#[test]
fn blocking_and_nonblocking_chains_on_one_clock_edge() {
    // IEEE 1364-2005 §11.6.3: a blocking assignment completes before the
    // next statement of its block runs (§11.4.1: statements of a
    // begin-end block execute in order), so `b1 = d; b2 = b1; b3 = b2;`
    // copies `d` into all three on one edge. §11.6.4: a nonblocking
    // assignment evaluates its right-hand side when it executes and
    // schedules the update in the NBA region, so `n1 <= d; n2 <= n1;
    // n3 <= n2;` shifts by one stage per edge. The sampler reads after
    // `#0`: the always blocks woken by the edge are active events and
    // have run, while the NBA region, promoted only after the inactive
    // one (§11.4), has not. One time unit later every update has landed.
    // The expected words, `{b1, b2, b3, n1, n2, n3}` at `#0` and
    // `{n1, n2, n3}` a unit later, are written out by hand.
    let sim = run(
        r#"module t;
            reg clk;
            reg [3:0] d, b1, b2, b3, n1, n2, n3;
            reg [23:0] mid1, mid2, mid3;
            reg [11:0] end1, end2, end3;
            always @(posedge clk) begin b1 = d; b2 = b1; b3 = b2; end
            always @(posedge clk) begin n1 <= d; n2 <= n1; n3 <= n2; end
            initial begin
                clk = 0; d = 4'd1;
                b1 = 0; b2 = 0; b3 = 0; n1 = 0; n2 = 0; n3 = 0;
                #1 clk = 1;
                #0 mid1 = {b1, b2, b3, n1, n2, n3};
                #1 end1 = {n1, n2, n3};
                clk = 0; d = 4'd2;
                #1 clk = 1;
                #0 mid2 = {b1, b2, b3, n1, n2, n3};
                #1 end2 = {n1, n2, n3};
                clk = 0; d = 4'd3;
                #1 clk = 1;
                #0 mid3 = {b1, b2, b3, n1, n2, n3};
                #1 end3 = {n1, n2, n3};
                $finish;
            end
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "mid1"), Some(0x111_000), "edge 1 at #0");
    assert_eq!(value(&sim, "end1"), Some(0x100), "edge 1 settled");
    assert_eq!(value(&sim, "mid2"), Some(0x222_100), "edge 2 at #0");
    assert_eq!(value(&sim, "end2"), Some(0x210), "edge 2 settled");
    assert_eq!(value(&sim, "mid3"), Some(0x333_210), "edge 3 at #0");
    assert_eq!(value(&sim, "end3"), Some(0x321), "edge 3 settled");
}

fn elaboration_error(src: &str) -> String {
    let file = parse(src).expect("parse");
    match Simulator::new(&file, "t", SimConfig::default()) {
        Ok(_) => panic!("expected an elaboration error"),
        Err(e) => {
            assert!(e.is_compile_failure(), "{e}");
            e.to_string()
        }
    }
}

#[test]
fn procedural_part_select_targets_honour_the_declared_lsb() {
    // On `reg [8:1]`, `[4:1]` names the four low bits. The part-select
    // writes must agree with a bit-select loop over the same bits, with
    // a continuous assign and with a part-select read.
    let sim = run(
        r#"module t;
            reg [8:1] lo, hi, lo_bits, hi_bits;
            reg [3:0] lo_read, hi_read;
            wire [8:1] w;
            integer i;
            assign w[4:1] = 4'hf;
            assign w[8:5] = 4'h0;
            initial begin
                lo = 8'h00; lo[4:1] = 4'hf;
                hi = 8'h00; hi[8:5] = 4'hf;
                lo_bits = 8'h00; hi_bits = 8'h00;
                for (i = 1; i <= 4; i = i + 1) begin
                    lo_bits[i] = 1'b1;
                    hi_bits[i + 4] = 1'b1;
                end
                lo_read = lo[4:1];
                hi_read = hi[8:5];
            end
        endmodule"#,
        "t",
    );
    assert_eq!(value(&sim, "lo"), Some(0b0000_1111));
    assert_eq!(value(&sim, "hi"), Some(0b1111_0000));
    assert_eq!(value(&sim, "lo_bits"), Some(0b0000_1111));
    assert_eq!(value(&sim, "hi_bits"), Some(0b1111_0000));
    assert_eq!(value(&sim, "w"), Some(0b0000_1111));
    assert_eq!(value(&sim, "lo_read"), Some(0xf));
    assert_eq!(value(&sim, "hi_read"), Some(0xf));
}

#[test]
fn procedural_part_select_target_below_the_declared_range_is_rejected() {
    let err = elaboration_error("module t; reg [8:1] r; initial r[3:0] = 4'hf; endmodule");
    assert!(
        err.contains("part-select below the declared range"),
        "{err}"
    );
}

#[test]
fn continuous_part_select_target_below_the_declared_range_is_rejected() {
    let err = elaboration_error("module t; wire [8:1] w; assign w[3:0] = 4'hf; endmodule");
    assert!(
        err.contains("part-select below the declared range"),
        "{err}"
    );
}

#[test]
fn part_select_targets_share_the_read_checks_on_both_paths() {
    // A target that ends above the declared range keeps its in-range bits
    // (IEEE 1364-2005 §5.2.1): `r[9:5]` on `reg [8:1]` writes bits 8:5.
    let sim = run(
        "module t; reg [8:1] r; initial begin r = 8'h00; r[9:5] = 5'h1f; end endmodule",
        "t",
    );
    assert_eq!(value(&sim, "r"), Some(0b1111_0000));
    // Bounds a width cannot hold and widths past the limit fail the same
    // checks, with the same text, procedurally and in an assign.
    for (select, fault) in [
        ("[64'hffff_ffff_ffff_ffff:0]", "part-select msb < lsb"),
        ("[65537:1]", "part-select [65537:1] exceeds the width limit"),
    ] {
        let err = elaboration_error(&format!(
            "module t; reg [8:1] r; initial r{select} = 1'b1; endmodule"
        ));
        assert!(err.ends_with(&format!("in `t`: {fault}")), "{err}");
        let err = elaboration_error(&format!(
            "module t; wire [8:1] w; assign w{select} = 1'b1; endmodule"
        ));
        assert!(
            err.ends_with(&format!("part select on `w` in `t`: {fault}")),
            "{err}"
        );
    }
}
