"""PPC → assembly compiler: semantics parity with the interpreter."""

import numpy as np
import pytest

from repro import PPAMachine, PPAConfig, minimum_cost_path, normalize_weights
from repro.ppc.lang import compile_ppc, programs
from repro.ppc.lang.codegen import CodegenError, compile_to_asm
from repro.workloads import WeightSpec, gnp_digraph

INF16 = (1 << 16) - 1


def machine(n=4, h=16):
    return PPAMachine(PPAConfig(n=n, word_bits=h))


def run(src, n=4, h=16, entry="main", g=None):
    prog = compile_to_asm(src, n, h, entry=entry)
    return prog.run(machine(n, h), globals=g or {})


def both(src, n=4, h=16, entry="main", g=None):
    """Run through the compiler and the interpreter; return both results."""
    compiled = run(src, n, h, entry=entry, g=dict(g or {}))
    interp = compile_ppc(src).run(machine(n, h), entry, globals=dict(g or {}))
    return compiled, interp


class TestExpressions:
    def test_arith_word_semantics(self):
        src = ("parallel int A, B, C, D;"
               "void main() { A = COL + 3; B = COL * COL; C = COL - 1;"
               "D = (COL + 1) % 3; }")
        c, i = both(src)
        for name in "ABCD":
            assert np.array_equal(c.globals[name], i.globals[name]), name

    def test_saturation_and_clamp(self):
        src = ("parallel int A, B;"
               "void main() { A = MAXINT; A = A + 9; B = COL; B = B - 2; }")
        c, i = both(src, h=8)
        assert (c.globals["A"] == 255).all()
        assert np.array_equal(c.globals["B"], i.globals["B"])
        assert c.globals["B"][0].tolist() == [0, 0, 0, 1]

    def test_logicals_and_comparisons(self):
        src = ("parallel logical F, G;"
               "void main() { F = (ROW == COL) && (COL != 0);"
               "G = !(ROW < COL) || (COL == 1); }")
        c, i = both(src)
        assert np.array_equal(c.globals["F"], i.globals["F"])
        assert np.array_equal(c.globals["G"], i.globals["G"])

    def test_bitwise_and_shifts(self):
        src = ("parallel int A;"
               "void main() { A = ((COL << 2) | 1) ^ (COL & 1); A = ~A; }")
        c, i = both(src)
        assert np.array_equal(c.globals["A"], i.globals["A"])

    def test_bitwise_not_of_negative_word_masks(self):
        # the shifted scalar -1 reaches "~" at run time, unfolded
        src = ("parallel int A;"
               "void main() { A = shift(0 - 1, NORTH); A = ~A; }")
        c, i = both(src)
        assert (i.globals["A"] == 0).all()
        assert np.array_equal(c.globals["A"], i.globals["A"])

    def test_constant_folding(self):
        prog = compile_to_asm(
            "parallel int A; void main() { A = (N - 1) * h + MAXINT % 7; }",
            4, 16, entry="main",
        )
        # everything folds: exactly one ldi + one st + halt
        body = [l for l in prog.asm.splitlines() if l.strip() and not
                l.startswith(";")]
        assert any("ldi" in l for l in body)
        assert len(body) == 3

    def test_division_by_zero_traps(self):
        from repro.errors import MachineError

        with pytest.raises(MachineError, match="division by zero"):
            run("parallel int A; void main() { A = COL / ROW; }")


class TestCommunication:
    def test_broadcast_shift_or_bit(self):
        src = ("parallel int A, B; parallel logical F;"
               "void main() {"
               "A = broadcast(ROW * 4 + COL, SOUTH, ROW == 2);"
               "B = shift(COL, EAST);"
               "F = or(bit(COL, 0), EAST, COL == 0); }")
        c, i = both(src)
        for name in ("A", "B", "F"):
            assert np.array_equal(c.globals[name], i.globals[name]), name

    def test_builtin_min_matches(self):
        src = ("parallel int M;"
               "void main() { M = min(ROW * 4 + COL, WEST, COL == N - 1); }")
        c, i = both(src)
        assert np.array_equal(c.globals["M"], i.globals["M"])
        assert c.counters["reductions"] == i.counters["reductions"]
        assert c.counters["broadcasts"] == i.counters["broadcasts"]

    def test_selected_min_matches(self):
        src = ("parallel int M; parallel logical S;"
               "void main() { S = (COL % 2) == 0;"
               "M = selected_min(COL, WEST, COL == N - 1, S); }")
        c, i = both(src)
        assert np.array_equal(c.globals["M"], i.globals["M"])

    def test_opposite_folds(self):
        src = ("parallel int A;"
               "void main() { A = shift(shift(COL, EAST), opposite(EAST)); }")
        c, _ = both(src)
        assert np.array_equal(c.globals["A"], np.tile(np.arange(4), (4, 1)))


class TestMasking:
    def test_where_masks_store_not_evaluation(self):
        src = ("parallel int W; parallel int S; int d;"
               "void main() { where (ROW == d) "
               "S = broadcast(broadcast(W, EAST, COL == d), SOUTH, ROW == COL); }")
        W = np.arange(16).reshape(4, 4)
        c, i = both(src, g={"W": W, "d": 1})
        assert np.array_equal(c.globals["S"], i.globals["S"])
        assert np.array_equal(c.globals["S"][1], W[:, 1])

    def test_nested_where_and_elsewhere(self):
        src = ("parallel int X;"
               "void main() { where (ROW < 2) { where (COL == 0) X = 1;"
               "elsewhere X = 2; } elsewhere X = 3; }")
        c, i = both(src)
        assert np.array_equal(c.globals["X"], i.globals["X"])

    def test_compound_assign_under_mask(self):
        src = ("parallel int X;"
               "void main() { X = 10; where (ROW == 1) X += ROW + COL; }")
        c, i = both(src)
        assert np.array_equal(c.globals["X"], i.globals["X"])

    def test_declaration_inside_where_initialises_unmasked(self):
        src = ("parallel int OUT;"
               "void main() { where (ROW == 0) { parallel int t = 5;"
               "OUT = t; } }")
        c, i = both(src)
        assert np.array_equal(c.globals["OUT"], i.globals["OUT"])


class TestControlFlow:
    def test_for_loop_with_scalar_counter(self):
        src = ("parallel int X; void main() { int j; X = 0;"
               "for (j = 0; j < 5; j = j + 1) X = X + 1; }")
        c, i = both(src)
        assert (c.globals["X"] == 5).all()

    def test_while_any(self):
        src = ("parallel int X;"
               "void main() { X = ROW; while (any(X > 0)) "
               "{ where (X > 0) X = X - 1; } }")
        c, i = both(src)
        assert not c.globals["X"].any()
        assert c.counters["global_ors"] == i.counters["global_ors"]

    def test_do_while(self):
        src = ("parallel int X; void main() { int j = 0; X = 0;"
               "do { X = X + 1; j = j + 1; } while (j < 3); }")
        c, _ = both(src)
        assert (c.globals["X"] == 3).all()

    def test_break_continue(self):
        src = ("parallel int X; void main() { int j; X = 0;"
               "for (j = 0; j < 10; j += 1) {"
               "if (j == 2) continue; if (j == 5) break; X += 1; } }")
        c, i = both(src)
        assert np.array_equal(c.globals["X"], i.globals["X"])
        assert (c.globals["X"] == 4).all()

    def test_if_else_scalar(self):
        src = ("parallel int X; int d;"
               "void main() { if (d == 2) X = 1; else X = 9; }")
        c, _ = both(src, g={"d": 2})
        assert (c.globals["X"] == 1).all()
        c2 = run(src, g={"d": 3})
        assert (c2.globals["X"] == 9).all()


class TestInlining:
    def test_user_function_inlined(self):
        src = ("parallel int X;"
               "parallel int dbl(parallel int a) { return a + a; }"
               "void main() { X = dbl(dbl(COL)); }")
        c, i = both(src)
        assert np.array_equal(c.globals["X"], i.globals["X"])

    def test_pass_by_value(self):
        src = ("parallel int X;"
               "parallel int wipe(parallel int a) { a = 0; return a; }"
               "void main() { X = 7; wipe(X); }")
        c, _ = both(src)
        assert (c.globals["X"] == 7).all()

    def test_direction_parameter_binds_constant(self):
        src = ("parallel int X;"
               "parallel int go(parallel int a, int dir)"
               "{ return shift(a, dir); }"
               "void main() { X = go(COL, EAST); }")
        c, i = both(src)
        assert np.array_equal(c.globals["X"], i.globals["X"])

    def test_recursion_rejected(self):
        with pytest.raises(CodegenError, match="inline depth"):
            compile_to_asm(
                "int f(int a) { return f(a); } void main() { f(1); }",
                4, 16,
            )

    def test_early_return_rejected(self):
        with pytest.raises(CodegenError, match="last statement"):
            compile_to_asm(
                "parallel int X;"
                "parallel int f(parallel int a)"
                "{ where (a == 0) { return a; } return a; }"
                "void main() { X = f(X); }",
                4, 16,
            )


class TestSubsetErrors:
    def test_dynamic_direction_rejected(self):
        with pytest.raises(CodegenError, match="compile-time constant"):
            compile_to_asm(
                "parallel int X; int d;"
                "void main() { X = shift(X, d); }",
                4, 16,
            )

    def test_general_scalar_expr_rejected(self):
        with pytest.raises(CodegenError, match="scalar assignment"):
            compile_to_asm(
                "int a; int b; void main() { a = 1; b = 2; a = a * b; }",
                4, 16,
            )

    def test_uncompilable_condition_rejected(self):
        with pytest.raises(CodegenError, match="condition is not compilable"):
            compile_to_asm(
                "int a; int b; void main() { a = 1; b = 2;"
                "while (a < b) a = a + 1; }",
                4, 16,
            )

    def test_entry_with_params_rejected(self):
        with pytest.raises(CodegenError, match="no parameters"):
            compile_to_asm("void main(int x) { }", 4, 16)

    def test_injecting_initialised_global_rejected(self):
        prog = compile_to_asm("int d = 3; void main() { }", 4, 16)
        with pytest.raises(CodegenError, match="explicit initialiser"):
            prog.run(machine(), globals={"d": 9})

    def test_machine_geometry_checked(self):
        prog = compile_to_asm("void main() { }", 4, 16)
        with pytest.raises(CodegenError, match="compiled for n=4"):
            prog.run(machine(n=8))


class TestPaperListings:
    @pytest.mark.parametrize("seed", range(4))
    def test_compiled_mcp_matches_native(self, seed):
        n, h = 8, 16
        prog = compile_to_asm(programs.MCP_CODE, n, h,
                              entry="minimum_cost_path")
        W = gnp_digraph(n, 0.35, seed=seed, weights=WeightSpec(1, 9),
                        inf_value=INF16)
        d = seed % n
        native = minimum_cost_path(machine(n, h), W, d)
        m = machine(n, h)
        res = prog.run(m, globals={"W": normalize_weights(W, m), "d": d})
        assert np.array_equal(res.globals["SOW"][d], native.sow)
        assert np.array_equal(res.globals["PTN"][d], native.ptn)

    def test_compiled_mcp_comm_parity_with_interpreter(self):
        n, h = 8, 16
        W = gnp_digraph(n, 0.3, seed=1, weights=WeightSpec(1, 9),
                        inf_value=INF16)
        prog = compile_to_asm(programs.MCP_CODE, n, h,
                              entry="minimum_cost_path")
        m1 = machine(n, h)
        compiled = prog.run(m1, globals={"W": normalize_weights(W, m1), "d": 2})
        m2 = machine(n, h)
        interp = compile_ppc(programs.MCP_CODE).run(
            m2, "minimum_cost_path",
            globals={"W": normalize_weights(W, m2), "d": 2},
        )
        for key in ("broadcasts", "reductions", "global_ors"):
            assert compiled.counters[key] == interp.counters[key], key

    def test_compiled_distance_transform(self):
        from repro.apps import distance_transform, random_blobs

        img = random_blobs(8, blobs=2, radius=2, seed=3)
        prog = compile_to_asm(programs.DISTANCE_TRANSFORM_CODE, 8, 16,
                              entry="distance_transform")
        m = machine(8, 16)
        res = prog.run(m, globals={"IMG": img})
        native = distance_transform(machine(8, 16), img)
        assert np.array_equal(res.globals["DIST"], native.distances)

    def test_compiled_min_listing(self):
        src = (programs.MIN_CODE
               + "parallel int V; parallel int OUT;"
               "void main() { OUT = min(V, WEST, COL == N - 1); }")
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 60000, size=(6, 6))
        prog = compile_to_asm(src, 6, 16, entry="main")
        res = prog.run(machine(6, 16), globals={"V": vals})
        assert np.array_equal(
            res.globals["OUT"],
            np.tile(vals.min(axis=1, keepdims=True), (1, 6)),
        )
