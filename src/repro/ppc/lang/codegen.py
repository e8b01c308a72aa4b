"""PPC → PPA-assembly compiler.

Completes the toolchain of the paper's reference [3] ("A Programming Model
for Reconfigurable Mesh Based Parallel Computers"): the same PPC source
that the interpreter walks can be *compiled* to the instruction set of
:mod:`repro.ppa.isa` and executed by :mod:`repro.ppa.executor` — and for
the paper's ``minimum_cost_path()`` listing the compiled stream produces
bit-identical outputs and identical bus-transaction counts (tested).

Compilation is machine-specific: the grid side ``n`` and word width ``h``
are compile-time constants (``N``/``h``/``MAXINT`` fold away), exactly as
a SIMD controller's microprogram would be generated.

Storage model
-------------
* ``parallel`` variables live in per-PE local memory slots (``ld``/``st``).
* scalar variables live in controller registers ``s0..``; one extra
  register is reserved as the bit-loop counter of expanded ``min()``/
  ``selected_min()``.
* expressions evaluate on a register stack ``r0..r15`` (deep nesting past
  16 live temporaries is a :class:`CodegenError`; the listings peak at 4).

The compilable subset (violations raise :class:`CodegenError` with the
source line):

* controller conditions must be ``any(...)``, a comparison of a scalar
  variable against a compile-time constant, or a constant;
* scalar assignments must be a constant, another scalar variable, or
  ``var ± constant`` (loop-counter algebra);
* user function calls are inlined (no recursion); ``return`` may only be
  the last statement of a non-void function;
* direction arguments must be compile-time constants after inlining.

Masking model: PPC evaluates expressions over the full grid (a
communication operand programs *every* switch-box) and gates only the
final assignment, so the generated code releases the runtime mask stack
around each expression and rebuilds it for the store (every ``where``
condition is spilled to a memory slot when pushed). One consequence,
documented: statements of an *inlined* function body also execute with the
caller's masks released, where the interpreter keeps them — the inlined
routines of the paper (``min``/``selected_min``) are insensitive to this
(their per-ring clusters isolate inactive rows), and outputs plus
communication counters are verified identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import PPCError
from repro.ppa.assembler import assemble
from repro.ppa.directions import Direction, opposite
from repro.ppa.executor import ExecutionState, execute
from repro.ppa.isa import Instruction, N_PREGS, N_SREGS
from repro.ppa.machine import PPAMachine
from repro.ppc.lang import ast_nodes as ast
from repro.ppc.lang.analyzer import analyze
from repro.ppc.lang.parser import parse

__all__ = ["CodegenError", "CompiledProgram", "compile_to_asm", "compile_ppc_to_program"]

_MAX_INLINE_DEPTH = 32

_DIRECTIONS = {
    "NORTH": Direction.NORTH,
    "EAST": Direction.EAST,
    "SOUTH": Direction.SOUTH,
    "WEST": Direction.WEST,
}

_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}


class CodegenError(PPCError):
    """Source program outside the compilable subset."""


@dataclass(frozen=True)
class _Binding:
    kind: str  # "pmem" | "sreg" | "const" | "dir"
    value: object  # slot index / sreg index / python int / Direction
    base: str = "int"  # int | logical (for pmem)


@dataclass
class CompiledResult:
    """Outcome of running a compiled program."""

    globals: dict[str, object]
    counters: dict[str, int]
    state: ExecutionState


@dataclass
class CompiledProgram:
    """Assembly + storage layout for one (program, n, h) combination."""

    asm: str
    layout: dict[str, str]  # global name -> "m<slot>" | "s<idx>"
    kinds: dict[str, str]  # global name -> "int" | "logical"
    n: int
    word_bits: int
    mem_words: int
    instructions: list[Instruction] = field(default_factory=list)
    initialised_globals: frozenset = frozenset()

    def run(
        self,
        machine: PPAMachine,
        globals: dict[str, object] | None = None,
        *,
        max_steps: int | None = None,
    ) -> CompiledResult:
        """Execute on *machine*; ``globals`` pre-loads program globals."""
        if machine.n != self.n or machine.word_bits != self.word_bits:
            raise CodegenError(
                f"program compiled for n={self.n}, h={self.word_bits}; "
                f"machine is n={machine.n}, h={machine.word_bits}"
            )
        inputs: dict[str, object] = {}
        for name, value in (globals or {}).items():
            if name not in self.layout:
                raise CodegenError(f"program has no global {name!r}")
            if name in self.initialised_globals:
                raise CodegenError(
                    f"global {name!r} has an explicit initialiser in the "
                    "source; the generated prologue would overwrite the "
                    "injected value"
                )
            inputs[self.layout[name]] = value
        state = execute(
            machine,
            self.instructions,
            inputs=inputs,
            mem_words=self.mem_words,
            max_steps=max_steps or 4_000_000,
        )
        out: dict[str, object] = {}
        for name, where in self.layout.items():
            idx = int(where[1:])
            if where[0] == "m":
                grid = state.memory[idx].copy()
                if self.kinds.get(name) == "logical":
                    grid = grid != 0
                out[name] = grid
            else:
                out[name] = int(state.sregs[idx])
        return CompiledResult(
            globals=out, counters=state.counters, state=state
        )


class _Scope:
    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.names: dict[str, _Binding] = {}

    def lookup(self, name: str) -> _Binding | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class _Compiler:
    def __init__(self, program: ast.Program, n: int, h: int):
        self.program = program
        self.functions = {f.name: f for f in program.functions}
        self.n = n
        self.h = h
        self.maxint = (1 << h) - 1
        self.lines: list[str] = []
        self.next_label = 0
        self.next_mem = 0
        self.next_sreg = 0
        self.reg_top = 0
        self.loop_labels: list[tuple[str, str]] = []  # (continue, break)
        self.mask_slots: list[int] = []  # where-cond slots currently pushed
        self.inline_depth = 0
        self._bit_counter_sreg: int | None = None
        self.globals_scope = _Scope()
        self.layout: dict[str, str] = {}
        self.kinds: dict[str, str] = {}
        self.initialised_globals: set[str] = set()

    # -- emission helpers --------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("        " + text)

    def emit_label(self, label: str) -> None:
        self.lines.append(f"{label}:")

    def label(self, stem: str) -> str:
        self.next_label += 1
        return f"{stem}_{self.next_label}"

    def err(self, node, message: str) -> CodegenError:
        line = getattr(node, "line", 0)
        return CodegenError(f"line {line}: {message}")

    # -- resource allocation ---------------------------------------------

    def alloc_reg(self, node=None) -> int:
        if self.reg_top >= N_PREGS:
            raise self.err(node, "expression too deep for 16 registers")
        r = self.reg_top
        self.reg_top += 1
        return r

    def free_to(self, mark: int) -> None:
        self.reg_top = mark

    @contextmanager
    def unmasked(self):
        """Release every active ``where`` mask for the duration.

        PPC evaluates expressions over the *full grid* (communication
        operands set every switch; only variable assignment is gated), so
        the compiler pops the runtime mask stack around expression
        evaluation and rebuilds it — each ``where`` condition was spilled
        to a memory slot when pushed — before the masked store.
        """
        saved = self.mask_slots
        for _ in saved:
            self.emit("popm")
        self.mask_slots = []
        try:
            yield
        finally:
            for slot in saved:
                mark = self.reg_top
                r = self.alloc_reg()
                self.emit(f"ld    r{r}, {slot}")
                self.emit(f"pushm r{r}")
                self.free_to(mark)
            self.mask_slots = saved

    def alloc_mem(self, node=None) -> int:
        slot = self.next_mem
        self.next_mem += 1
        return slot

    def alloc_sreg(self, node=None) -> int:
        if self.next_sreg >= N_SREGS - 1:  # keep one for the bit counter
            raise self.err(
                node, f"more than {N_SREGS - 1} live scalar variables"
            )
        s = self.next_sreg
        self.next_sreg += 1
        return s

    @property
    def bit_counter(self) -> int:
        if self._bit_counter_sreg is None:
            self._bit_counter_sreg = N_SREGS - 1
        return self._bit_counter_sreg

    # -- constants ---------------------------------------------------------

    def const_eval(self, expr, scope: _Scope):
        """Compile-time value of *expr*: int, Direction, or None."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.Identifier):
            if expr.name in _DIRECTIONS:
                return _DIRECTIONS[expr.name]
            if expr.name == "N":
                return self.n
            if expr.name == "h":
                return self.h
            if expr.name == "MAXINT":
                return self.maxint
            b = scope.lookup(expr.name)
            if b is not None and b.kind in ("const", "dir"):
                return b.value
            return None
        if isinstance(expr, ast.Unary):
            v = self.const_eval(expr.operand, scope)
            if not isinstance(v, int):
                return None
            # "~" masks to the machine word, matching the interpreter.
            return {
                "!": lambda x: int(not x),
                "~": lambda x: ~x & self.maxint,
                "-": lambda x: -x,
            }[expr.op](v)
        if isinstance(expr, ast.Binary):
            a = self.const_eval(expr.left, scope)
            # A deciding constant left operand short-circuits through a
            # non-constant right, exactly like the interpreter: `1 || x`
            # is scalar 1 and `0 && x` is scalar 0 whatever x is, and x
            # — including any communication it contains — never runs.
            if isinstance(a, int):
                if expr.op == "||" and a:
                    return 1
                if expr.op == "&&" and not a:
                    return 0
            b = self.const_eval(expr.right, scope)
            if not (isinstance(a, int) and isinstance(b, int)):
                return None
            try:
                return {
                    "+": lambda: a + b,
                    "-": lambda: a - b,
                    "*": lambda: a * b,
                    "/": lambda: a // b,
                    "%": lambda: a % b,
                    "&": lambda: a & b,
                    "|": lambda: a | b,
                    "^": lambda: a ^ b,
                    "<<": lambda: a << b,
                    ">>": lambda: a >> b,
                    "==": lambda: int(a == b),
                    "!=": lambda: int(a != b),
                    "<": lambda: int(a < b),
                    "<=": lambda: int(a <= b),
                    ">": lambda: int(a > b),
                    ">=": lambda: int(a >= b),
                    "&&": lambda: int(bool(a) and bool(b)),
                    "||": lambda: int(bool(a) or bool(b)),
                }[expr.op]()
            except ZeroDivisionError:
                raise self.err(expr, "constant division by zero")
        if isinstance(expr, ast.Call) and expr.name == "opposite":
            v = self.const_eval(expr.args[0], scope) if expr.args else None
            if isinstance(v, Direction):
                return opposite(v)
            return None
        return None

    def direction_of(self, expr, scope: _Scope) -> Direction:
        v = self.const_eval(expr, scope)
        if not isinstance(v, Direction):
            raise self.err(
                expr, "direction argument must be a compile-time constant"
            )
        return v

    # -- expressions ---------------------------------------------------------
    #
    # compile_expr returns (reg, is_bool): the value in a parallel register
    # and whether it is known to be 0/1.

    def compile_expr(self, expr, scope: _Scope) -> tuple[int, bool]:
        const = self.const_eval(expr, scope)
        if isinstance(const, Direction):
            raise self.err(expr, "direction used as a value")
        if isinstance(const, int):
            r = self.alloc_reg(expr)
            self.emit(f"ldi   r{r}, {const}")
            return r, const in (0, 1)

        if isinstance(expr, ast.Identifier):
            b = scope.lookup(expr.name)
            if expr.name == "ROW":
                r = self.alloc_reg(expr)
                self.emit(f"row   r{r}")
                return r, False
            if expr.name == "COL":
                r = self.alloc_reg(expr)
                self.emit(f"col   r{r}")
                return r, False
            if b is None:
                raise self.err(expr, f"undeclared identifier {expr.name!r}")
            r = self.alloc_reg(expr)
            if b.kind == "pmem":
                self.emit(f"ld    r{r}, {b.value}")
                return r, b.base == "logical"
            if b.kind == "sreg":
                self.emit(f"lds   r{r}, s{b.value}")
                return r, False
            raise self.err(expr, f"cannot load {expr.name!r} here")

        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr, scope)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, scope)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr, scope)
        raise self.err(expr, f"cannot compile expression {expr!r}")

    def _compile_unary(self, expr: ast.Unary, scope) -> tuple[int, bool]:
        if expr.op == "-":
            raise self.err(
                expr, "unary minus on a parallel value is not compilable "
                "(unsigned machine words)"
            )
        r, _ = self.compile_expr(expr.operand, scope)
        if expr.op == "!":
            self.emit(f"not   r{r}, r{r}")
            return r, True
        if expr.op == "~":
            # ~x & MAXINT, as the interpreter: the xor alone leaves the
            # high bits of an operand outside the word (a shifted negative
            # scalar) set.
            mark = self.reg_top
            t = self.alloc_reg(expr)
            self.emit(f"ldi   r{t}, {self.maxint}")
            self.emit(f"xor   r{r}, r{r}, r{t}")
            self.emit(f"and   r{r}, r{r}, r{t}")
            self.free_to(mark)
            return r, False
        raise self.err(expr, f"unknown unary operator {expr.op!r}")

    def _boolify(self, r: int, is_bool: bool) -> None:
        if not is_bool:
            self.emit(f"not   r{r}, r{r}")
            self.emit(f"not   r{r}, r{r}")

    def _compile_binary(self, expr: ast.Binary, scope) -> tuple[int, bool]:
        op = expr.op
        if op in ("&&", "||"):
            # Scalar-constant left operands short-circuit, like the
            # interpreter (and C): the right side — including any
            # communication it contains — is never evaluated.
            left_const = self.const_eval(expr.left, scope)
            if isinstance(left_const, int):
                if op == "&&" and not left_const:
                    r = self.alloc_reg(expr)
                    self.emit(f"ldi   r{r}, 0")
                    return r, True
                if op == "||" and left_const:
                    r = self.alloc_reg(expr)
                    self.emit(f"ldi   r{r}, 1")
                    return r, True
                rb, bb = self.compile_expr(expr.right, scope)
                self._boolify(rb, bb)
                return rb, True
        ra, ba = self.compile_expr(expr.left, scope)
        rb, bb = self.compile_expr(expr.right, scope)

        if op in ("&&", "||"):
            self._boolify(ra, ba)
            self._boolify(rb, bb)
            mnem = "and" if op == "&&" else "or"
            self.emit(f"{mnem:<5} r{ra}, r{ra}, r{rb}")
            self.free_to(rb)
            return ra, True

        if op in _CMP_OPS:
            table = {
                "==": ("cmpeq", False),
                "!=": ("cmpne", False),
                "<": ("cmplt", False),
                "<=": ("cmple", False),
                ">": ("cmplt", True),
                ">=": ("cmple", True),
            }
            mnem, swap = table[op]
            x, y = (rb, ra) if swap else (ra, rb)
            self.emit(f"{mnem} r{ra}, r{x}, r{y}")
            self.free_to(rb)
            return ra, True

        if op in ("<<", ">>"):
            amount = self.const_eval(expr.right, scope)
            if not isinstance(amount, int):
                raise self.err(
                    expr, "shift amount must be a compile-time constant"
                )
            mnem = "shli" if op == "<<" else "shri"
            self.free_to(rb)  # the constant got materialised; discard it
            self.emit(f"{mnem}  r{ra}, r{ra}, {amount}")
            return ra, False

        table = {"+": "add", "-": "sub", "*": "mul", "/": "div",
                 "%": "mod", "&": "and", "|": "or", "^": "xor"}
        if op not in table:
            raise self.err(expr, f"unknown binary operator {op!r}")
        self.emit(f"{table[op]:<5} r{ra}, r{ra}, r{rb}")
        self.free_to(rb)
        return ra, False

    # -- calls -----------------------------------------------------------

    def _compile_call(self, expr: ast.Call, scope) -> tuple[int, bool]:
        name = expr.name
        if name in self.functions:
            return self._inline_function(expr, scope)
        if name == "broadcast":
            rs, _ = self.compile_expr(expr.args[0], scope)
            rl, _ = self.compile_expr(expr.args[2], scope)
            d = self.direction_of(expr.args[1], scope)
            self.emit(f"bcast r{rs}, r{rs}, {d.name}, r{rl}")
            self.free_to(rl)
            return rs, False
        if name == "shift":
            rs, b = self.compile_expr(expr.args[0], scope)
            d = self.direction_of(expr.args[1], scope)
            self.emit(f"shift r{rs}, r{rs}, {d.name}")
            return rs, b
        if name == "or":
            rs, _ = self.compile_expr(expr.args[0], scope)
            rl, _ = self.compile_expr(expr.args[2], scope)
            d = self.direction_of(expr.args[1], scope)
            self.emit(f"wor   r{rs}, r{rs}, {d.name}, r{rl}")
            self.free_to(rl)
            return rs, True
        if name == "bit":
            rs, _ = self.compile_expr(expr.args[0], scope)
            j = self.const_eval(expr.args[1], scope)
            if isinstance(j, int):
                self.emit(f"biti  r{rs}, r{rs}, {j}")
                return rs, True
            arg = expr.args[1]
            if isinstance(arg, ast.Identifier):
                b = scope.lookup(arg.name)
                if b is not None and b.kind == "sreg":
                    self.emit(f"bits  r{rs}, r{rs}, s{b.value}")
                    return rs, True
            raise self.err(
                expr, "bit index must be a constant or a scalar variable"
            )
        if name in ("min", "selected_min"):
            return self._expand_min(expr, scope, selected=name == "selected_min")
        if name == "any":
            raise self.err(
                expr, "any() is only compilable as a loop/if condition"
            )
        raise self.err(expr, f"cannot compile call to {name!r}")

    def _expand_min(self, expr: ast.Call, scope, *, selected: bool) -> tuple[int, bool]:
        """Native expansion of the bit-serial elimination (O(h) block)."""
        d = self.direction_of(expr.args[1], scope)
        rv, _ = self.compile_expr(expr.args[0], scope)  # value/workspace
        rl, _ = self.compile_expr(expr.args[2], scope)  # cluster heads
        mark = self.reg_top
        ren = self.alloc_reg(expr)
        if selected:
            rsel, _ = self.compile_expr(expr.args[3], scope)
            self.emit(f"mov   r{ren}, r{rsel}")
            self.free_to(self.reg_top - 1)
        else:
            self.emit(f"ldi   r{ren}, 1")
        rt = self.alloc_reg(expr)
        ru = self.alloc_reg(expr)
        s = self.bit_counter
        loop = self.label("elim")
        self.emit(f"sldi  s{s}, {self.h - 1}")
        self.emit_label(loop)
        self.emit(f"bits  r{rt}, r{rv}, s{s}")
        self.emit(f"not   r{ru}, r{rt}")
        self.emit(f"and   r{ru}, r{ru}, r{ren}")
        self.emit(f"wor   r{ru}, r{ru}, {d.name}, r{rl}")
        self.emit(f"and   r{ru}, r{ru}, r{rt}")
        self.emit(f"not   r{ru}, r{ru}")
        self.emit(f"and   r{ren}, r{ren}, r{ru}")
        self.emit(f"saddi s{s}, -1")
        self.emit(f"sjge  s{s}, {loop}")
        # deliver: survivors -> heads -> everyone
        self.emit(f"bcast r{rt}, r{rv}, {opposite(d).name}, r{ren}")
        self.emit(f"pushm r{rl}")
        self.emit(f"mov   r{rv}, r{rt}")
        self.emit("popm")
        self.emit(f"bcast r{rv}, r{rv}, {d.name}, r{rl}")
        self.free_to(mark)
        self.free_to(rl)
        return rv, False

    def _inline_function(self, expr: ast.Call, scope) -> tuple[int, bool]:
        fn = self.functions[expr.name]
        if self.inline_depth >= _MAX_INLINE_DEPTH:
            raise self.err(expr, "inline depth exceeded (recursion?)")
        if len(expr.args) != len(fn.params):
            raise self.err(expr, f"{expr.name}() arity mismatch")
        inner = _Scope(self.globals_scope)
        for param, arg in zip(fn.params, expr.args):
            const = self.const_eval(arg, scope)
            if isinstance(const, Direction):
                inner.names[param.name] = _Binding("dir", const)
                continue
            if isinstance(const, int) and not param.type.parallel:
                inner.names[param.name] = _Binding("const", const)
                continue
            if param.type.parallel:
                r, _ = self.compile_expr(arg, scope)
                slot = self.alloc_mem(expr)
                self.emit(f"st    {slot}, r{r}")
                self.free_to(r)
                inner.names[param.name] = _Binding(
                    "pmem", slot, param.type.base
                )
            else:
                raise self.err(
                    expr,
                    f"scalar argument to {expr.name}() must be a "
                    "compile-time constant",
                )
        self.inline_depth += 1
        try:
            body = list(fn.body.statements)
            ret_expr = None
            if body and isinstance(body[-1], ast.Return):
                ret_expr = body[-1].value
                body = body[:-1]
            for stmt in body:
                if _contains_return(stmt):
                    raise self.err(
                        stmt,
                        "return must be the last statement of an inlined "
                        "function",
                    )
                self.compile_statement(stmt, inner)
            if fn.return_type.base == "void":
                r = self.alloc_reg(expr)
                self.emit(f"ldi   r{r}, 0")
                return r, True
            if ret_expr is None:
                raise self.err(expr, f"{expr.name}() falls off without return")
            return self.compile_expr(ret_expr, inner)
        finally:
            self.inline_depth -= 1

    # -- conditions ----------------------------------------------------------

    def branch_if_false(self, cond, scope, target: str) -> None:
        const = self.const_eval(cond, scope)
        if isinstance(const, int):
            if not const:
                self.emit(f"jmp   {target}")
            return
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self.branch_if_true(cond.operand, scope, target)
            return
        if isinstance(cond, ast.Call) and cond.name == "any":
            mark = self.reg_top
            with self.unmasked():
                r, _ = self.compile_expr(cond.args[0], scope)
                self.emit(f"gor   r{r}")
            self.free_to(mark)
            self.emit(f"jz    {target}")
            return
        branch = self._scalar_compare(cond, scope, invert=True)
        if branch is not None:
            self.emit(branch + f", {target}")
            return
        raise self.err(
            cond,
            "condition is not compilable: use any(...), a scalar-variable "
            "comparison against a constant, or a constant",
        )

    def branch_if_true(self, cond, scope, target: str) -> None:
        const = self.const_eval(cond, scope)
        if isinstance(const, int):
            if const:
                self.emit(f"jmp   {target}")
            return
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self.branch_if_false(cond.operand, scope, target)
            return
        if isinstance(cond, ast.Call) and cond.name == "any":
            mark = self.reg_top
            with self.unmasked():
                r, _ = self.compile_expr(cond.args[0], scope)
                self.emit(f"gor   r{r}")
            self.free_to(mark)
            self.emit(f"jnz   {target}")
            return
        branch = self._scalar_compare(cond, scope, invert=False)
        if branch is not None:
            self.emit(branch + f", {target}")
            return
        raise self.err(
            cond,
            "condition is not compilable: use any(...), a scalar-variable "
            "comparison against a constant, or a constant",
        )

    def _scalar_compare(self, cond, scope, *, invert: bool) -> str | None:
        """``svar CMP const`` (either side) as a fused branch, or None."""
        if not (isinstance(cond, ast.Binary) and cond.op in _CMP_OPS):
            return None
        left_var = self._scalar_var(cond.left, scope)
        right_var = self._scalar_var(cond.right, scope)
        op = cond.op
        if left_var is not None:
            c = self.const_eval(cond.right, scope)
            s = left_var
        elif right_var is not None:
            c = self.const_eval(cond.left, scope)
            s = right_var
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        else:
            return None
        if not isinstance(c, int):
            return None
        if invert:
            op = {"==": "!=", "!=": "==", "<": ">=", ">=": "<",
                  "<=": ">", ">": "<="}[op]
        if op == "==":
            return f"sbeq  s{s}, {c}"
        if op == "!=":
            return f"sbne  s{s}, {c}"
        if op == "<":
            return f"sblt  s{s}, {c}"
        if op == ">=":
            return f"sbge  s{s}, {c}"
        if op == "<=":
            return f"sblt  s{s}, {c + 1}"
        if op == ">":
            return f"sbge  s{s}, {c + 1}"
        return None

    def _scalar_var(self, expr, scope) -> int | None:
        if isinstance(expr, ast.Identifier):
            b = scope.lookup(expr.name)
            if b is not None and b.kind == "sreg":
                return int(b.value)
        return None

    # -- statements ----------------------------------------------------------

    def compile_statement(self, stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            inner = _Scope(scope)
            for s in stmt.statements:
                self.compile_statement(s, inner)
        elif isinstance(stmt, ast.VarDecl):
            self._compile_decl(stmt, scope, register_global=False)
        elif isinstance(stmt, ast.Assign):
            self._compile_assign(stmt, scope)
        elif isinstance(stmt, ast.ExprStatement):
            mark = self.reg_top
            with self.unmasked():
                self.compile_expr(stmt.expr, scope)
            self.free_to(mark)
        elif isinstance(stmt, ast.Where):
            self._compile_where(stmt, scope)
        elif isinstance(stmt, ast.If):
            done = self.label("endif")
            if stmt.otherwise is None:
                self.branch_if_false(stmt.condition, scope, done)
                self.compile_statement(stmt.then, _Scope(scope))
            else:
                els = self.label("else")
                self.branch_if_false(stmt.condition, scope, els)
                self.compile_statement(stmt.then, _Scope(scope))
                self.emit(f"jmp   {done}")
                self.emit_label(els)
                self.compile_statement(stmt.otherwise, _Scope(scope))
            self.emit_label(done)
        elif isinstance(stmt, ast.While):
            top = self.label("while")
            done = self.label("wend")
            self.emit_label(top)
            self.branch_if_false(stmt.condition, scope, done)
            self.loop_labels.append((top, done))
            self.compile_statement(stmt.body, _Scope(scope))
            self.loop_labels.pop()
            self.emit(f"jmp   {top}")
            self.emit_label(done)
        elif isinstance(stmt, ast.DoWhile):
            top = self.label("do")
            check = self.label("docheck")
            done = self.label("dend")
            self.emit_label(top)
            self.loop_labels.append((check, done))
            self.compile_statement(stmt.body, _Scope(scope))
            self.loop_labels.pop()
            self.emit_label(check)
            self.branch_if_true(stmt.condition, scope, top)
            self.emit_label(done)
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            if stmt.init is not None:
                self.compile_statement(stmt.init, inner)
            top = self.label("for")
            step = self.label("fstep")
            done = self.label("fend")
            self.emit_label(top)
            if stmt.condition is not None:
                self.branch_if_false(stmt.condition, inner, done)
            self.loop_labels.append((step, done))
            self.compile_statement(stmt.body, _Scope(inner))
            self.loop_labels.pop()
            self.emit_label(step)
            if stmt.step is not None:
                self.compile_statement(stmt.step, inner)
            self.emit(f"jmp   {top}")
            self.emit_label(done)
        elif isinstance(stmt, ast.Break):
            if not self.loop_labels:
                raise self.err(stmt, "'break' outside any loop")
            self.emit(f"jmp   {self.loop_labels[-1][1]}")
        elif isinstance(stmt, ast.Continue):
            if not self.loop_labels:
                raise self.err(stmt, "'continue' outside any loop")
            self.emit(f"jmp   {self.loop_labels[-1][0]}")
        elif isinstance(stmt, ast.Return):
            raise self.err(
                stmt, "return is only compilable as an inlined function's "
                "final statement (the entry point returns via globals)"
            )
        else:
            raise self.err(stmt, f"cannot compile statement {stmt!r}")

    def _compile_where(self, stmt: ast.Where, scope) -> None:
        mark = self.reg_top
        slot = self.alloc_mem(stmt)
        with self.unmasked():
            r, _ = self.compile_expr(stmt.condition, scope)
            self.emit(f"st    {slot}, r{r}")
            self.free_to(mark)
        r = self.alloc_reg(stmt)
        self.emit(f"ld    r{r}, {slot}")
        self.emit(f"pushm r{r}")
        self.free_to(mark)
        self.mask_slots.append(slot)
        self.compile_statement(stmt.then, _Scope(scope))
        self.emit("popm")
        self.mask_slots.pop()
        if stmt.otherwise is not None:
            inv = self.alloc_mem(stmt)
            with self.unmasked():
                r = self.alloc_reg(stmt)
                self.emit(f"ld    r{r}, {slot}")
                self.emit(f"not   r{r}, r{r}")
                self.emit(f"st    {inv}, r{r}")
                self.free_to(mark)
            r = self.alloc_reg(stmt)
            self.emit(f"ld    r{r}, {inv}")
            self.emit(f"pushm r{r}")
            self.free_to(mark)
            self.mask_slots.append(inv)
            self.compile_statement(stmt.otherwise, _Scope(scope))
            self.emit("popm")
            self.mask_slots.pop()

    def _compile_decl(self, decl: ast.VarDecl, scope, *, register_global: bool) -> None:
        for d in decl.declarators:
            if decl.type.parallel:
                slot = self.alloc_mem(decl)
                scope.names[d.name] = _Binding("pmem", slot, decl.type.base)
                if register_global:
                    self.layout[d.name] = f"m{slot}"
                    self.kinds[d.name] = decl.type.base
                    if d.init is not None:
                        self.initialised_globals.add(d.name)
                if d.init is not None:
                    mark = self.reg_top
                    with self.unmasked():
                        r, _ = self.compile_expr(d.init, scope)
                        self.emit(f"st    {slot}, r{r}")
                    self.free_to(mark)
            else:
                s = self.alloc_sreg(decl)
                scope.names[d.name] = _Binding("sreg", s)
                if register_global:
                    self.layout[d.name] = f"s{s}"
                    self.kinds[d.name] = decl.type.base
                    if d.init is not None:
                        self.initialised_globals.add(d.name)
                if d.init is not None:
                    init = self.const_eval(d.init, scope)
                    if not isinstance(init, int):
                        raise self.err(
                            decl, f"scalar initialiser of {d.name!r} must "
                            "be a compile-time constant"
                        )
                    self.emit(f"sldi  s{s}, {init}")
                # globals without an initialiser keep the host-injected
                # value (registers/memory power up as zero otherwise)

    def _compile_assign(self, stmt: ast.Assign, scope) -> None:
        b = scope.lookup(stmt.target)
        if b is None:
            raise self.err(stmt, f"assignment to undeclared {stmt.target!r}")
        if b.kind == "pmem":
            mark = self.reg_top
            value = stmt.value
            if stmt.op != "=":
                value = ast.Binary(
                    stmt.op[:-1],
                    ast.Identifier(stmt.target, stmt.line),
                    stmt.value,
                    stmt.line,
                )
            with self.unmasked():
                r, _ = self.compile_expr(value, scope)
            self.emit(f"st    {b.value}, r{r}")  # the one masked store
            self.free_to(mark)
            return
        if b.kind == "sreg":
            self._compile_scalar_assign(stmt, scope, int(b.value))
            return
        raise self.err(stmt, f"cannot assign to {stmt.target!r}")

    def _compile_scalar_assign(self, stmt: ast.Assign, scope, s: int) -> None:
        value = stmt.value
        if stmt.op != "=":
            value = ast.Binary(
                stmt.op[:-1],
                ast.Identifier(stmt.target, stmt.line),
                stmt.value,
                stmt.line,
            )
        const = self.const_eval(value, scope)
        if isinstance(const, int):
            self.emit(f"sldi  s{s}, {const}")
            return
        # var +/- const (loop-counter algebra), possibly self-referencing
        if isinstance(value, ast.Binary) and value.op in ("+", "-"):
            var = self._scalar_var(value.left, scope)
            delta = self.const_eval(value.right, scope)
            if var is not None and isinstance(delta, int):
                if value.op == "-":
                    delta = -delta
                if var != s:
                    self.emit(f"smov  s{s}, s{var}")
                self.emit(f"saddi s{s}, {delta}")
                return
        other = self._scalar_var(value, scope)
        if other is not None:
            self.emit(f"smov  s{s}, s{other}")
            return
        raise self.err(
            stmt,
            "scalar assignment must be a constant, a scalar variable, or "
            "var +/- constant",
        )

    # -- entry --------------------------------------------------------------

    def compile(self, entry: str) -> tuple[str, dict, dict, int]:
        for decl in self.program.globals:
            self._compile_decl(decl, self.globals_scope, register_global=True)
        fn = self.functions.get(entry)
        if fn is None:
            raise CodegenError(f"no function {entry!r} to compile")
        if fn.params:
            raise CodegenError(
                f"entry point {entry!r} must take no parameters "
                "(pass data through globals)"
            )
        scope = _Scope(self.globals_scope)
        for stmt in fn.body.statements:
            if isinstance(stmt, ast.Return) and stmt.value is None:
                break
            self.compile_statement(stmt, scope)
        self.emit("halt")
        header = (
            f"; compiled from PPC for n={self.n}, h={self.h} "
            f"(entry {entry})\n"
        )
        return (
            header + "\n".join(self.lines) + "\n",
            self.layout,
            self.kinds,
            self.next_mem,
            frozenset(self.initialised_globals),
        )


def _contains_return(stmt) -> bool:
    if isinstance(stmt, ast.Return):
        return True
    children = []
    if isinstance(stmt, ast.Block):
        children = list(stmt.statements)
    for attr in ("then", "otherwise", "body"):
        child = getattr(stmt, attr, None)
        if child is not None:
            children.append(child)
    return any(_contains_return(c) for c in children)


def compile_to_asm(
    source_or_ast, n: int, word_bits: int, entry: str = "main"
) -> CompiledProgram:
    """Compile PPC source (or a parsed program) for an ``n x n``, ``h``-bit
    machine. Returns a :class:`CompiledProgram` ready to ``run``."""
    program = (
        source_or_ast
        if isinstance(source_or_ast, ast.Program)
        else analyze(parse(source_or_ast))
    )
    compiler = _Compiler(program, n, word_bits)
    asm, layout, kinds, mem_words, initialised = compiler.compile(entry)
    return CompiledProgram(
        asm=asm,
        layout=layout,
        kinds=kinds,
        n=n,
        word_bits=word_bits,
        mem_words=max(mem_words, 1),
        instructions=assemble(asm),
        initialised_globals=initialised,
    )


def compile_ppc_to_program(source: str, machine: PPAMachine, entry: str = "main") -> CompiledProgram:
    """Convenience: compile *source* for *machine*'s geometry."""
    return compile_to_asm(source, machine.n, machine.word_bits, entry)
