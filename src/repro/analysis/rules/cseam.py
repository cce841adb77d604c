"""Cross-language seam verifier: ``_soa_march.c`` vs its Python mirrors.

The compiled SoA engine speaks to Python through a hand-maintained ABI:
a ctypes struct mirror, numpy arrays marshalled into raw pointers,
counter-slot numbers, kernel-id codes and a pair of magic values.  Each
of those correspondences lives in *two* files that nothing used to
cross-check — a reordered struct field or renumbered counter slot
compiles fine, loads fine, and silently corrupts every simulation
counter.  (The runtime magic/ABI guards catch gross skew, but only at
execution time and only for the layout, not for slot or kernel-id
drift.)

Three project rules pin the seam at lint time, each finding naming the
C and the Python location of the disagreement:

* ``c-seam-layout`` — the ``_SoaState`` ctypes mirror must list the
  same fields, in the same order, with the same 8-byte kinds as the C
  ``SoaState`` struct (first divergence reported, so one swap is one
  finding); the struct magic must equal ``SOA_MAGIC``; every array the
  prologue marshals into a pointer field must carry the dtype the C
  side will read through it.
* ``c-seam-counters`` — ``_C_*`` slot constants must match the ``C_*``
  defines value-for-value.
* ``c-seam-kernels`` — reduce/process kernel ids (``_RED_CODES``, the
  codes ``_proc_code`` returns) must match the ``RED_*``/``PROC_*``
  defines in both directions, the scalar-reduce surface in
  ``algorithms/base.py`` must be exactly what the C kernel implements,
  and ``soakernel.py`` must still be able to find ``SOA_ABI_VERSION``.

All checks are per-name/per-field, so a single mutation yields a
single finding.  On projects without the kernel pair (fixture repos),
the rules are silent; with only one side present they report the
missing counterpart.
"""

from __future__ import annotations

import ast
import weakref

from repro.analysis.astutils import dotted_name, find_class
from repro.analysis.cparse import CUnit, parse_c
from repro.analysis.context import Project
from repro.analysis.registry import rule

C_PATH = "src/repro/accel/engine/_soa_march.c"
SOA_PATH = "src/repro/accel/engine/soa.py"
KERNEL_PATH = "src/repro/accel/engine/soakernel.py"
ALGORITHM_PATH = "src/repro/algorithms/base.py"

C_STRUCT = "SoaState"
PY_MIRROR = "_SoaState"
#: the soa.py function whose return values are the kernel's PROC codes
PROC_FUNCTION = "_proc_code"

#: ctypes constructors -> 8-byte field kind.
_CTYPES_KINDS = {
    "c_longlong": "i64", "c_int64": "i64",
    "c_double": "f64",
    "c_void_p": "ptr",
}

_cunit_memo: "weakref.WeakKeyDictionary[Project, CUnit]" = \
    weakref.WeakKeyDictionary()


def _c_unit(project: Project, ctx) -> CUnit:
    if project not in _cunit_memo:
        _cunit_memo[project] = parse_c(ctx.source)
    return _cunit_memo[project]


def _seam_modules(project: Project):
    """(c ctx, soa ctx) when the seam exists here; (None, None) plus a
    finding when exactly one side is missing."""
    c_ctx = project.module(C_PATH)
    py_ctx = project.module(SOA_PATH)
    return c_ctx, py_ctx


def _ckind(unit: CUnit, field) -> str:
    if field.pointer:
        return "ptr"
    canon = unit.canonical_type(field.scalar)
    return {"long long": "i64", "double": "f64"}.get(canon, canon)


# ----------------------------------------------------------------------
# soa.py extractors
# ----------------------------------------------------------------------

def _ctypes_aliases(tree: ast.Module) -> dict[str, str]:
    """Module aliases like ``_i64 = ctypes.c_longlong`` -> kind."""
    aliases: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            tail = dotted_name(stmt.value).rsplit(".", 1)[-1]
            if tail in _CTYPES_KINDS:
                aliases[stmt.targets[0].id] = _CTYPES_KINDS[tail]
    return aliases


def _mirror_fields(tree: ast.Module) -> list[tuple[str, str, int]] | None:
    """``(name, kind, line)`` per ``_SoaState._fields_`` entry."""
    cls = find_class(tree, PY_MIRROR)
    if cls is None:
        return None
    aliases = _ctypes_aliases(tree)
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "_fields_"
                        for t in stmt.targets) \
                and isinstance(stmt.value, (ast.Tuple, ast.List)):
            fields = []
            for entry in stmt.value.elts:
                if not (isinstance(entry, (ast.Tuple, ast.List))
                        and len(entry.elts) == 2
                        and isinstance(entry.elts[0], ast.Constant)):
                    return None
                name = entry.elts[0].value
                type_name = dotted_name(entry.elts[1])
                kind = aliases.get(
                    type_name,
                    _CTYPES_KINDS.get(type_name.rsplit(".", 1)[-1], "?"))
                fields.append((name, kind, entry.lineno))
            return fields
    return None


def _module_int_constants(tree: ast.Module, prefix: str,
                          ) -> dict[str, tuple[int, int]]:
    """``NAME -> (value, line)`` for top-level int assignments."""
    out: dict[str, tuple[int, int]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id.startswith(prefix) \
                and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, int):
            out[stmt.targets[0].id] = (stmt.value.value, stmt.lineno)
    return out


def _dict_literal(node: ast.AST) -> ast.Dict | None:
    """The dict literal in ``X = {...}`` or ``X = Wrapper({...})``."""
    if isinstance(node, ast.Dict):
        return node
    if isinstance(node, ast.Call) and node.args \
            and isinstance(node.args[0], ast.Dict):
        return node.args[0]
    return None


def _top_level_dict(tree: ast.Module, name: str,
                    ) -> tuple[ast.Dict, int] | None:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id == name:
            literal = _dict_literal(stmt.value)
            if literal is not None:
                return literal, stmt.lineno
    return None


def _arr_dtype_kind(call: ast.Call) -> str | None:
    """The marshalled dtype of one ``arr(...)`` call (default int64)."""
    dtype_node = None
    if len(call.args) >= 2:
        dtype_node = call.args[1]
    for kw in call.keywords:
        if kw.arg == "dtype":
            dtype_node = kw.value
    if dtype_node is None:
        return "i64"
    tail = dotted_name(dtype_node).rsplit(".", 1)[-1]
    return {"float64": "f64", "int64": "i64"}.get(tail)


def _marshalled_dtypes(tree: ast.Module) -> dict[str, tuple[str, int]]:
    """``struct field -> (dtype kind, line)`` for every ``st.X =
    ptr(...)`` whose array dtype is statically visible."""
    # every name an arr(...) result is bound to, module-wide
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.value, ast.Call) \
                and dotted_name(node.value.func) == "arr":
            kind = _arr_dtype_kind(node.value)
            target = dotted_name(node.targets[0])
            if kind is not None and target:
                bindings[target] = kind
    out: dict[str, tuple[str, int]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "st"
                and isinstance(node.value, ast.Call)
                and dotted_name(node.value.func) == "ptr"
                and len(node.value.args) == 1):
            continue
        field = node.targets[0].attr
        arg = node.value.args[0]
        kind = None
        if isinstance(arg, ast.Call) and dotted_name(arg.func) == "arr":
            kind = _arr_dtype_kind(arg)
        else:
            kind = bindings.get(dotted_name(arg))
        if kind is not None:
            out.setdefault(field, (kind, node.lineno))
    return out


def _proc_codes(tree: ast.Module) -> list[tuple[int, int]] | None:
    """``(code, line)`` for every int ``PROC_FUNCTION`` returns, or None
    when soa.py defines no such function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == PROC_FUNCTION:
            return [(const.value, const.lineno)
                    for ret in ast.walk(node) if isinstance(ret, ast.Return)
                    and ret.value is not None
                    for const in ast.walk(ret.value)
                    if isinstance(const, ast.Constant)
                    and type(const.value) is int]
    return None


# ----------------------------------------------------------------------
# the rules
# ----------------------------------------------------------------------

@rule("c-seam-layout", scope="project",
      description="the _SoaState ctypes mirror, marshalled array dtypes "
                  "and struct magic must match the C SoaState layout")
def check_c_seam_layout(project: Project):
    c_ctx, py_ctx = _seam_modules(project)
    if c_ctx is None and py_ctx is None:
        return
    if c_ctx is None or py_ctx is None:
        present = py_ctx or c_ctx
        missing = C_PATH if c_ctx is None else SOA_PATH
        yield present.finding(
            1, f"C seam is one-sided: {present.relpath} exists but "
               f"{missing} is missing — the kernel ABI cannot be "
               f"verified", symbol="seam-missing")
        return
    unit = _c_unit(project, c_ctx)
    struct = unit.structs.get(C_STRUCT)
    try:
        mirror = _mirror_fields(py_ctx.tree)
    except SyntaxError:
        return
    if struct is None:
        yield c_ctx.finding(1, f"struct {C_STRUCT} not found in "
                               f"{C_PATH} (renamed?) — {SOA_PATH} mirrors "
                               f"a struct that no longer exists",
                            symbol="struct-missing")
        return
    if mirror is None:
        yield py_ctx.finding(
            1, f"{PY_MIRROR}._fields_ not found as a literal tuple in "
               f"{SOA_PATH} — the mirror of {C_PATH}:{struct.line} "
               f"{C_STRUCT} cannot be verified", symbol="mirror-missing")
        return

    # field-by-field, in order; first divergence only (a swap would
    # otherwise cascade into a mismatch at every later index)
    for index, (cfield, (pname, pkind, pline)) in enumerate(
            zip(struct.fields, mirror)):
        ckind = _ckind(unit, cfield)
        if cfield.name != pname:
            yield py_ctx.finding(
                pline,
                f"struct field order diverges at index {index}: "
                f"{C_PATH}:{cfield.line} declares {cfield.name!r} but "
                f"{SOA_PATH}:{pline} mirrors {pname!r} — every later "
                f"field is shifted 8 bytes",
                symbol=f"field-order:{cfield.name}")
            break
        if ckind != pkind:
            yield py_ctx.finding(
                pline,
                f"struct field {cfield.name!r} kind mismatch: "
                f"{C_PATH}:{cfield.line} declares {ckind} but "
                f"{SOA_PATH}:{pline} mirrors {pkind}",
                symbol=f"field-kind:{cfield.name}")
            break
    else:
        if len(struct.fields) != len(mirror):
            longer, at = ((C_PATH, struct.line)
                          if len(struct.fields) > len(mirror)
                          else (SOA_PATH, mirror[-1][2] if mirror else 1))
            yield py_ctx.finding(
                mirror[-1][2] if mirror else 1,
                f"struct field count mismatch: {C_PATH}:{struct.line} "
                f"{C_STRUCT} has {len(struct.fields)} fields, "
                f"{SOA_PATH} {PY_MIRROR} mirrors {len(mirror)} "
                f"(extra fields in {longer}:{at})",
                symbol="field-count")

    # struct magic: the runtime guard value must be the C constant
    magic_define = unit.defines.get("SOA_MAGIC")
    py_magic = _module_int_constants(py_ctx.tree, "_MAGIC").get("_MAGIC")
    if magic_define is None or magic_define.int_value() is None:
        yield c_ctx.finding(1, f"#define SOA_MAGIC not found (or not an "
                               f"integer literal) in {C_PATH} — the "
                               f"runtime layout guard is unverifiable",
                            symbol="magic:SOA_MAGIC")
    elif py_magic is None:
        yield py_ctx.finding(1, f"_MAGIC constant not found in {SOA_PATH} "
                                f"to mirror {C_PATH}:{magic_define.line} "
                                f"SOA_MAGIC", symbol="magic:_MAGIC")
    elif py_magic[0] != magic_define.int_value():
        yield py_ctx.finding(
            py_magic[1],
            f"struct magic mismatch: {SOA_PATH}:{py_magic[1]} _MAGIC = "
            f"{py_magic[0]:#x} but {C_PATH}:{magic_define.line} "
            f"SOA_MAGIC = {magic_define.int_value():#x} — the kernel "
            f"will reject every call", symbol="magic:value")

    # marshalled dtypes: what the prologue allocates vs what C reads
    if struct is not None:
        marshalled = _marshalled_dtypes(py_ctx.tree)
        for cfield in struct.fields:
            if not cfield.pointer or cfield.name not in marshalled:
                continue
            canon = unit.canonical_type(cfield.scalar)
            expected = {"long long": "i64", "double": "f64"}.get(canon)
            got, line = marshalled[cfield.name]
            if expected is not None and got != expected:
                yield py_ctx.finding(
                    line,
                    f"marshalled dtype mismatch for {cfield.name!r}: "
                    f"{C_PATH}:{cfield.line} reads {expected} through "
                    f"the pointer but {SOA_PATH}:{line} allocates "
                    f"{got} — the kernel will reinterpret raw bytes",
                    symbol=f"dtype:{cfield.name}")


@rule("c-seam-counters", scope="project",
      description="the _C_* counter-slot numbers in soa.py must match "
                  "the kernel's C_* defines")
def check_c_seam_counters(project: Project):
    c_ctx, py_ctx = _seam_modules(project)
    if c_ctx is None or py_ctx is None:
        return                          # layout rule reports one-sidedness
    unit = _c_unit(project, c_ctx)
    try:
        tree = py_ctx.tree
    except SyntaxError:
        return
    c_slots = {name: d for name, d in unit.defines.items()
               if name.startswith("C_") and d.int_value() is not None}
    py_slots = _module_int_constants(tree, "_C_")

    # per-name value agreement (C_X <-> _C_X)
    for cname, define in sorted(c_slots.items()):
        pyname = "_" + cname
        if pyname not in py_slots:
            yield py_ctx.finding(
                1, f"counter slot {cname} ({C_PATH}:{define.line}) has "
                   f"no {pyname} constant in {SOA_PATH}",
                symbol=f"slot:{cname}")
            continue
        value, line = py_slots[pyname]
        if value != define.int_value():
            yield py_ctx.finding(
                line,
                f"counter slot number mismatch: {SOA_PATH}:{line} "
                f"{pyname} = {value} but {C_PATH}:{define.line} {cname} "
                f"= {define.int_value()} — counters land in the wrong "
                f"SimStats field", symbol=f"slot:{cname}")
    for pyname, (_value, line) in sorted(py_slots.items()):
        if pyname[1:] not in c_slots:
            yield py_ctx.finding(
                line, f"{SOA_PATH}:{line} {pyname} has no {pyname[1:]} "
                      f"define in {C_PATH}", symbol=f"slot:{pyname[1:]}")


@rule("c-seam-kernels", scope="project",
      description="reduce/process kernel id codes and the ABI version "
                  "probe must match the C RED_*/PROC_* declarations")
def check_c_seam_kernels(project: Project):
    c_ctx, py_ctx = _seam_modules(project)
    if c_ctx is None or py_ctx is None:
        return
    unit = _c_unit(project, c_ctx)
    try:
        tree = py_ctx.tree
    except SyntaxError:
        return
    red_defines = {name: d for name, d in unit.defines.items()
                   if name.startswith("RED_")
                   and d.int_value() is not None}
    red_codes = _top_level_dict(tree, "_RED_CODES")
    if not red_defines and red_codes is None:
        return

    # 1. _RED_CODES <-> RED_* defines, per name
    py_red: dict[str, tuple[int, int]] = {}
    if red_codes is not None:
        literal, _line = red_codes
        for key, value in zip(literal.keys, literal.values):
            if isinstance(key, ast.Constant) \
                    and isinstance(value, ast.Constant):
                py_red[key.value] = (value.value, key.lineno)
    elif red_defines:
        yield py_ctx.finding(
            1, f"_RED_CODES mapping not found in {SOA_PATH} to mirror "
               f"the RED_* defines of {C_PATH}", symbol="red:missing")
    for op, (code, line) in sorted(py_red.items()):
        cname = f"RED_{op.upper()}"
        define = red_defines.get(cname)
        if define is None:
            yield py_ctx.finding(
                line, f"_RED_CODES[{op!r}] ({SOA_PATH}:{line}) has no "
                      f"{cname} define in {C_PATH} — the kernel cannot "
                      f"run that reduction", symbol=f"red:{op}")
        elif define.int_value() != code:
            yield py_ctx.finding(
                line,
                f"reduce kernel id mismatch for {op!r}: "
                f"{SOA_PATH}:{line} sends {code} but "
                f"{C_PATH}:{define.line} {cname} = {define.int_value()}",
                symbol=f"red:{op}")
    for cname, define in sorted(red_defines.items()):
        if cname[len("RED_"):].lower() not in py_red:
            yield py_ctx.finding(
                1, f"{C_PATH}:{define.line} declares {cname} but "
                   f"_RED_CODES in {SOA_PATH} never sends it",
                symbol=f"red:{cname[len('RED_'):].lower()}")

    # 2. the scalar-reduce surface the Python engines support must be
    #    exactly the set the C kernel has closed forms for
    alg_ctx = project.module(ALGORITHM_PATH)
    if alg_ctx is not None and py_red:
        try:
            scalar = _top_level_dict(alg_ctx.tree, "_SCALAR_REDUCE")
        except SyntaxError:
            scalar = None
        if scalar is not None:
            literal, line = scalar
            alg_ops = {key.value: key.lineno for key in literal.keys
                       if isinstance(key, ast.Constant)}
            for op in sorted(set(alg_ops) - set(py_red)):
                yield project.finding(
                    ALGORITHM_PATH, alg_ops[op],
                    f"scalar reduce {op!r} ({ALGORITHM_PATH}:"
                    f"{alg_ops[op]}) has no _RED_CODES entry in "
                    f"{SOA_PATH} — soa runs of it silently fall back to "
                    f"the reference engine", symbol=f"reduce-op:{op}")
            for op in sorted(set(py_red) - set(alg_ops)):
                yield py_ctx.finding(
                    py_red[op][1],
                    f"_RED_CODES[{op!r}] ({SOA_PATH}:{py_red[op][1]}) "
                    f"names a reduce op _SCALAR_REDUCE in "
                    f"{ALGORITHM_PATH}:{line} does not define",
                    symbol=f"reduce-op:{op}")

    # 3. process kernel codes: every code soa.py sends must be declared,
    #    and every declared code must be sent
    proc_defines = {name: d for name, d in unit.defines.items()
                    if name.startswith("PROC_")
                    and d.int_value() is not None}
    sent = _proc_codes(tree)
    if proc_defines and sent is None:
        yield py_ctx.finding(
            1, f"{PROC_FUNCTION}() not found in {SOA_PATH} to send the "
               f"PROC_* codes of {C_PATH}", symbol="proc:missing")
    elif proc_defines:
        declared = {d.int_value() for d in proc_defines.values()}
        undeclared = [(code, line) for code, line in sent
                      if code not in declared]
        for code, line in undeclared:
            yield py_ctx.finding(
                line,
                f"{SOA_PATH}:{line} {PROC_FUNCTION}() returns {code} but "
                f"{C_PATH} declares no PROC_* define with that value",
                symbol=f"proc:{code}")
        # (skipped after an undeclared-code finding: one renumber
        # would otherwise cascade into a second, mirror finding)
        sent_codes = {code for code, _line in sent}
        for cname, define in sorted(proc_defines.items()):
            if undeclared:
                break
            if define.int_value() not in sent_codes:
                yield py_ctx.finding(
                    1,
                    f"{C_PATH}:{define.line} declares {cname} = "
                    f"{define.int_value()} but {SOA_PATH} "
                    f"{PROC_FUNCTION}() never returns that code",
                    symbol=f"proc:{cname}")

    # 4. the ABI probe regex must still find the C declaration
    abi = unit.defines.get("SOA_ABI_VERSION")
    kernel_ctx = project.module(KERNEL_PATH)
    if abi is None or abi.int_value() is None:
        yield c_ctx.finding(
            1, f"#define SOA_ABI_VERSION not found (or not an integer) "
               f"in {C_PATH} — {KERNEL_PATH} cannot verify the ABI",
            symbol="abi:define")
    elif kernel_ctx is not None \
            and "SOA_ABI_VERSION" not in kernel_ctx.source:
        yield project.finding(
            KERNEL_PATH, 1,
            f"{KERNEL_PATH} never mentions SOA_ABI_VERSION, so it "
            f"cannot extract the expected ABI from {C_PATH}:{abi.line}",
            symbol="abi:probe")

    # 5. the struct magic encodes the ABI version in its low byte
    #    (ASCII "SOA<v>"), so bumping the version without bumping the
    #    magic — or vice versa — leaves a stale runtime guard: an old
    #    cached .so would pass the magic check against a new mirror
    magic = unit.defines.get("SOA_MAGIC")
    if abi is not None and abi.int_value() is not None \
            and magic is not None and magic.int_value() is not None:
        expected_low = 0x30 + abi.int_value()
        if (magic.int_value() & 0xFF) != expected_low:
            yield c_ctx.finding(
                magic.line,
                f"ABI/magic skew: {C_PATH}:{abi.line} SOA_ABI_VERSION = "
                f"{abi.int_value()} but {C_PATH}:{magic.line} SOA_MAGIC = "
                f"{magic.int_value():#x} does not end in ASCII "
                f"{chr(expected_low)!r} — the layout guard no longer "
                f"tracks the ABI generation", symbol="abi:magic-sync")
