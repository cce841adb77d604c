"""Mutation tests for the C↔Python seam verifier.

Each test copies the *real* kernel seam (``_soa_march.c`` plus its
Python mirrors) into a fixture repo, applies exactly one plausible
drift — a swapped struct field, a renumbered counter slot, a dropped
dtype — and asserts the responsible rule reports **exactly one**
finding naming both the C and the Python location.  A clean copy must
stay silent, so the suite also proves the rules carry zero false
positives on the shipped seam.
"""

from pathlib import Path

import pytest

from repro.analysis import run_rules

REPO = Path(__file__).resolve().parent.parent

SEAM_FILES = (
    "src/repro/accel/engine/_soa_march.c",
    "src/repro/accel/engine/soa.py",
    "src/repro/accel/engine/soakernel.py",
    "src/repro/algorithms/base.py",
)


def copy_seam(root: Path) -> None:
    for relpath in SEAM_FILES:
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((REPO / relpath).read_text(encoding="utf-8"),
                          encoding="utf-8")


def mutate(root: Path, relpath: str, old: str, new: str) -> None:
    path = root / relpath
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, f"ambiguous mutation anchor: {old!r}"
    path.write_text(source.replace(old, new), encoding="utf-8")


def run(root: Path, rule_id: str):
    findings, ran = run_rules(root, [rule_id])
    assert ran == [rule_id]
    return findings


C = "src/repro/accel/engine/_soa_march.c"
SOA = "src/repro/accel/engine/soa.py"


class TestCleanSeam:
    @pytest.mark.parametrize("rule_id", ["c-seam-layout", "c-seam-counters",
                                         "c-seam-kernels"])
    def test_shipped_seam_is_silent(self, tmp_path, rule_id):
        copy_seam(tmp_path)
        assert run(tmp_path, rule_id) == []

    @pytest.mark.parametrize("rule_id", ["c-seam-layout", "c-seam-counters",
                                         "c-seam-kernels"])
    def test_projects_without_the_seam_are_silent(self, tmp_path, rule_id):
        (tmp_path / "src/repro").mkdir(parents=True)
        (tmp_path / "src/repro/other.py").write_text("X = 1\n")
        assert run(tmp_path, rule_id) == []


class TestLayoutMutations:
    def test_swapped_struct_fields_yield_exactly_one_finding(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA,
               '("fifo_depth", _i64), ("block_len", _i64),',
               '("block_len", _i64), ("fifo_depth", _i64),')
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        f = findings[0]
        assert f.symbol == "field-order:fifo_depth"
        assert "_soa_march.c:" in f.message and "soa.py:" in f.message

    def test_swapped_c_fields_yield_exactly_one_finding(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, C,
               "    i64 parity, fstart;",
               "    i64 fstart, parity;")
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        assert findings[0].symbol == "field-order:fstart"

    def test_kind_drift_yields_exactly_one_finding(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA, '("proc_const", _f64),',
               '("proc_const", _i64),')
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        f = findings[0]
        assert f.symbol == "field-kind:proc_const"
        assert "f64" in f.message and "i64" in f.message

    def test_dropped_mirror_field_yields_exactly_one_finding(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA, '("has_rnet", _i64),\n', "")
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        assert findings[0].symbol == "field-order:has_rnet"

    def test_marshalled_dtype_drift_yields_exactly_one_finding(
            self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA,
               "st.iq_s = ptr(arr(n * config.issue_queue_depth, "
               "np.float64))",
               "st.iq_s = ptr(arr(n * config.issue_queue_depth))")
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        f = findings[0]
        assert f.symbol == "dtype:iq_s"
        assert "_soa_march.c:" in f.message and "soa.py:" in f.message

    def test_magic_drift_yields_exactly_one_finding(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA, "_MAGIC = 0x534F4134",
               "_MAGIC = 0x534F4135")
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        assert findings[0].symbol == "magic:value"

    def test_swapped_touch_log_mirror_fields_are_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA,
               '("touch_dv", _P), ("touch_len", _i64),',
               '("touch_len", _i64), ("touch_dv", _P),')
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        assert findings[0].symbol == "field-order:touch_dv"

    def test_dropped_c_touch_log_field_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, C, "    i64 *touch_dv;", "    i64 rsvd;")
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        assert findings[0].symbol == "field-order:rsvd"

    def test_touch_log_dtype_drift_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA,
               "self._touch_dv = arr(0)",
               "self._touch_dv = arr(0, np.float64)")
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        assert findings[0].symbol == "dtype:touch_dv"

    def test_missing_c_file_is_one_sided_seam(self, tmp_path):
        copy_seam(tmp_path)
        (tmp_path / C).unlink()
        findings = run(tmp_path, "c-seam-layout")
        assert len(findings) == 1
        assert findings[0].symbol == "seam-missing"
        # the companion rules defer to the layout rule's finding
        assert run(tmp_path, "c-seam-counters") == []
        assert run(tmp_path, "c-seam-kernels") == []


class TestCounterMutations:
    def test_renumbered_slot_yields_exactly_one_finding(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA, "_C_RNET_STALL = 4", "_C_RNET_STALL = 9")
        findings = run(tmp_path, "c-seam-counters")
        assert len(findings) == 1
        f = findings[0]
        assert f.symbol == "slot:C_RNET_STALL"
        assert "_soa_march.c:" in f.message and "soa.py:" in f.message

    def test_renumbered_c_define_yields_exactly_one_finding(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, C, "#define C_PROP_REJ 7", "#define C_PROP_REJ 6")
        findings = run(tmp_path, "c-seam-counters")
        assert len(findings) == 1
        assert findings[0].symbol == "slot:C_PROP_REJ"


class TestKernelMutations:
    def test_renumbered_red_define_yields_exactly_one_finding(self,
                                                              tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, C, "#define RED_MIN 1", "#define RED_MIN 7")
        findings = run(tmp_path, "c-seam-kernels")
        assert len(findings) == 1
        f = findings[0]
        assert f.symbol == "red:min"
        assert "_soa_march.c:" in f.message and "soa.py:" in f.message

    def test_scalar_reduce_without_c_code_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, "src/repro/algorithms/base.py",
               '"add": operator.add', '"add": operator.add, "mul": '
               'operator.mul')
        findings = run(tmp_path, "c-seam-kernels")
        assert [f.symbol for f in findings] == ["reduce-op:mul"]
        assert findings[0].path == "src/repro/algorithms/base.py"

    def test_proc_code_must_name_a_declared_code(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA, "alg.process_const is None else 5",
               "alg.process_const is None else 6")
        findings = run(tmp_path, "c-seam-kernels")
        assert [f.symbol for f in findings] == ["proc:6"]
        assert "_soa_march.c" in findings[0].message
        assert "soa.py:" in findings[0].message

    def test_renumbered_proc_define_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, C, "#define PROC_ADD_W 2", "#define PROC_ADD_W 7")
        findings = run(tmp_path, "c-seam-kernels")
        assert [f.symbol for f in findings] == ["proc:2"]

    def test_declared_proc_code_never_sent_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA,
               '    if alg.process_op == "min":\n        return 3\n', "")
        findings = run(tmp_path, "c-seam-kernels")
        assert [f.symbol for f in findings] == ["proc:PROC_MIN_W"]

    def test_missing_proc_function_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, SOA, "def _proc_code(alg)", "def _proc_id(alg)")
        findings = run(tmp_path, "c-seam-kernels")
        assert [f.symbol for f in findings] == ["proc:missing"]

    def test_missing_abi_define_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, C, "#define SOA_ABI_VERSION 4\n", "")
        findings = run(tmp_path, "c-seam-kernels")
        assert [f.symbol for f in findings] == ["abi:define"]
        assert findings[0].path.endswith("_soa_march.c")

    def test_abi_bump_without_magic_bump_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, C, "#define SOA_ABI_VERSION 4",
               "#define SOA_ABI_VERSION 5")
        findings = run(tmp_path, "c-seam-kernels")
        assert [f.symbol for f in findings] == ["abi:magic-sync"]
        assert "SOA_MAGIC" in findings[0].message

    def test_abi_probe_losing_the_name_is_reported(self, tmp_path):
        copy_seam(tmp_path)
        mutate(tmp_path, "src/repro/accel/engine/soakernel.py",
               "SOA_ABI_VERSION", "SOA_ABI_REV")
        findings = run(tmp_path, "c-seam-kernels")
        assert [f.symbol for f in findings] == ["abi:probe"]
