"""The surface sweep's recorder and verdicts on a small tree written to ``tmp_path``."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import surface_sweep

MODULE = textwrap.dedent(
    """\
    import os


    def shared(flag, scale=1):
        if flag:
            return "taken"
        return "never"


    def in_child():
        return shared(True)


    def never_called():
        return 0


    def main():
        shared(True)
        pid = os.fork()
        if pid == 0:
            in_child()
            os._exit(0)
        os.waitpid(pid, 0)
    """
)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    source = root / "src"
    (source / "toy").mkdir(parents=True)
    (source / "toy" / "__init__.py").write_text("", encoding="utf-8")
    (source / "toy" / "tool.py").write_text(MODULE, encoding="utf-8")
    records = root / "records"
    env = surface_sweep._environment(records, arguments=True)
    env["PYTHONPATH"] = os.pathsep.join([str(surface_sweep.SITE), str(source)])
    env["SURFACE_SWEEP_SOURCE"] = str(source)
    subprocess.run([sys.executable, "-c", "import toy.tool; toy.tool.main()"],
                   env=env, cwd=root, check=True)
    product = surface_sweep.merge_records(records)
    nothing = surface_sweep.merge_records(root / "no-records")
    result = surface_sweep.classify(source, product, nothing, {}, {})
    return source, product, result


pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the toy forks")


def _line_of(source: Path, text: str) -> int:
    lines = (source / "toy" / "tool.py").read_text(encoding="utf-8").splitlines()
    return next(number for number, line in enumerate(lines, 1) if line.strip() == text)


def test_a_forked_child_ending_in_os_exit_is_recorded(swept):
    source, product, _ = swept
    filename = os.path.realpath(source / "toy" / "tool.py")
    assert _line_of(source, "return shared(True)") in product["lines"][filename]
    assert f"{filename}:in_child" in product["entered"]


def test_an_untaken_branch_and_an_uncalled_function_are_unreached(swept):
    source, product, result = swept
    filename = os.path.realpath(source / "toy" / "tool.py")
    assert _line_of(source, 'return "never"') not in product["lines"][filename]
    assert result["not_product"] == {"toy.tool:never_called": "unreached"}
    assert result["violations"] == ["toy.tool:never_called"]
    # Two lines of ``shared`` and the body of ``never_called`` never ran.
    assert result["counts"]["unreached"] == 2
    assert result["counts"]["executable"] == result["counts"]["product"] + 2


def test_a_defaulted_parameter_no_call_sets_is_reported(swept):
    _, _, result = swept
    assert result["unset_parameters"] == ["toy.tool:shared(scale)"]
    assert result["parameter_violations"] == ["toy.tool:shared(scale)"]
    assert surface_sweep.verdict(result, []) == 1


def test_a_parameter_exemption_silences_it_and_a_stale_one_is_named(swept):
    source, product, _ = swept
    nothing = {"lines": {}, "entered": set(), "arguments": {}}
    exempt = {"toy.tool:never_called": "kept for the test"}
    parameter_exempt = {"toy.tool:shared(scale)": "kept for the test"}
    result = surface_sweep.classify(source, product, nothing, exempt, parameter_exempt)
    assert result["parameter_violations"] == []
    assert result["stale_parameter_exemptions"] == []
    assert surface_sweep.verdict(result, []) == 0
    # An exemption for a parameter every product call sets (or that is gone) is stale.
    parameter_exempt["toy.tool:shared(flag)"] = "set by every call"
    result = surface_sweep.classify(source, product, nothing, exempt, parameter_exempt)
    assert result["stale_parameter_exemptions"] == ["toy.tool:shared(flag)"]
    assert surface_sweep.verdict(result, []) == 1


def test_an_exemption_silences_a_function_and_a_stale_one_is_named(swept):
    source, product, _ = swept
    nothing = {"lines": {}, "entered": set(), "arguments": {}}
    exempt = {"toy.tool:never_called": "kept for the test", "toy.tool:gone": "deleted"}
    result = surface_sweep.classify(source, product, nothing, exempt, {})
    assert result["violations"] == []
    assert result["stale_exemptions"] == ["toy.tool:gone"]


def test_branch_exemptions_name_live_functions_with_a_reason():
    _, functions = surface_sweep.source_inventory()
    known = {f"{module}:{name}" for module, names in functions.items() for name in names}
    assert sorted(surface_sweep.BRANCH_EXEMPT.keys() - known) == []
    reasons = surface_sweep.BRANCH_EXEMPT.values()
    assert all(reason.strip() and "\n" not in reason for reason in reasons)


def test_parameter_exemptions_name_live_parameters_with_a_reason():
    known = surface_sweep.parameter_inventory()
    assert sorted(surface_sweep.PARAMETER_EXEMPT.keys() - known) == []
    reasons = surface_sweep.PARAMETER_EXEMPT.values()
    assert all(reason.strip() and "\n" not in reason for reason in reasons)
