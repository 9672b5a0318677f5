"""The README runs against, and documents, the package root, the fields of
EpSolution, Sweep, Eigensystem and Spectrum, the embedcheck bounds and the
test settings' report of a failing property test."""

import ast
import dataclasses
import re
import subprocess
import sys
import types
from pathlib import Path

import eprenorm
from eprenorm import embedcheck
from eprenorm.epsolver import EpSolution
from eprenorm.response import Spectrum
from eprenorm.spectral import Eigensystem, Sweep

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use():
    """(prose, code blocks) of README's "Library use" section."""
    section = re.search(r"^## Library use\n(.*?)(?=^## |\Z)", README.read_text(), re.M | re.S)
    assert section is not None
    code_block = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
    blocks = code_block.findall(section.group(1))
    assert blocks
    return code_block.sub("", section.group(1)), blocks


def test_readme_library_use_runs(capsys):
    for code in _library_use()[1]:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_root_exports_exactly_the_documented_names():
    prose, blocks = _library_use()
    mentioned = set()
    for text in [*re.findall(r"`([^`]*)`", prose), *blocks]:
        mentioned.update(re.findall(r"\w+", text))
    exported = set(eprenorm.__all__) - {"__version__"}
    assert "__version__" in eprenorm.__all__
    assert sorted(exported - mentioned) == []

    imported = {
        alias.name
        for code in blocks
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "eprenorm"
        for alias in node.names
    }
    assert imported
    assert sorted(imported - exported) == []

    public = {
        name
        for name, value in vars(eprenorm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == exported


def test_embedcheck_paragraph_states_the_code_bounds():
    """README's step bound and resolution fraction are embedcheck's constants."""
    paragraph = re.search(r"`embedcheck` accepts .*?(?=\n\n)", README.read_text(), re.S)
    assert paragraph is not None
    text = " ".join(paragraph.group(0).split())
    (fraction,) = re.findall(r"`L = 1/\((\d+)\*rho\)`", text)
    assert 1.0 / int(fraction) == embedcheck.MAX_DT_FRACTION
    assert re.findall(r"`L/2 = 1/\((\d+)\*rho\)`", text) == [str(2 * int(fraction))]
    bounds = re.findall(r"at most (\d+) steps|<= (\d+)`", text)
    assert len(bounds) == 3
    assert {int(a or b) for a, b in bounds} == {embedcheck.MAX_STEPS}


def test_ep_solution_fields_are_the_documented_ones():
    """README names EpSolution's dataclass fields, in order."""
    prose, _ = _library_use()
    match = re.search(r"`EpSolution` whose fields are(.*?)\(rad/s\)", prose, re.S)
    assert match is not None
    named = re.findall(r"`(\w+)`", match.group(1))
    assert named == [field.name for field in dataclasses.fields(EpSolution)]


def test_sweep_fields_are_the_documented_ones():
    """README names Sweep's dataclass fields, in order."""
    prose, _ = _library_use()
    match = re.search(r"`Sweep` of column\s+arrays.*?whose fields are(.*?)all in rad/s", prose, re.S)
    assert match is not None
    named = re.findall(r"`(\w+)`", match.group(1))
    assert named == [field.name for field in dataclasses.fields(Sweep)]


def test_eigensystem_fields_are_the_documented_ones():
    """README names Eigensystem's dataclass fields, in order."""
    prose, _ = _library_use()
    match = re.search(r"`Eigensystem` of column\s+arrays.*?whose fields are(.*?)\(n, n\)", prose, re.S)
    assert match is not None
    named = re.findall(r"`(\w+)`", match.group(1))
    assert named == [field.name for field in dataclasses.fields(Eigensystem)]


def test_spectrum_fields_are_the_documented_ones():
    """README names Spectrum's dataclass fields, in order; the probe grid is not one."""
    prose, _ = _library_use()
    match = re.search(r"`Spectrum` of\s+arrays.*?whose fields\s+are(.*?)which marks", prose, re.S)
    assert match is not None
    named = re.findall(r"`(\w+)`", match.group(1))
    assert named == [field.name for field in dataclasses.fields(Spectrum)]


def test_failing_property_test_prints_its_falsifying_example(tmp_path):
    """README's test settings let hypothesis report a failure: a failing @given test run
    under pyproject.toml exits 1 with its falsifying example, not in an INTERNALERROR."""
    section = re.search(r"^## Install and test\n(.*?)(?=^## )", README.read_text(), re.M | re.S)
    assert section is not None
    assert "a failing property test\nprints its falsifying example" in section.group(1)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(README.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
