"""Package surface tests: imports, __all__, version."""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.lts",
    "repro.mucalc",
    "repro.jackal",
    "repro.analysis",
    "repro.staticcheck",
    "repro.obs",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_imports(name):
    mod = importlib.import_module(name)
    assert mod is not None


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    for entry in getattr(mod, "__all__", []):
        assert hasattr(mod, entry), f"{name}.{entry} missing"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_error_hierarchy():
    import repro
    from repro.errors import (
        AutFormatError,
        ExplorationLimitError,
        FormulaSemanticsError,
        FormulaSyntaxError,
        ModelError,
        ReproError,
        TraceError,
    )

    for exc in (
        ExplorationLimitError,
        FormulaSyntaxError,
        FormulaSemanticsError,
        ModelError,
        TraceError,
        AutFormatError,
    ):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)
    assert repro.ReproError is ReproError


def test_docstrings_on_public_api():
    """Every public item exported by a subpackage carries a docstring."""
    for name in SUBPACKAGES:
        mod = importlib.import_module(name)
        assert mod.__doc__, f"{name} lacks a module docstring"
        for entry in getattr(mod, "__all__", []):
            obj = getattr(mod, entry)
            if callable(obj) or isinstance(obj, type):
                assert getattr(obj, "__doc__", None), (
                    f"{name}.{entry} lacks a docstring"
                )


def test_cli_module_importable():
    from repro.cli import main

    assert callable(main)


def test_uncertified_check_loads_no_static_analysis():
    """Importing any ``repro.staticcheck`` module loads the whole
    package — resident memory an uncertified check has no use for. It
    stays behind the certificate."""
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from repro.jackal.params import CONFIG_1\n"
        "from repro.jackal.requirements import check_all_requirements\n"
        "check_all_requirements(replace(CONFIG_1, rounds=1))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.staticcheck')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_quickstart_in_the_package_docstring_runs():
    import textwrap

    import repro

    _head, found, block = repro.__doc__.partition("Quickstart::\n")
    assert found
    code = textwrap.dedent(block)
    assert "check_requirement_1(" in code
    exec(compile(code, "repro.__doc__", "exec"), {})
