"""Each statement `NAME` = value in README.md names a gnpmod constant
and gives its value, so changing the constant fails here until the
README follows."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import gnpmod

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹⁻", "0123456789-")
# `NAME` or `gnpmod.module.NAME`, then "=" and a number: digits in groups
# of three split by spaces (10 000 000), a decimal, or either raised to a
# superscript exponent (2¹⁸, 10⁻⁹).  The "=" may end a line.
STATEMENT = re.compile(r"`(?:gnpmod\.(\w+)\.)?([A-Z][A-Z0-9_]*)`\s*=\s*"
                       r"(\d+(?:[   ]\d{3})*(?:\.\d+)?)([⁻]?[⁰¹²³⁴⁵⁶⁷⁸⁹]+)?")
MODULES = [importlib.import_module(f"gnpmod.{info.name}")
           for info in pkgutil.iter_modules(gnpmod.__path__)]


def value_of(digits: str, exponent: str | None):
    """The number a README statement gives, as int or float."""
    digits = re.sub(r"[   ]", "", digits)
    base = float(digits) if "." in digits else int(digits)
    return base if exponent is None else base ** int(exponent.translate(SUPERSCRIPTS))


STATEMENTS = [m.groups() for m in STATEMENT.finditer(README.read_text())]


def test_value_forms():
    assert value_of("10 000 000", None) == 10_000_000
    assert value_of("2", "¹⁸") == 1 << 18
    assert value_of("10", "⁻⁹") == 1e-9
    assert value_of("48", None) == 48
    assert value_of("1.5", None) == 1.5


def test_readme_states_constants():
    """The pattern still finds the README's statements, so the test below
    cannot pass by matching none."""
    assert {"MAX_VERTICES", "CSR_SLICE", "SAMPLE_CHUNK", "F_TOL", "EXACT_CAP_MAX",
            "EXACT_CELLS"} <= {name for _, name, _, _ in STATEMENTS}


@pytest.mark.parametrize("module, name, digits, exponent", STATEMENTS,
                         ids=[name for _, name, _, _ in STATEMENTS])
def test_readme_constant_matches_code(module, name, digits, exponent):
    owners = ([importlib.import_module(f"gnpmod.{module}")] if module
              else [m for m in MODULES if name in vars(m)])
    assert owners, f"README names {name}, which no gnpmod module defines"
    assert {getattr(m, name) for m in owners} == {value_of(digits, exponent)}
