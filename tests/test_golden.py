"""CLI outputs on the fixtures and on refused documents match the golden files."""

import pytest

from golden.regenerate import HERE, cases, render


def test_golden_files_cover_every_case():
    assert sorted(p.name for p in HERE.glob("*.golden")) == sorted(n for n, _ in cases())


@pytest.mark.parametrize("name,argv", cases(), ids=[n for n, _ in cases()])
def test_golden_output(name, argv):
    assert render(argv).encode() == (HERE / name).read_bytes()
