"""The table writer's float kernel against printf, and real tables against the
per-cell writer. CI runs this file a second time with numpy's SIMD dispatch off,
since log10 and floor take other code paths there."""

import numpy as np
import pytest

from collisim import cli
from collisim.config import RUN_COLUMNS
from test_config_cli import base_doc, reference_write, write_config


def random_bits(n):
    """Doubles of random bit patterns, with each exponent field equally likely:
    subnormals, nan payloads, +-0 and +-inf among them."""
    rng = np.random.default_rng(25)
    bits = rng.integers(0, 2 ** 52, n, dtype=np.int64) | (rng.integers(0, 2048, n) << 52)
    bits[rng.random(n) < 0.5] |= np.int64(-2 ** 63)
    # +-0, +-5e-324, +-inf and two nan payloads
    bits[:8] = np.array([0, 1, 0x7FF << 52, (0x7FF << 52) | 1], np.uint64).view(np.int64)[
        [0, 0, 1, 1, 2, 2, 3, 3]] | np.array([0, -2 ** 63] * 4)
    return bits.view(np.float64)


def powers_of_ten():
    """10**k for k in [-300, 300], its neighbours, 5*10**k and 9.99...*10**k."""
    p = 10.0 ** np.arange(-300, 301)
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), 5 * p,
                           9.999999999999999 * p, 9.9999999999999999 * p])


def large_integers():
    """2**50 to 2**63 +- 50, and those over 2**10: exact decimal ties among them."""
    ints = np.array([float(2 ** e + d) for e in range(50, 64) for d in range(-50, 51)])
    return np.concatenate([ints, ints / 2 ** 10])


CASES = {
    "random_bits": lambda: random_bits(10 ** 5),
    "powers_of_ten": powers_of_ten,
    "large_integers": large_integers,
    "tenths": lambda: 0.1 * np.arange(10 ** 5 + 1),
}


def assert_printf_cells(x, cells):
    """The NUL-padded rows of cells read as b"%.16e" % v of each v of x."""
    text = np.concatenate([cells, np.full((len(x), 1), ord("\n"), np.uint8)], 1).ravel()
    got = text[text != 0].tobytes().split(b"\n")[:-1]
    want = [b"%.16e" % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


@pytest.mark.parametrize("case", sorted(CASES))
def test_float_kernel_matches_printf(case, monkeypatch):
    x = CASES[case]()
    fallback, unique = [], np.unique

    def counted(values, **kwargs):   # the printf fallback takes its values through np.unique
        fallback.append(len(values))
        return unique(values, **kwargs)
    monkeypatch.setattr(np, "unique", counted)
    cells = cli._floats(x)
    monkeypatch.undo()
    assert_printf_cells(x, cells)
    # both paths ran: printf on the values the kernel cannot prove (0.0 at least)
    assert 0 < sum(fallback) < len(x)


@pytest.mark.parametrize("bias", [-1e-9, 1e-9])
def test_float_kernel_survives_a_log10_off_by_one(bias, monkeypatch):
    # near a power of ten, e10 is then one off either way: those values go to printf
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
    x = powers_of_ten()
    cells = cli._floats(x)
    monkeypatch.undo()
    assert_printf_cells(x, cells)


def reference_checked(monkeypatch, tmp_path):
    """Make cli write every table also with the per-cell writer, in CSV and in JSON,
    and compare the bytes; returns the list of the tables' row counts."""
    write, rows = cli.write_table, []

    def checked(path, columns, table, out_format):
        write(path, columns, table, out_format)
        for fmt in ("csv", "json"):
            got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
            write(str(got), columns, table, fmt)
            reference_write(str(want), columns, table.tolist(), fmt)
            assert got.read_bytes() == want.read_bytes(), (path, fmt)
        rows.append(len(table))
    monkeypatch.setattr(cli, "write_table", checked)
    return rows


@pytest.mark.parametrize("quantities", [RUN_COLUMNS, ["n", "beta_eff", "pop_e", "beta_eff", "t"]])
def test_trajectory_tables_match_the_per_cell_writer(tmp_path, monkeypatch, quantities):
    # omega_s = 0: beta_eff is nan on every row
    doc = base_doc(model={"omega_s": 0.0, "omega_a": 1.0, "beta": 1.0},
                   run={"n_collisions": 2 * cli.WRITE_BATCH + 3, "rho0": "fig3"},
                   output={"path": "out.csv", "quantities": list(quantities)})
    rows = reference_checked(monkeypatch, tmp_path)
    assert cli.main(["run", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 0
    assert rows == [2 * cli.WRITE_BATCH + 4]
    lines = (tmp_path / "out" / "out.csv").read_text().splitlines()
    assert len(lines) == rows[0] + 1 and all(",nan" in line for line in lines[1:])


def test_ergotropy_surface_tables_match_the_per_cell_writer(tmp_path, monkeypatch):
    # its tables hold the rho0 name, a string column
    rows = reference_checked(monkeypatch, tmp_path)
    assert cli.main(["ergotropy-surface", "--out", str(tmp_path / "out")]) == 0
    assert rows == [2 * 33 * 33, 5 * 2 * 33]
