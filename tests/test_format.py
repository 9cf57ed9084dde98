"""The CSV writer's float cells are Python's ``'%.12g'`` of the float64
value, byte for byte, and the numpy fast path does nearly all of them."""

from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from impulsegame import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def assert_cells_are_format(values):
    """The writer's cells for one column of ``values`` against format(v, ".12g")."""
    got = cli._lines([values]).decode().split("\n")[:-1]
    want = [format(v, ".12g") for v in (values.tolist() if isinstance(values, np.ndarray)
                                        else values)]
    bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert len(got) == len(want) and not bad, (len(bad), bad[:5])


def bit_patterns(rng, n, exponents=(0, 2048)):
    """``n`` float64 with random sign and mantissa bits and a biased exponent
    drawn from ``exponents``."""
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    expo = rng.integers(*exponents, n, dtype=np.uint64) << np.uint64(52)
    mant = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    return (sign | expo | mant).view(np.float64)


def test_random_bit_patterns():
    rng = np.random.default_rng(19)
    assert_cells_are_format(rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64))
    # random bit patterns with exponents spanning the fast path's [1e-30, 1e11)
    assert_cells_are_format(bit_patterns(rng, 200_000, (1023 - 100, 1023 + 37)))


def test_powers_of_two_and_of_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    assert len(twos) == 2098
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    for values in (twos, tens):
        assert_cells_are_format(np.concatenate([values, -values]))
        assert_cells_are_format(np.nextafter(values, np.inf))
        assert_cells_are_format(np.nextafter(values, -np.inf))
    # within float32 rounding of each power of ten the fast path's
    # exponent estimate can be one off, so its correction is needed
    near = np.array([float(f"1e{k}") for k in range(-31, 13)])[:, None]
    steps = np.concatenate([-np.logspace(-13, -6, 29), np.logspace(-13, -6, 29)])
    assert_cells_are_format((near * (1.0 + steps)).ravel())


def test_mantissas_at_the_digit_group_boundaries():
    # the twelve digits are three groups of four: mantissas k*10**8 and
    # k*10**4 end in whole zero groups, 10**11 and 10**12 - 1 are the ends
    rng = np.random.default_rng(22)
    mantissas = [10 ** 11, 10 ** 12 - 1]
    mantissas += [k * 10 ** 8 for k in rng.integers(1000, 10000, 40).tolist()]
    mantissas += [k * 10 ** 4 for k in rng.integers(10 ** 7, 10 ** 8, 40).tolist()]
    mantissas += [m + d for m in mantissas[2:] for d in (-1, 1)]
    values = np.array([float(f"{m}e{e}") for m in mantissas for e in range(-41, 0)])
    assert {len(format(v, ".12g").replace(".", "").split("e")[0].strip("0")) for v in values
            } >= {1, 4, 8, 12}
    assert_cells_are_format(np.concatenate([values, -values]))


def test_values_whose_float32_exponent_estimate_misses():
    # within float32 rounding of a power of ten, log10 of the float32 value
    # can round across the integer: those cells, and only those, are
    # scaled a second time with the corrected exponent
    tens = np.array([float(f"1e{k}") for k in range(-30, 11)])
    steps = np.ldexp(1.0, -np.arange(14, 40))
    values = (tens[:, None] * np.concatenate([1.0 - steps, 1.0 + steps])).ravel()
    guess = np.floor(np.log10(values.astype(np.float32))).astype(int)
    exponent = np.array([int(format(v, ".11e").split("e")[1]) for v in values.tolist()])
    assert np.sum(guess > exponent) >= 100 and np.sum(guess < exponent) >= 100
    mixed = np.concatenate([values, np.linspace(0.1, 9.9, values.size)])
    assert_cells_are_format(np.concatenate([mixed, -mixed]))


def test_twelve_digit_ties():
    rng = np.random.default_rng(20)
    # exact ties: n * 2**-j with n odd has j decimals, the last a 5, and is
    # a tie at twelve digits when n * 5**j has thirteen
    exact = [123456789012.5, 2.0 ** -18, 1234567890125.0, 999999999999.5]
    for j in range(1, 19):
        lo, hi = -(-10 ** 12 // 5 ** j), 10 ** 13 // 5 ** j
        exact += [(2 * (n // 2) + 1) / 2 ** j for n in rng.integers(lo, hi, 200).tolist()]
    exact = np.array(exact)
    assert all(len(Decimal(v).as_tuple().digits) == 13 for v in exact.tolist())
    assert_cells_are_format(np.concatenate([exact, -exact]))
    # the doubles nearest to thirteen-digit decimals ending in 5: within a
    # rounding error of a tie, on either side of it
    k = rng.integers(10 ** 11, 10 ** 12, 20_000).tolist()
    e = rng.integers(-44, 2, 20_000).tolist()
    near = np.array([float(f"{a}5e{b}") for a, b in zip(k, e)])
    assert_cells_are_format(np.concatenate([near, -near]))


def test_fixed_and_scientific_switch_points():
    points = np.array([1e-5, 0.0001, 99999999999.95, 999999999999.5, 1e12, 1e16])
    points = np.concatenate([points, -points])
    assert_cells_are_format(np.concatenate(
        [points, *(np.nextafter(points, d) for d in (np.inf, -np.inf)),
         points * (1 + 1e-13), points * (1 - 1e-13), points * 10, points / 10]))


def test_special_cells_and_other_number_types():
    rng = np.random.default_rng(21)
    nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    specials = np.concatenate([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                                2.2250738585072014e-308, 1.7976931348623157e308], nan_bits,
                               bit_patterns(rng, 2000, (0, 1))])      # subnormals
    assert np.isnan(specials).sum() == 6 and np.signbit(specials[np.isnan(specials)]).any()
    assert_cells_are_format(specials)
    assert_cells_are_format([7, -3, 0, 10 ** 15, 2 ** 53 + 1, 10 ** 20, -(10 ** 11)])
    assert_cells_are_format([np.float64(1.0 / 3.0), np.float64(-2.5e-7), np.float64(0.1),
                             2.0 / 3.0, 4])



def test_text_cells_are_written_verbatim_and_must_be_ascii():
    assert cli._lines([np.array(["below", "interior"]), np.array([b"x", b""])]) == (
        b"below,x\ninterior,\n")
    with pytest.raises(ValueError):
        cli._lines([np.array(["caf\u00e9"])])


def test_fast_path_covers_the_shipped_reports(tmp_path, monkeypatch, capsys):
    # an all-fallback writer would pass every test above
    counts = {"formatted": 0, "exact": 0}

    def counted(function, key):
        def wrapper(v):
            counts[key] += len(v)
            return function(v)
        return wrapper

    monkeypatch.setattr(cli, "_format", counted(cli._format, "formatted"))
    monkeypatch.setattr(cli, "_exact", counted(cli._exact, "exact"))
    for name in ("table1", "table1_w2_1"):
        counts.update(formatted=0, exact=0)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text((CONFIGS / f"{name}.cfg").read_text()
                       + f"\noutput_dir = {tmp_path / name}\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        assert counts["formatted"] >= 4 * 201 * 201
        assert counts["exact"] <= 0.01 * counts["formatted"], (name, counts)
    capsys.readouterr()
