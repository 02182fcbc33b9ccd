import math

import numpy as np
import pytest

from qeuler import (coordinate_expectation, encode, expectation, fourier_mode,
                    fourier_spectrum, hoeffding_shots, identity_observable,
                    load_observable_csv, observable, projector,
                    rng_stream, sample_expectation)
from conftest import unit_vector


def random_hermitian(n, seed, norm=1.0):
    rng = rng_stream(seed)
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (r + r.conj().T) / 2
    h *= norm / np.abs(np.linalg.eigvalsh(h)).max()
    return observable(h, norm)


def test_identity_expectation_is_one():
    st = encode(unit_vector(4, 1))
    assert expectation(st, identity_observable(4)) == pytest.approx(1.0, abs=1e-14)


def test_projector_expectation():
    z = unit_vector(3, 2)
    st = encode(z)
    for j in range(1, 4):
        assert expectation(st, projector(3, j)) == pytest.approx(
            abs(z[j - 1]) ** 2 / 2, abs=1e-14)


def test_coordinate_expectation_doubles_state_expectation():
    z = unit_vector(5, 3)
    st = encode(z)
    m = random_hermitian(6, 4)
    assert coordinate_expectation(st, m) == pytest.approx(
        2 * expectation(st, m), rel=1e-12)


def test_diagonal_observable_within_spectral_range():
    diag = observable(np.diag(np.arange(4.0)), 3.0)
    st = encode(unit_vector(3, 5))
    val = expectation(st, diag)
    assert 0.0 <= val <= 3.0


def test_expectation_linearity():
    st = encode(unit_vector(3, 6))
    m1, m2 = random_hermitian(4, 7), random_hermitian(4, 8)
    combo = observable(2.0 * m1.matrix + 0.5 * m2.matrix)
    assert expectation(st, combo) == pytest.approx(
        2.0 * expectation(st, m1) + 0.5 * expectation(st, m2), rel=1e-12)


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expectation_imaginary_part_negligible():
    for seed in range(5):
        st = encode(unit_vector(4, 20 + seed))
        m = random_hermitian(5, 30 + seed)
        raw = complex(np.vdot(st.amps, m.matrix @ st.amps))
        assert abs(raw.imag) < 1e-12
        assert expectation(st, m) == pytest.approx(raw.real, abs=1e-15)


def test_hoeffding_shot_budget():
    assert hoeffding_shots(1.0, 0.05, 0.05) == 738
    with pytest.raises(ValueError):
        hoeffding_shots(1.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        hoeffding_shots(1.0, 0.05, 1.0)


def test_identity_estimate_is_exact():
    st = encode(unit_vector(2, 9))
    est, shots = sample_expectation(st, identity_observable(2), 0.1, 0.05,
                                    rng_stream(10))
    assert est == pytest.approx(1.0, abs=1e-12)
    assert shots == hoeffding_shots(1.0, 0.1, 0.05)


def test_sampling_coverage_grid():
    st = encode(unit_vector(4, 11))
    m = projector(4, 1)
    for delta, alpha in [(0.05, 0.05), (0.1, 0.2)]:
        truth = expectation(st, m)
        hits = 0
        reps = 500
        for k in range(reps):
            est, _ = sample_expectation(st, m, delta, alpha, rng_stream(12, k))
            hits += abs(est - truth) <= delta
        assert hits / reps >= 1 - alpha


def test_sampling_reproducible():
    st = encode(unit_vector(3, 13))
    m = random_hermitian(4, 14)
    a = sample_expectation(st, m, 0.05, 0.1, rng_stream(15))
    b = sample_expectation(st, m, 0.05, 0.1, rng_stream(15))
    assert a == b


# --- Fourier sums -------------------------------------------------------------

def test_fourier_uniform_vector():
    n = 8
    z = np.full(n, 1 / math.sqrt(n), dtype=complex)
    s = fourier_spectrum(z)
    assert abs(s[n - 1] - 1.0) < 1e-12          # S_n, the k = 0 mod n sum
    assert np.abs(s[: n - 1]).max() < 1e-12


def test_fourier_single_variable():
    z = np.array([0.6 + 0.8j])
    assert fourier_spectrum(z)[0] == pytest.approx(z[0], abs=1e-15)


def test_fourier_parseval():
    for seed in range(5):
        z = unit_vector(7, 100 + seed)
        s = fourier_spectrum(z)
        assert np.linalg.norm(s) ** 2 == pytest.approx(
            np.linalg.norm(z) ** 2, abs=1e-12)


def test_fourier_matches_fft():
    n = 9
    z = unit_vector(n, 16)
    s = fourier_spectrum(z)
    a = np.empty(n, dtype=complex)
    a[0] = z[n - 1]
    a[1:] = z[: n - 1]
    fast = n * np.fft.ifft(a) / math.sqrt(n)  # S_k = sqrt(n) ifft at k
    assert np.abs(s[: n - 1] - fast[1:]).max() < 1e-12
    assert abs(s[n - 1] - fast[0]) < 1e-12


def test_fourier_mode_observable_reads_spectrum():
    n = 6
    z = unit_vector(n, 17)
    st = encode(z)
    s = fourier_spectrum(z)
    for k in range(1, n + 1):
        val = expectation(st, fourier_mode(n, k))
        assert val == pytest.approx(abs(s[k - 1]) ** 2 / 2, abs=1e-12)


def test_observable_csv_roundtrip(tmp_path):
    path = tmp_path / "obs.csv"
    with open(path, "w") as f:
        f.write("row,col,re,im\n0,0,1.0,0.0\n1,1,-0.5,0.0\n"
                "0,1,0.0,0.25\n1,0,0.0,-0.25\n")
    ob = load_observable_csv(path, 2)
    assert ob.matrix[0, 0] == 1.0 and ob.matrix[1, 1] == -0.5
    assert ob.matrix[0, 1] == 0.25j and ob.matrix[1, 0] == -0.25j
    assert ob.norm_bound == pytest.approx(
        np.abs(np.linalg.eigvalsh(ob.matrix)).max())
    with pytest.raises(ValueError, match="header"):
        bad = tmp_path / "bad.csv"
        bad.write_text("r,c,re,im\n")
        load_observable_csv(bad, 2)


@pytest.mark.parametrize("lines, match", [
    ("5,0,1.0,0.0", r"line 2: index \(5, 0\) outside 0..1"),
    ("-1,-1,1.0,0.0", r"line 2: index \(-1, -1\) outside 0..1"),
    ("0,0,nan,0.0", "line 2: non-finite entry"),
    ("0,0,1.0,0.0\n1,1,inf,0.0", "line 3: non-finite entry"),
    ("0,1,0.5,0.0\n1,0,0.5,0.0\n0,1,0.25,0.0", r"line 4: repeated entry \(0, 1\)"),
    ("0,0", r"line 2: 2 fields, expected 4"),
    ("0,0,1.0,0.0\n1,1,1.0,0.0,0.0", r"line 3: 5 fields, expected 4"),
    ("0,x,1.0,0.0", r"line 2: cannot parse '0,x,1.0,0.0'"),
    ("0,0,1.0,", r"line 2: cannot parse '0,0,1.0,'"),
    ("0.5,0,1.0,0.0", r"line 2: cannot parse"),
], ids=["index_past_dim", "index_negative", "nan", "inf", "repeated",
        "too_few_fields", "too_many_fields", "unparsed_index", "empty_field",
        "fractional_index"])
def test_observable_csv_refuses_malformed_entries(tmp_path, lines, match):
    path = tmp_path / "obs.csv"
    path.write_text("row,col,re,im\n" + lines + "\n")
    with pytest.raises(ValueError, match=match):
        load_observable_csv(path, 2)


def test_observable_refuses_nan():
    with pytest.raises(ValueError, match="Hermitian"):
        observable(np.array([[math.nan, 0.0], [0.0, 1.0]]), 1.0)
