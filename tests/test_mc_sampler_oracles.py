"""The Monte-Carlo sampler's arithmetic against the numpy calls it replaces,
kept here as test-only oracles, and the sampler's floats pinned.

`_lambda_min`, the gathered kernel, the 2-wide sort and the column folds
each repeat the operations of the call they replace in the same order, so
the comparisons are exact (``==``), not within a tolerance.
"""

import io

import numpy as np
import pytest

from pam_moments import cli
from pam_moments.acceptance import check_09_mc_oracle_bounds
from pam_moments.chaos_bounds import FractionalParams
from pam_moments.initial_data import DiracAt, GaussianDensity, LebesgueConstant
from pam_moments.mc_verifier import (
    _draw_rough_times,
    _lambda_min,
    _majorant_form,
    _quadform,
    _row_sum,
    _sort_rows,
    chaos_norm_estimate,
    kernel_fourier_gaussian,
    verify_lemma32,
)

MEASURES = {
    "dirac": DiracAt(0.1),
    "lebesgue": LebesgueConstant(1.5),
    "gaussian": GaussianDensity(0.0, 0.5),
}


def _kernel_cov_broadcast(sorted_times, t, measure):
    """The kernel covariance from broadcast np.minimum / np.maximum."""
    tau = np.asarray(sorted_times, dtype=float)
    lo, hi = tau[:, :, None], tau[:, None, :]
    tmin, tmax = np.minimum(lo, hi), np.maximum(lo, hi)
    if isinstance(measure, DiracAt):
        return tmin * (t - tmax) / t
    if isinstance(measure, LebesgueConstant):
        return t - tmax
    v0 = measure.variance
    return (tmin + v0) * (t - tmax) / (t + v0)


def _sorted_times_with_ties(rng, m, n, t):
    """Sorted rows uniform on (0, t); every fourth row has tau_1 = tau_2."""
    tau = rng.uniform(0.0, t, size=(m, n))
    if n > 1:
        tau[::4, 1] = tau[::4, 0]
    return np.sort(tau, axis=1)


def _sampler_matrices(rng, measure, t, h0, m=10_000):
    """The 2x2 matrices whose lambda_min the sampler takes: S_t + S_s of
    `chaos_norm_estimate`, and 2 cov and 2 R of `verify_lemma32`."""
    tt = rng.uniform(0.0, t, size=(m, 2))
    tt[::4, 1] = tt[::4, 0]
    ss, _ = _draw_rough_times(rng, tt, t, 2.0 * h0 - 1.0)
    ss[1::4, 1] = ss[1::4, 0]
    tau, sig = np.sort(tt, axis=1), np.sort(ss, axis=1)
    cov_t = _kernel_cov_broadcast(tau, t, measure)
    cov_s = _kernel_cov_broadcast(sig, t, measure)
    return np.concatenate([cov_t + cov_s, 2.0 * cov_t, 2.0 * _majorant_form(tau, t)])


@pytest.mark.parametrize("kind", sorted(MEASURES))
def test_lambda_min_is_eigvalsh_on_the_sampler_matrices(kind):
    """Bit for bit on the covariance sums the sampler's own formulas
    produce, for t from 1e-3 to 1e3 and with tied times.

    The test is kept to these matrices, which are what the sampler's bits
    rest on.  It is not widened to arbitrary symmetric matrices: there the
    equality also depends on how LAPACK's dlae2 was compiled (a fused
    multiply-add in its last line moves the result by up to an ulp)."""
    rng = np.random.default_rng(11)
    for t in np.geomspace(1e-3, 1e3, 7):
        for h0 in (0.51, 0.75, 0.94):
            mats = _sampler_matrices(rng, MEASURES[kind], float(t), h0)
            want = np.linalg.eigvalsh(mats)[:, 0]
            assert np.array_equal(_lambda_min(mats), want), (t, h0)


def test_lambda_min_split_blocks_are_eigvalsh():
    """Near-diagonal blocks.  Below dsterf's first split threshold the
    eigenvalues are the diagonal, which dlae2 would round differently; a
    few ulps above it only the squared test b^2 <= eps^2 |a c| can split."""
    rng = np.random.default_rng(14)
    m = 20_000
    a = rng.uniform(0.5, 2.0, m)
    c = a * (1.0 + rng.uniform(-1e-8, 1e-8, m))
    threshold = np.sqrt(a) * np.sqrt(c) * 2.0**-53
    for b in (threshold * rng.uniform(0.1, 1.0, m),
              threshold * (1.0 + rng.integers(1, 4, m) * 2.0**-52)):
        mats = np.empty((m, 2, 2))
        mats[:, 0, 0], mats[:, 1, 1] = a, c
        mats[:, 0, 1] = mats[:, 1, 0] = b * rng.choice([-1.0, 1.0], m)
        assert np.array_equal(_lambda_min(mats), np.linalg.eigvalsh(mats)[:, 0])


def test_lambda_min_rescaled_blocks_and_other_sizes_are_eigvalsh():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((200, 2, 2))
    psd = a @ np.transpose(a, (0, 2, 1))
    # outside [2^-405, 2^485] LAPACK rescales; those rows take eigvalsh
    for scale in (0.0, 1e-300, 1e-125, 1e140, 1e300):
        mats = psd * scale
        assert np.array_equal(_lambda_min(mats), np.linalg.eigvalsh(mats)[:, 0])
    mixed = np.concatenate([psd, psd * 1e-300, np.zeros((3, 2, 2))])
    assert np.array_equal(_lambda_min(mixed), np.linalg.eigvalsh(mixed)[:, 0])
    for n in (1, 3):
        b = rng.standard_normal((50, n, n))
        mats = b @ np.transpose(b, (0, 2, 1))
        assert np.array_equal(_lambda_min(mats), np.linalg.eigvalsh(mats)[:, 0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gathered_kernel_is_the_broadcast_formula(n):
    rng = np.random.default_rng(20 + n)
    for t in (1e-3, 0.7, 50.0):
        tau = _sorted_times_with_ties(rng, 500, n, t)
        for kind, measure in MEASURES.items():
            got = kernel_fourier_gaussian(tau, t, 0.3, measure).cov
            assert np.array_equal(got, _kernel_cov_broadcast(tau, t, measure)), kind


@pytest.mark.parametrize("n", [1, 2])
def test_column_folds_are_numpy_sum_and_einsum(n):
    rng = np.random.default_rng(30 + n)
    m = 50_000
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(m, n))
    vec = rng.standard_normal((m, n)) * scale
    mat = rng.standard_normal((m, n, n))
    assert np.array_equal(_row_sum(vec), np.sum(vec, axis=1))
    assert np.array_equal(_quadform(mat, vec), np.einsum("ij,ijk,ik->i", vec, mat, vec))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sort_rows_is_numpy_sort(n):
    rng = np.random.default_rng(40 + n)
    x = rng.uniform(0.0, 1.0, size=(1_000, n))
    x[::3, -1] = x[::3, 0]
    assert np.array_equal(_sort_rows(x), np.sort(x, axis=1))


# (n, measure, workers): ((value, stderr), lhs, rhs, diff_stderr), recorded
# from the eigvalsh / np.sort / einsum implementation at t = 0.8, x = 0.2,
# (H0, H) = (0.75, 0.3), seed 5, 3000 samples, 2 time x 300 spectral draws
PINNED = {
    (1, "dirac", 1): (
        (0.09833980238505459, 0.0016610563508621422),
        [0.10994402618910153, 0.09156661829049247],
        [0.10994402618910153, 0.09156661829049247],
        [1.1247654519885915e-18, 0.0],
    ),
    (1, "dirac", 3): (
        (0.09973867372869155, 0.002106891905736573),
        [0.1076100401397078, 0.0905092130662564],
        [0.1076100401397078, 0.0905092130662564],
        [1.1480447996467965e-18, 0.0],
    ),
    (1, "lebesgue", 1): (
        (0.6083587371132452, 0.012653770791443171),
        [1.0309118926429237, 0.6424734692204586],
        [1.259078162057227, 1.0486202248468979],
        [0.007493940620066834, 0.011500678814619095],
    ),
    (1, "lebesgue", 3): (
        (0.6303181098195815, 0.02148694116436363),
        [0.99835009482672, 0.6418885544105626],
        [1.232349371351642, 1.036510828161798],
        [0.0076566303221966845, 0.012344890204313189],
    ),
    (1, "gaussian", 1): (
        (0.040414586861533305, 0.0006747931941405815),
        [0.06103654743649052, 0.04408070422573815],
        [0.0664330276314179, 0.05532858759006205],
        [0.00017960133433927186, 0.0003329956573491591],
    ),
    (1, "gaussian", 3): (
        (0.04162705229536884, 0.0011357327206638723),
        [0.059502952671899256, 0.043656380622993304],
        [0.06502273036393356, 0.05468965673666165],
        [0.00018359326253019823, 0.00034900090798740453],
    ),
    (2, "dirac", 1): (
        (0.03580018455022495, 0.0018749704409412307),
        [0.0751649072637798, 0.12220065527986347],
        [0.07516490726377982, 0.1222006552798635],
        [1.7869025729349354e-18, 5.4466830000895075e-18],
    ),
    (2, "dirac", 3): (
        (0.03596484904339001, 0.0018435549389509511),
        [0.07561179040198726, 0.12671348669821617],
        [0.07561179040198726, 0.1267134866982162],
        [2.0919685385711572e-18, 5.285477886897292e-18],
    ),
    (2, "lebesgue", 1): (
        (0.18430069253660267, 0.014079901427747527),
        [0.5498392579077656, 1.1304376087498489],
        [0.860787953372796, 1.3994409863372006],
        [0.025357223737668338, 0.0300469962910307],
    ),
    (2, "lebesgue", 3): (
        (0.18517333949687304, 0.014405194912768138),
        [0.5563450530255795, 1.1558196903152858],
        [0.8659056557147206, 1.4511218978413933],
        [0.025463530607582892, 0.029857152831254393],
    ),
    (2, "gaussian", 1): (
        (0.012984997765176264, 0.0008117491727104721),
        [0.036911579546079605, 0.06730503092455786],
        [0.045417950699559104, 0.07383902327554816],
        [0.0006672742800274167, 0.0007169932463914208],
    ),
    (2, "gaussian", 3): (
        (0.01297636793680422, 0.0008275312083984255),
        [0.03723592469648394, 0.06913116036751611],
        [0.045687977193017586, 0.07656587497184408],
        [0.0006759214849504028, 0.0007394669238678427],
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_sampler_floats_are_pinned(key):
    n, kind, workers = key
    (value, stderr), lhs, rhs, diff_stderr = PINNED[key]
    args = (n, 0.8, 0.2, MEASURES[kind], FractionalParams(0.75, 0.3))
    est = chaos_norm_estimate(*args, samples=3000, seed=5, workers=workers)
    assert (est.value, est.stderr) == (value, stderr)
    cmp = verify_lemma32(*args, time_samples=2, xi_samples=300, seed=5, workers=workers)
    assert (cmp.lhs.tolist(), cmp.rhs.tolist(), cmp.diff_stderr.tolist()) == (
        lhs, rhs, diff_stderr)


README_MC_VERIFY = (
    '{"bound": "0.99221758123139325", "bound_passed": true, "config": {"H": '
    '"0.29999999999999999", "H0": "0.75", "b": "1", "measure": "{\\"type\\": '
    '\\"dirac\\", \\"x0\\": 0.0}", "n": 2, "samples": 200000, "seed": 7, "t": "1", '
    '"workers": 4, "x": "0"}, "estimate": "0.04234310361244107", "minimal_b": '
    '"0.51781880573510697", "spectral_majorant_passed": true, "spectral_margins": '
    '["0", "-1.1102230246251565e-15", "-2.7755575615628914e-17", "0", "0", '
    '"6.9388939039072284e-18", "0", "-2.7755575615628914e-17", '
    '"1.1102230246251565e-16", "2.7755575615628914e-17"], "stderr": '
    '"0.0004073962624199049"}\n'
)


def test_readme_mc_verify_stdout_is_pinned():
    buf = io.StringIO()
    argv = ["mc-verify", "--n", "2", "--t", "1", "--x", "0", "--H0", "0.75",
            "--H", "0.3", "--measure", '{"type": "dirac", "x0": 0.0}',
            "--samples", "200000", "--seed", "7", "--workers", "4"]
    assert cli.run(argv, stdout=buf) == 0
    assert buf.getvalue() == README_MC_VERIFY


def test_check_09_configurations_raise_no_floating_point_warnings():
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        assert check_09_mc_oracle_bounds().ok
