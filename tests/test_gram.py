"""Tests for gram matrices, gram signatures and the gram distance.

A signature is a list of per-tap (N, N) gram matrices; a batch's signatures
are one (B, N, N) stack per tap.
"""
import numpy as np
import pytest

from dynmem.gram import gram_distance, gram_matrix, signatures
from dynmem.model import ConvNetClassifier
from dynmem.validation import ShapeError


def gram_reference(feature_maps):
    """Double-loop oracle for the normalized gram matrix."""
    f = np.asarray(feature_maps, dtype=np.float64)
    n, h, w = f.shape
    flat = f.reshape(n, h * w)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.dot(flat[i], flat[j]) / (n * h * w)
    return out


def distance_reference(a, b):
    """Summation oracle for the gram distance."""
    total = 0.0
    for ga, gb in zip(a, b):
        n = ga.shape[0]
        for i in range(n):
            for j in range(n):
                total += (ga[i, j] - gb[i, j]) ** 2 / (n * n)
    return total


def random_signature(rng, sizes=(2, 3)):
    return [gram_matrix(rng.standard_normal((n, 4, 4))) for n in sizes]


def signature(model, image):
    """Signature of one image: row 0 of its batch-of-one stacks."""
    return [g[0] for g in signatures(model, image[None])]


# -- gram_matrix -----------------------------------------------------------

def test_gram_all_zero_maps():
    np.testing.assert_array_equal(gram_matrix(np.zeros((3, 2, 2))), np.zeros((3, 3)))


def test_gram_single_constant_map_is_identity_case():
    np.testing.assert_allclose(gram_matrix(np.ones((1, 2, 2))), [[1.0]])


def test_gram_two_map_hand_oracle():
    f = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    np.testing.assert_allclose(gram_matrix(f), [[0.25, 0.0], [0.0, 0.25]])


def test_gram_matches_bruteforce_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        f = rng.standard_normal((n, h, w))
        np.testing.assert_allclose(gram_matrix(f), gram_reference(f), atol=1e-6)


def test_gram_symmetry_and_nonnegative_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = gram_matrix(rng.standard_normal((4, 3, 3)))
        assert np.max(np.abs(g - g.T)) < 1e-6
        assert np.all(np.diag(g) >= 0.0)


def test_gram_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        gram_matrix(np.zeros((2, 2)))


# -- gram_distance ---------------------------------------------------------

def test_distance_to_self_is_zero():
    rng = np.random.default_rng(2)
    s = random_signature(rng)
    assert gram_distance(s, s) == 0.0


def test_distance_single_entry_hand_oracle():
    a = [np.array([[2.0]])]
    b = [np.array([[0.0]])]
    assert gram_distance(a, b) == 4.0


def test_distance_symmetric_and_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_signature(rng), random_signature(rng)
        d = gram_distance(a, b)
        assert d >= 0.0
        assert d == gram_distance(b, a)


def test_distance_matches_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = random_signature(rng, sizes=(2, 3, 4)), random_signature(rng, sizes=(2, 3, 4))
        np.testing.assert_allclose(gram_distance(a, b), distance_reference(a, b), atol=1e-6)


def test_distance_mismatched_structure_raises():
    rng = np.random.default_rng(5)
    with pytest.raises(ShapeError):
        gram_distance(random_signature(rng, sizes=(2,)), random_signature(rng, sizes=(3,)))


# -- model signatures ------------------------------------------------------

@pytest.fixture(scope="module")
def model():
    return ConvNetClassifier(image_size=16, channels=(2, 3, 4, 5), random_state=0)


def test_identical_images_give_identical_signatures(model):
    rng = np.random.default_rng(6)
    img = rng.random((1, 16, 16)).astype(np.float32)
    a = signature(model, img)
    b = signature(model, img)
    assert gram_distance(a, b) == 0.0


def test_signature_layer_sizes_follow_architecture(model):
    rng = np.random.default_rng(7)
    sig = signature(model, rng.random((1, 16, 16)).astype(np.float32))
    assert [g.shape for g in sig] == [(2, 2), (3, 3), (4, 4), (5, 5)]


def test_default_architecture_signature_sizes():
    big = ConvNetClassifier()
    rng = np.random.default_rng(8)
    sig = signature(big, rng.random((1, 32, 32)).astype(np.float32))
    assert [g.shape for g in sig] == [(8, 8), (16, 16), (32, 32), (64, 64)]


def test_signature_not_scale_invariant(model):
    rng = np.random.default_rng(9)
    img = rng.random((1, 16, 16)).astype(np.float32)
    assert gram_distance(signature(model, img), signature(model, img * 0.25)) > 0.0


def test_batched_signatures_match_single_passes(model):
    rng = np.random.default_rng(10)
    X = rng.random((4, 1, 16, 16)).astype(np.float32)
    batched = signatures(model, X)
    assert [g.shape for g in batched] == [(4, 2, 2), (4, 3, 3), (4, 4, 4), (4, 5, 5)]
    for i in range(4):
        sig = [g[i] for g in batched]
        np.testing.assert_allclose(gram_distance(sig, signature(model, X[i])), 0.0, atol=1e-10)


def test_stacked_forms_equal_the_per_image_and_per_pair_results_exactly():
    """Batched gram matrices equal, bit for bit, one `flat @ flat.T` per
    image, and stacked distances equal a per-pair loop over the taps; the
    memory's replacement choices and dumped distances rest on this."""
    big = ConvNetClassifier(random_state=0)
    rng = np.random.default_rng(11)
    for n in (1, 8, 150):
        _, taps = big.forward_with_taps(rng.random((n, 1, 32, 32)).astype(np.float32))
        stacks = [gram_matrix(t) for t in taps]
        for t, stack in zip(taps, stacks):
            c, h, w = t.shape[1:]
            for i in range(n):
                flat = np.asarray(t[i], dtype=np.float64).reshape(c, h * w)
                assert np.array_equal(stack[i], flat @ flat.T / (c * h * w))
        incoming = [g[-1] for g in stacks]
        distances = gram_distance(incoming, stacks)
        assert distances.shape == (n,) and distances[-1] == 0.0
        for i in range(n):
            total = 0.0
            for x, g in zip(incoming, stacks):
                diff = x - g[i]
                total += float(np.sum(diff * diff)) / (x.shape[0] ** 2)
            assert distances[i] == total
