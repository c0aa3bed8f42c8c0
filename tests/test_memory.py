"""Tests for the dynamic rehearsal memory: fill phase, class quotas,
gram-distance replacement and rehearsal draws.
"""
import numpy as np
import pytest

from dynmem.gram import gram_distance, gram_matrix
from dynmem.memory import DynamicMemory
from dynmem.validation import ConfigError, ShapeError, StateError


def sig(value):
    """Scalar stand-in signature: distance between sig(a), sig(b) is (a-b)^2."""
    return [np.array([[float(value)]])]


def fill_class(memory, label, values, start_step=0):
    for i, v in enumerate(values):
        memory.insert(np.zeros((1, 2, 2)), label, sig(v), start_step + i)


def test_capacity_must_be_at_least_two():
    with pytest.raises(ConfigError):
        DynamicMemory(1)


def test_empty_memory_appends():
    mem = DynamicMemory(4)
    outcome = mem.insert(np.zeros((1, 2, 2)), 0, sig(0.0), step=1)
    assert outcome.kind == "appended"
    assert len(mem) == 1


def test_fill_phase_appends_until_quota():
    mem = DynamicMemory(8)  # quota 4 per class
    fill_class(mem, 0, range(4))
    fill_class(mem, 1, range(4))
    assert len(mem) == 8
    assert mem.class_count(0) == mem.class_count(1) == 4


def test_replacement_only_within_class():
    mem = DynamicMemory(2)  # quota 1 per class
    mem.insert(np.zeros((1, 2, 2)), 0, sig(0.0), 0)
    mem.insert(np.zeros((1, 2, 2)), 1, sig(100.0), 1)
    # the class-0 item is far closer, but an incoming 1 must replace the 1
    outcome = mem.insert(np.zeros((1, 2, 2)), 1, sig(0.1), 2)
    assert outcome.kind == "replaced"
    assert mem.items[outcome.index].label == 1
    assert mem.class_count(0) == mem.class_count(1) == 1


def test_replacement_targets_minimum_distance():
    mem = DynamicMemory(8)
    # distances to an incoming sig(0.0): 4.0, 0.5, 2.0
    fill_class(mem, 0, [2.0, np.sqrt(0.5), np.sqrt(2.0)])
    fill_class(mem, 1, [0.0])
    mem2 = DynamicMemory(6)  # quota 3: class 0 is now full
    fill_class(mem2, 0, [2.0, np.sqrt(0.5), np.sqrt(2.0)])
    outcome = mem2.insert(np.zeros((1, 2, 2)), 0, sig(0.0), 10)
    assert outcome.kind == "replaced"
    assert outcome.index == 1
    np.testing.assert_allclose(outcome.distance, 0.5)


def test_equidistant_ties_break_to_oldest():
    mem = DynamicMemory(6)  # quota 3
    fill_class(mem, 0, [1.0, 1.0, 1.0])
    assert mem.argmin_replacement_index(0, sig(0.0)) == (0, 1.0)


def test_argmin_without_candidates_raises():
    mem = DynamicMemory(4)
    fill_class(mem, 0, [1.0])
    with pytest.raises(StateError):
        mem.argmin_replacement_index(1, sig(0.0))


def test_randomized_inserts_match_bruteforce_argmin():
    """Every replacement equals an exhaustive same-class scan over a
    test-local record of what was inserted, every stored row equals that
    record, and the capacity/quota invariants hold after every insert."""
    rng = np.random.default_rng(0)
    for capacity in (4, 10, 32):
        mem = DynamicMemory(capacity)
        stored = []  # (label, signature) of items[i], kept apart from mem.grams
        for step in range(400):
            label = int(rng.integers(0, 2))
            incoming = sig(rng.normal())
            if mem.class_count(label) >= mem.quota:
                candidates = [(gram_distance(incoming, s), i)
                              for i, (lab, s) in enumerate(stored) if lab == label]
                expected = min(candidates, key=lambda t: (t[0], t[1]))[1]
                outcome = mem.insert(np.zeros((1, 2, 2)), label, incoming, step)
                assert outcome.kind == "replaced"
                assert outcome.index == expected
                stored[outcome.index] = (label, incoming)
                assert mem.grams[0][outcome.index] == incoming[0]
            else:
                outcome = mem.insert(np.zeros((1, 2, 2)), label, incoming, step)
                assert outcome.kind == "appended" and outcome.index == len(stored)
                stored.append((label, incoming))
            assert [it.label for it in mem.items] == [lab for lab, _ in stored]
            np.testing.assert_array_equal(mem.grams[0][:len(stored)],
                                          np.stack([s[0] for _, s in stored]))
            assert len(mem) <= capacity
            assert mem.class_count(0) <= mem.quota
            assert mem.class_count(1) <= mem.quota


def test_insert_rejects_a_signature_of_another_tap_structure():
    mem = DynamicMemory(4)
    mem.insert(np.zeros((1, 2, 2)), 0, [np.zeros((2, 2)), np.zeros((3, 3))], 0)
    for bad in ([np.zeros((2, 2))],
                [np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((1, 1))],
                [np.zeros((1, 1)), np.zeros((3, 3))],
                [np.zeros((2, 2)), np.zeros((3, 4))]):
        for label in (0, 1):  # append (class 1 open) and replace (class 0 full after 2)
            with pytest.raises(ShapeError, match="mismatched layer structure"):
                mem.insert(np.zeros((1, 2, 2)), label, bad, 1)
    for image in (np.zeros((1, 1, 1)), np.zeros((2, 2)), np.zeros((1, 2, 2, 1))):
        for label in (0, 1):  # a record field would broadcast (1, 1, 1) silently
            with pytest.raises(ShapeError, match="image shape"):
                mem.insert(image, label, [np.zeros((2, 2)), np.zeros((3, 3))], 1)
    assert len(mem) == 1
    assert not mem.grams[0][1:].any() and not mem.grams[1][1:].any()


def test_search_rejects_a_signature_of_another_tap_structure():
    mem = DynamicMemory(4)
    fill_signatures(mem, [0, 0], [[np.eye(2), np.eye(3)], [np.ones((2, 2)), np.ones((3, 3))]])
    for bad in ([np.eye(2)], [np.eye(2), np.eye(3), np.eye(1)], [np.eye(2), np.eye(4)]):
        with pytest.raises(ShapeError, match="mismatched layer structure"):
            mem.argmin_replacement_index(0, bad)


def test_full_class_count_never_changes_again():
    rng = np.random.default_rng(1)
    mem = DynamicMemory(6)
    fill_class(mem, 0, rng.normal(size=3))
    fill_class(mem, 1, rng.normal(size=3))
    for step in range(50):
        mem.insert(np.zeros((1, 2, 2)), int(rng.integers(0, 2)), sig(rng.normal()), step)
        assert mem.class_count(0) == 3 and mem.class_count(1) == 3


def test_draw_rehearsal_bounds_and_determinism():
    mem = DynamicMemory(8)
    for i in range(3):  # each image holds its insertion position
        mem.insert(np.full((1, 2, 2), float(i)), 0, sig(i), i)
    images, labels = mem.draw_rehearsal(0, np.random.default_rng(0))
    assert images.shape == (0, 1, 2, 2) and labels.shape == (0,)
    images, labels = mem.draw_rehearsal(8, np.random.default_rng(0))
    assert sorted(images[:, 0, 0, 0].tolist()) == [0.0, 1.0, 2.0]
    assert labels.tolist() == [0, 0, 0]
    a, _ = mem.draw_rehearsal(2, np.random.default_rng(7))
    b, _ = mem.draw_rehearsal(2, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert len(set(a[:, 0, 0, 0].tolist())) == 2  # without replacement


def test_dump_lists_every_item():
    mem = DynamicMemory(4)
    fill_class(mem, 0, [1.0, 2.0])
    fill_class(mem, 1, [3.0])
    # class 0 is full: sig(1.5) is 0.25 from both, so the older item goes
    mem.insert(np.zeros((1, 2, 2)), 0, sig(1.5), 7, task_id="a-long-task-name")
    assert mem.dump().split("\n") == ["step\tlabel\ttask\tdistance_at_replacement",
                                      "7\t0\ta-long-task-name\t0.25",
                                      "1\t0\t?\tnan",
                                      "0\t1\t?\tnan",
                                      ""]


def test_refresh_signatures_recomputes_selected_labels():
    mem = DynamicMemory(8)
    fill_class(mem, 0, [1.0, 2.0])
    fill_class(mem, 1, [3.0])

    def new_sigs(images):
        return [np.full((len(images), 1, 1), 9.0)]

    mem.refresh_signatures(new_sigs, labels={0})
    assert mem.grams[0][:len(mem), 0, 0].tolist() == [9.0, 9.0, 3.0]


# -- the screened replacement search against a scan over every same-class row --

def scan_all(mem, label, signature):
    """(index, distance) of the first minimum of gram_distance over every
    same-class row, as the search computed it before it was screened."""
    rows = np.flatnonzero(mem.items.label == label)
    distances = gram_distance(signature, [g[rows] for g in mem.grams])
    best = int(np.argmin(distances))
    return int(rows[best]), distances[best]


def assert_search_is_the_scan(mem, label, signature):
    want_index, want_distance = scan_all(mem, label, signature)
    index, distance = mem.argmin_replacement_index(label, signature)
    assert index == want_index
    assert np.float64(distance).tobytes() == np.float64(want_distance).tobytes()  # NaN too
    return index, distance


def fill_signatures(mem, labels, signatures):
    for step, (label, signature) in enumerate(zip(labels, signatures)):
        mem.insert(np.zeros((1, 2, 2)), label, signature, step)


def taps(rng, sizes=(8, 16, 32, 64), scale=1.0):
    return [rng.standard_normal((n, n)) * scale for n in sizes]


def test_screened_search_equals_the_scan_on_gram_signatures_and_keeps_one_row():
    rng = np.random.default_rng(5)
    mem = DynamicMemory(40)
    for step in range(120):
        feature_maps = [rng.standard_normal((n, 4, 4)) for n in (8, 16, 32, 64)]
        signature, label = [gram_matrix(f) for f in feature_maps], step % 2
        if mem.class_count(label) >= mem.quota:
            assert_search_is_the_scan(mem, label, signature)
            assert mem._screen(signature, np.flatnonzero(mem.items.label == label)).size == 1
        mem.insert(np.zeros((1, 2, 2)), label, signature, step)


def test_screened_search_breaks_a_tie_of_equal_signatures_to_the_oldest():
    rng = np.random.default_rng(6)
    mem = DynamicMemory(8)
    same, labels = taps(rng), [1, 0, 1, 0, 0, 1, 0, 1]
    fill_signatures(mem, labels, [taps(rng) if lab else same for lab in labels])
    assert assert_search_is_the_scan(mem, 0, same) == (1, 0.0)
    assert assert_search_is_the_scan(mem, 0, taps(rng))[0] == 1


def test_screened_search_on_copies_one_ulp_apart():
    rng = np.random.default_rng(7)
    base = taps(rng, scale=1e3)
    mem = DynamicMemory(16)
    copies = [[np.where(rng.random(b.shape) < 0.5, np.nextafter(b, np.inf * s), b)
               for b in base] for s in rng.choice([-1.0, 1.0], size=16)]
    fill_signatures(mem, [0, 1] * 8, copies)
    for signature in (base, copies[4], [np.nextafter(b, 0.0) for b in base]):
        assert_search_is_the_scan(mem, 0, signature)


def test_screened_search_under_worst_cancellation():
    # norms near 1e8 per entry, differences near 1e-6: the expansion cannot
    # separate the rows, so the screen keeps them and the scan decides
    rng = np.random.default_rng(8)
    base = taps(rng, scale=1e8)
    near = [[b + rng.standard_normal(b.shape) * 1e-6 for b in base] for _ in range(10)]
    mem = DynamicMemory(10)
    fill_signatures(mem, [0, 1] * 5, near)
    for _ in range(5):
        assert_search_is_the_scan(mem, 0, [b + rng.standard_normal(b.shape) * 1e-6
                                           for b in base])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_screened_search_with_a_non_finite_signature(bad):
    rng = np.random.default_rng(9)
    signatures = [taps(rng) for _ in range(8)]
    poisoned = [g.copy() for g in signatures[4]]
    poisoned[1][3, 2] = bad
    mem = DynamicMemory(8)
    fill_signatures(mem, [0, 1] * 4, signatures[:4] + [poisoned] + signatures[5:])
    with np.errstate(invalid="ignore", over="ignore"):
        for incoming in (taps(rng), poisoned, signatures[2]):
            assert_search_is_the_scan(mem, 0, incoming)
        mem.insert(np.zeros((1, 2, 2)), 0, poisoned, 9)  # a replacement still happens
    assert len(mem) == 8


def test_replacement_after_refresh_uses_the_refreshed_signatures():
    # stored 10, 20, 30 are refreshed to 3, 2, 1: a norm column left at 100,
    # 400, 900 would screen out the row now equal to the incoming 1
    mem = DynamicMemory(6)
    fill_class(mem, 0, [10.0, 20.0, 30.0])
    fill_class(mem, 1, [5.0])
    mem.refresh_signatures(lambda images: [np.array([3.0, 2.0, 1.0])[:, None, None]],
                           labels={0})
    assert assert_search_is_the_scan(mem, 0, sig(1.0)) == (2, 0.0)
    assert mem.insert(np.zeros((1, 2, 2)), 0, sig(1.0), 9).index == 2


def test_gram_distance_of_a_subset_of_rows_has_the_full_stack_bits():
    rng = np.random.default_rng(10)
    stacks = [rng.standard_normal((160, n, n)) for n in (8, 16, 32, 64)]
    incoming = taps(rng)
    full = gram_distance(incoming, stacks)
    for rows in ([0], [159], [3, 77], np.arange(0, 160, 2), np.arange(17, 100)):
        subset = gram_distance(incoming, [s[rows] for s in stacks])
        assert subset.tobytes() == full[rows].tobytes()


def test_screened_search_on_float32_signatures():
    # stored and incoming in float32: rows 1e-3 apart around a common base,
    # which squared norms rounded in float32 would not tell apart
    rng = np.random.default_rng(11)
    base = taps(rng, sizes=(8, 16))

    def near():
        return [(b + rng.standard_normal(b.shape) * 1e-3).astype(np.float32) for b in base]

    mem = DynamicMemory(16)
    fill_signatures(mem, [0, 1] * 8, [near() for _ in range(16)])
    for _ in range(10):
        assert_search_is_the_scan(mem, 0, near())
