"""Tests for the dynamic rehearsal memory: fill phase, class quotas,
gram-distance replacement and rehearsal draws.
"""
import numpy as np
import pytest

from dynmem.gram import GramSignature, gram_distance
from dynmem.memory import DynamicMemory
from dynmem.validation import ConfigError, StateError


def sig(value):
    """Scalar stand-in signature: distance between sig(a), sig(b) is (a-b)^2."""
    return GramSignature([np.array([[float(value)]])])


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
    """Every replacement equals an exhaustive same-class scan, and the
    capacity/quota invariants hold after every insert."""
    rng = np.random.default_rng(0)
    for capacity in (4, 10, 32):
        mem = DynamicMemory(capacity)
        for step in range(400):
            label = int(rng.integers(0, 2))
            incoming = sig(rng.normal())
            if mem.class_count(label) >= mem.quota:
                candidates = [(gram_distance(incoming, it.signature), i)
                              for i, it in enumerate(mem.items) if it.label == label]
                expected = min(candidates, key=lambda t: (t[0], t[1]))[1]
                outcome = mem.insert(np.zeros((1, 2, 2)), label, incoming, step)
                assert outcome.kind == "replaced"
                assert outcome.index == expected
            else:
                assert mem.insert(np.zeros((1, 2, 2)), label, incoming, step).kind == "appended"
            assert len(mem) <= capacity
            assert mem.class_count(0) <= mem.quota
            assert mem.class_count(1) <= mem.quota


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
    fill_class(mem, 0, range(3))
    assert mem.draw_rehearsal(0, np.random.default_rng(0)) == []
    items = mem.draw_rehearsal(8, np.random.default_rng(0))
    assert len(items) == 3
    a = [id(it) for it in mem.draw_rehearsal(2, np.random.default_rng(7))]
    b = [id(it) for it in mem.draw_rehearsal(2, np.random.default_rng(7))]
    assert a == b
    assert len(set(a)) == 2  # without replacement


def test_dump_lists_every_item():
    mem = DynamicMemory(4)
    fill_class(mem, 0, [1.0, 2.0])
    fill_class(mem, 1, [3.0])
    lines = mem.dump().strip().split("\n")
    assert lines[0] == "step\tlabel\ttask\tdistance_at_replacement"
    assert len(lines) == 4


def test_refresh_signatures_recomputes_selected_labels():
    mem = DynamicMemory(8)
    fill_class(mem, 0, [1.0, 2.0])
    fill_class(mem, 1, [3.0])

    def new_sigs(images):
        return [sig(9.0) for _ in range(len(images))]

    mem.refresh_signatures(new_sigs, labels={0})
    values = [it.signature.matrices[0][0, 0] for it in mem.items]
    assert values == [9.0, 9.0, 3.0]
