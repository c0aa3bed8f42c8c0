"""Tests for the dynamic rehearsal memory: fill phase, class quotas,
gram-distance replacement and rehearsal draws.
"""
import copy

import numpy as np
import pytest

from dynmem.gram import gram_distance, gram_matrix
from dynmem.memory import DynamicMemory
from dynmem.validation import ConfigError, ShapeError


def sig(value):
    """Scalar stand-in signature: distance between sig(a), sig(b) is (a-b)^2."""
    return [np.array([[float(value)]])]


def insert_one(memory, image, label, signature, step, task_id="?"):
    """A lone sample, stored as a batch of one: its InsertOutcome."""
    return memory.insert_batch(np.asarray(image)[None], [label],
                               [np.asarray(g)[None] for g in signature], step, [task_id])[0]


def fill_class(memory, label, values, start_step=0):
    for i, v in enumerate(values):
        insert_one(memory, np.zeros((1, 2, 2)), label, sig(v), start_step + i)


def test_capacity_must_be_at_least_two():
    with pytest.raises(ConfigError):
        DynamicMemory(1)


def test_empty_memory_appends():
    mem = DynamicMemory(4)
    outcome = insert_one(mem, np.zeros((1, 2, 2)), 0, sig(0.0), step=1)
    assert outcome.kind == "appended"
    assert len(mem) == 1


def test_fill_phase_appends_until_quota():
    mem = DynamicMemory(8)  # quota 4 per class
    fill_class(mem, 0, range(4))
    fill_class(mem, 1, range(4))
    assert len(mem) == 8
    assert [np.count_nonzero(mem.items.label == k) for k in (0, 1)] == [4, 4]


def test_replacement_only_within_class():
    mem = DynamicMemory(2)  # quota 1 per class
    insert_one(mem, np.zeros((1, 2, 2)), 0, sig(0.0), 0)
    insert_one(mem, np.zeros((1, 2, 2)), 1, sig(100.0), 1)
    # the class-0 item is far closer, but an incoming 1 must replace the 1
    outcome = insert_one(mem, np.zeros((1, 2, 2)), 1, sig(0.1), 2)
    assert outcome.kind == "replaced"
    assert mem.items[outcome.index].label == 1
    assert [np.count_nonzero(mem.items.label == k) for k in (0, 1)] == [1, 1]


def test_replacement_targets_minimum_distance():
    mem = DynamicMemory(8)
    # distances to an incoming sig(0.0): 4.0, 0.5, 2.0
    fill_class(mem, 0, [2.0, np.sqrt(0.5), np.sqrt(2.0)])
    fill_class(mem, 1, [0.0])
    mem2 = DynamicMemory(6)  # quota 3: class 0 is now full
    fill_class(mem2, 0, [2.0, np.sqrt(0.5), np.sqrt(2.0)])
    outcome = insert_one(mem2, np.zeros((1, 2, 2)), 0, sig(0.0), 10)
    assert outcome.kind == "replaced"
    assert outcome.index == 1
    np.testing.assert_allclose(outcome.distance, 0.5)


def test_equidistant_ties_break_to_oldest():
    mem = DynamicMemory(6)  # quota 3
    fill_class(mem, 0, [1.0, 1.0, 1.0])
    outcome = insert_one(mem, np.zeros((1, 2, 2)), 0, sig(0.0), 3)
    assert (outcome.kind, outcome.index, outcome.distance) == ("replaced", 0, 1.0)


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
            if np.count_nonzero(mem.items.label == label) >= mem.quota:
                candidates = [(gram_distance(incoming, s), i)
                              for i, (lab, s) in enumerate(stored) if lab == label]
                expected = min(candidates, key=lambda t: (t[0], t[1]))[1]
                outcome = insert_one(mem, np.zeros((1, 2, 2)), label, incoming, step)
                assert outcome.kind == "replaced"
                assert outcome.index == expected
                stored[outcome.index] = (label, incoming)
                assert mem.grams[0][outcome.index] == incoming[0]
            else:
                outcome = insert_one(mem, np.zeros((1, 2, 2)), label, incoming, step)
                assert outcome.kind == "appended" and outcome.index == len(stored)
                stored.append((label, incoming))
            assert [it.label for it in mem.items] == [lab for lab, _ in stored]
            np.testing.assert_array_equal(mem.grams[0][:len(stored)],
                                          np.stack([s[0] for _, s in stored]))
            assert len(mem) <= capacity
            assert np.count_nonzero(mem.items.label == 0) <= mem.quota
            assert np.count_nonzero(mem.items.label == 1) <= mem.quota


def test_insert_rejects_a_signature_of_another_tap_structure():
    mem = DynamicMemory(4)
    insert_one(mem, np.zeros((1, 2, 2)), 0, [np.zeros((2, 2)), np.zeros((3, 3))], 0)
    for bad in ([np.zeros((2, 2))],
                [np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((1, 1))],
                [np.zeros((1, 1)), np.zeros((3, 3))],
                [np.zeros((2, 2)), np.zeros((3, 4))]):
        for label in (0, 1):  # append (class 1 open) and replace (class 0 full after 2)
            with pytest.raises(ShapeError, match="mismatched layer structure"):
                insert_one(mem, np.zeros((1, 2, 2)), label, bad, 1)
    for image in (np.zeros((1, 1, 1)), np.zeros((2, 2)), np.zeros((1, 2, 2, 1))):
        for label in (0, 1):  # a record field would broadcast (1, 1, 1) silently
            with pytest.raises(ShapeError, match="image shape"):
                insert_one(mem, image, label, [np.zeros((2, 2)), np.zeros((3, 3))], 1)
    assert len(mem) == 1
    assert not mem.grams[0][1:].any() and not mem.grams[1][1:].any()


def test_search_rejects_a_signature_of_another_tap_structure():
    mem = DynamicMemory(4)
    fill_signatures(mem, [0, 0], [[np.eye(2), np.eye(3)], [np.ones((2, 2)), np.ones((3, 3))]])
    before = contents(mem)
    for bad in ([np.eye(2)], [np.eye(2), np.eye(3), np.eye(1)], [np.eye(2), np.eye(4)]):
        with pytest.raises(ShapeError, match="mismatched layer structure"):
            insert_one(mem, np.zeros((1, 2, 2)), 0, bad, 2)  # class 0 is full: a replacement
    assert contents(mem) == before


def test_full_class_count_never_changes_again():
    rng = np.random.default_rng(1)
    mem = DynamicMemory(6)
    fill_class(mem, 0, rng.normal(size=3))
    fill_class(mem, 1, rng.normal(size=3))
    for step in range(50):
        insert_one(mem, np.zeros((1, 2, 2)), int(rng.integers(0, 2)), sig(rng.normal()), step)
        assert [np.count_nonzero(mem.items.label == k) for k in (0, 1)] == [3, 3]


def test_draw_rehearsal_bounds_and_determinism():
    mem = DynamicMemory(8)
    for i in range(3):  # each image holds its insertion position
        insert_one(mem, np.full((1, 2, 2), float(i)), 0, sig(i), i)
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
    insert_one(mem, np.zeros((1, 2, 2)), 0, sig(1.5), 7, task_id="a-long-task-name")
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


@pytest.mark.parametrize("labels, shape", [(None, (3, 1, 1)), (None, (1, 2, 2)),
                                           (None, (1, 1, 1)), ({0}, (3, 2, 2)),
                                           ({0}, (1, 2, 2))])
def test_refresh_refuses_stacks_of_another_shape(labels, shape):
    # a (1, 1, 1) stack was broadcast into every row: all 9s, with norms of 81 for 324
    mem = DynamicMemory(4)
    fill_signatures(mem, [0, 0, 1], [[np.full((2, 2), v)] for v in (1.0, 2.0, 3.0)])
    before = contents(mem)
    with pytest.raises(ShapeError, match="mismatched layer structure"):
        mem.refresh_signatures(lambda images: [np.full(shape, 9.0)], labels=labels)
    with pytest.raises(ShapeError, match="mismatched layer structure"):
        mem.refresh_signatures(lambda images: [np.full((len(images), 2, 2), 9.0)] * 2, labels)
    assert contents(mem) == before


# -- the screened replacement search against a scan over every same-class row --

def scan_all(mem, label, signature):
    """(index, distance) of the first minimum of gram_distance over every
    same-class row, as the search computed it before it was screened."""
    rows = np.flatnonzero(mem.items.label == label)
    distances = gram_distance(signature, [g[rows] for g in mem.grams])
    best = int(np.argmin(distances))
    return int(rows[best]), distances[best]


def assert_search_is_the_scan(mem, label, signature):
    """The replacement a lone sample of the full class `label` makes, in a copy
    of `mem`, is the scan's: (index, distance)."""
    want_index, want_distance = scan_all(mem, label, signature)
    outcome = insert_one(copy.deepcopy(mem), np.zeros((1, 2, 2)), label, signature, 99)
    assert outcome.kind == "replaced" and outcome.index == want_index
    assert np.float64(outcome.distance).tobytes() == np.float64(want_distance).tobytes()  # NaN
    return outcome.index, outcome.distance


def fill_signatures(mem, labels, signatures):
    for step, (label, signature) in enumerate(zip(labels, signatures)):
        insert_one(mem, np.zeros((1, 2, 2)), label, signature, step)


def taps(rng, sizes=(8, 16, 32, 64), scale=1.0):
    return [rng.standard_normal((n, n)) * scale for n in sizes]


def test_screened_search_equals_the_scan_on_gram_signatures_and_keeps_one_row():
    rng = np.random.default_rng(5)
    mem = DynamicMemory(40)
    for step in range(120):
        feature_maps = [rng.standard_normal((n, 4, 4)) for n in (8, 16, 32, 64)]
        signature, label = [gram_matrix(f) for f in feature_maps], step % 2
        if np.count_nonzero(mem.items.label == label) >= mem.quota:
            assert_search_is_the_scan(mem, label, signature)
            rows = np.flatnonzero(mem.items.label == label)
            est, rho = mem._products([g[None] for g in signature])
            assert mem._screen(est[rows, 0], rho[rows, 0], rows).size == 1
        insert_one(mem, np.zeros((1, 2, 2)), label, signature, step)


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
        insert_one(mem, np.zeros((1, 2, 2)), 0, poisoned, 9)  # a replacement still happens
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
    assert insert_one(mem, np.zeros((1, 2, 2)), 0, sig(1.0), 9).index == 2


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


# -- labels other than 0 or 1 -------------------------------------------------

def contents(mem):
    """Everything the memory holds, rows past its size included, as comparable values."""
    if mem.grams is None:
        return None
    rows = mem._rows
    return (len(mem), [rows[f].tobytes() for f in ("image", "label", "step", "distance")],
            rows["task_id"].tolist(), [g.tobytes() for g in mem.grams], mem._norms.tobytes())


@pytest.mark.parametrize("bad", [0.5, -1, 2])
@pytest.mark.parametrize("full", [False, True])
def test_a_label_other_than_0_or_1_is_refused_before_anything_is_stored(bad, full):
    # before the fix 0.5 was stored as 0, -1 became a third class, and 2 on a
    # full memory raised IndexError with the size already past the capacity
    mem = DynamicMemory(4)
    if full:
        fill_class(mem, 0, [1.0, 2.0])
        fill_class(mem, 1, [3.0, 4.0])
    before = contents(mem)
    with pytest.raises(ConfigError, match=f"got {bad!r}$"):
        insert_one(mem, np.zeros((1, 2, 2)), bad, sig(0.0), 9)
    with pytest.raises(ConfigError, match=f"got {bad!r}$"):
        mem.insert_batch(np.zeros((3, 1, 2, 2)), [0, bad, 1], [np.zeros((3, 1, 1))], 9)
    assert contents(mem) == before and len(mem) == (4 if full else 0)


# -- one update per batch against one insert per sample -------------------------

def insert_each(mem, images, labels, stacks, step, tasks):
    """The batch stored as one batch of one per sample; each replacement is
    checked against a scan over every same-class row first."""
    outcomes = []
    for i, label in enumerate(labels):
        signature = [g[i] for g in stacks]
        with np.errstate(invalid="ignore", over="ignore"):
            if np.count_nonzero(mem.items.label == label) >= mem.quota:
                want = scan_all(mem, label, signature)
            outcomes.append(insert_one(mem, images[i], label, signature, step, tasks[i]))
        if outcomes[-1].kind == "replaced":
            assert (outcomes[-1].index, np.float64(outcomes[-1].distance).tobytes()) == \
                (want[0], np.float64(want[1]).tobytes())
    return outcomes


def assert_batches_match_each_insert(capacity, batches, between=None):
    """Store `batches` of (labels, per-tap stacks) with insert_batch in one
    memory and a batch of one per sample in another: equal outcomes (kind, index,
    distance bits), items and per-tap stacks after every batch. Returns the
    outcomes."""
    batched, each = DynamicMemory(capacity), DynamicMemory(capacity)
    seen = []
    for step, (labels, stacks) in enumerate(batches):
        if between:
            between(batched, step)
            between(each, step)
        images = np.arange(len(labels) * 4.0).reshape(-1, 1, 2, 2) + 100 * step
        tasks = [f"t{step}.{i}" for i in range(len(labels))]
        with np.errstate(invalid="ignore", over="ignore"):
            got = batched.insert_batch(images, labels, stacks, step, tasks)
        want = insert_each(each, images, labels, stacks, step, tasks)
        assert [(o.kind, o.index, np.float64(o.distance).tobytes()) for o in got] == \
            [(o.kind, o.index, np.float64(o.distance).tobytes()) for o in want]
        assert contents(batched) == contents(each)
        seen.append(got)
    return seen


def gram_batch(rng, b, sizes=(8, 16, 32, 64)):
    """Per-tap (b, N, N) stacks of gram matrices of random feature maps."""
    return [gram_matrix(rng.standard_normal((b, n, 3, 3))) for n in sizes]


def evicted_batch_mates(outcomes):
    """How many replacements overwrote a row stored earlier in the same batch."""
    count = 0
    for batch in outcomes:
        written = set()
        for o in batch:
            count += o.kind == "replaced" and o.index in written
            written.add(o.index)
    return count


@pytest.mark.parametrize("capacity", [4, 10, 32])
def test_batches_match_each_insert_on_random_gram_signatures(capacity):
    rng = np.random.default_rng(20 + capacity)
    batches = [(rng.integers(0, 2, 8), gram_batch(rng, 8)) for _ in range(12)]
    assert evicted_batch_mates(assert_batches_match_each_insert(capacity, batches)) > 0


def test_batches_match_each_insert_on_near_duplicates():
    # scalar signatures on a coarse grid: many rows tie or nearly tie, and
    # later batch-mates often evict earlier ones
    rng = np.random.default_rng(21)
    batches = [(rng.integers(0, 2, 8), [rng.integers(0, 4, (8, 1, 1)) * 0.5])
               for _ in range(40)]
    assert evicted_batch_mates(assert_batches_match_each_insert(6, batches)) > 0


def test_a_class_that_fills_in_the_middle_of_a_batch():
    rng = np.random.default_rng(22)
    labels = [np.array([0, 0, 0, 1]), np.array([0, 1, 0, 0, 1])]
    outcomes = assert_batches_match_each_insert(8, [(y, gram_batch(rng, len(y))) for y in labels])
    assert [o.kind for o in outcomes[1]] == ["appended", "appended", "replaced", "replaced",
                                             "appended"]


def test_a_batch_breaks_ties_to_the_oldest_row():
    rng = np.random.default_rng(23)
    same = gram_batch(rng, 1)
    stacks = [np.repeat(g, 5, axis=0) for g in same]
    outcomes = assert_batches_match_each_insert(6, [(np.zeros(3, np.int64), [g[:3] for g in stacks]),
                                                    (np.zeros(5, np.int64), stacks)])
    # every stored row is at distance 0: each sample replaces row 0, its batch-mate's row
    assert [(o.kind, o.index, o.distance) for o in outcomes[1]] == [("replaced", 0, 0.0)] * 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_batch_with_a_non_finite_signature_takes_the_fallback(bad):
    rng = np.random.default_rng(24)
    batches = []
    for step in range(6):
        stacks = gram_batch(rng, 8, sizes=(8, 16))
        if step in (2, 4):
            stacks[1][3, 2, 5] = bad  # stored, then evicted or kept; read by batch-mates
        batches.append((np.array([0, 1] * 4), stacks))
    assert_batches_match_each_insert(6, batches)


def test_batches_match_each_insert_on_float32_signatures():
    rng = np.random.default_rng(25)
    base = gram_batch(rng, 1, sizes=(8, 16))
    batches = [(rng.integers(0, 2, 8),
                [(b + rng.standard_normal((8, *b.shape[1:])) * 1e-3).astype(np.float32)
                 for b in base]) for _ in range(10)]
    assert_batches_match_each_insert(8, batches)


def test_a_batch_after_refresh_reads_the_refreshed_rows():
    rng = np.random.default_rng(26)
    refreshed = gram_batch(rng, 8, sizes=(8, 16))

    def refresh(mem, step):
        if step % 2:
            mem.refresh_signatures(lambda images: [g[:len(images)] for g in refreshed],
                                   labels={step % 4 // 2})

    batches = [(rng.integers(0, 2, 8), gram_batch(rng, 8, sizes=(8, 16))) for _ in range(8)]
    assert_batches_match_each_insert(8, batches, between=refresh)


@pytest.mark.parametrize("capacity, size", [(2, 8), (4, 8), (6, 1), (32, 1)])
def test_batches_of_one_and_memories_smaller_than_a_batch(capacity, size):
    rng = np.random.default_rng(27 + capacity)
    batches = [(rng.integers(0, 2, size), gram_batch(rng, size)) for _ in range(40 // size)]
    assert_batches_match_each_insert(capacity, batches)


def test_a_bad_batch_is_refused_and_leaves_the_memory_unchanged():
    rng = np.random.default_rng(28)
    mem = DynamicMemory(6)
    mem.insert_batch(np.zeros((5, 1, 2, 2)), [0, 1, 0, 1, 0], gram_batch(rng, 5, (2, 3)), 0)
    before = contents(mem)
    good_images, good_labels = np.zeros((4, 1, 2, 2)), [0, 0, 1, 1]
    good = gram_batch(rng, 4, (2, 3))
    for images, labels, stacks, tasks, error in [
            (good_images, good_labels, good[:1], None, "mismatched layer structure"),
            (good_images, good_labels, [good[0], good[1][:3]], None, "mismatched layer structure"),
            (good_images, good_labels, [good[0], good[1][:, :2, :2]], None, "mismatched layer"),
            (np.zeros((4, 1, 3, 3)), good_labels, good, None, "image shape"),
            (np.zeros((3, 1, 2, 2)), good_labels, good, None, "image shape"),
            (good_images, [0, 0, 1, 3], good, None, "got 3"),
            (good_images, [0, 0, 1], good, None, "image shape"),
            (good_images, good_labels, good, ["a"] * 3, "3 tasks for 4 samples")]:
        with pytest.raises((ShapeError, ConfigError), match=error):
            mem.insert_batch(images, labels, stacks, 1, tasks)
        assert contents(mem) == before
    fresh = DynamicMemory(4)
    with pytest.raises(ShapeError, match="mismatched layer structure"):
        fresh.insert_batch(good_images, good_labels, [good[0], good[1][:3]], 0)
    assert fresh.grams is None and len(fresh) == 0
