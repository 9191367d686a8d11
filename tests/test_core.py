import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnav.core import (
    ASPECT_KEYS,
    MAX_SCORE,
    NUM_ACTIONS,
    STATE_DIM,
    ActionKind,
    DatasetKind,
    ReasoningContext,
    StateVector,
    Transition,
    atomic_write,
    encode_state,
)


class TestActionEncoding:
    def test_indices_are_stable(self):
        assert [int(a) for a in ActionKind] == [0, 1, 2, 3, 4]
        assert int(ActionKind.REASON_ONE_STEP) == 0
        assert int(ActionKind.TERMINATE) == 4

    def test_round_trip(self):
        for a in ActionKind:
            assert ActionKind(int(a)) is a

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            ActionKind(bad)

    def test_counts(self):
        assert NUM_ACTIONS == len(ActionKind) == 5
        assert STATE_DIM == len(ASPECT_KEYS) == 7


class TestStateVector:
    def test_accepts_full_range(self):
        sv = StateVector(scores=(0, 1, 2, 3, 0, 1, 2))
        assert sv.scores == (0, 1, 2, 3, 0, 1, 2)

    @pytest.mark.parametrize(
        "scores",
        [(0,) * 6, (0,) * 8, (4, 0, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0, 0)],
    )
    def test_rejects_bad_shapes_and_ranges(self, scores):
        with pytest.raises(ValueError):
            StateVector(scores=scores)

    def test_frozen(self):
        sv = StateVector(scores=(0,) * 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sv.scores = (1,) * 7


class TestEncodeState:
    def test_extremes(self):
        lo = encode_state(StateVector(scores=(0,) * 7))
        hi = encode_state(StateVector(scores=(MAX_SCORE,) * 7))
        assert np.array_equal(lo, np.zeros(7))
        assert np.array_equal(hi, np.ones(7))

    def test_division_by_max_score(self):
        sv = StateVector(scores=(3, 3, 3, 0, 0, 0, 1))
        np.testing.assert_array_equal(
            encode_state(sv), np.array([1, 1, 1, 0, 0, 0, 1 / 3])
        )

    @given(st.tuples(*[st.integers(0, 3)] * 7))
    def test_always_unit_interval_float64(self, scores):
        vec = encode_state(StateVector(scores=scores))
        assert vec.dtype == np.float64
        assert vec.shape == (7,)
        assert np.all((vec >= 0.0) & (vec <= 1.0))


class TestReasoningContext:
    def test_with_step_appends_and_counts(self):
        ctx = ReasoningContext(
            problem="p", dataset_kind=DatasetKind.MATH_BOXED, steps=()
        )
        nxt = ctx.with_step("first", answer_present=False)
        nxt = nxt.with_step("second", answer_present=True)
        assert nxt.steps == ("first", "second")
        assert nxt.actions_taken == 2
        assert nxt.answer_present is True
        assert ctx.steps == () and ctx.actions_taken == 0

    def test_frozen(self):
        ctx = ReasoningContext(
            problem="p", dataset_kind=DatasetKind.YES_NO, steps=()
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.problem = "q"


class TestDatasetKind:
    def test_values_are_wire_names(self):
        assert DatasetKind.MATH_BOXED.value == "math_boxed"
        assert DatasetKind.ELEMENTARY_MATH_NUMERIC.value == "elementary_math_numeric"
        assert DatasetKind.MULTIPLE_CHOICE.value == "multiple_choice"
        assert DatasetKind.YES_NO.value == "yes_no"

    def test_constructible_from_value(self):
        assert DatasetKind("yes_no") is DatasetKind.YES_NO


def test_transition_is_frozen_record():
    s = StateVector(scores=(0,) * 7)
    t = Transition(
        state=s, action=ActionKind.TERMINATE, reward=0.5, next_state=s, done=True
    )
    assert t.reward == 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.reward = 0.9


def test_star_import_exports_every_public_name():
    import qnav

    namespace: dict = {}
    exec("from qnav import *", namespace)
    exported = {name for name in namespace if name != "__builtins__"}
    assert exported == set(qnav.__all__)
    for name in qnav.__all__:
        assert namespace[name] is getattr(qnav, name)


class TestAtomicWrite:
    def test_replaces_the_file_on_success(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("old")
        with atomic_write(path) as fh:
            fh.write("new")
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_failure_midway_keeps_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "wb") as fh:
                fh.write(b"half of the new")
                raise RuntimeError("crash while writing")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_failure_leaves_no_file_where_there_was_none(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(tmp_path / "a.tsv") as fh:
                fh.write("episode\n")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

