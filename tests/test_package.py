import types

import pytest

import fstchar
from fstchar.admissible import character_oracle, degree_weight
from fstchar.charseries import CharSeries
from fstchar.fermionic import NSequences, flip_first, linear_term, pos
from fstchar.qseries import inv_pochhammer, pochhammer
from fstchar.recurrence import level_weights


def test_public_names_are_not_submodules():
    # a submodule imported after a function of the same name rebinds the
    # package attribute, so `from fstchar import *` would bind the module
    modules = [name for name in fstchar.__all__
               if isinstance(getattr(fstchar, name), types.ModuleType)]
    assert modules == []


@pytest.mark.parametrize("call, message", [
    (lambda: NSequences((1,), (1, 2)), "equal positive length"),
    (lambda: NSequences((), ()), "equal positive length"),
    (lambda: linear_term((1, 0, 0), NSequences((1, 1), (0, 0)), 4),
     "length must equal the level"),
    (lambda: pochhammer(-1, 5), "needs n >= 0"),
    (lambda: inv_pochhammer(-1, 5), "needs n >= 0"),
    (lambda: level_weights(0, 2), "need k >= 1 and l >= 1"),
    (lambda: level_weights(2, 0), "need k >= 1 and l >= 1"),
    (lambda: degree_weight((1,), 0), "need l >= 1"),
    (lambda: character_oracle((1, 0, 0), None, (2, 2)), "explicit q_order"),
    (lambda: CharSeries((-1, 2), 3), "must be >= 0"),
    (lambda: CharSeries((1, 1), 3, {(0,): [1, 0, 0, 0]}), "wrong arity"),
    (lambda: flip_first(1, 2, (0, 1)), "bit value must be 0 or 1"),
    (lambda: flip_first(-1, 0, (0, 1)), "flip count must be >= 0"),
    (lambda: pos(1, 0, (0, 1)), "occurrence index is 1-based"),
], ids=["nseq-lengths", "nseq-empty", "linear-term-length", "pochhammer",
        "inv-pochhammer", "level-zero", "rank-zero", "degree-weight-rank",
        "oracle-no-order", "charseries-caps", "charseries-arity",
        "flip-bit-value", "flip-count", "pos-occurrence"])
def test_documented_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
