"""Plain schedule text is read without ``json``; every other spelling goes to
``json.loads``, so its errors stay ``json``'s own, word for word."""

import json

import hypothesis
import hypothesis.strategies as st
import pytest

from blockpar import schedule
from blockpar.errors import ScheduleFormatError
from blockpar.schedule import _plain_oblocks, parse_schedule

#: JSON's whitespace, drawn between the tokens of generated text.
SPACE = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def plain_texts(draw):
    """Integer arrays in one array, negative numbers and empty o-blocks
    among them, with JSON whitespace between every two tokens.  There is at
    least one array: ``[]``, no schedule, goes to ``json``."""
    oblocks = draw(st.lists(st.lists(st.integers(-10**12, 10**12), max_size=5),
                            min_size=1, max_size=5))
    tokens = ["["]
    for b, block in enumerate(oblocks):
        tokens += [","] * (b > 0) + ["["]
        for i, index in enumerate(block):
            tokens += [","] * (i > 0) + [str(index)]
        tokens.append("]")
    tokens.append("]")
    return "".join(draw(SPACE) + token for token in tokens) + draw(SPACE)


@hypothesis.given(plain_texts())
def test_plain_text_reads_as_json_does(text):
    assert _plain_oblocks(text) == json.loads(text)


def _outcome(text: str):
    """What ``parse_schedule(text)`` returns, or the type and text it raises."""
    try:
        return parse_schedule(text).oblocks
    except (ScheduleFormatError, ValueError) as exc:
        return type(exc), str(exc)


def _through_json(text: str, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(schedule, "_plain_oblocks", lambda text: None)
        return _outcome(text)


@pytest.mark.parametrize("text", [
    "[[01]]", "[[0],[00,1]]", "[[+1]]", "[[1.0]]", "[[1e3]]", "[[1E3]]", "[[-0]]",
    "[[١]]", "[[0],[１]]", "[[true]]", "[[null]]", "[[[0]]]", "[[0],[[1]]]",
    "[[1 2]]", "[[- 1]]", "[[1_0]]", "[[0],\f[1]]", "[[0]] x", "[[0],", "[]", "{}",
])
def test_other_spellings_reach_json(text, monkeypatch):
    assert _plain_oblocks(text) is None
    assert _outcome(text) == _through_json(text, monkeypatch)


@hypothesis.given(st.text(alphabet="[],-+.0123456789eE \t\n\r\f١tr", max_size=16))
def test_any_text_parses_as_through_json(text):
    with pytest.MonkeyPatch.context() as patch:
        expected = _through_json(text, patch)
    assert _outcome(text) == expected
    plain = _plain_oblocks(text)
    assert plain is None or plain == json.loads(text)
